//! The server's volume table (§3.4 volume registry): one entry per
//! volume this server knows anything about, one lock, one state machine
//! (DESIGN.md §11 has the diagram). No entry = unknown here.
//!
//! [`Volumes::admit`] answers everything a file RPC needs on entry —
//! served here? in a blackout? moved where? — in one critical section
//! that also counts the call in-flight. Counting and reading the state
//! under the same lock is what lets [`Volumes::drain`] trust a zero: a
//! racing call either was counted before the blackout began (the drain
//! waits for it) or sees `Blackout` and bounces.

use dfs_rpc::CallClass;
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{DfsError, DfsResult, ServerId, Timestamp, VolumeId};
use dfs_vfs::VfsPlus;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum State {
    /// Restored by an in-progress move but not yet handed over: the
    /// VLDB still names the source, so calls here keep being redirected
    /// (a stale client hint must never read — let alone write — the
    /// phase-1 snapshot).
    #[default]
    Staged,
    /// Hosted and open for file calls.
    Serving,
    /// Hosted, but a move (or delete) is bouncing normal-class file
    /// calls with retryable `VolumeBusy` (§2.1).
    Blackout,
    /// Moved away by this server: the hint answered in `WrongServer`
    /// without a VLDB round trip (§2.1).
    Moved { to: ServerId, generation: u64 },
}

/// A §3.8 lazy-replication job for a volume served read-only here.
struct Replica {
    source: ServerId,
    max_staleness_us: u64,
    last_refresh: Timestamp,
    base_version: u64,
    /// The master changed: our whole-volume token was revoked.
    dirty: bool,
}

#[derive(Default)]
struct Vol {
    state: State,
    /// Cached mount; dropped whenever the physical volume is replaced.
    mount: Option<Arc<dyn VfsPlus>>,
    /// File RPCs currently executing — drained by a blackout so the
    /// delta dump sees no in-flight mutation.
    inflight: u64,
    /// File RPCs served, ever (kept through `Moved`: `Cell::load`
    /// differences it).
    ops: u64,
    replica: Option<Replica>,
}

impl Vol {
    fn hosted(&self) -> bool {
        matches!(self.state, State::Serving | State::Blackout)
    }
}

/// [`Volumes::admit`]'s verdict on a file call.
pub(crate) enum Admit<'a> {
    /// Not served here; the route note if this server moved it away.
    NotHosted(Option<(ServerId, u64)>),
    /// Served here, but the caller is shut out by the grace window.
    Grace,
    /// Served here, but in a blackout.
    Busy,
    /// Admitted, and counted in-flight until the guard drops.
    Serve(Admitted<'a>),
}

pub(crate) struct Admitted<'a> {
    volumes: &'a Volumes,
    volume: VolumeId,
    /// The volume's mount, if it is cached ([`Volumes::mount`] if not).
    pub(crate) fs: Option<Arc<dyn VfsPlus>>,
    /// When the answering replica last refreshed (`None`: primary).
    pub(crate) replica_refreshed: Option<Timestamp>,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        // Saturating: `VolDelete` may have removed (and `VolCreate`
        // re-made) the entry under a revocation-class call.
        self.volumes.with(self.volume, |vol| vol.inflight = vol.inflight.saturating_sub(1));
    }
}

pub(crate) struct Volumes {
    table: OrderedMutex<HashMap<VolumeId, Vol>, { rank::VOLUME_REGISTRY }>,
}

impl Volumes {
    pub(crate) fn new() -> Volumes {
        Volumes { table: OrderedMutex::new(HashMap::new()) }
    }

    fn with<R>(&self, volume: VolumeId, f: impl FnOnce(&mut Vol) -> R) -> Option<R> {
        self.table.lock().get_mut(&volume).map(f)
    }

    /// Runs `f` on `volume`'s entry, made (staged) if there is none.
    fn with_entry(&self, volume: VolumeId, f: impl FnOnce(&mut Vol)) {
        f(self.table.lock().entry(volume).or_default())
    }

    /// Routes and gates one file call. Precedence: a volume not hosted
    /// here is the owner's business whatever else is going on; then the
    /// grace gate (`gated`, decided by the caller); then the blackout,
    /// which revocation-class calls pass — the move's own quiescing is
    /// waiting on those store-backs.
    pub(crate) fn admit(&self, volume: VolumeId, class: CallClass, gated: bool) -> Admit<'_> {
        let mut table = self.table.lock();
        let vol = match table.get_mut(&volume) {
            Some(vol) if vol.hosted() => vol,
            Some(Vol { state: State::Moved { to, generation }, .. }) => {
                return Admit::NotHosted(Some((*to, *generation)))
            }
            _ => return Admit::NotHosted(None),
        };
        if gated {
            return Admit::Grace;
        }
        if vol.state == State::Blackout && class != CallClass::Revocation {
            return Admit::Busy;
        }
        vol.inflight += 1;
        vol.ops += 1;
        let replica_refreshed = vol.replica.as_ref().map(|r| r.last_refresh);
        Admit::Serve(Admitted { volumes: self, volume, fs: vol.mount.clone(), replica_refreshed })
    }

    /// Starts serving `volume`: found on disk at start, created, cloned,
    /// or handed over by a move (`Staged` → `Serving`).
    pub(crate) fn serve(&self, volume: VolumeId) {
        self.with_entry(volume, |vol| vol.state = State::Serving);
    }

    /// A dump was restored over `volume`, so any cached mount is stale.
    /// Unless the volume is already served here, the copy stays staged
    /// until the move hands it over.
    pub(crate) fn restored(&self, volume: VolumeId) {
        self.with_entry(volume, |vol| {
            vol.mount = None;
            if !vol.hosted() {
                vol.state = State::Staged;
            }
        });
    }

    /// Forgets a staged copy (aborted move); false if there is none.
    pub(crate) fn discard_staged(&self, volume: VolumeId) -> bool {
        let mut table = self.table.lock();
        let staged = table.get(&volume).is_some_and(|v| v.state == State::Staged);
        if staged {
            table.remove(&volume);
        }
        staged
    }

    pub(crate) fn hosts(&self, volume: VolumeId) -> bool {
        self.with(volume, |vol| vol.hosted()).unwrap_or(false)
    }

    /// `Serving` → `Blackout`.
    pub(crate) fn begin_blackout(&self, volume: VolumeId) -> DfsResult<()> {
        let began = self.with(volume, |vol| match vol.state {
            State::Serving => {
                vol.state = State::Blackout;
                Ok(())
            }
            State::Blackout => Err(DfsError::VolumeBusy),
            _ => Err(DfsError::NoSuchVolume),
        });
        began.unwrap_or(Err(DfsError::NoSuchVolume))
    }

    /// `Blackout` → `Serving` (the move failed; the volume stays).
    pub(crate) fn end_blackout(&self, volume: VolumeId) {
        self.with(volume, |vol| {
            if vol.state == State::Blackout {
                vol.state = State::Serving;
            }
        });
    }

    /// Waits for the file calls admitted before the blackout to finish.
    pub(crate) fn drain(&self, volume: VolumeId) {
        while self.with(volume, |vol| vol.inflight > 0).unwrap_or(false) {
            std::thread::yield_now();
        }
    }

    /// The volume now lives on `to`: stop hosting it and keep the route
    /// note (and the op count).
    pub(crate) fn moved_away(&self, volume: VolumeId, to: ServerId, generation: u64) {
        self.with(volume, |vol| {
            vol.state = State::Moved { to, generation };
            vol.mount = None;
            vol.replica = None;
        });
    }

    /// Forgets `volume` entirely (`VolDelete`).
    pub(crate) fn remove(&self, volume: VolumeId) {
        self.table.lock().remove(&volume);
    }

    /// The mounted file system of a hosted volume, mounted with `mount`
    /// on first use.
    pub(crate) fn mount(
        &self,
        volume: VolumeId,
        mount: impl FnOnce() -> DfsResult<Arc<dyn VfsPlus>>,
    ) -> DfsResult<Arc<dyn VfsPlus>> {
        let mut table = self.table.lock();
        let vol = table.get_mut(&volume).filter(|v| v.hosted()).ok_or(DfsError::NoSuchVolume)?;
        if vol.mount.is_none() {
            vol.mount = Some(mount()?);
        }
        Ok(vol.mount.clone().expect("mounted just above"))
    }

    /// Starts serving `volume` as a replica of `source`'s copy at
    /// `base_version`, fetched at `last_refresh`.
    pub(crate) fn add_replica(
        &self,
        volume: VolumeId,
        source: ServerId,
        max_staleness_us: u64,
        last_refresh: Timestamp,
        base_version: u64,
    ) {
        let job = Replica { source, max_staleness_us, last_refresh, base_version, dirty: false };
        self.with_entry(volume, |vol| {
            vol.state = State::Serving;
            vol.replica = Some(job);
        });
    }

    /// Replicas due a refresh at `now`, as `(volume, source, base
    /// version)`. Lazy: only when the master is known to have changed
    /// (our whole-volume token was revoked) *and* the staleness budget
    /// is spent — an unchanged master costs no refresh traffic (§3.8).
    pub(crate) fn replicas_due(&self, now: Timestamp) -> Vec<(VolumeId, ServerId, u64)> {
        let table = self.table.lock();
        let mut due: Vec<_> = table
            .iter()
            .filter_map(|(volume, vol)| {
                let r = vol.replica.as_ref()?;
                (r.dirty && now.micros_since(r.last_refresh) >= r.max_staleness_us)
                    .then_some((*volume, r.source, r.base_version))
            })
            .collect();
        due.sort_unstable_by_key(|(volume, ..)| *volume);
        due
    }

    /// A refresh pass for `volume` reached `base_version` at `now`.
    pub(crate) fn refreshed(&self, volume: VolumeId, now: Timestamp, base_version: u64) {
        self.with(volume, |vol| {
            if let Some(r) = &mut vol.replica {
                (r.last_refresh, r.base_version, r.dirty) = (now, base_version, false);
            }
        });
    }

    /// The master revoked our whole-volume token on `volume`.
    pub(crate) fn mark_dirty(&self, volume: VolumeId) {
        self.with(volume, |vol| {
            if let Some(r) = &mut vol.replica {
                r.dirty = true;
            }
        });
    }

    /// File RPCs served per volume (volumes never served are omitted).
    pub(crate) fn op_counts(&self) -> HashMap<VolumeId, u64> {
        let table = self.table.lock();
        table.iter().filter(|(_, v)| v.ops > 0).map(|(id, v)| (*id, v.ops)).collect()
    }
}

#[cfg(test)]
impl Volumes {
    pub(crate) fn inflight(&self, volume: VolumeId) -> u64 {
        self.with(volume, |vol| vol.inflight).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    const V: VolumeId = VolumeId(7);

    fn serve(volumes: &Volumes, class: CallClass) -> Admitted<'_> {
        match volumes.admit(V, class, false) {
            Admit::Serve(admitted) => admitted,
            _ => panic!("not admitted"),
        }
    }

    #[test]
    fn drain_waits_for_calls_admitted_before_the_blackout() {
        let volumes = Volumes::new();
        volumes.serve(V);
        let early = serve(&volumes, CallClass::Normal);
        volumes.begin_blackout(V).unwrap();
        // After the blackout began: normal calls bounce uncounted,
        // revocation-class store-backs are admitted and counted.
        assert!(matches!(volumes.admit(V, CallClass::Normal, false), Admit::Busy));
        let store_back = serve(&volumes, CallClass::Revocation);
        assert_eq!(volumes.inflight(V), 2);

        let drained = AtomicBool::new(false);
        let (started, wait_started) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                started.send(()).unwrap();
                volumes.drain(V);
                drained.store(true, Ordering::SeqCst);
            });
            wait_started.recv().unwrap();
            drop(store_back);
            // One guard is still alive: however long the drainer gets
            // to run, it must not come back.
            for _ in 0..10_000 {
                std::thread::yield_now();
                assert!(!drained.load(Ordering::SeqCst), "drain returned under a live guard");
            }
            drop(early);
        });
        assert!(drained.load(Ordering::SeqCst));
        assert_eq!(volumes.inflight(V), 0);
    }

    #[test]
    fn a_volume_is_in_one_state_and_its_op_count_outlives_a_move() {
        let volumes = Volumes::new();
        assert!(matches!(volumes.admit(V, CallClass::Normal, false), Admit::NotHosted(None)));
        volumes.restored(V);
        assert!(!volumes.hosts(V), "a staged copy is never hosted");
        assert!(matches!(volumes.admit(V, CallClass::Revocation, false), Admit::NotHosted(None)));
        assert_eq!(volumes.begin_blackout(V), Err(DfsError::NoSuchVolume));
        volumes.serve(V);
        assert!(!volumes.discard_staged(V), "a promoted copy is not discarded");
        drop(serve(&volumes, CallClass::Normal));
        drop(serve(&volumes, CallClass::Normal));
        volumes.restored(V);
        assert!(volumes.hosts(V), "a restore over a served volume (replica refresh) demoted it");
        volumes.begin_blackout(V).unwrap();
        assert_eq!(volumes.begin_blackout(V), Err(DfsError::VolumeBusy));
        volumes.moved_away(V, ServerId(2), 5);
        volumes.end_blackout(V);
        assert!(matches!(
            volumes.admit(V, CallClass::Normal, false),
            Admit::NotHosted(Some((ServerId(2), 5)))
        ));
        assert_eq!(volumes.op_counts().get(&V), Some(&2));
        volumes.remove(V);
        assert!(volumes.op_counts().is_empty());
    }
}
