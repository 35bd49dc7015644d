//! The fleet layer: one cell, many file servers, volumes as the unit
//! of placement (§2.1).
//!
//! A [`Fleet`] wraps a [`Cell`] whose file servers each host a disjoint
//! subset of the volumes. The replicated VLDB is the authoritative
//! volume→server map (with per-entry generation numbers); servers
//! answer calls for volumes they do not host with `WrongServer` hints
//! (or forward token-free one-shots), and clients chase the hints
//! through their bounded location caches. On top of that routing fabric
//! this layer adds *placement policy*:
//!
//! * [`Fleet::create_volume`] spreads new volumes round-robin;
//! * [`Fleet::move_volume`] drives the live §2.1 migration (clients
//!   keep working through the bulk copy and keep their tokens across
//!   the switch);
//! * [`Fleet::rebalance`] reads the per-volume operation counters every
//!   server already maintains, picks the hottest volume on the busiest
//!   server, and moves it to the least-busy server.
//!
//! Lock discipline: the fleet's planning lock is ranked
//! `FLEET_REGISTRY`, *below* every server-side lock, because planning
//! inspects servers (their volume tables). It is never held
//! across an RPC — moves run with no fleet lock held at all.

use dfs_core::Cell;
use dfs_server::ServerStats;
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{DfsError, DfsResult, ServerId, VolumeId};
use std::collections::HashMap;

/// Per-server load observed by [`Fleet::load`]: total file ops and the
/// per-volume breakdown, as deltas since the previous observation.
#[derive(Clone, Debug)]
pub struct ServerLoad {
    /// Which server (its id, not slot index).
    pub server: ServerId,
    /// Volume-attributed file RPCs served since the last observation
    /// (the sum of `volume_ops`). Admin traffic — volume dumps,
    /// restores, token installs from a move in progress — is excluded,
    /// so a migration's own bookkeeping never reads as client load and
    /// ping-pongs the volume back.
    pub ops: u64,
    /// The per-volume breakdown of those ops.
    pub volume_ops: HashMap<VolumeId, u64>,
}

/// Fleet-wide placement planning state. Guarded at `FLEET_REGISTRY`;
/// never held across an RPC.
#[derive(Default)]
struct PlanState {
    /// Next slot for round-robin volume creation.
    next_slot: usize,
    /// Cumulative per-volume op counts at the last `load()` call, so
    /// observations are deltas (recent load, not lifetime totals).
    seen_volume_ops: HashMap<(ServerId, VolumeId), u64>,
    /// Volume moves this fleet has driven.
    moves: u64,
}

/// A volume-sharded cluster of file servers over one cell.
pub struct Fleet {
    cell: Cell,
    plan: OrderedMutex<PlanState, { rank::FLEET_REGISTRY }>,
}

impl Fleet {
    /// Wraps an already-built cell. Use `Cell::builder().servers(n)`
    /// to choose the fleet size.
    pub fn new(cell: Cell) -> Fleet {
        Fleet {
            cell,
            plan: OrderedMutex::new(PlanState::default()),
        }
    }

    /// Builds a fleet of `servers` file servers with cell defaults.
    pub fn start(servers: u32) -> DfsResult<Fleet> {
        Ok(Fleet::new(Cell::builder().servers(servers).build()?))
    }

    /// The underlying cell (clients, clock, crash injection).
    pub fn cell(&self) -> &Cell {
        &self.cell
    }

    /// Number of file servers.
    pub fn server_count(&self) -> usize {
        self.cell.server_count()
    }

    /// Volume moves driven through this fleet.
    pub fn moves(&self) -> u64 {
        self.plan.lock().moves
    }

    /// Fleet-wide server statistics: every live slot's counters summed
    /// (`volume_ops` merged per key). Crashed slots still answer — the
    /// stats handle is process-local — so nothing is silently dropped.
    pub fn aggregate_server_stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for i in 0..self.cell.server_count() {
            total.merge(&self.cell.server(i).stats());
        }
        total
    }

    /// The fleet's disk critical path: the largest simulated busy time
    /// (µs) across the per-server disks. Disks are the per-server
    /// bottleneck resource, so aggregate throughput experiments divide
    /// work done by this number (see EXPERIMENTS.md T15).
    pub fn disk_critical_path_us(&self) -> u64 {
        (0..self.cell.server_count())
            .map(|i| self.cell.server_disk_stats(i).busy_us)
            .max()
            .unwrap_or(0)
    }

    /// Maps a server id to its cell slot index.
    fn slot_of(&self, id: ServerId) -> DfsResult<usize> {
        for i in 0..self.cell.server_count() {
            if self.cell.server(i).id() == id {
                return Ok(i);
            }
        }
        Err(DfsError::NoSuchVolume)
    }

    /// The slot index currently hosting `volume`, per the VLDB.
    pub fn server_of(&self, volume: VolumeId) -> DfsResult<usize> {
        let id = self.cell.vldb().lookup(volume)?;
        self.slot_of(id)
    }

    /// Creates `volume` on the next server in round-robin order and
    /// returns the slot index it landed on.
    pub fn create_volume(&self, volume: VolumeId, name: &str) -> DfsResult<usize> {
        let slot = {
            let mut plan = self.plan.lock();
            let slot = plan.next_slot % self.cell.server_count();
            plan.next_slot += 1;
            slot
        };
        self.cell.create_volume(slot, volume, name)?;
        Ok(slot)
    }

    /// Live-migrates `volume` to the server in slot `dst` (§2.1): the
    /// bulk of the data ships while clients keep working; they are
    /// blocked only for the delta, and keep their tokens across the
    /// switch. A no-op if the volume already lives there.
    pub fn move_volume(&self, volume: VolumeId, dst: usize) -> DfsResult<()> {
        let src = self.server_of(volume)?;
        if src == dst {
            return Ok(());
        }
        self.cell.move_volume(src, dst, volume)?;
        self.plan.lock().moves += 1;
        Ok(())
    }

    /// Observes each server's load since the previous observation:
    /// total file ops and the per-volume breakdown, as deltas. This is
    /// the §2.1 "addressing problems of load balancing" signal — the
    /// counters already exist on every server; the fleet just reads
    /// and differences them.
    pub fn load(&self) -> Vec<ServerLoad> {
        // Snapshot all server stats first, with no fleet lock held.
        let snaps: Vec<(ServerId, ServerStats)> = (0..self.cell.server_count())
            .map(|i| {
                let srv = self.cell.server(i);
                (srv.id(), srv.stats())
            })
            .collect();
        let mut plan = self.plan.lock();
        snaps
            .into_iter()
            .map(|(id, stats)| {
                let mut volume_ops = HashMap::new();
                for (vol, count) in stats.volume_ops {
                    let prev_v =
                        plan.seen_volume_ops.insert((id, vol), count).unwrap_or(0);
                    let delta = count.saturating_sub(prev_v);
                    if delta > 0 {
                        volume_ops.insert(vol, delta);
                    }
                }
                let ops = volume_ops.values().sum();
                ServerLoad { server: id, ops, volume_ops }
            })
            .collect()
    }

    /// One rebalance pass: picks the hottest volume on the busiest
    /// server and moves it to the least-busy server. Returns what moved
    /// (volume, from-slot, to-slot), or `None` when the fleet is too
    /// small, idle, or already balanced enough for a move to be noise
    /// (the busiest server's load must exceed the least-busy's by more
    /// than the candidate volume's own load would correct).
    pub fn rebalance(&self) -> DfsResult<Option<(VolumeId, usize, usize)>> {
        if self.cell.server_count() < 2 {
            return Ok(None);
        }
        let loads = self.load();
        let busiest = loads.iter().max_by_key(|l| l.ops).expect("servers >= 2");
        let coldest = loads.iter().min_by_key(|l| l.ops).expect("servers >= 2");
        if busiest.server == coldest.server {
            return Ok(None);
        }
        // The hottest volume actually *hosted* by the busiest server —
        // its counters also count redirects for volumes it moved away.
        let mut candidates: Vec<(&VolumeId, &u64)> = busiest.volume_ops.iter().collect();
        candidates.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (&vol, &heat) in candidates {
            let Ok(src) = self.server_of(vol) else { continue };
            if self.cell.server(src).id() != busiest.server {
                continue;
            }
            // Moving `vol` shifts `heat` ops: only worth it while the
            // imbalance is larger than the shift.
            if busiest.ops.saturating_sub(coldest.ops) <= heat {
                return Ok(None);
            }
            let dst = self.slot_of(coldest.server)?;
            self.move_volume(vol, dst)?;
            return Ok(Some((vol, src, dst)));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_placement_and_lookup() {
        let fleet = Fleet::start(3).unwrap();
        let mut slots = Vec::new();
        for v in 1..=6u64 {
            slots.push(fleet.create_volume(VolumeId(v), &format!("vol{v}")).unwrap());
        }
        assert_eq!(slots, vec![0, 1, 2, 0, 1, 2]);
        for v in 1..=6u64 {
            assert_eq!(fleet.server_of(VolumeId(v)).unwrap(), ((v - 1) % 3) as usize);
        }
    }

    #[test]
    fn move_updates_placement() {
        let fleet = Fleet::start(2).unwrap();
        fleet.create_volume(VolumeId(1), "a").unwrap();
        assert_eq!(fleet.server_of(VolumeId(1)).unwrap(), 0);
        fleet.move_volume(VolumeId(1), 1).unwrap();
        assert_eq!(fleet.server_of(VolumeId(1)).unwrap(), 1);
        assert_eq!(fleet.moves(), 1);
        // Moving to where it already is: a no-op, not an error.
        fleet.move_volume(VolumeId(1), 1).unwrap();
        assert_eq!(fleet.moves(), 1);
    }

    #[test]
    fn rebalance_moves_the_hottest_volume_off_the_busiest_server() {
        let fleet = Fleet::start(2).unwrap();
        fleet.create_volume(VolumeId(1), "hot").unwrap(); // slot 0
        fleet.create_volume(VolumeId(2), "cold").unwrap(); // slot 1
        fleet.create_volume(VolumeId(3), "warm").unwrap(); // slot 0
        let c = fleet.cell().new_client();
        let hot_root = c.root(VolumeId(1)).unwrap();
        let warm_root = c.root(VolumeId(3)).unwrap();
        // Drive heavy traffic at volume 1, a trickle at volume 3:
        // server 0 is the busiest and volume 1 its hottest volume.
        for i in 0..30 {
            let f = c.create(hot_root, &format!("f{i}"), 0o644).unwrap();
            c.write(f.fid, 0, b"x").unwrap();
            c.fsync(f.fid).unwrap();
        }
        let w = c.create(warm_root, "w", 0o644).unwrap();
        c.write(w.fid, 0, b"y").unwrap();
        c.fsync(w.fid).unwrap();
        let moved = fleet.rebalance().unwrap();
        assert_eq!(moved, Some((VolumeId(1), 0, 1)));
        assert_eq!(fleet.server_of(VolumeId(1)).unwrap(), 1);
        // The move is transparent to the client.
        assert_eq!(c.read(w.fid, 0, 4).unwrap(), b"y");
        let f0 = c.lookup(hot_root, "f0").unwrap();
        assert_eq!(c.read(f0.fid, 0, 4).unwrap(), b"x");
    }

    #[test]
    fn load_reports_deltas_not_totals() {
        let fleet = Fleet::start(1).unwrap();
        fleet.create_volume(VolumeId(1), "v").unwrap();
        let c = fleet.cell().new_client();
        let root = c.root(VolumeId(1)).unwrap();
        let f = c.create(root, "f", 0o644).unwrap();
        c.write(f.fid, 0, b"z").unwrap();
        c.fsync(f.fid).unwrap();
        let first = fleet.load();
        assert!(first[0].ops > 0);
        // No traffic since: the next observation reports ~nothing.
        let second = fleet.load();
        assert_eq!(second[0].ops, 0);
        assert!(second[0].volume_ops.is_empty());
    }
}
