//! The write-behind pipeline (§4.2, §5.3; DESIGN.md §9): the dirty set
//! and its counter, extent coalescing, the background store daemon,
//! and **the store gate** — the only code in the client that builds a
//! `StoreDataVec` or a `StoreStatus`, and the one function that sends
//! them.
//!
//! Every store of a vnode, whoever asks for it — a revocation handler,
//! `fsync`, `close`, `setattr`, backpressure, a flusher pass, recovery
//! replay, shutdown — passes [`CacheManager::store_once`]: take the
//! vnode's **store slot**, snapshot, ship, merge the reply, clean,
//! release the slot. At most one store per vnode is ever on the wire,
//! and a later snapshot is sent only after the earlier one has been
//! acknowledged, so the order in which one file's store-backs reach
//! the server is the order in which they were snapshotted.

use super::*;
use dfs_vfs::WriteExtent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

/// Pages coalesced into one store-back extent (64 KB of 4 KB pages).
pub const STORE_EXTENT_PAGES: usize = 16;

/// Extents shipped per store-back RPC (one `StoreDataVec`).
const STORE_EXTENTS_PER_RPC: usize = 8;

/// Second tries one store gets outside the retry ladder's budget:
/// volume moves a revocation handler's store chases (`WrongServer`
/// redirects followed), and refusals any other store answers by taking
/// its token again.
const SECOND_TRIES: u32 = 8;

/// Tuning for the write-behind pipeline (the background flusher and its
/// dirty-page budget).
#[derive(Clone, Debug)]
pub struct WritebackConfig {
    /// Run the background flusher ("background store" daemon).
    pub flusher: bool,
    /// Flusher pass interval when idle.
    pub flush_interval: Duration,
    /// Dirty pages (client-wide) above which the flusher is kicked;
    /// above twice this budget the writing thread flushes synchronously
    /// (backpressure).
    pub dirty_budget_pages: usize,
}

impl Default for WritebackConfig {
    fn default() -> Self {
        WritebackConfig {
            flusher: true,
            flush_interval: Duration::from_millis(2),
            dirty_budget_pages: 256,
        }
    }
}

/// Wake/stop flags for the background flusher and its thread, guarded
/// at rank `CLIENT_FLUSHER` so writers may kick it while holding a vnode
/// `lo`.
#[derive(Default)]
pub(super) struct FlusherCtl {
    stop: bool,
    kicked: bool,
    /// The flusher thread, until `stop_flusher` takes it to join.
    daemon: Option<JoinHandle<()>>,
}

/// The client-wide half of the pipeline: the dirty-page counter and the
/// flusher daemon's controls. (The per-vnode half — the dirty set and
/// the store slot — lives in [`VnState`], under the vnode's `lo`.)
#[derive(Default)]
pub(super) struct Writeback {
    pub(super) cfg: WritebackConfig,
    /// Client-wide dirty-page count, maintained by `note_dirty` /
    /// `note_clean` so budget checks never walk the vnode table.
    pub(super) dirty_total: AtomicU64,
    pub(super) ctl: OrderedMutex<FlusherCtl, { rank::CLIENT_FLUSHER }>,
    pub(super) cv: OrderedCondvar,
}

/// What one pass through the store gate ships.
pub(crate) enum Store<'s> {
    /// Dirty pages overlapping the range (`None`: all of them), one
    /// batch per pass until none is left.
    Pages(Option<ByteRange>),
    /// The locally-updated length and mtime, if any (what a revoked
    /// `STATUS_WRITE` let us dirty; the data stays cached under the
    /// data token still held).
    DirtyStatus,
    /// A `setattr`.
    Attrs(&'s SetAttrs),
}

/// One batch on its way to the server: the request, the (page,
/// write_seq) tags to clean once it is acknowledged, and how many
/// extents the pages were coalesced into.
type Batch = (Request, Vec<(u64, u64)>, u64);

/// The pages a byte range touches (`None`: all of them).
pub(crate) fn pages_of(range: Option<ByteRange>) -> std::ops::RangeInclusive<u64> {
    let page = PAGE_SIZE as u64;
    range.map_or(0..=u64::MAX, |r| r.start / page..=r.end.saturating_sub(1) / page)
}

impl CacheManager {
    // ------------------------------------------------------------------
    // The dirty set
    // ------------------------------------------------------------------

    /// Marks `page` dirty with the given write sequence, maintaining the
    /// client-wide dirty-page counter.
    pub(crate) fn note_dirty(&self, lo: &mut VnState, page: u64, seq: u64) {
        if lo.dirty.insert(page, seq).is_none() {
            self.wb.dirty_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks `page` clean, maintaining the client-wide counter.
    pub(crate) fn note_clean(&self, lo: &mut VnState, page: u64) {
        if lo.dirty.remove(&page).is_some() {
            self.wb.dirty_total.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Forgets everything cached about a removed file: status, pages,
    /// and the dirty pages there is no longer anywhere to store.
    pub(crate) fn invalidate(&self, fid: Fid, lo: &mut VnState) {
        lo.status = None;
        lo.status_dirty = false;
        lo.valid.clear();
        let n = std::mem::take(&mut lo.dirty).len() as u64;
        self.wb.dirty_total.fetch_sub(n, Ordering::Relaxed);
        self.data.evict_file(fid);
    }

    /// Returns the number of dirty (unstored) pages for a fid.
    pub fn dirty_pages(&self, fid: Fid) -> usize {
        self.vnode(fid).lock_lo().dirty.len()
    }

    /// Client-wide count of dirty (unstored) pages, O(1).
    pub fn total_dirty_pages(&self) -> u64 {
        self.wb.dirty_total.load(Ordering::Relaxed)
    }

    /// The dirty-page budget (write-behind backpressure), checked by
    /// `write` once its pages are dirty: over budget, nudge the flusher;
    /// over twice the budget, say so — the writer pays for a flush of
    /// its own vnode.
    pub(crate) fn over_budget(&self) -> bool {
        let (dirty, budget) = (self.total_dirty_pages() as usize, self.wb.cfg.dirty_budget_pages);
        if !self.wb.cfg.flusher || dirty <= budget {
            return false;
        }
        if dirty > budget.saturating_mul(2) {
            self.stats.backpressure_flushes.add(1);
            return true;
        }
        self.wb.ctl.lock().kicked = true;
        self.wb.cv.notify_all();
        false
    }

    // ------------------------------------------------------------------
    // The store gate
    // ------------------------------------------------------------------

    /// Coalesces dirty pages (optionally restricted to `range`) into up
    /// to [`STORE_EXTENTS_PER_RPC`] contiguous extents of at most
    /// [`STORE_EXTENT_PAGES`] pages each, snapshotting page contents
    /// under the caller's `lo` guard, and returns the `StoreDataVec`
    /// carrying them with the (page, write_seq) tags needed to clean
    /// only un-re-dirtied pages afterwards. The last extent is clamped
    /// at EOF (partial final page); pages wholly beyond EOF or whose
    /// cached contents are gone are dropped from the dirty set on the
    /// spot.
    fn collect_extents(
        &self,
        fid: Fid,
        lo: &mut VnState,
        range: Option<ByteRange>,
    ) -> Option<Batch> {
        // The EOF as the local writer sees it now: extents are clamped
        // against the same status the dirty-set snapshot comes from.
        let eof = lo.status.as_ref().map_or(u64::MAX, |s| s.length);
        let snapshot: Vec<(u64, u64)> =
            lo.dirty.range(pages_of(range)).map(|(&p, &s)| (p, s)).collect();
        let mut extents: Vec<WriteExtent> = Vec::new();
        let mut pages = Vec::new();
        for (p, seq) in snapshot {
            let offset = p * PAGE_SIZE as u64;
            let len = (PAGE_SIZE as u64).min(eof.saturating_sub(offset)) as usize;
            // Truncated past this page since it was dirtied, or its
            // contents evicted from the cache: nothing left to store.
            let Some(bytes) = self.data.read_page(fid, p).filter(|_| len > 0) else {
                self.note_clean(lo, p);
                continue;
            };
            // Append when contiguous with the previous page and under
            // the extent budget; a partial (EOF) page never matches the
            // byte-contiguity check, so it always ends its extent.
            let full = extents.len() == STORE_EXTENTS_PER_RPC;
            match extents.last_mut() {
                Some(e)
                    if e.offset + e.data.len() as u64 == offset
                        && e.data.len() < STORE_EXTENT_PAGES * PAGE_SIZE =>
                {
                    e.data.extend_from_slice(&bytes[..len]);
                }
                _ if full => break,
                _ => extents.push(WriteExtent { offset, data: bytes[..len].to_vec() }),
            }
            pages.push((p, seq));
        }
        if extents.is_empty() {
            return None;
        }
        let n = extents.len() as u64;
        Some((Request::StoreDataVec { fid, extents }, pages, n))
    }

    /// Snapshots `what` under the caller's `lo` guard into the one wire
    /// request that carries it, or `None` when there is nothing to ship.
    fn snapshot(&self, fid: Fid, lo: &mut VnState, what: &Store<'_>) -> Option<Batch> {
        let attrs = match what {
            Store::Pages(range) => return self.collect_extents(fid, lo, *range),
            Store::DirtyStatus => {
                let st = lo.status.as_ref().filter(|_| lo.status_dirty)?;
                SetAttrs { length: Some(st.length), mtime: Some(st.mtime), ..SetAttrs::default() }
            }
            Store::Attrs(attrs) => (*attrs).clone(),
        };
        Some((Request::StoreStatus { fid, attrs }, Vec::new(), 0))
    }

    /// **The store routine** — snapshot → ship → merge → clean, under
    /// the vnode's store slot (contract in DESIGN.md §9). Returns `None`
    /// when there was nothing to ship, else the attempt's placement and
    /// raw outcome; a `Status` outcome has been merged — stamp order
    /// (§6.3) — and its pages cleaned.
    ///
    /// `held` is the single difference between the two kinds of caller.
    /// A revocation handler keeps `lo` across the send: the server is
    /// waiting on it, and nothing may change under the token being
    /// given up. Everyone else releases `lo` (counted in `in_flight`,
    /// like any client RPC), so writers proceed while the store is in
    /// flight: a page re-dirtied meanwhile no longer matches its
    /// snapshot's `write_seq`, stays dirty, and goes out on a later
    /// pass — which the slot orders after this one.
    ///
    /// The send itself travels in the reserved class (§6.4): the server
    /// serves that class grant-free on its dedicated pool, so the reply
    /// can never wait on a revocation — which is what lets a revocation
    /// handler wait on the slot this call is made under. One send, no
    /// backoff, no second attempt: the slot is held for exactly this
    /// long.
    // dfs-lint: allow(guard-across-rpc) — a revocation handler holds its
    // vnode's `lo` across the send (the server is waiting on that very
    // handler); every other caller makes it inside `LoGuard::unlocked`.
    // Safe only because the reserved class is served grant-free (§6.3):
    // the reply cannot block on a further revocation aimed back at us.
    fn store_once(&self, lo: &mut LoGuard<'_>, what: &Store<'_>, held: bool) -> Option<Sent> {
        let vn = lo.vn;
        // A waiting handler's store goes ahead of everyone else's (§6.4).
        while lo.storing || (!held && lo.revoking > 0) {
            lo.wait(&vn.store_cv);
        }
        let (req, pages, n_extents) = self.snapshot(vn.fid, lo, what)?;
        let n_pages = pages.len() as u64;
        if !held && n_pages > 0 {
            self.stats.storeback_rpcs.add(1);
            self.stats.storeback_extents.add(n_extents);
            self.stats.storeback_pages.add(n_pages);
        }
        lo.storing = true;
        let send = || self.send(vn.fid.volume, CallClass::Revocation, req);
        let sent = if held { send() } else { lo.unlocked(send) };
        lo.storing = false;
        vn.store_cv.notify_all();
        if let Ok(Response::Status { status, stamp, .. }) = &sent.1 {
            // Only a successful push cleans the flag: a failed one
            // keeps the status dirty for a later store to retry.
            if matches!(what, Store::DirtyStatus) {
                lo.status_dirty = false;
            }
            self.merge_status(lo, status.clone(), *stamp);
            // Clean only pages unchanged since the snapshot.
            for (p, seq) in pages {
                if lo.dirty.get(&p) == Some(&seq) {
                    self.note_clean(lo, p);
                }
            }
            if held {
                self.stats.revocation_stores.add(n_pages);
            }
        }
        Some(sent)
    }

    /// Stores `what` from inside a revocation handler, `lo` held
    /// throughout. No retry ladder — the server is waiting on this very
    /// handler, so the first failure is the answer — only a bounded
    /// chase across volume moves, so a store-back is never dropped on a
    /// `WrongServer`.
    pub(crate) fn store_held(&self, lo: &mut LoGuard<'_>, what: Store<'_>) -> DfsResult<()> {
        let mut hops = 0;
        while let Some((_, outcome)) = self.store_once(lo, &what, true) {
            match outcome {
                Ok(Response::WrongServer { hint, generation }) if hops < SECOND_TRIES => {
                    self.follow_redirect(lo.vn.fid.volume, hint, generation);
                    hops += 1;
                }
                outcome => drop(status_reply(outcome?.into_result()?)?),
            }
        }
        Ok(())
    }

    /// Stores `what` of `vn` for every caller that is not a revocation
    /// handler; the caller holds no `lo`. Returns the status the last
    /// store was answered with (`None`: nothing was shipped).
    ///
    /// Each pass through the gate is one attempt of the retry ladder
    /// (DESIGN.md §10), which therefore runs between passes — never
    /// inside the slot: a backoff sleep or a grace wait made under it
    /// would be charged to whichever revocation handler is waiting. And
    /// every attempt takes a fresh snapshot, so a retry can never carry
    /// older bytes past a newer store.
    pub(crate) fn store_vnode(
        &self,
        vn: &CVnode,
        what: Store<'_>,
    ) -> DfsResult<Option<FileStatus>> {
        let (mut last, mut refusals) = (None, 0);
        loop {
            let reply = self.ladder(vn.fid.volume, None, || {
                let mut lo = vn.lock_lo();
                let sent = self.store_once(&mut lo, &what, false)?;
                // Revocations may have queued while `lo` was free (§6.3).
                self.absorb(&mut lo, None, Vec::new());
                Some(sent)
            })?;
            let Some(reply) = reply else { return Ok(last) };
            match reply.into_result().and_then(status_reply) {
                // A batch of pages is followed by the next one.
                Ok((status, ..)) if matches!(what, Store::Pages(_)) => last = Some(status),
                Ok((status, ..)) => return Ok(Some(status)),
                Err(DfsError::TokenRevoked) if refusals < SECOND_TRIES => {
                    refusals += 1;
                    self.retake(vn)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// A store of ours was refused: the server does not show us holding
    /// the write token we sent it under, and a store is never granted
    /// one. Either the server restarted — the probe finds the new epoch
    /// and runs recovery, which reestablishes our tokens and replays the
    /// dirty pages — or the token was taken while we could not be
    /// reached. The server took the whole token, read bits included, and
    /// a writer may have changed the file since: forget every data and
    /// status bit we held on this vnode — lock and open bits stay, and
    /// so do the dirty pages — drop the clean pages nothing covers now
    /// (the one validity rule, [`drop_uncovered`]), and take the write
    /// token again by the normal path, revoking whoever holds it now
    /// (over the whole file: the simplest claim, on a path this rare).
    ///
    /// [`drop_uncovered`]: CacheManager::drop_uncovered
    fn retake(&self, vn: &CVnode) -> DfsResult<()> {
        let seen = self.stats.recoveries.get();
        self.probe_epoch(self.server_for(vn.fid.volume)?);
        if self.stats.recoveries.get() != seen {
            return Ok(());
        }
        let mut lo = vn.lock_lo();
        lo.tokens.iter_mut().for_each(|t| t.types = t.types.minus(WRITE_GRANT));
        lo.tokens.retain(|t| !t.types.is_empty());
        self.drop_uncovered(vn.fid, &mut lo, None, false);
        self.get_token(&mut lo, WRITE_GRANT, ByteRange::WHOLE)
    }

    /// Stores every dirty page of every vnode back to its server.
    pub fn store_back_all(&self) -> DfsResult<()> {
        let targets: Vec<Arc<CVnode>> = self.vnodes.lock().values().cloned().collect();
        // Every vnode is tried before any store is judged; the first
        // failure is the one reported.
        let stored: Vec<DfsResult<()>> =
            targets.iter().map(|vn| self.store_vnode(vn, Store::Pages(None)).map(drop)).collect();
        stored.into_iter().collect()
    }

    // ------------------------------------------------------------------
    // The background store daemon
    // ------------------------------------------------------------------

    /// Starts the flusher thread, if configured.
    pub(crate) fn spawn_flusher(cm: &Arc<CacheManager>) {
        if !cm.wb.cfg.flusher {
            return;
        }
        let weak = Arc::downgrade(cm);
        let handle = std::thread::Builder::new()
            .name(format!("dfs-flusher-{}", cm.id.0))
            .spawn(move || Self::flusher_main(weak))
            .expect("spawn flusher");
        cm.wb.ctl.lock().daemon = Some(handle);
    }

    /// The background store daemon: wakes on a timer or a kick and runs
    /// one [`flush_pass`]. It takes no vnode `hi` lock ever, and drops
    /// its control lock before flushing, so it can never hold a guard
    /// across an RPC send.
    ///
    /// [`flush_pass`]: CacheManager::flush_pass
    fn flusher_main(weak: Weak<CacheManager>) {
        loop {
            // Upgrade per iteration: holding only a weak reference lets
            // the cache manager be dropped while the daemon sleeps.
            let Some(cm) = weak.upgrade() else { return };
            let mut ctl = cm.wb.ctl.lock();
            if !ctl.stop && !ctl.kicked {
                cm.wb.cv.wait_for(&mut ctl, cm.wb.cfg.flush_interval);
            }
            if ctl.stop {
                return;
            }
            ctl.kicked = false;
            drop(ctl);
            let _ = cm.flush_pass();
        }
    }

    /// One pass of the background store daemon, callable directly:
    /// stores back every dirty page of every vnode. Tests drive the
    /// daemon as an actor with this instead of waiting for its timer.
    /// No pass starts while the recovery pipeline runs — it is
    /// reestablishing the tokens the stores would go under — so this
    /// waits at the recovery gate first.
    pub fn flush_pass(&self) -> DfsResult<()> {
        drop(self.recovery_gate.lock());
        if self.total_dirty_pages() == 0 {
            return Ok(());
        }
        self.stats.flusher_passes.add(1);
        self.store_back_all()
    }

    /// Stops the flusher thread and waits for it — unless this *is* the
    /// flusher thread, which may be the one dropping the last handle to
    /// the cache manager. Idempotent.
    pub(crate) fn stop_flusher(&self) {
        let daemon = {
            let mut ctl = self.wb.ctl.lock();
            ctl.stop = true;
            ctl.daemon.take()
        };
        let Some(daemon) = daemon else { return };
        self.wb.cv.notify_all();
        if daemon.thread().id() != std::thread::current().id() {
            let _ = daemon.join();
        }
    }

    /// Stops the background flusher and stores back anything still
    /// dirty. Idempotent.
    pub fn shutdown(&self) -> DfsResult<()> {
        self.stop_flusher();
        self.store_back_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cell_with_file, client, served_cell_with_file, S1};
    use std::sync::atomic::AtomicU32;

    /// Stands in front of a service: `hook` sees every request first,
    /// and answers it or lets it through.
    struct Tap<F> {
        inner: Arc<dyn RpcService>,
        hook: F,
    }

    impl<F: Fn(&Request) -> Option<Response> + Send + Sync> RpcService for Tap<F> {
        fn dispatch(&self, ctx: CallContext, req: Request) -> Response {
            (self.hook)(&req).unwrap_or_else(|| self.inner.dispatch(ctx, req))
        }
    }

    #[test]
    fn stores_are_built_and_sent_nowhere_else_in_the_client() {
        let elsewhere =
            [("lib.rs", include_str!("lib.rs")), ("cache.rs", include_str!("cache.rs"))];
        for (file, src) in elsewhere {
            for what in ["Request::Store", "CallClass::Revocation"] {
                assert!(!src.contains(what), "{file} mentions {what}: stores belong to the gate");
            }
        }
    }

    #[test]
    fn the_slot_is_free_whenever_the_ladder_waits() {
        let (net, server, _, fid) = served_cell_with_file();
        let cm = client(&net, 2, Arc::new(MemCache::new()));
        cm.write(fid, 0, &[8u8; PAGE_SIZE]).unwrap();
        // The first store meets a grace window. What the ladder does
        // about that — probe the server's epoch, back off — it must do
        // outside the slot. The probe is an RPC, so the tap can look at
        // the client's vnode while the ladder is between attempts.
        let (stores, seen) = (AtomicU32::new(0), Arc::new(parking_lot::Mutex::new(Vec::new())));
        let (peer, log) = (cm.clone(), seen.clone());
        let hook = move |req: &Request| match req {
            Request::StoreDataVec { .. } if stores.fetch_add(1, Ordering::SeqCst) == 0 => {
                Some(Response::Err(DfsError::GraceWait))
            }
            Request::GetEpoch => {
                let vn = peer.vnode(fid);
                let lo = vn.lock_lo();
                log.lock().push((lo.storing, lo.in_flight, lo.dirty.len()));
                None
            }
            _ => None,
        };
        net.register(
            Addr::Server(S1),
            Arc::new(Tap { inner: server, hook }),
            PoolConfig::default(),
        );

        cm.fsync(fid).unwrap();
        assert_eq!(*seen.lock(), [(false, 0, 1)], "slot free, nothing in flight, page still dirty");
        let st = cm.stats();
        assert_eq!((st.grace_waits, st.backoff_rounds, st.storeback_rpcs), (1, 1, 2));
        assert_eq!(cm.dirty_pages(fid), 0);
    }

    #[test]
    fn a_handler_woken_from_the_slot_wait_looks_its_token_up_again() {
        let (net, _, fid) = cell_with_file();
        let cm = client(&net, 2, Arc::new(MemCache::new()));
        cm.write(fid, 0, &[8u8; PAGE_SIZE]).unwrap();
        let vn = cm.vnode(fid);
        let token = vn.lock_lo().tokens[0].clone();
        // A store of the vnode is on the wire: the slot is taken.
        vn.lock_lo().storing = true;
        // The same revocation arrives twice (a duplicated delivery);
        // both handlers wait for the slot.
        let handlers: Vec<_> = (0..2)
            .map(|_| {
                let (cm, token) = (cm.clone(), token.clone());
                std::thread::spawn(move || {
                    let types = token.types;
                    cm.handle_revocation(token, types, SerializationStamp(99))
                })
            })
            .collect();
        while cm.stats().revocations < 2 {
            std::thread::yield_now();
        }
        // Both have arrived; let them get as far as the wait. (Should
        // one not have, the test passes having raced less.)
        for _ in 0..1000 {
            std::thread::yield_now();
        }
        // The store lands. The first handler through stores the page
        // and strips the token; the second finds it gone — an index
        // looked up before the wait would now be out of bounds.
        vn.lock_lo().storing = false;
        vn.store_cv.notify_all();
        for h in handlers {
            assert!(h.join().expect("a handler panicked"), "both deliveries answer `returned`");
        }
        assert_eq!(cm.stats().revocation_stores, 1, "the page was stored exactly once");
        let lo = vn.lock_lo();
        assert!(lo.tokens.is_empty() && lo.revoking == 0 && !lo.storing);
    }
}
