//! Cell assembly: the whole DEcorum file system, wired together.
//!
//! The paper's system is a *cell*: file servers exporting Episode
//! aggregates, a replicated volume location database, a Kerberos-style
//! authentication server, and client cache managers — all speaking the
//! NCS-style RPC protocol. [`Cell`] builds that world on a simulated
//! network and simulated disks so a laptop can run experiments that the
//! authors ran on a machine room.
//!
//! Volumes are the unit of placement (§2.1) and the replicated VLDB is
//! the one map of where each lives (§3.4): [`Cell::server_of`] reads it,
//! [`Cell::move_volume`] live-migrates a volume to another slot, and
//! [`Cell::load`] / [`Cell::rebalance`] difference the per-volume op
//! counters every server keeps to move the hottest volume off the
//! busiest server. No cell lock is held across an RPC.
//!
//! # Examples
//!
//! ```
//! use dfs_core::Cell;
//! use dfs_types::VolumeId;
//!
//! let cell = Cell::builder().servers(1).build().unwrap();
//! cell.create_volume(0, VolumeId(1), "home").unwrap();
//! let client = cell.new_client();
//! let root = client.root(VolumeId(1)).unwrap();
//! let f = client.create(root, "greeting", 0o644).unwrap();
//! client.write(f.fid, 0, b"hello, cell").unwrap();
//! assert_eq!(client.read(f.fid, 0, 32).unwrap(), b"hello, cell");
//! ```

use dfs_client::{CacheManager, DataCache, DiskCache, MemCache, WritebackConfig};
use dfs_disk::{DiskConfig, DiskStats, SimDisk};
use dfs_episode::{Episode, FormatParams, RecoveryReport};
use dfs_rpc::{Addr, CallClass, KdcService, Network, PoolConfig, Request, Response, Ticket};
use dfs_server::{FileServer, ServerStats, VldbHandle, VldbReplica};
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{AggregateId, ClientId, DfsError, DfsResult, ServerId, SimClock, VolumeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Builder for a [`Cell`].
pub struct CellBuilder {
    servers: u32,
    vldb_replicas: u32,
    latency_us: u64,
    disk_blocks: u32,
    log_blocks: u32,
    workers: usize,
    revocation_workers: usize,
    require_auth: bool,
}

impl Default for CellBuilder {
    fn default() -> Self {
        CellBuilder {
            servers: 1,
            vldb_replicas: 3,
            latency_us: 500,
            disk_blocks: 32 * 1024,
            log_blocks: 256,
            workers: 8,
            revocation_workers: 4,
            require_auth: false,
        }
    }
}

impl CellBuilder {
    /// Number of file servers (default 1).
    pub fn servers(mut self, n: u32) -> Self {
        self.servers = n;
        self
    }

    /// Number of VLDB replicas (default 3).
    pub fn vldb_replicas(mut self, n: u32) -> Self {
        self.vldb_replicas = n.max(1);
        self
    }

    /// Simulated one-way network latency in microseconds (default 500).
    pub fn latency_us(mut self, us: u64) -> Self {
        self.latency_us = us;
        self
    }

    /// Blocks per server disk (default 32 Ki = 128 MiB).
    pub fn disk_blocks(mut self, blocks: u32) -> Self {
        self.disk_blocks = blocks;
        self
    }

    /// Blocks reserved for each aggregate's log (default 256 = 1 MiB).
    pub fn log_blocks(mut self, blocks: u32) -> Self {
        self.log_blocks = blocks;
        self
    }

    /// How many calls each file server serves at once, per call class:
    /// `workers` admission slots for normal traffic and
    /// `revocation_workers` reserved for calls made from revocation code
    /// (§6.4; 0 = those compete for the normal slots, T10's ablation).
    /// Slots, not threads: a call runs on its caller.
    pub fn pools(mut self, workers: usize, revocation_workers: usize) -> Self {
        self.workers = workers;
        self.revocation_workers = revocation_workers;
        self
    }

    /// Require Kerberos-style tickets on all file-server RPCs (§3.7).
    pub fn require_auth(mut self, on: bool) -> Self {
        self.require_auth = on;
        self
    }

    /// Builds the cell: VLDB replicas, KDC, and file servers.
    pub fn build(self) -> DfsResult<Cell> {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), self.latency_us);
        let mut vldb_addrs = Vec::new();
        for i in 0..self.vldb_replicas {
            let addr = Addr::Vldb(i);
            net.register(addr, VldbReplica::new(), PoolConfig::default());
            vldb_addrs.push(addr);
        }
        net.register(Addr::Kdc, KdcService::new(net.auth().clone()), PoolConfig::default());
        let pool = PoolConfig {
            workers: self.workers,
            revocation_workers: self.revocation_workers,
            require_auth: self.require_auth,
        };
        let mut servers = Vec::new();
        for i in 1..=self.servers {
            let disk = SimDisk::new(DiskConfig::with_blocks(self.disk_blocks));
            let ep = Episode::format(
                disk.clone(),
                clock.clone(),
                FormatParams {
                    aggregate: AggregateId(i),
                    log_blocks: self.log_blocks,
                    anodes: 8192,
                    ..FormatParams::default()
                },
            )?;
            let server = FileServer::start_journaled(
                net.clone(),
                ServerId(i),
                ep.clone(),
                ep.host_log().cloned(),
                vldb_addrs.clone(),
                pool,
            )?;
            servers.push(OrderedMutex::new(ServerSlot { disk, episode: ep, server, restarting: 0 }));
        }
        Ok(Cell {
            clock,
            net,
            vldb_addrs,
            servers,
            pool,
            next_client: AtomicU32::new(1),
            admin_ticket: OrderedMutex::new(None),
            seen_volume_ops: OrderedMutex::new(HashMap::new()),
        })
    }
}

/// One file-server slot: the current instance, the Episode aggregate it
/// exports and the simulated disk under both, kept so the cell can
/// crash and restart the server on the *same* storage.
struct ServerSlot {
    disk: SimDisk,
    episode: Arc<Episode>,
    server: Arc<FileServer>,
    /// Restarts under way: 1 while a restart builds this slot's new
    /// instance with the slot unlocked, else 0. The install's `-= 1`
    /// re-reads it under the fresh guard (dfs-lint's lock-gap rule).
    restarting: u8,
}

/// Per-server load observed by [`Cell::load`]: total file ops and the
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

/// A running DEcorum cell.
pub struct Cell {
    clock: SimClock,
    net: Network,
    vldb_addrs: Vec<Addr>,
    servers: Vec<OrderedMutex<ServerSlot, { rank::CELL_SERVERS }>>,
    pool: PoolConfig,
    /// The id the next client gets.
    next_client: AtomicU32,
    /// Sent with every admin call; a later [`Cell::admin_login`] renews
    /// it (a ticket expires).
    admin_ticket: OrderedMutex<Option<Ticket>, { rank::CELL_ADMIN }>,
    /// Cumulative per-volume op counts at the last [`Cell::load`], so
    /// observations are deltas (recent load, not lifetime totals).
    /// Never held across an RPC.
    seen_volume_ops: OrderedMutex<HashMap<(ServerId, VolumeId), u64>, { rank::CELL_LOAD }>,
}

impl Drop for Cell {
    /// The cell owns its network: unbinding every node stops the pool
    /// threads and breaks the `Network` → node → service → `Network`
    /// cycles, so servers and (once their handles go) clients are freed.
    fn drop(&mut self) {
        self.net.shutdown();
    }
}

impl Cell {
    /// Starts building a cell.
    pub fn builder() -> CellBuilder {
        CellBuilder::default()
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The simulated network (statistics, crash injection).
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The file server currently running in slot `index` (index 0 is
    /// `ServerId(1)`). Returns an owned handle: after
    /// [`Cell::restart_server`] a slot holds a *new* instance, so
    /// callers must not cache this across a restart.
    pub fn server(&self, index: usize) -> Arc<FileServer> {
        self.servers[index].lock().server.clone()
    }

    /// The Episode aggregate slot `index`'s server exports (its journal
    /// counters, say). Like [`Cell::server`], a restart replaces it.
    pub fn episode(&self, index: usize) -> Arc<Episode> {
        self.servers[index].lock().episode.clone()
    }

    /// Statistics of the simulated disk under slot `index`'s server.
    /// Disks are the per-server bottleneck resource, so experiments
    /// report a cell's critical path as the max across slots.
    pub fn server_disk_stats(&self, index: usize) -> DiskStats {
        self.servers[index].lock().disk.stats()
    }

    /// Crashes the file server in slot `index`: its network node stops
    /// answering (callers see `Unreachable`) and its disk loses all
    /// volatile state — exactly the failure Episode's log is for.
    pub fn crash_server(&self, index: usize) {
        let slot = self.servers[index].lock();
        self.net.set_crashed(Addr::Server(slot.server.id()), true);
        slot.disk.crash(None);
    }

    /// Restarts a crashed server on the same storage: powers the disk
    /// back on, replays the Episode journal (`Episode::open`), and
    /// starts a fresh [`FileServer`] instance with a `grace_us`-long
    /// token-reestablishment window. The next epoch and the expected
    /// host set come from the aggregate's durable host journal — the
    /// dying instance's memory is never consulted, so this path models
    /// losing the whole machine, not just the process. Returns the
    /// journal replay report.
    ///
    /// The new instance is built with no slot lock held — starting it
    /// registers it with the VLDB, an RPC — and installed under the lock
    /// once it runs. Until then [`Cell::server`] returns the stopped
    /// instance, as it does between a crash and its restart.
    ///
    /// # Panics
    ///
    /// Panics if a restart of the same slot is already under way: two
    /// restarts of one slot must not overlap (each would replay the
    /// journal of the same disk).
    pub fn restart_server(&self, index: usize, grace_us: u64) -> DfsResult<RecoveryReport> {
        let (old, disk) = {
            let mut slot = self.servers[index].lock();
            assert!(slot.restarting == 0, "overlapping restarts of server slot {index}");
            slot.restarting += 1;
            (slot.server.clone(), slot.disk.clone())
        };
        let started = (|| {
            let id = old.id();
            old.stop();
            drop(old);
            disk.power_on();
            let (ep, report) = Episode::open(disk, self.clock.clone())?;
            let server = FileServer::restart(
                self.net.clone(),
                id,
                ep.clone(),
                ep.host_log().cloned(),
                ep.host_replay(),
                self.vldb_addrs.clone(),
                self.pool,
                grace_us,
            )?;
            Ok((server, ep, report))
        })();
        let mut slot = self.servers[index].lock();
        slot.restarting -= 1;
        let (server, ep, report) = started?;
        slot.server = server;
        slot.episode = ep;
        Ok(report)
    }

    /// Number of file servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The VLDB replica addresses.
    pub fn vldb_addrs(&self) -> &[Addr] {
        &self.vldb_addrs
    }

    /// A VLDB handle for administrative use.
    pub fn vldb(&self) -> VldbHandle {
        VldbHandle::new(self.net.clone(), Addr::Client(ClientId(0)), self.vldb_addrs.clone())
    }

    /// Registers a user with the authentication registry (§3.7).
    pub fn add_user(&self, user: u32, secret: u64) {
        self.net.auth().add_user(user, secret);
    }

    /// Authenticates the cell's administrative operations (needed when
    /// the cell was built with [`CellBuilder::require_auth`]).
    pub fn admin_login(&self, user: u32, secret: u64) -> DfsResult<()> {
        let ticket = self.net.auth().login(user, secret)?;
        *self.admin_ticket.lock() = Some(ticket);
        Ok(())
    }

    /// Creates a diskless (in-memory cache) client (§4.2).
    pub fn new_client(&self) -> Arc<CacheManager> {
        self.new_client_with(Arc::new(MemCache::new()))
    }

    /// Creates a client with a disk-backed cache of `blocks` blocks.
    pub fn new_disk_client(&self, blocks: u32) -> Arc<CacheManager> {
        let disk = SimDisk::new(DiskConfig::with_blocks(blocks));
        self.new_client_with(Arc::new(DiskCache::new(disk)))
    }

    /// Creates a client with a caller-supplied cache store.
    pub fn new_client_with(&self, data: Arc<dyn DataCache>) -> Arc<CacheManager> {
        self.new_client_configured(data, WritebackConfig::default())
    }

    /// Creates a diskless client with explicit write-behind tuning.
    pub fn new_client_writeback(&self, wb: WritebackConfig) -> Arc<CacheManager> {
        self.new_client_configured(Arc::new(MemCache::new()), wb)
    }

    /// Creates a client with caller-supplied cache store and
    /// write-behind tuning.
    pub fn new_client_configured(
        &self,
        data: Arc<dyn DataCache>,
        wb: WritebackConfig,
    ) -> Arc<CacheManager> {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        CacheManager::start_with_config(
            self.net.clone(),
            ClientId(id),
            self.vldb_addrs.clone(),
            data,
            wb,
        )
    }

    fn admin_call(&self, server: usize, req: Request) -> DfsResult<Response> {
        let to = Addr::Server(self.server(server).id());
        let ticket = *self.admin_ticket.lock();
        self.net
            .call(Addr::Client(ClientId(0)), to, ticket, CallClass::Normal, req)?
            .into_result()
    }

    /// Creates a volume on server `server` (index, not id).
    pub fn create_volume(&self, server: usize, id: VolumeId, name: &str) -> DfsResult<()> {
        self.admin_call(server, Request::VolCreate { volume: id, name: name.into() })?;
        Ok(())
    }

    /// Clones `src` into read-only snapshot `clone` on the same server.
    pub fn clone_volume(
        &self,
        server: usize,
        src: VolumeId,
        clone: VolumeId,
        name: &str,
    ) -> DfsResult<()> {
        self.admin_call(server, Request::VolClone { src, clone, name: name.into() })?;
        Ok(())
    }

    /// Maps a server id to its slot index.
    fn slot_of(&self, id: ServerId) -> DfsResult<usize> {
        for i in 0..self.server_count() {
            if self.server(i).id() == id {
                return Ok(i);
            }
        }
        Err(DfsError::NoSuchVolume)
    }

    /// The slot index currently hosting `volume`, per the VLDB.
    pub fn server_of(&self, volume: VolumeId) -> DfsResult<usize> {
        let id = self.vldb().lookup(volume)?;
        self.slot_of(id)
    }

    /// Live-migrates `volume` to the server in slot `to` (§2.1): the
    /// bulk of the data ships while clients keep working; they are
    /// blocked only for the delta, and keep their tokens across the
    /// switch. The source is wherever the VLDB says the volume lives; a
    /// no-op if that is already `to`. `InvalidArgument` if `to` is past
    /// the last slot.
    pub fn move_volume(&self, volume: VolumeId, to: usize) -> DfsResult<()> {
        if to >= self.server_count() {
            return Err(DfsError::InvalidArgument);
        }
        let from = self.server_of(volume)?;
        if from == to {
            return Ok(());
        }
        let target = self.server(to).id();
        self.admin_call(from, Request::VolMove { volume, target })?;
        Ok(())
    }

    /// Observes each server's load since the previous observation:
    /// total file ops and the per-volume breakdown, as deltas. This is
    /// the §2.1 "addressing problems of load balancing" signal — the
    /// counters already exist on every server; the cell just reads
    /// and differences them.
    pub fn load(&self) -> Vec<ServerLoad> {
        // Snapshot all server stats first, with no cell lock held.
        let snaps: Vec<(ServerId, ServerStats)> = (0..self.server_count())
            .map(|i| {
                let srv = self.server(i);
                (srv.id(), srv.stats())
            })
            .collect();
        let mut seen = self.seen_volume_ops.lock();
        snaps
            .into_iter()
            .map(|(id, stats)| {
                let mut volume_ops = HashMap::new();
                for (vol, count) in stats.volume_ops {
                    let prev_v = seen.insert((id, vol), count).unwrap_or(0);
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
    /// (volume, from-slot, to-slot), or `None` when the cell is too
    /// small, idle, or already balanced enough for a move to be noise
    /// (the busiest server's load must exceed the least-busy's by more
    /// than the candidate volume's own load would correct).
    pub fn rebalance(&self) -> DfsResult<Option<(VolumeId, usize, usize)>> {
        if self.server_count() < 2 {
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
            if self.server(src).id() != busiest.server {
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

    /// Starts lazy replication of `volume` from server `from` onto
    /// server `to`, with the given staleness bound (§3.8).
    pub fn replicate_volume(
        &self,
        from: usize,
        to: usize,
        volume: VolumeId,
        max_staleness_us: u64,
    ) -> DfsResult<()> {
        let source = self.server(from).id();
        self.admin_call(to, Request::ReplAdd { volume, source, max_staleness_us })?;
        Ok(())
    }

    /// Runs one replication pass on server `server` (experiments drive
    /// simulated time explicitly; a production cell runs a daemon).
    pub fn replication_tick(&self, server: usize) -> DfsResult<()> {
        self.admin_call(server, Request::ReplTick)?;
        Ok(())
    }

    /// Renders Figure 1 (server structure) from the live components.
    pub fn render_server_structure(&self) -> String {
        let mut out = String::from(
            "Figure 1: DEcorum file server structure (live components)\n\
             \n\
             +--------------------------------------------------------+\n\
             |  generic system calls*                                 |\n\
             |      |                 protocol exporter   various     |\n\
             |      v                  (server procs)     servers     |\n\
             |  VFS+ interface  <----  token manager      - VLDB x",
        );
        out.push_str(&format!("{}\n", self.vldb_addrs.len()));
        out.push_str(
            "  |      |                  host model         - KDC       |\n\
             |      v                  lock table         - volume    |\n\
             |  glue layer (token-wrapping VFS+)          - replica   |\n\
             |      |                                                 |\n\
             |      v                                                 |\n\
             |  physical file systems: Episode (+ FFS exportable)    |\n\
             +--------------------------------------------------------+\n",
        );
        out.push_str(&format!("servers: {}\n", self.servers.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_use_a_cell() {
        let cell = Cell::builder().servers(2).build().unwrap();
        cell.create_volume(0, VolumeId(1), "home").unwrap();
        let c = cell.new_client();
        let root = c.root(VolumeId(1)).unwrap();
        let f = c.create(root, "x", 0o644).unwrap();
        c.write(f.fid, 0, b"via cell").unwrap();
        assert_eq!(c.read(f.fid, 0, 16).unwrap(), b"via cell");
    }

    #[test]
    fn an_overlapping_restart_panics_before_it_touches_the_disk() {
        let cell = Cell::builder().servers(1).build().unwrap();
        cell.crash_server(0);
        // A restart of slot 0 is under way, building with the slot unlocked.
        cell.servers[0].lock().restarting = 1;
        let second = std::panic::catch_unwind(|| cell.restart_server(0, 0));
        assert!(second.is_err(), "the overlapping restart went ahead");
        let disk = cell.servers[0].lock().disk.clone();
        assert_eq!(disk.read(0).unwrap_err(), DfsError::Crashed, "the disk was powered on");
        cell.servers[0].lock().restarting = 0;
        cell.restart_server(0, 0).unwrap();
        assert!(disk.read(0).is_ok());
    }

    #[test]
    fn move_and_replicate_through_cell_api() {
        let cell = Cell::builder().servers(2).build().unwrap();
        cell.create_volume(0, VolumeId(5), "proj").unwrap();
        let c = cell.new_client();
        let root = c.root(VolumeId(5)).unwrap();
        let f = c.create(root, "f", 0o644).unwrap();
        c.write(f.fid, 0, b"payload").unwrap();
        c.fsync(f.fid).unwrap();
        cell.move_volume(VolumeId(5), 1).unwrap();
        assert_eq!(c.read(f.fid, 0, 16).unwrap(), b"payload");
        assert_eq!(cell.vldb().lookup(VolumeId(5)).unwrap(), cell.server(1).id());
    }

    #[test]
    fn move_updates_placement() {
        let cell = Cell::builder().servers(2).build().unwrap();
        cell.create_volume(0, VolumeId(1), "a").unwrap();
        let moves = |cell: &Cell| (0..2).map(|i| cell.server(i).stats().moves).sum::<u64>();
        assert_eq!(cell.server_of(VolumeId(1)).unwrap(), 0);
        cell.move_volume(VolumeId(1), 1).unwrap();
        assert_eq!(cell.server_of(VolumeId(1)).unwrap(), 1);
        assert_eq!(moves(&cell), 1);
        // Moving to where it already is: a no-op, not an error.
        cell.move_volume(VolumeId(1), 1).unwrap();
        assert_eq!(moves(&cell), 1);
        // A slot past the last one is refused before anything moves.
        assert_eq!(cell.move_volume(VolumeId(1), 2), Err(DfsError::InvalidArgument));
        assert_eq!(cell.server_of(VolumeId(1)).unwrap(), 1);
        assert_eq!(moves(&cell), 1);
    }

    #[test]
    fn load_reports_deltas_not_totals() {
        let cell = Cell::builder().build().unwrap();
        cell.create_volume(0, VolumeId(1), "v").unwrap();
        let c = cell.new_client();
        let root = c.root(VolumeId(1)).unwrap();
        let f = c.create(root, "f", 0o644).unwrap();
        c.write(f.fid, 0, b"z").unwrap();
        c.fsync(f.fid).unwrap();
        let first = cell.load();
        assert!(first[0].ops > 0);
        // No traffic since: the next observation reports ~nothing.
        let second = cell.load();
        assert_eq!(second[0].ops, 0);
        assert!(second[0].volume_ops.is_empty());
    }

    #[test]
    fn disk_client_works() {
        let cell = Cell::builder().build().unwrap();
        cell.create_volume(0, VolumeId(1), "v").unwrap();
        let c = cell.new_disk_client(256);
        let root = c.root(VolumeId(1)).unwrap();
        let f = c.create(root, "d", 0o644).unwrap();
        c.write(f.fid, 0, &vec![3u8; 10_000]).unwrap();
        assert_eq!(c.read(f.fid, 5000, 100).unwrap(), vec![3u8; 100]);
    }

    #[test]
    fn a_slot_hands_out_the_episode_its_server_exports() {
        let cell = Cell::builder().build().unwrap();
        cell.create_volume(0, VolumeId(1), "v").unwrap();
        let c = cell.new_client();
        let root = c.root(VolumeId(1)).unwrap();
        let f = c.create(root, "e", 0o644).unwrap();
        let before = cell.episode(0).journal().stats();
        c.write(f.fid, 0, b"logged").unwrap();
        c.fsync(f.fid).unwrap();
        assert!(cell.episode(0).journal().stats().since(&before).txns_begun > 0);

        let old = cell.episode(0);
        cell.crash_server(0);
        cell.restart_server(0, 0).unwrap();
        assert!(!Arc::ptr_eq(&old, &cell.episode(0)), "a restart replaces the Episode");
        let before = cell.episode(0).journal().stats();
        c.write(f.fid, 0, b"again").unwrap();
        c.fsync(f.fid).unwrap();
        assert!(cell.episode(0).journal().stats().since(&before).txns_begun > 0);
    }

    #[test]
    fn figure1_renders() {
        let cell = Cell::builder().build().unwrap();
        let fig = cell.render_server_structure();
        assert!(fig.contains("token manager"));
        assert!(fig.contains("glue layer"));
        assert!(fig.contains("Episode"));
    }
}
