//! Cell assembly: the whole DEcorum file system, wired together.
//!
//! The paper's system is a *cell*: file servers exporting Episode
//! aggregates, a replicated volume location database, a Kerberos-style
//! authentication server, and client cache managers — all speaking the
//! NCS-style RPC protocol. [`Cell`] builds that world on a simulated
//! network and simulated disks so a laptop can run experiments that the
//! authors ran on a machine room.
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
use dfs_server::{FileServer, VldbHandle, VldbReplica};
use dfs_types::{AggregateId, ClientId, DfsResult, ServerId, SimClock, VolumeId};
use parking_lot::Mutex;
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
            servers.push(Mutex::new(ServerSlot { disk, episode: ep, server }));
        }
        Ok(Cell {
            clock,
            net,
            vldb_addrs,
            servers,
            pool,
            next_client: Mutex::new(1),
            admin_ticket: Mutex::new(None),
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
}

/// A running DEcorum cell.
pub struct Cell {
    clock: SimClock,
    net: Network,
    vldb_addrs: Vec<Addr>,
    servers: Vec<Mutex<ServerSlot>>,
    pool: PoolConfig,
    next_client: Mutex<u32>,
    admin_ticket: Mutex<Option<Ticket>>,
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
    /// report a fleet's critical path as the max across slots.
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
    pub fn restart_server(&self, index: usize, grace_us: u64) -> DfsResult<RecoveryReport> {
        let mut slot = self.servers[index].lock();
        let old = slot.server.clone();
        let id = old.id();
        old.stop();
        drop(old);
        slot.disk.power_on();
        let (ep, report) = Episode::open(slot.disk.clone(), self.clock.clone())?;
        slot.server = FileServer::restart(
            self.net.clone(),
            id,
            ep.clone(),
            ep.host_log().cloned(),
            ep.host_replay(),
            self.vldb_addrs.clone(),
            self.pool,
            grace_us,
        )?;
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
        let id = {
            let mut n = self.next_client.lock();
            let id = *n;
            *n += 1;
            id
        };
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

    /// Moves a volume from `from` to `to` (server indices).
    pub fn move_volume(&self, from: usize, to: usize, volume: VolumeId) -> DfsResult<()> {
        let target = self.server(to).id();
        self.admin_call(from, Request::VolMove { volume, target })?;
        Ok(())
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
    fn move_and_replicate_through_cell_api() {
        let cell = Cell::builder().servers(2).build().unwrap();
        cell.create_volume(0, VolumeId(5), "proj").unwrap();
        let c = cell.new_client();
        let root = c.root(VolumeId(5)).unwrap();
        let f = c.create(root, "f", 0o644).unwrap();
        c.write(f.fid, 0, b"payload").unwrap();
        c.fsync(f.fid).unwrap();
        cell.move_volume(0, 1, VolumeId(5)).unwrap();
        assert_eq!(c.read(f.fid, 0, 16).unwrap(), b"payload");
        assert_eq!(cell.vldb().lookup(VolumeId(5)).unwrap(), cell.server(1).id());
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
