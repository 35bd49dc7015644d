//! The system under test: the default single-server cell, hand-built
//! from the public constructors (as `t8_group_commit::writeback_run`
//! does) because `dfs_core::Cell` keeps the Episode handle, and so the
//! journal's and disk's statistics, to itself.

use crate::trace::{TracedCache, TracedFs, TracedService, Tracer, DISPATCH, REVOKE};
use dfs_client::{CacheManager, ClientStats, DataCache, MemCache, WritebackConfig};
use dfs_disk::{DiskConfig, DiskStats, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_journal::JournalStats;
use dfs_rpc::{Addr, KdcService, NetStats, Network, PoolConfig};
use dfs_server::{FileServer, ServerStats, VldbReplica};
use dfs_token::TokenStats;
use dfs_types::{AggregateId, ClientId, DfsResult, ServerId, SimClock, VolumeId};
use dfs_vfs::PhysicalFs;
use std::sync::Arc;

/// The one volume every workload runs in.
pub const VOLUME: VolumeId = VolumeId(1);

// `CellBuilder::default()`, spelled out: what a user gets from
// `Cell::builder().build()`.
const LATENCY_US: u64 = 500;
const DISK_BLOCKS: u32 = 32 * 1024;
const LOG_BLOCKS: u32 = 256;
const ANODES: u32 = 8192;
const VLDB_REPLICAS: u32 = 3;
const SERVER_POOL: PoolConfig =
    PoolConfig { workers: 8, revocation_workers: 4, require_auth: false };
/// The pool `CacheManager::start_with_config` binds its callback
/// service with; the traced world re-registers with the same.
pub const CLIENT_POOL: PoolConfig =
    PoolConfig { workers: 2, revocation_workers: 2, require_auth: false };

pub struct World {
    pub net: Network,
    pub disk: SimDisk,
    pub episode: Arc<Episode>,
    pub server: Arc<FileServer>,
    pub clients: Vec<Arc<CacheManager>>,
    /// Every address bound on `net`, for teardown.
    bound: Vec<Addr>,
}

impl World {
    /// Builds the cell with `clients` cache managers (ids 1..). With a
    /// tracer, installs the span wrappers around the data cache, both
    /// RPC directions and the physical file system. `flusher` is off in
    /// every benchmark configuration (see README, "Flush policy").
    pub fn build(clients: usize, tracer: Option<&Arc<Tracer>>, flusher: bool) -> DfsResult<World> {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), LATENCY_US);
        let mut bound = Vec::new();
        let vldb: Vec<Addr> = (0..VLDB_REPLICAS).map(Addr::Vldb).collect();
        for addr in &vldb {
            net.register(*addr, VldbReplica::new(), PoolConfig::default());
        }
        net.register(Addr::Kdc, KdcService::new(net.auth().clone()), PoolConfig::default());
        bound.extend(vldb.iter().copied().chain([Addr::Kdc]));

        let disk = SimDisk::new(DiskConfig::with_blocks(DISK_BLOCKS));
        let episode = Episode::format(
            disk.clone(),
            clock,
            FormatParams {
                aggregate: AggregateId(1),
                log_blocks: LOG_BLOCKS,
                anodes: ANODES,
                ..FormatParams::default()
            },
        )?;
        episode.create_volume(VOLUME, "bench")?;
        let physical: Arc<dyn PhysicalFs> = match tracer {
            Some(t) => Arc::new(TracedFs { inner: episode.clone(), tracer: t.clone() }),
            None => episode.clone(),
        };
        let server_id = ServerId(1);
        let server = FileServer::start_journaled(
            net.clone(),
            server_id,
            physical,
            episode.host_log().cloned(),
            vldb.clone(),
            SERVER_POOL,
        )?;
        bound.push(Addr::Server(server_id));
        if let Some(t) = tracer {
            let traced = TracedService { inner: server.clone(), tracer: t.clone(), name: DISPATCH };
            net.register(Addr::Server(server_id), Arc::new(traced), SERVER_POOL);
        }

        let wb = WritebackConfig { flusher, ..WritebackConfig::default() };
        let mut cms = Vec::new();
        for id in 1..=clients as u32 {
            let cache: Arc<dyn DataCache> = match tracer {
                Some(t) => {
                    Arc::new(TracedCache { inner: Arc::new(MemCache::new()), tracer: t.clone() })
                }
                None => Arc::new(MemCache::new()),
            };
            let cm = CacheManager::start_with_config(
                net.clone(),
                ClientId(id),
                vldb.clone(),
                cache,
                wb.clone(),
            );
            bound.push(Addr::Client(ClientId(id)));
            if let Some(t) = tracer {
                let traced = TracedService { inner: cm.clone(), tracer: t.clone(), name: REVOKE };
                net.register(Addr::Client(ClientId(id)), Arc::new(traced), CLIENT_POOL);
            }
            cms.push(cm);
        }
        Ok(World { net, disk, episode, server, clients: cms, bound })
    }

    /// All six statistics structs plus process CPU time.
    pub fn snapshot(&self) -> Snapshot {
        let mut client = ClientStats::default();
        for c in &self.clients {
            client.merge(&c.stats());
        }
        Snapshot {
            cpu_ns: process_cpu_ns(),
            net: self.net.stats(),
            client,
            server: self.server.stats(),
            token: self.server.token_manager().stats(),
            journal: self.episode.journal().stats(),
            disk: self.disk.stats(),
        }
    }

    /// Stores back and stops every client, then unbinds every node so
    /// the pool threads exit and the `Network` ↔ service reference
    /// cycles break (nothing in the crates has a `Drop` that does).
    pub fn teardown(self) -> DfsResult<()> {
        let mut first_err = Ok(());
        for c in &self.clients {
            let r = c.shutdown();
            if first_err.is_ok() {
                first_err = r;
            }
        }
        for addr in &self.bound {
            self.net.unregister(*addr);
        }
        first_err
    }
}

#[derive(Clone, Default)]
pub struct Snapshot {
    /// User + system CPU time of the whole process.
    pub cpu_ns: u64,
    pub net: NetStats,
    pub client: ClientStats,
    pub server: ServerStats,
    pub token: TokenStats,
    pub journal: JournalStats,
    pub disk: DiskStats,
}

impl Snapshot {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let (s, e) = (&self.server, &earlier.server);
        let (t, u) = (&self.token, &earlier.token);
        Snapshot {
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            net: self.net.since(&earlier.net),
            client: self.client.since(&earlier.client),
            // `ServerStats` and `TokenStats` have no `since`; only the
            // fields the metrics read are differenced.
            server: ServerStats {
                ops: s.ops - e.ops,
                busy_rejections: s.busy_rejections - e.busy_rejections,
                grace_rejections: s.grace_rejections - e.grace_rejections,
                wrong_server_redirects: s.wrong_server_redirects - e.wrong_server_redirects,
                ..ServerStats::default()
            },
            token: TokenStats {
                grants: t.grants - u.grants,
                quiet_grants: t.quiet_grants - u.quiet_grants,
                revocations: t.revocations - u.revocations,
                refused: t.refused - u.refused,
                releases: t.releases - u.releases,
                ..TokenStats::default()
            },
            journal: self.journal.since(&earlier.journal),
            disk: self.disk.since(&earlier.disk),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time of this process (all threads), in ns. `std`
/// has no call for it and `/proc/self/stat` counts in 10 ms ticks,
/// too coarse for half-second rounds.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid and exclusively ours; on 64-bit Linux
    // that struct is two 64-bit integers, as declared above.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something() {
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > 10_000_000);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn world_builds_serves_and_tears_down() {
        let w = World::build(2, None, false).unwrap();
        let root = w.clients[0].root(VOLUME).unwrap();
        let f = w.clients[0].create(root, "x", 0o644).unwrap();
        w.clients[0].write(f.fid, 0, b"hello").unwrap();
        assert_eq!(w.clients[1].read(f.fid, 0, 5).unwrap(), b"hello");
        let before = Snapshot::default();
        let d = w.snapshot().since(&before);
        assert!(d.net.calls > 0 && d.server.ops > 0 && d.token.grants > 0);
        w.teardown().unwrap();
    }
}
