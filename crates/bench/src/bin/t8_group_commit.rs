//! T8 — §2.2: "fidelity to the spirit of the UNIX file system only
//! requires batching commits every 30 seconds"; batch commits append
//! sequentially and are cheap. Sweeping the sync interval shows the
//! latency/traffic trade.
//!
//! The second section measures the client write-behind pipeline: a
//! sequential-write workload stored back as extent-sized runs batched
//! into `StoreDataVec` RPCs, each applied in a single transaction
//! ending in one group commit. (The one-`StoreData`-per-page shape it
//! replaced is archived in `BENCH_writeback.json`; see EXPERIMENTS.md
//! T8b.)
//!
//! The third section (`--clients A,B,...`) is a concurrency sweep: N
//! clients each write their own file and fsync in parallel, so token
//! grants and store-backs for distinct fids land on different shards of
//! the server's token manager and host table. Aggregate throughput per
//! N is the metric.
//!
//! Flags: `--json` emits machine-readable results (validated by
//! `jsoncheck` in the verify.sh smoke stage); `--ops N` and `--pages N`
//! shrink the workloads for smoke runs.

use dfs_bench::{f2, header, row, Args};
use dfs_client::{CacheManager, MemCache, WritebackConfig, PAGE_SIZE};
use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_rpc::{Addr, Network, PoolConfig};
use dfs_server::{FileServer, VldbReplica};
use dfs_types::{ClientId, ServerId, SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs};
use decorum_dfs::Cell;
use std::sync::Arc;

/// Runs `ops` file creations with a group commit every `batch`
/// operations (batch == 1 models sync-on-every-op; large batches model
/// the 30 s timer).
fn run(ops: u32, batch: u32) -> (u64, u64, f64) {
    let disk = SimDisk::new(DiskConfig::with_blocks(128 * 1024));
    let ep = Episode::format(disk.clone(), SimClock::new(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = v.root().unwrap();
    let before = disk.stats();
    for i in 0..ops {
        v.create(&cred, root, &format!("f{i}"), 0o644).unwrap();
        if i % batch == batch - 1 {
            ep.sync_log().unwrap();
        }
    }
    ep.sync_log().unwrap();
    let s = disk.stats().since(&before);
    (s.stable_writes, s.syncs, s.busy_ms())
}

/// One store-back measurement: RPC and journal costs of pushing a
/// `pages`-page sequential write from client to server.
struct WbRun {
    store_rpcs: u64,
    store_vec_rpcs: u64,
    store_bytes: u64,
    jn_syncs: u64,
    jn_txns: u64,
}

/// Builds a one-server cell by hand (keeping the Episode handle so the
/// server's journal counters stay reachable), writes `pages` sequential
/// pages, and measures the fsync-driven store-back.
fn writeback_run(pages: u64) -> WbRun {
    let clock = SimClock::new();
    let net = Network::new(clock.clone(), 10);
    let vldb = Addr::Vldb(0);
    net.register(vldb, VldbReplica::new(), PoolConfig::default());
    let ep = Episode::format(
        SimDisk::new(DiskConfig::with_blocks(32 * 1024)),
        clock,
        FormatParams::default(),
    )
    .unwrap();
    ep.create_volume(VolumeId(1), "wb").unwrap();
    let _srv =
        FileServer::start(net.clone(), ServerId(1), ep.clone(), vec![vldb], PoolConfig::default())
            .unwrap();
    // Flusher off so all store-back traffic is driven by the fsync and
    // the RPC counts are deterministic.
    let c = CacheManager::start_with_config(
        net.clone(),
        ClientId(1),
        vec![vldb],
        Arc::new(MemCache::new()),
        WritebackConfig { flusher: false, ..WritebackConfig::default() },
    );
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "seq", 0o644).unwrap();
    for p in 0..pages {
        c.write(f.fid, p * PAGE_SIZE as u64, &[p as u8; PAGE_SIZE]).unwrap();
    }
    let net_before = net.stats();
    let jn_before = ep.journal().stats();
    c.fsync(f.fid).unwrap();
    let nd = net.stats().since(&net_before);
    let jd = ep.journal().stats().since(&jn_before);
    let label_bytes = |l: &str| nd.bytes_by_label.get(l).copied().unwrap_or(0);
    WbRun {
        store_rpcs: nd.by_label.get("StoreData").copied().unwrap_or(0),
        store_vec_rpcs: nd.by_label.get("StoreDataVec").copied().unwrap_or(0),
        store_bytes: label_bytes("StoreData") + label_bytes("StoreDataVec"),
        jn_syncs: jd.syncs,
        jn_txns: jd.txns_begun,
    }
}

/// One point of the concurrency sweep: N clients, each writing its own
/// `pages`-page file then fsyncing, all in parallel. Distinct fids mean
/// the grant/store-back path fans out across token and host shards.
struct ConcPoint {
    clients: usize,
    total_pages: u64,
    wall_s: f64,
    pages_per_s: f64,
    /// RPCs issued during the timed region and the simulated network
    /// time charged to them — deterministic, unlike wall clock on an
    /// oversubscribed host. Shared-root directory-token churn means
    /// revocation batching shows up directly in these.
    rpcs: u64,
    sim_net_ms: f64,
    pages_per_sim_net_s: f64,
    ok: bool,
}

fn concurrent_writers(clients: usize, pages: u64) -> ConcPoint {
    // A log sized for the fan-in: 64 writers' store-backs can land
    // between two group commits, so scale the fixed log with N.
    let log_blocks = (256 * clients.max(4) as u32).min(16 * 1024);
    let cell = Cell::builder().servers(1).pools(12, 6).log_blocks(log_blocks).build().unwrap();
    cell.create_volume(0, VolumeId(1), "v").unwrap();
    let cms: Vec<_> = (0..clients).map(|_| cell.new_client()).collect();
    let root = cms[0].root(VolumeId(1)).unwrap();
    let net_before = cell.net().stats();
    let t0 = std::time::Instant::now();
    let threads: Vec<_> = cms
        .iter()
        .enumerate()
        .map(|(ci, cm)| {
            let cm = cm.clone();
            std::thread::spawn(move || {
                let f = cm.create(root, &format!("w{ci}"), 0o644).unwrap();
                for p in 0..pages {
                    cm.write(f.fid, p * PAGE_SIZE as u64, &[ci as u8; PAGE_SIZE]).unwrap();
                }
                cm.fsync(f.fid).unwrap();
                f.fid
            })
        })
        .collect();
    let fids: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let wall = t0.elapsed().as_secs_f64();
    let nd = cell.net().stats().since(&net_before);

    // Durability + visibility: every file has its full length and its
    // first page is readable (with the right fill) from another client.
    let mut ok = true;
    for (ci, fid) in fids.iter().enumerate() {
        let peer = &cms[(ci + 1) % cms.len()];
        if peer.getattr(*fid).unwrap().length != pages * PAGE_SIZE as u64 {
            ok = false;
        }
        if peer.read(*fid, 0, 8).unwrap() != vec![ci as u8; 8] {
            ok = false;
        }
    }
    let total_pages = clients as u64 * pages;
    ConcPoint {
        clients,
        total_pages,
        wall_s: wall,
        pages_per_s: total_pages as f64 / wall,
        rpcs: nd.calls,
        sim_net_ms: nd.latency_us as f64 / 1000.0,
        pages_per_sim_net_s: total_pages as f64 * 1e6 / nd.latency_us.max(1) as f64,
        ok,
    }
}

fn main() {
    let args = Args::parse(&["--ops", "--pages", "--clients"]);
    let (json, ops, pages) = (args.json, args.get("--ops", 2000u32), args.get("--pages", 64u64));
    let clients: Vec<usize> = args.list("--clients", Vec::new());
    let batches = [1u32, 4, 16, 64, 256, 1024];
    let sweep: Vec<(u32, u64, u64, f64)> = batches
        .iter()
        .filter(|&&b| b <= ops)
        .map(|&b| {
            let (writes, syncs, ms) = run(ops, b);
            (b, writes, syncs, ms)
        })
        .collect();
    let pipeline = writeback_run(pages);
    let conc: Vec<_> = clients.iter().map(|&n| concurrent_writers(n, pages)).collect();

    if json {
        let rows: Vec<String> = sweep
            .iter()
            .map(|(b, w, s, ms)| {
                format!(
                    "{{\"batch\": {b}, \"durable_writes\": {w}, \"syncs\": {s}, \
                     \"disk_ms\": {ms:.2}}}"
                )
            })
            .collect();
        let wb = |r: &WbRun| {
            format!(
                "{{\"store_data_rpcs\": {}, \"store_data_vec_rpcs\": {}, \
                 \"store_bytes\": {}, \"journal_syncs\": {}, \"journal_txns\": {}}}",
                r.store_rpcs, r.store_vec_rpcs, r.store_bytes, r.jn_syncs, r.jn_txns
            )
        };
        let conc_rows: Vec<String> = conc
            .iter()
            .map(|c| {
                format!(
                    "{{\"clients\": {}, \"pages_per_client\": {pages}, \
                     \"total_pages\": {}, \"wall_s\": {:.4}, \"pages_per_s\": {:.1}, \
                     \"rpcs\": {}, \"sim_net_ms\": {:.2}, \"pages_per_sim_net_s\": {:.1}, \
                     \"ok\": {}}}",
                    c.clients,
                    c.total_pages,
                    c.wall_s,
                    c.pages_per_s,
                    c.rpcs,
                    c.sim_net_ms,
                    c.pages_per_sim_net_s,
                    c.ok
                )
            })
            .collect();
        println!(
            "{{\"bench\": \"t8_group_commit\", \"ops\": {ops}, \
             \"group_commit\": [{}], \
             \"writeback\": {{\"pages\": {pages}, \"pipeline\": {}}}, \
             \"concurrency\": [{}]}}",
            rows.join(", "),
            wb(&pipeline),
            conc_rows.join(", "),
        );
        return;
    }

    println!("T8: group-commit batching — {ops} creates, sync every N ops\n");
    header(&["batch", "durable writes", "sync ops", "disk ms", "writes/op"]);
    for (b, writes, syncs, ms) in &sweep {
        row(&[b, writes, syncs, &f2(*ms), &f2(*writes as f64 / ops as f64)]);
    }
    println!("\nExpected shape (paper): larger batches amortize log writes toward a");
    println!("fraction of a durable write per operation; even batch=1 beats FFS's");
    println!("several synchronous writes per create (see T1).\n");

    println!("Write-behind pipeline: {pages}-page sequential write, then fsync\n");
    header(&["path", "StoreData", "StoreDataVec", "store bytes", "jn syncs", "jn txns"]);
    row(&[
        &"pipeline",
        &pipeline.store_rpcs,
        &pipeline.store_vec_rpcs,
        &pipeline.store_bytes,
        &pipeline.jn_syncs,
        &pipeline.jn_txns,
    ]);
    println!("\nExpected shape: the pipeline coalesces extent-sized runs into one");
    println!("StoreDataVec applied as a single server transaction — one RPC and one");
    println!("group commit per 128 pages (BENCH_writeback.json archives the");
    println!("one-StoreData-per-page shape it replaced).");

    if !conc.is_empty() {
        println!("\nConcurrent writers: N clients, one private file each, write+fsync\n");
        header(&["clients", "total pages", "RPCs", "net ms", "pages/net-s", "pages/s", "ok"]);
        for c in &conc {
            row(&[
                &c.clients,
                &c.total_pages,
                &c.rpcs,
                &f2(c.sim_net_ms),
                &f2(c.pages_per_sim_net_s),
                &f2(c.pages_per_s),
                &c.ok,
            ]);
        }
        println!("\nExpected shape (§5): distinct fids hash to different token/host");
        println!("shards, so aggregate store-back throughput scales with clients");
        println!("instead of serializing on one manager-wide mutex.");
    }
}
