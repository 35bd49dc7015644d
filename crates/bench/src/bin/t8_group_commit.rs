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

use dfs_bench::emit::Obj;
use dfs_bench::Args;
use dfs_client::{WritebackConfig, PAGE_SIZE};
use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_types::{SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs};
use decorum_dfs::Cell;

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

/// The write-behind pipeline: writes `pages` sequential pages on a
/// one-server cell and counts the RPCs and journal work of the
/// fsync-driven store-back.
fn writeback_run(pages: u64) -> Obj {
    let cell = Cell::builder().servers(1).latency_us(10).build().unwrap();
    cell.create_volume(0, VolumeId(1), "wb").unwrap();
    // Flusher off so all store-back traffic is driven by the fsync and
    // the RPC counts are deterministic.
    let c = cell.new_client_writeback(WritebackConfig { flusher: false, ..Default::default() });
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "seq", 0o644).unwrap();
    for p in 0..pages {
        c.write(f.fid, p * PAGE_SIZE as u64, &[p as u8; PAGE_SIZE]).unwrap();
    }
    let ep = cell.episode(0);
    let net_before = cell.net().stats();
    let jn_before = ep.journal().stats();
    c.fsync(f.fid).unwrap();
    let nd = cell.net().stats().since(&net_before);
    let jd = ep.journal().stats().since(&jn_before);
    let count = |l: &str| nd.by_label.get(l).copied().unwrap_or(0);
    let bytes = |l: &str| nd.bytes_by_label.get(l).copied().unwrap_or(0);
    Obj::new()
        .field("store_data_rpcs", count("StoreData"))
        .field("store_data_vec_rpcs", count("StoreDataVec"))
        .field("store_bytes", bytes("StoreData") + bytes("StoreDataVec"))
        .field("journal_syncs", jd.syncs)
        .field("journal_txns", jd.txns_begun)
}

/// One point of the concurrency sweep: N clients, each writing its own
/// `pages`-page file then fsyncing, all in parallel. Distinct fids mean
/// the grant/store-back path fans out across token and host shards.
fn concurrent_writers(clients: usize, pages: u64) -> Obj {
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
    // RPCs and the simulated network time charged to them are
    // deterministic, unlike wall clock on an oversubscribed host.
    // Shared-root directory-token churn means revocation batching shows
    // up directly in them.
    Obj::new()
        .field("clients", clients)
        .field("pages_per_client", pages)
        .field("total_pages", total_pages)
        .field("wall_s", wall)
        .field("pages_per_s", total_pages as f64 / wall)
        .field("rpcs", nd.calls)
        .field("sim_net_ms", nd.latency_us as f64 / 1000.0)
        .field("pages_per_sim_net_s", total_pages as f64 * 1e6 / nd.latency_us.max(1) as f64)
        .field("ok", ok)
}

fn main() {
    let args = Args::parse(&["--ops", "--pages", "--clients"]);
    let (ops, pages) = (args.get("--ops", 2000u32), args.get("--pages", 64u64));
    let clients: Vec<usize> = args.list("--clients", Vec::new());
    let group_commit: Vec<Obj> = [1u32, 4, 16, 64, 256, 1024]
        .into_iter()
        .filter(|&b| b <= ops)
        .map(|b| {
            let (writes, syncs, ms) = run(ops, b);
            Obj::new()
                .field("batch", b)
                .field("durable_writes", writes)
                .field("syncs", syncs)
                .field("disk_ms", ms)
                .field("writes_per_op", writes as f64 / ops as f64)
        })
        .collect();
    let pipeline = writeback_run(pages);
    let concurrency = clients.iter().map(|&n| concurrent_writers(n, pages));
    let report = Obj::new()
        .field("bench", "t8_group_commit")
        .field("ops", ops)
        .field_arr("group_commit", group_commit)
        .field("writeback", Obj::new().field("pages", pages).field("pipeline", pipeline))
        .field_arr("concurrency", concurrency);
    args.print(
        &format!(
            "T8: group-commit batching — {ops} creates, sync every `batch` ops; the\n    \
             write-behind pipeline — a {pages}-page sequential write, then fsync; and\n    \
             (--clients) concurrent writers — N clients, one private file each,\n    \
             write+fsync"
        ),
        "Expected shape (paper): larger batches amortize log writes toward a\n\
         fraction of a durable write per operation; even batch=1 beats FFS's\n\
         several synchronous writes per create (see T1).\n\
         \n\
         The pipeline coalesces extent-sized runs into one StoreDataVec applied\n\
         as a single server transaction — one RPC and one group commit per 128\n\
         pages (BENCH_writeback.json archives the one-StoreData-per-page shape\n\
         it replaced).\n\
         \n\
         Concurrent writers (§5): distinct fids hash to different token/host\n\
         shards, so aggregate store-back throughput scales with clients\n\
         instead of serializing on one manager-wide mutex.",
        report,
    );
}
