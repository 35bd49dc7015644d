//! Episode alone under `meta_churn`'s loop: each writer cycles create,
//! lookup, getattr and remove over 64 names in its own directory, with
//! no client, RPC or server above it. Prints ops/s for one writer and
//! for two, alternating, `rounds` times (default 3 s runs, 3 rounds),
//! and with each the journal's counts per op: class merges, transactions
//! begun, log bytes and buffer-cache gets (hits and misses). The counts
//! do not depend on the host's speed, so they tell two trees apart where
//! the rates are noise. Two writers in two directories made one after
//! the other share no block, so their line reads `0.000 merges`.
//!
//! ```sh
//! cargo run --release -p dfs-episode --example episode_churn -- [seconds] [rounds]
//! ```

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_journal::JournalStats;
use dfs_types::{SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Runs `writers` threads for `secs` seconds on a fresh aggregate;
/// returns their ops (one op = one VFS call, as in `meta_churn`), the
/// seconds they took and the journal's counts over the run.
fn run(writers: usize, secs: f64) -> (u64, f64, JournalStats) {
    let disk = SimDisk::new(DiskConfig::with_blocks(65536));
    let ep = Episode::format(disk, SimClock::new(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = vol.root().unwrap();
    let stop = AtomicBool::new(false);
    let before = ep.journal().stats();
    let start = Instant::now();
    let ops: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..writers)
            .map(|t| {
                let (vol, cred, stop) = (&vol, &cred, &stop);
                s.spawn(move || {
                    let dir = vol.mkdir(cred, root, &format!("w{t}"), 0o755).unwrap().fid;
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let name = format!("f{}", ops / 4 % 64);
                        let fid = vol.create(cred, dir, &name, 0o644).unwrap().fid;
                        assert_eq!(vol.lookup(cred, dir, &name).unwrap().fid, fid);
                        vol.getattr(cred, fid).unwrap();
                        vol.remove(cred, dir, &name).unwrap();
                        ops += 4;
                    }
                    ops
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    (ops, start.elapsed().as_secs_f64(), ep.journal().stats().since(&before))
}

/// One run's line: ops/s, then class merges, transactions, log bytes
/// and buffer-cache gets per op.
fn report(writers: usize, secs: f64) -> String {
    let (ops, took, d) = run(writers, secs);
    let per_op = |n: u64| n as f64 / ops as f64;
    format!(
        "{:>9.0} ops/s ({:.3} merges, {:.4} txns, {:.1} log bytes, {:.2} gets per op)",
        ops as f64 / took,
        per_op(d.class_merges),
        per_op(d.txns_begun),
        per_op(d.log_bytes),
        per_op(d.cache_hits + d.cache_misses),
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let secs: f64 = args.next().map_or(3.0, |a| a.parse().expect("seconds"));
    let rounds: usize = args.next().map_or(3, |a| a.parse().expect("rounds"));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("episode_churn: {secs} s per run, {rounds} rounds, nproc {nproc}");
    for round in 1..=rounds {
        println!("round {round}: one writer  {}", report(1, secs));
        println!("round {round}: two writers {}", report(2, secs));
    }
}
