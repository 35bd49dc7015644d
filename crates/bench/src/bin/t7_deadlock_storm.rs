//! T7 — §6: the locking hierarchy (high-level lock → server vnode →
//! low-level lock) plus per-file serialization stamps is deadlock-free
//! under contention, and single-system semantics hold throughout.
//!
//! A fleet of clients hammers a small set of shared files with mixed
//! reads, writes, lookups, locks, and opens. A wall-clock watchdog
//! detects stalls; the final cross-client view must agree byte-for-byte.

use dfs_bench::emit::{arr, Obj};
use dfs_bench::{f2, header, row};
use dfs_types::{ByteRange, VolumeId};
use decorum_dfs::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn storm(clients: usize, files: usize, ops_per_client: u64) -> (u64, f64, bool) {
    let cell = Cell::builder().servers(1).pools(12, 6).build().unwrap();
    cell.create_volume(0, VolumeId(1), "v").unwrap();
    let cms: Vec<_> = (0..clients).map(|_| cell.new_client()).collect();
    let root = cms[0].root(VolumeId(1)).unwrap();
    let fids: Vec<_> = (0..files)
        .map(|i| {
            let f = cms[0].create(root, &format!("shared{i}"), 0o666).unwrap();
            cms[0].write(f.fid, 0, &vec![0u8; 4096]).unwrap();
            f.fid
        })
        .collect();
    cms[0].fsync(fids[0]).unwrap();

    let completed = Arc::new(AtomicU64::new(0));
    let t0 = std::time::Instant::now();
    let threads: Vec<_> = cms
        .iter()
        .enumerate()
        .map(|(ci, cm)| {
            let cm = cm.clone();
            let fids = fids.clone();
            let completed = completed.clone();
            std::thread::spawn(move || {
                for op in 0..ops_per_client {
                    let fid = fids[(ci as u64 + op) as usize % fids.len()];
                    match op % 5 {
                        0 => {
                            cm.write(fid, (op % 8) * 128, &[ci as u8; 64]).unwrap();
                        }
                        1 | 2 => {
                            cm.read(fid, (op % 8) * 128, 64).unwrap();
                        }
                        3 => {
                            cm.getattr(fid).unwrap();
                        }
                        _ => {
                            let r = ByteRange::new((op % 4) * 32, (op % 4) * 32 + 16);
                            if cm.lock(fid, r, true).is_ok() {
                                cm.unlock(fid, r).unwrap();
                            }
                        }
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Watchdog: if total progress stalls for 10 s of wall time, flag it.
    let mut stalled = false;
    let total_ops = (clients as u64) * ops_per_client;
    let mut last = 0u64;
    let mut last_change = std::time::Instant::now();
    loop {
        let now = completed.load(Ordering::Relaxed);
        if now >= total_ops {
            break;
        }
        if now != last {
            last = now;
            last_change = std::time::Instant::now();
        } else if last_change.elapsed().as_secs() > 10 {
            stalled = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for t in threads {
        t.join().unwrap();
    }
    let wall = t0.elapsed().as_secs_f64();

    // Cross-client agreement: everyone converges on the same bytes.
    let mut agree = true;
    for fid in &fids {
        let reference = cms[0].read(*fid, 0, 1024).unwrap();
        for cm in &cms[1..] {
            if cm.read(*fid, 0, 1024).unwrap() != reference {
                agree = false;
            }
        }
    }
    (total_ops, wall, !stalled && agree)
}

fn main() {
    let json = dfs_bench::Args::parse(&[]).json;
    let sweep: Vec<(usize, usize, (u64, f64, bool))> =
        [(2usize, 1usize), (4, 2), (8, 4), (8, 1)]
            .iter()
            .map(|&(clients, files)| (clients, files, storm(clients, files, 150)))
            .collect();

    if json {
        let rows = arr(sweep.iter().map(|&(clients, files, (ops, wall, ok))| {
            Obj::new()
                .field("clients", clients)
                .field("files", files)
                .field("total_ops", ops)
                .field("wall_s", wall)
                .field("no_deadlock_and_agree", ok)
        }));
        let out = Obj::new()
            .field("bench", "t7_deadlock_storm")
            .field("ops_per_client", 150u64)
            .field_raw("sweep", &rows)
            .render();
        println!("{out}");
        return;
    }

    println!("T7: deadlock-avoidance storm (mixed read/write/getattr/lock ops)\n");
    header(&["clients", "files", "total ops", "wall s", "ops/s", "no-deadlock+agree"]);
    for &(clients, files, (ops, wall, ok)) in &sweep {
        row(&[&clients, &files, &ops, &f2(wall), &f2(ops as f64 / wall), &ok]);
    }
    println!("\nExpected shape (paper §6): every configuration completes — no");
    println!("dependency cycles between client vnode locks, server vnodes, and");
    println!("revocations — and all clients agree on the final contents.");
}
