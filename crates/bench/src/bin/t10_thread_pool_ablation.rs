//! T10 — §6.4: "the cache manager must ensure that some dedicated server
//! threads are available to handle these requests. If only one pool of
//! threads were available for all incoming requests, then it would be
//! possible for all of the server threads to be busy when a token
//! revocation procedure has to call back to the server, resulting in a
//! deadlock."
//!
//! Ablation: run a revocation-heavy workload with and without reserved
//! revocation capacity, with a deliberately tiny normal allowance. The
//! RPC plane keeps the paper's threads as admission slots (a call runs
//! on its caller, under a slot of the callee's), so the deadlock shows
//! up as it would with threads: the store-back waits for the one slot
//! its own revocation is being served under, until the call timeout.

use dfs_bench::emit::{arr, Obj};
use dfs_bench::{header, row};
use dfs_types::VolumeId;
use decorum_dfs::Cell;
use std::time::Duration;

fn run(revocation_workers: usize) -> (u64, u64, bool) {
    // One normal slot: any grant that blocks on a revocation occupies
    // it, so the revocation-triggered store-back MUST have somewhere
    // else to be served.
    let cell = Cell::builder().servers(1).pools(1, revocation_workers).build().unwrap();
    // A stalled handoff costs one call timeout; the default 5 s shows
    // nothing that 300 ms does not.
    cell.net().set_call_timeout(Duration::from_millis(300));
    cell.create_volume(0, VolumeId(1), "v").unwrap();
    let a = cell.new_client();
    let b = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "contended", 0o666).unwrap();
    a.write(f.fid, 0, &vec![0u8; 4096]).unwrap();

    let mut completed = 0u64;
    let mut failures = 0u64;
    for i in 0..10u64 {
        // A dirties the file; B's read forces revocation + store-back.
        let ok1 = a.write(f.fid, 0, &[i as u8; 512]).is_ok();
        let ok2 = b.read(f.fid, 0, 512).is_ok();
        if ok1 && ok2 {
            completed += 1;
        } else {
            failures += 1;
        }
    }
    let timeouts = cell.net().stats().timeouts;
    (completed, failures, timeouts == 0)
}

fn main() {
    let json = dfs_bench::Args::parse(&[]).json;
    let sweep: Vec<(usize, (u64, u64, bool))> =
        [2usize, 1, 0].iter().map(|&rw| (rw, run(rw))).collect();

    if json {
        let rows = arr(sweep.iter().map(|&(rw, (ok, failed, clean))| {
            Obj::new()
                .field("revocation_workers", rw)
                .field("handoffs_ok", ok)
                .field("failed", failed)
                .field("no_timeouts", clean)
        }));
        let out = Obj::new()
            .field("bench", "t10_thread_pool_ablation")
            .field_raw("sweep", &rows)
            .render();
        println!("{out}");
        return;
    }

    println!("T10: reserved revocation slots (§6.4 ablation; 1 normal slot)\n");
    header(&["rev slots", "handoffs ok", "failed", "no timeouts"]);
    for &(rw, (ok, failed, clean)) in &sweep {
        row(&[&rw, &ok, &failed, &clean]);
    }
    println!("\nExpected shape (paper §6.4): with reserved slots every handoff");
    println!("completes; with 0 reserved slots the store-back waits behind the");
    println!("grant it is part of and the workload stalls into timeouts — the");
    println!("deadlock the paper designs around.");
}
