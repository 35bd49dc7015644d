//! The protocol path owns no thread (`dfs-rpc` runs a call on its
//! caller): a world of 8 clients and 1 server is exactly its driver
//! threads and its flushers from the first op to the last, and it runs
//! to completion — coherent, nothing leaked, no call ever short of a
//! slot — so no liveness depended on a pool thread being free. This
//! file holds one test so that it has a process — and a thread count —
//! to itself.
#![cfg(target_os = "linux")]

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dfs_bench::scenario::{ClassSpec, OpClass, Phase, Scenario, Topology};

const CLIENTS: u32 = 8;

#[test]
fn eight_clients_run_on_their_drivers_and_flushers_alone() {
    // Handoffs (writers of one file group revoking each other, readers
    // of the same files revoking the writers) mixed with create/remove
    // churn, every client's flusher storing behind it.
    let sc = Scenario::new(
        "caller_runs",
        21,
        Topology::new(1, CLIENTS, 1).latency_us(20),
        vec![Phase::new(
            "handoff_and_churn",
            400,
            vec![
                ClassSpec::new(OpClass::Write, 3, 2).sharing(4).fsync_every(8),
                ClassSpec::new(OpClass::Read, 3, 2).sharing(4),
                ClassSpec::new(OpClass::MetadataChurn, 2, 4).sharing(2),
            ],
        )],
    );

    let before = common::threads();
    let done = AtomicBool::new(false);
    let (report, peak) = std::thread::scope(|s| {
        let watch = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Acquire) {
                peak = peak.max(common::threads());
                std::thread::sleep(Duration::from_micros(200));
            }
            peak
        });
        let report = sc.run();
        done.store(true, Ordering::Release);
        (report, watch.join().unwrap())
    });

    // The watcher, one driver and one flusher per client: nothing else
    // ever ran, whatever the servers, VLDB replicas and clients served.
    assert_eq!(peak, before + 1 + 2 * CLIENTS as usize, "threads beyond drivers and flushers");
    // A flusher that held the last handle to its client is not joined
    // by the drop; it exits on its own.
    let deadline = Instant::now() + Duration::from_secs(10);
    while common::threads() > before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(common::threads(), before, "threads outlived the world");

    assert_eq!(report.total_ops, u64::from(CLIENTS) * 400);
    assert!(report.clean(), "invariants: {}", report.to_json());
    assert!(report.witnesses.is_empty(), "witnesses: {}", report.to_json());
    assert_eq!(report.leaked_grants, 0);
    assert_eq!(report.net.timeouts, 0, "a call waited out the timeout for a slot");
    assert!(report.client_stats.revocations > 0, "the mix must hand tokens off");
}
