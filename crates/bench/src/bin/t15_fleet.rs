//! T15 — the fleet layer (§2.1 + §3.4): aggregate throughput of a
//! volume-sharded cell as the server count grows, with a live volume
//! migration in the middle of the run.
//!
//! The sweep is a scenario definition over [`dfs_bench::scenario`]: a
//! fixed fsync-heavy write workload plus metadata churn spread over 8
//! volumes (round-robin across 1/2/4/8 servers), with a mid-run
//! [`Event::MoveVolume`] armed at the halfway op count so the
//! migration happens under live traffic from every client. The shared
//! driver owns seeding, the invariant checks (zero lost updates,
//! cross-client agreement), and the stats plumbing; this binary is
//! just the spec and the report shaping.
//!
//! Throughput is operations per simulated second of *critical-path*
//! disk time: disks are the per-server bottleneck resource and servers
//! run in parallel, so the fleet's makespan is the busiest disk's time.
//!
//! Flags: `--json` emits machine-readable results (validated by
//! `jsoncheck` in the verify.sh smoke stage); `--ops N` sets ops per
//! client; `--servers N` restricts the sweep to one fleet size.

use dfs_bench::emit::Obj;
use dfs_bench::scenario::{ClassSpec, Event, OpClass, Phase, RunReport, Scenario, Topology};
use dfs_bench::Args;

const VOLUMES: u64 = 8;
const CLIENTS: u32 = 8;

/// The fixed workload over `servers` servers: private files, every
/// write fsync'd in pairs (the create/write/fsync cadence of the old
/// hand-rolled loop), a metadata-churn seasoning, and — when there is
/// somewhere to move to — volume 1 live-migrated at the halfway point.
fn scenario(servers: u32, ops_per_client: u64) -> Scenario {
    let total = u64::from(CLIENTS) * ops_per_client;
    let mut sc = Scenario::new(
        "t15_fleet",
        15,
        Topology::new(servers, CLIENTS, VOLUMES),
        vec![Phase::new(
            "load",
            ops_per_client,
            vec![
                ClassSpec::new(OpClass::Write, 3, 6).fsync_every(2),
                ClassSpec::new(OpClass::MetadataChurn, 1, 4),
            ],
        )],
    );
    if servers > 1 {
        // Volume 1 starts on slot 0 (round-robin placement); move it
        // to the next slot while the clients' location caches still
        // point at the old owner.
        sc = sc.at(total / 2, Event::MoveVolume { volume: 1, dst_slot: 1 });
    }
    sc
}

fn main() {
    let args = Args::parse(&["--ops", "--servers"]);
    let ops = args.get("--ops", 36u64);
    let sizes = args.opt::<u32>("--servers").map_or(vec![1, 2, 4, 8], |n| vec![n]);
    let runs: Vec<RunReport> = sizes.iter().map(|&n| scenario(n, ops).run()).collect();
    let base = runs[0].ops_per_disk_sec();
    let sweep = runs.iter().map(|r| {
        // In a 1-server fleet there is nowhere to move — not a failure.
        let moved = r.servers == 1 || (r.server_moves >= 1 && r.events.iter().all(|e| e.ok));
        Obj::new()
            .field("servers", r.servers)
            .field("total_ops", r.total_ops)
            .field("max_disk_busy_ms", r.disk_busy_us as f64 / 1000.0)
            .field("agg_ops_per_sec", r.ops_per_disk_sec())
            .field("speedup", r.ops_per_disk_sec() / base)
            .field("move_completed", moved)
            .field("redirects", r.server_redirects + r.client_stats.wrong_server_redirects)
            .field("lost_updates", r.lost_updates)
            .field("all_ops_ok", r.failed_ops == 0 && r.clean())
    });
    args.print(
        &format!("T15: fleet scaling — {VOLUMES} volumes, {CLIENTS} clients, mid-run move"),
        "Expected shape (paper §2.1): aggregate throughput grows with the\n\
         server count — volumes are the unit of sharding, and the busiest\n\
         disk's time shrinks as they spread out. The mid-run migration\n\
         completes under live traffic with zero failed operations and zero\n\
         lost updates; its cost is a handful of WrongServer redirects.",
        Obj::new()
            .field("bench", "t15_fleet")
            .field("volumes", VOLUMES)
            .field("clients", CLIENTS)
            .field("ops_per_client", ops)
            .field_arr("sweep", sweep),
    );
}
