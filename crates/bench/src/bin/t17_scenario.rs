//! T17 — the scenario engine's headline run: a large mixed-workload
//! cluster with a mid-run crash/restart and a live volume migration,
//! executed twice to prove the replay contract.
//!
//! The default shape is 256 clients over 4 servers and 8 volumes, a
//! weighted read/write/metadata-churn/streaming-scan mix, a server
//! crash at 30% of the op budget, its restart (with a grace window) at
//! 36%, and a live volume move at 60% — all armed as op-count timeline
//! events on the shared driver ([`dfs_bench::scenario`]). The run
//! executes twice with the same seed and the report's deterministic
//! block (seed, op counts, per-class mix, op-stream digest) must come
//! back **byte-identical** — that, plus zero lost updates and zero
//! coherence-invariant failures, is the acceptance bar recorded in
//! EXPERIMENTS.md (BENCH_scenario.json).
//!
//! Ops may legitimately fail while the crashed server's retry budgets
//! expire (availability, honestly reported); what may never happen is
//! an acknowledged write disappearing or two caches disagreeing.
//!
//! Flags: `--json`, `--clients N`, `--servers N`, `--ops N` (per
//! client), `--seed N`.

use dfs_bench::emit::Obj;
use dfs_bench::scenario::{ClassSpec, Event, OpClass, Phase, RunReport, Scenario, Topology};
use dfs_bench::{header, row, Args};

const VOLUMES: u64 = 8;

struct Config {
    json: bool,
    clients: u32,
    servers: u32,
    ops: u64,
    seed: u64,
}

fn parse_args() -> Config {
    let args = Args::parse(&["--clients", "--servers", "--ops", "--seed"]);
    let a = Config {
        json: args.json,
        clients: args.get("--clients", 256),
        servers: args.get("--servers", 4),
        ops: args.get("--ops", 24),
        seed: args.get("--seed", 17),
    };
    assert!(a.servers >= 2, "t17 needs >= 2 servers (the timeline crashes one and moves a volume)");
    a
}

fn scenario(a: &Config) -> Scenario {
    let total = u64::from(a.clients) * a.ops;
    Scenario::new(
        "t17_scenario",
        a.seed,
        Topology::new(a.servers, a.clients, VOLUMES).latency_us(20).no_flusher(),
        vec![
            // Warm-up third: establish the write sets and read caches.
            Phase::new(
                "warm",
                a.ops / 3,
                vec![
                    ClassSpec::new(OpClass::Write, 1, 2).sharing(4).fsync_every(8),
                    ClassSpec::new(OpClass::Read, 1, 2).sharing(2),
                ],
            ),
            // Storm: the full weighted mix, under which the timeline
            // crashes a server, restarts it, and moves a volume.
            Phase::new(
                "storm",
                a.ops - a.ops / 3,
                vec![
                    ClassSpec::new(OpClass::Write, 2, 2).sharing(4).fsync_every(8),
                    ClassSpec::new(OpClass::Read, 4, 2).sharing(2),
                    ClassSpec::new(OpClass::MetadataChurn, 1, 3).sharing(2),
                    ClassSpec::new(OpClass::StreamingScan, 1, 1).sharing(4),
                ],
            ),
        ],
    )
    // Volume 1 starts on slot 0 (round-robin placement); slot 1 hosts
    // other volumes, crashes mid-storm, comes back with a 500 µs grace
    // window, and then *receives* the migrated volume under traffic.
    .at(total * 30 / 100, Event::CrashServer(1))
    .at(total * 36 / 100, Event::RestartServer { slot: 1, grace_us: 500 })
    .at(total * 60 / 100, Event::MoveVolume { volume: 1, dst_slot: 1 })
    .sample_every((total / 16).max(1))
}

fn report(a: &Config, r: &RunReport, replay_identical: bool) -> String {
    let ok = r.coherent() && replay_identical && r.events.iter().all(|e| e.ok);
    Obj::new()
        .field("bench", "t17_scenario")
        .field("replay_identical", replay_identical)
        .field("ok", ok)
        .field("ops_per_client", a.ops)
        .field_raw("run", &r.to_json())
        .render()
}

fn main() {
    let a = parse_args();
    let first = scenario(&a).run();
    let second = scenario(&a).run();
    let replay_identical = first.deterministic_json() == second.deterministic_json();

    if a.json {
        println!("{}", report(&a, &first, replay_identical));
        return;
    }

    println!(
        "T17: scenario engine — {} clients x {} servers, {} volumes, crash+restart+move\n",
        a.clients, a.servers, VOLUMES
    );
    header(&["total ops", "failed", "lost", "disagree", "torn", "faults", "moves", "RPCs"]);
    row(&[
        &first.total_ops,
        &first.failed_ops,
        &first.lost_updates,
        &first.agreement_failures,
        &first.torn_reads,
        &first.faults_injected,
        &first.server_moves,
        &first.net_calls,
    ]);
    println!("\nTimeline:");
    for e in &first.events {
        println!("  {:>16} armed at op {:>6}, fired at {:>6}, ok={}", e.event, e.at_op, e.fired_at, e.ok);
    }
    println!("\nDeterministic block: {}", first.deterministic_json());
    println!("Replay identical:    {replay_identical}");
    println!("Invariants:          {}", first.invariants_json());
    println!("\nExpected shape: the op stream replays byte-identically under the");
    println!("fixed seed (both runs above), no acknowledged write is lost and no");
    println!("two caches disagree — while ops during the crash window may fail");
    println!("honestly, and the migration costs only WrongServer redirects.");
}
