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
use dfs_bench::scenario::{ClassSpec, Event, OpClass, Phase, Scenario, Topology};
use dfs_bench::Args;

const VOLUMES: u64 = 8;

/// The headline run: `clients` × `ops` ops over `servers` servers.
fn scenario(clients: u32, servers: u32, ops: u64, seed: u64) -> Scenario {
    let total = u64::from(clients) * ops;
    Scenario::new(
        "t17_scenario",
        seed,
        Topology::new(servers, clients, VOLUMES).latency_us(20).no_flusher(),
        vec![
            // Warm-up third: establish the write sets and read caches.
            Phase::new(
                "warm",
                ops / 3,
                vec![
                    ClassSpec::new(OpClass::Write, 1, 2).sharing(4).fsync_every(8),
                    ClassSpec::new(OpClass::Read, 1, 2).sharing(2),
                ],
            ),
            // Storm: the full weighted mix, under which the timeline
            // crashes a server, restarts it, and moves a volume.
            Phase::new(
                "storm",
                ops - ops / 3,
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

fn main() {
    let args = Args::parse(&["--clients", "--servers", "--ops", "--seed"]);
    let (clients, servers) = (args.get("--clients", 256u32), args.get("--servers", 4u32));
    let (ops, seed) = (args.get("--ops", 24u64), args.get("--seed", 17u64));
    assert!(servers >= 2, "t17 needs >= 2 servers (the timeline crashes one and moves a volume)");
    let first = scenario(clients, servers, ops, seed).run();
    let second = scenario(clients, servers, ops, seed).run();
    let replay_identical = first.deterministic() == second.deterministic();
    let ok = first.coherent() && replay_identical && first.events.iter().all(|e| e.ok);
    args.print(
        &format!(
            "T17: scenario engine — {clients} clients x {servers} servers, {VOLUMES} volumes, \
             crash+restart+move"
        ),
        "Expected shape: the op stream replays byte-identically under the\n\
         fixed seed (both runs), no acknowledged write is lost and no\n\
         two caches disagree — while ops during the crash window may fail\n\
         honestly, and the migration costs only WrongServer redirects.",
        Obj::new()
            .field("bench", "t17_scenario")
            .field("replay_identical", replay_identical)
            .field("ok", ok)
            .field("ops_per_client", ops)
            .field("run", first.report()),
    );
}
