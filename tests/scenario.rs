//! Scenario-engine integration tests (`dfs-bench::scenario`).
//!
//! Pins the driver's three contracts: (1) same seed ⇒ identical op
//! sequence, per-class counts, and final state (the deterministic
//! block is byte-identical); (2) a mixed shared-file workload passes
//! the lost-update and cross-client-agreement invariants; (3) timeline
//! events — fault arming included — fire at their declared op-count
//! offsets.

use dfs_bench::scenario::{ClassSpec, Event, OpClass, Phase, Scenario, Topology, MAX_WITNESSES};
use dfs_rpc::{FaultAction, FaultRule, FaultSchedule};

/// A small mixed workload: 8 clients over 2 volumes, shared write set
/// (4 clients per group), coherent reads, metadata churn, scans.
fn mixed(seed: u64) -> Scenario {
    Scenario::new(
        "test_mixed",
        seed,
        Topology::new(2, 8, 2).latency_us(20).no_flusher(),
        vec![
            Phase::new(
                "warm",
                12,
                vec![
                    ClassSpec::new(OpClass::Write, 3, 2).sharing(4).fsync_every(8),
                    ClassSpec::new(OpClass::Read, 3, 2).sharing(2),
                ],
            ),
            Phase::new(
                "mixed",
                20,
                vec![
                    ClassSpec::new(OpClass::Write, 2, 2).sharing(4),
                    ClassSpec::new(OpClass::Read, 4, 2).sharing(2),
                    ClassSpec::new(OpClass::MetadataChurn, 1, 3).sharing(2),
                    ClassSpec::new(OpClass::StreamingScan, 1, 1).sharing(4),
                ],
            ),
        ],
    )
}

#[test]
fn same_seed_replays_identical_ops_and_state() {
    let a = mixed(0xA11CE).run();
    let b = mixed(0xA11CE).run();
    assert_eq!(a.op_digest, b.op_digest, "op streams must replay");
    assert_eq!(a.class_ops, b.class_ops, "per-class op counts must replay");
    assert_eq!(a.state_digest, b.state_digest, "final contents must replay");
    assert_eq!(
        a.deterministic().json(),
        b.deterministic().json(),
        "the deterministic JSON block must be byte-identical"
    );
    assert_eq!(a.total_ops, 8 * (12 + 20));
}

#[test]
fn different_seeds_diverge() {
    let a = mixed(1).run();
    let b = mixed(2).run();
    assert_ne!(a.op_digest, b.op_digest, "different seeds must draw different streams");
}

#[test]
fn mixed_workload_passes_all_invariants() {
    let r = mixed(7).run();
    assert_eq!(r.failed_ops, 0, "no op may fail in a fault-free run");
    assert_eq!(r.lost_updates, 0, "fresh-client read-back must see every acked write");
    assert_eq!(r.agreement_failures, 0, "group members must agree on shared files");
    assert_eq!(r.torn_reads, 0, "page writes must be atomic under tokens");
    assert_eq!(r.scan_mismatches, 0, "prefilled content must survive");
    assert_eq!(r.ambiguous_regions, 0);
    assert_eq!(r.leaked_grants, 0, "no grant may outlive its file");
    assert!(r.clean());
    // A coherent run has no one to name, and no op failed to name.
    assert_eq!(r.witnesses, [], "witnesses on a coherent run");
    assert_eq!(r.failures, [], "failed ops on a clean run");
    // The workload actually exercised every class.
    assert!(r.class_ops.iter().all(|&n| n > 0), "all classes drawn: {:?}", r.class_ops);
    // And the report renders valid JSON, carrying the (empty) lists.
    let json = r.to_json();
    dfs_bench::json::validate(&json).expect("report JSON");
    assert!(json.contains(r#""witnesses": [], "failures": [],"#), "{json}");
}

#[test]
fn fault_timeline_arms_at_declared_op_offsets() {
    // Every op is a write with an immediate fsync, so `StoreDataVec`
    // traffic flows for the whole run and the armed rule is guaranteed
    // to see calls as soon as it fires.
    let drop_stores = FaultSchedule::seeded(3)
        .rule(FaultRule::on(FaultAction::Drop).label("StoreDataVec").limit(2));
    let sc = Scenario::new(
        "test_faults",
        11,
        Topology::new(1, 4, 1).latency_us(20).no_flusher(),
        vec![Phase::new(
            "load",
            30,
            vec![ClassSpec::new(OpClass::Write, 1, 2).sharing(1).fsync_every(1)],
        )],
    )
    .at(40, Event::ArmFaults(drop_stores))
    .at(80, Event::ClearFaults);
    let r = sc.run();

    assert_eq!(r.events.len(), 2, "both timeline events fired: {:?}", r.events);
    assert_eq!(r.events[0].event, "arm_faults");
    assert_eq!(r.events[0].at_op, 40);
    assert_eq!(r.events[1].event, "clear_faults");
    assert_eq!(r.events[1].at_op, 80);
    for e in &r.events {
        assert!(e.ok, "event must succeed: {e:?}");
        assert!(e.fired_at >= e.at_op, "never early: {e:?}");
        // At most one in-flight op per client can slip between the
        // crossing and the fire.
        assert!(e.fired_at <= e.at_op + 4, "fires at the declared offset: {e:?}");
    }
    assert_eq!(r.faults_injected, 2, "the armed rule injected its full budget");
    // A dropped StoreDataVec surfaces as a timeout the client retries; the
    // run still ends clean.
    assert!(r.clean(), "invariants: {}", r.invariants().json());
}

#[test]
fn crash_restart_and_move_fire_in_timeline_order() {
    let sc = Scenario::new(
        "test_events",
        5,
        Topology::new(2, 6, 2).latency_us(20).no_flusher(),
        vec![Phase::new(
            "load",
            30,
            vec![
                ClassSpec::new(OpClass::Write, 1, 2).sharing(3).fsync_every(4),
                ClassSpec::new(OpClass::Read, 1, 2).sharing(3),
            ],
        )],
    )
    .at(40, Event::CrashServer(1))
    .at(60, Event::RestartServer { slot: 1, grace_us: 1_000 })
    .at(120, Event::MoveVolume { volume: 1, dst_slot: 1 });
    let r = sc.run();

    let names: Vec<&str> = r.events.iter().map(|e| e.event).collect();
    assert_eq!(names, ["crash_server", "restart_server", "move_volume"]);
    assert!(r.events.iter().all(|e| e.ok), "all events applied: {:?}", r.events);
    // Ops may fail while the server is down (retry budgets expire),
    // but no *acknowledged* write may be lost and caches must agree.
    assert!(r.coherent(), "coherence invariants: {}", r.to_json());
    assert_eq!(r.lost_updates, 0);
    assert_eq!(r.agreement_failures, 0);
    assert!(r.server.moves >= 1, "the volume actually moved");
    // Every failed op is named, up to the bound, in the order it failed.
    let named = r.failed_ops.min(MAX_WITNESSES as u64);
    assert_eq!(r.failures.len() as u64, named, "{:?}", r.failures);
    assert!(r.failures.windows(2).all(|w| w[0].at_op <= w[1].at_op), "{:?}", r.failures);
}

#[test]
fn a_move_to_a_missing_slot_reports_not_ok() {
    let sc = Scenario::new(
        "test_bad_move",
        6,
        Topology::new(2, 2, 2).latency_us(20).no_flusher(),
        vec![Phase::new("load", 20, vec![ClassSpec::new(OpClass::Write, 1, 2).fsync_every(4)])],
    )
    .at(20, Event::MoveVolume { volume: 1, dst_slot: 5 });
    let r = sc.run();

    // The event is refused, not a panic: the run finishes, clean.
    assert_eq!(r.events.len(), 1);
    assert_eq!(r.events[0].event, "move_volume");
    assert!(!r.events[0].ok, "a move to slot 5 of 2 cannot succeed");
    assert_eq!(r.server.moves, 0);
    assert!(r.clean(), "invariants: {}", r.invariants().json());
}
