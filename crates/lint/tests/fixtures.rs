//! End-to-end fixture tests: each fixture is a miniature workspace with
//! a seeded violation (or none), and the assertions pin the *exact*
//! rendered diagnostics, path and line included.

use std::path::{Path, PathBuf};

fn lint(fixture: &str) -> Vec<String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let prefix = format!("{}/", root.display());
    dfs_lint::run(&root)
        .expect("fixture scan must succeed")
        .iter()
        .map(|d| d.to_string().replace(&prefix, ""))
        .collect()
}

#[test]
fn clean_fixture_reports_nothing() {
    assert_eq!(lint("clean"), Vec::<String>::new());
}

#[test]
fn inversion_fixture_reports_each_cycle_pair() {
    assert_eq!(
        lint("inversion"),
        vec![
            "alpha/src/lib.rs:14: [lock-order] lock-order cycle: `alpha.b` acquired while \
             holding `alpha.a`, but another path acquires them in the opposite order",
            "alpha/src/lib.rs:26: [lock-order] lock-order cycle: `beta.c` acquired while \
             holding `alpha.a` via `with_c`, but another path acquires them in the opposite \
             order",
            "beta/src/lib.rs:13: [lock-order] lock-order cycle: `alpha.b` acquired while \
             holding `beta.c` via `cross`, but another path acquires them in the opposite \
             order",
        ]
    );
}

#[test]
fn rank_inversion_fixture_reports_descending_acquisition() {
    assert_eq!(
        lint("rank_inversion"),
        vec![
            "alpha/src/lib.rs:13: [lock-order] acquiring `low` (rank 10) while holding \
             `high` (rank 20) inverts the declared hierarchy",
        ]
    );
}

#[test]
fn guard_across_revoke_fixture_flags_only_the_bad_paths() {
    assert_eq!(
        lint("guard_across_revoke"),
        vec![
            "alpha/src/lib.rs:13: [guard-across-revoke] guard on `inner` (line 12) held \
             across TokenHost::revoke; §5.1/§6.4 require revocation to be issued with no \
             locks held",
            "alpha/src/lib.rs:28: [guard-across-revoke] guard on `inner` (line 27) held \
             across TokenHost::revoke_batch; §5.1/§6.4 require revocation to be issued with \
             no locks held",
        ]
    );
}

#[test]
fn shard_order_fixture_flags_descending_and_overlapping_shards() {
    assert_eq!(
        lint("shard_order"),
        vec![
            "alpha/src/lib.rs:15: [shard-order] acquiring shard 0 of `shards` while shard 1 \
             (line 14) is held; same-field shards must be acquired in strictly ascending \
             index order",
            "alpha/src/lib.rs:27: [shard-order] acquiring `shards#0` while `shards#*` \
             (line 26) holds every shard; a lock_all guard must never overlap another \
             acquisition of the same sharded lock (self-deadlock)",
        ]
    );
}

#[test]
fn lock_shard_fixture_flags_descending_lock_table_shards() {
    assert_eq!(
        lint("lock_shard"),
        vec![
            "alpha/src/lib.rs:16: [shard-order] acquiring shard 1 of `shards` while shard 3 \
             (line 15) is held; same-field shards must be acquired in strictly ascending \
             index order",
        ]
    );
}

#[test]
fn guard_across_rpc_fixture_flags_direct_and_transitive_sends() {
    assert_eq!(
        lint("guard_across_rpc"),
        vec![
            "alpha/src/lib.rs:14: [guard-across-rpc] guard on `state` (line 13) held across \
             a dfs-rpc send; the peer's reply can block on a revocation that needs this \
             lock (§5.1/§6.4)",
            "alpha/src/lib.rs:20: [guard-across-rpc] guard on `state` (line 19) held across \
             `send_helper`, which sends dfs-rpc; the peer's reply can block on a revocation \
             that needs this lock (§5.1/§6.4)",
        ]
    );
}

#[test]
fn wrapped_locks_fixture_sees_locks_inside_arc_vec_and_box() {
    assert_eq!(
        lint("wrapped_locks"),
        vec![
            "alpha/src/lib.rs:21: [lock-order] acquiring `load` (rank 10) while holding \
             `table` (rank 20) inverts the declared hierarchy",
            "alpha/src/lib.rs:27: [guard-across-rpc] guard on `slots` (line 26) held across \
             a dfs-rpc send; the peer's reply can block on a revocation that needs this \
             lock (§5.1/§6.4)",
            "alpha/src/lib.rs:34: [lock-gap] write under `slots` reacquired at line 34 uses \
             state read under the guard from line 32, which was released in between \
             (release/reacquire TOCTOU); revalidate after reacquiring (e.g. a version \
             counter) or hold the lock across",
            "alpha/src/lib.rs:40: [double-lock] `leaves` re-acquired while its guard from \
             line 39 is still live (self-deadlock with a non-reentrant lock)",
        ]
    );
}

#[test]
fn double_lock_fixture_flags_reacquisition() {
    assert_eq!(
        lint("double_lock"),
        vec![
            "alpha/src/lib.rs:12: [double-lock] `a` re-acquired while its guard from line \
             11 is still live (self-deadlock with a non-reentrant lock)",
        ]
    );
}

#[test]
fn std_sync_fixture_flags_std_locks() {
    assert_eq!(
        lint("std_sync"),
        vec![
            "alpha/src/lib.rs:3: [std-sync] std::sync::Mutex in non-test code; use \
             parking_lot via dfs_types::lock::OrderedMutex so the rank enforcer sees it",
        ]
    );
}

#[test]
fn fleet_rank_fixture_flags_planning_under_server_guards() {
    // A placement planner's lock ranks *below* server-side locks
    // (planning inspects servers), and must never be pinned across a
    // move RPC — the two rules `Cell`'s load baseline (`CELL_LOAD`) keeps.
    assert_eq!(
        lint("fleet_rank"),
        vec![
            "alpha/src/lib.rs:20: [lock-order] acquiring `plan` (rank 90) while holding \
             `registry` (rank 100) inverts the declared hierarchy",
            "alpha/src/lib.rs:26: [guard-across-rpc] guard on `plan` (line 25) held across \
             a dfs-rpc send; the peer's reply can block on a revocation that needs this \
             lock (§5.1/§6.4)",
        ]
    );
}

#[test]
fn lockset_fixture_flags_the_volume_header_rmw_race() {
    // Minimized PR 6 race #1: the vnode-map length is RMW'd under the
    // header lock on one path and stored back bare on another.
    assert_eq!(
        lint("lockset"),
        vec![
            "alpha/src/lib.rs:25: [lockset] shared field `map_len` has an empty candidate \
             lockset across 3 access sites: this write holds no lock, but \
             alpha/src/lib.rs:19 holds `hdr`; no common lock protects the field",
        ]
    );
}

#[test]
fn lockgap_fixture_flags_the_dirty_bit_clear_across_release() {
    // Minimized PR 6 race #2: writeback drops the frame lock for I/O and
    // clears `dirty` on reacquire without revalidating. The fixed
    // variant (version-counter check), the merge variant (RHS re-reads
    // the fresh guard) and the forget variant (a condition calls a
    // method of the fresh guard) stay clean.
    assert_eq!(
        lint("lockgap"),
        vec![
            "alpha/src/lib.rs:23: [lock-gap] write under `state` reacquired at line 22 uses \
             state read under the guard from line 18, which was released in between \
             (release/reacquire TOCTOU); revalidate after reacquiring (e.g. a version \
             counter) or hold the lock across",
        ]
    );
}

#[test]
fn unused_allow_fixture_flags_stale_and_unknown_suppressions() {
    assert_eq!(
        lint("unused_allow"),
        vec![
            "alpha/src/lib.rs:13: [unused-allow] `dfs-lint: allow(double-lock)` suppresses \
             nothing here; remove the stale annotation",
            "alpha/src/lib.rs:17: [unused-allow] `dfs-lint: allow(guard-accross-rpc)` names \
             an unknown rule; known rules are lock-order, guard-across-revoke, \
             guard-across-rpc, double-lock, std-sync, lockset, lock-gap, shard-order, \
             unused-allow",
        ]
    );
}

#[test]
fn json_rendering_is_stable_and_well_formed() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unused_allow");
    let diags = dfs_lint::run(&root).expect("fixture scan must succeed");
    let json = dfs_lint::render_json(&diags);
    assert!(json.starts_with("{\n  \"diagnostics\": ["));
    assert!(json.trim_end().ends_with("\"total\": 2\n}"));
    assert_eq!(json.matches("\"rule\": \"unused-allow\"").count(), 2);
    // Stable order: line 13 before line 17.
    assert!(json.find("\"line\": 13").unwrap() < json.find("\"line\": 17").unwrap());
    // Rendering the empty set is still one well-formed document.
    assert_eq!(
        dfs_lint::render_json(&[]),
        "{\n  \"diagnostics\": [],\n  \"total\": 0\n}\n"
    );
}

/// The real tree's three roots, as `verify.sh` lints them: `crates/`,
/// `shims/`, and the workspace root crate.
const WORKSPACE_ROOTS: [&str; 3] = ["..", "../../shims", "../.."];

/// Every lock under `root` that no rank covers: a lock field with no
/// rank, and any raw `parking_lot` or `std::sync` lock named in non-test
/// code, wherever it sits (a tuple field, an `Option`, a map value, a
/// `static`). The wrappers' own module and the shims are exempt (the
/// parking_lot shim *is* the raw lock), and so are Episode's anode locks,
/// the one kind of lock outside the table (DESIGN.md §8): boxed slices
/// of `RwLock`s, imported once in `episode/src/lib.rs`.
fn unranked_locks(root: &Path) -> Vec<String> {
    let prefix = format!("{}/", root.display());
    let mut out = Vec::new();
    for file in dfs_lint::facts(root).expect("scan must succeed") {
        let path = file.path.replace(&prefix, "");
        if path.ends_with("types/src/lock.rs") || file.path.contains("/shims/") {
            continue;
        }
        for field in file.fields.iter().filter(|f| f.rank.is_none()) {
            out.push(format!("{path}:{}: field `{}` has no rank", field.line, field.name));
        }
        let anode_locks = |ty: &str| path.ends_with("episode/src/lib.rs") && ty == "RwLock";
        let raw = file.raw_lock_sites.iter().map(|(l, t)| (l, "parking_lot", t));
        let std = file.std_sync_sites.iter().map(|(l, t)| (l, "std::sync", t));
        for (line, krate, ty) in raw.chain(std).filter(|(_, _, t)| !anode_locks(t)) {
            out.push(format!("{path}:{line}: raw {krate}::{ty}"));
        }
    }
    out
}

#[test]
fn unranked_locks_fixture_flags_raw_locks_wherever_they_sit() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unranked_locks");
    assert_eq!(
        unranked_locks(&root),
        vec![
            "alpha/src/lib.rs:16: field `a` has no rank",
            "alpha/src/lib.rs:26: field `GLOBAL` has no rank",
            "alpha/src/lib.rs:7: raw parking_lot::RwLock",
            "alpha/src/lib.rs:16: raw parking_lot::Mutex",
            "alpha/src/lib.rs:19: raw parking_lot::Mutex",
            "alpha/src/lib.rs:22: raw parking_lot::Mutex",
            "alpha/src/lib.rs:26: raw parking_lot::Mutex",
        ]
    );
}

#[test]
fn every_workspace_lock_is_ranked() {
    // A new raw lock fails here: wrap it in an `Ordered*` type with a
    // rank from `dfs_types::lock::rank`.
    let mut unranked = Vec::new();
    for rel in WORKSPACE_ROOTS {
        unranked.extend(unranked_locks(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)));
    }
    assert_eq!(unranked, Vec::<String>::new(), "locks with no rank");
}

#[test]
fn the_workspace_itself_is_clean() {
    // The real tree, all three verify.sh roots: `crates/`, `shims/`,
    // and the workspace root crate. Keeping this green is the point of
    // the tool; a violation here should fail CI with the same message
    // `cargo run -p dfs-lint` would print.
    for rel in WORKSPACE_ROOTS {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
        let diags = dfs_lint::run(&root).expect("workspace scan must succeed");
        assert_eq!(
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
            Vec::<String>::new(),
            "root {rel} must be clean"
        );
    }
}
