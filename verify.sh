#!/bin/sh
# Full verification gate: what CI runs, and what a PR must keep green.
#
#   1. release build of the whole workspace (the root manifest's
#      `default-members` makes the plain command cover every crate)
#   2. release build of the standalone benchmark/ package, which links
#      the crates' public API and is not a workspace member: an API
#      break fails here, in seconds, not after ten stages
#      Both builds run with --locked: a dependency edit that would
#      rewrite Cargo.lock or benchmark/Cargo.lock fails the build
#      instead of silently changing the lock file
#   3. the test suite (unit + integration + property tests, every crate;
#      debug build, so the lock-rank enforcer checks every acquisition).
#      dfs-lint's `every_workspace_lock_is_ranked` runs here: a lock
#      field with no rank, or a raw parking_lot/std::sync lock named
#      anywhere in non-test code, fails it, outside the wrappers' own
#      file, shims/ and Episode's anode locks
#   4. dfs-lint: workspace-wide concurrency static analysis (lock
#      order, lockset coverage, lock-gap TOCTOU, stale allows) over
#      crates/, shims/, and the root crate — every lock field, those
#      wrapped in an Arc, a Vec or a Box included (a lock in a tuple
#      field, an Option, a map or a static is not a lock field to it;
#      stage 3 refuses such a raw lock); the --json rendering
#      is validated through jsoncheck (see crates/lint and DESIGN.md
#      "Concurrency discipline")
#   5. cargo clippy --workspace --all-targets with every warning an
#      error (the pinned deny-list — await_holding_lock, mut_mutex_lock,
#      redundant_clone — plus clippy's defaults: zero warnings), tests,
#      benches and examples included, so test code keeps the lint set
#   6. bench smoke: T8 and T1 at tiny parameters in --json mode; fails
#      on a panic (non-zero exit) or malformed JSON (jsoncheck)
#   7. recovery gate: the crash-restart pipeline tests plus T13 at tiny
#      parameters (server epoch bump, grace window, token
#      reestablishment, dirty-burst replay); T13's output is
#      deterministic, and the stage fails unless each of its 4 rows
#      prints `"grace_waits": 1, "verified": true` — the client was held
#      off exactly once before checking in, and every burst page read
#      back as written — and unless all 4 rows print the same
#      `recovery_rpcs`: the RPCs from the crash to the first op's return
#      do not grow with the files cached (recovery revalidates nothing
#      file by file; DESIGN.md §10 "The client pipeline")
#   8. fleet gate: the multi-server cell tests (tests/fleet.rs) plus
#      T15 at tiny parameters (volume sharding, WrongServer routing,
#      live mid-run migration); the stage fails unless T15's row prints
#      `"move_completed": true,` and `"lost_updates": 0, "all_ops_ok":
#      true` — the move happened and no op or update was lost (its
#      redirect count depends on timing and is not gated)
#   9. hotpath gate: the token stress suite (which loops over shard
#      counts 1 and 4 itself) plus T9 with a small --clients sweep and
#      T8 with a --clients concurrency section, both JSON-validated;
#      T9's handoff half is deterministic, and the stage fails unless it
#      reports §5.5's cost exactly — `"rpcs_per_handoff": 5.03` (503
#      RPCs over 100 handoffs: about one GetToken, two RevokeVec, one
#      StoreDataVec and one FetchData each) and `"stale_reads": 0`
#  10. availability gate: the fault-matrix tests (drop/delay/duplicate/
#      partition over flush, revocation, migration) plus T14 at tiny
#      parameters (§3.8 replica promotion: bounded-stale reads during a
#      primary partition, honest Unavailable without a replica, zero
#      lost updates after reconciliation)
#  11. scenario gate: the scenario-engine tests (seed determinism,
#      invariant counters, fault-timeline arming) plus T17 at tiny
#      parameters — a crash + restart + live volume move mid-run, run
#      twice; the smoke fails unless the JSON reports ok (coherent,
#      replay-identical, all events fired)
#  12. bench JSON smoke: every binary in crates/bench/src/bin that no
#      earlier stage runs with its own flags (the list is read from the
#      directory, so a new experiment cannot be left out) runs once in
#      --json mode and its output is validated through jsoncheck; T10's
#      rows must also show the §6.4 shape (reserved revocation slots: no
#      failure, no timeout; none: timeouts); and one binary (F3) runs in
#      text mode, the report's other rendering, failing on a panic
#  13. repo benchmark gate: the standalone benchmark/ package's unit
#      tests (RPCs per lock-step round, same-seed op digest) and its
#      smoke run — all four workloads at 1/50 size, 0 failed ops
#  14. coherence gate: the benchmark's `shared_handoff` workload with
#      the clients' background flusher ON, 5 s at seeds 1, 2 and 3 under
#      --strict — every read of the handed-off page is checked against
#      the last acknowledged write, and one stale read fails the stage
#      (the store gate, DESIGN.md §9; 14–35 per run before it)
#  15. stationarity gate: the benchmark's `meta_churn` workload, 4 s at
#      seed 1 under --strict, must report `token.unreturned_per_kop` as
#      exactly 0.0000 — a count, not a timing: every grant made was
#      returned, revoked or retired with its file (DESIGN.md "Token
#      lifetime"; 250 per 1 000 ops before it) — and
#      `journal.checkpoints_per_kop` at most 0.9: a log record carries
#      only the bytes that change (DESIGN.md §7 "A thin log path").
#      Calibrated with this stage's own command on a 2-vCPU host: 1.69
#      and 1.82 before it (whole-anode records), 0.31 and 0.31 after —
#      and `journal.txns_per_op` at most 0.5010: a create and a remove
#      are one transaction each (DESIGN.md §7 "A remove is one short
#      transaction"; 1.2505 while a remove took four) and the volume
#      counters' mark extensions stay rare (DESIGN.md §7 "Volume
#      counters off the transaction"; 0.5005 with one per ~2 048 ops);
#      and Episode alone (`episode_churn`, 1 s, one round) must print
#      `0.000 merges` on its two-writer line — a count, not a timing:
#      writers in two directories created in turn share no Episode
#      block, so their transactions never join one class (DESIGN.md §7
#      "A file lives next to its directory", which states the limits:
#      up to 8 directories since the mount; 0.19 per op before it)
#  16. buffer-cache gate: the benchmark's `write_fsync` workload, 4 s at
#      seed 1 under --strict, must report 0 failed ops,
#      `disk.reads_per_op` at most 0.05 — a whole page stored is not read
#      first (DESIGN.md §7 "A store is one copy and one flush"; 0.947 and
#      0.949 while every page was, 0.005 since) — and
#      `journal.cache_hit_share` at least 0.83: the share still counts
#      every buffer-cache miss, so CLOCK replacement must not miss more
#      than it does (DESIGN.md §7 "Buffer-cache replacement"). Calibrated
#      with this stage's own command on a 2-vCPU host: 0.8369 and 0.8370
#      (0.8362–0.8363 at the parent); 0.7907, with 0.27 reads per op,
#      with the cache cut to 32 frames. A change that drops redundant lookups
#      (always hits) lowers the share with the misses unchanged
#      (0.883 → 0.838 then): recalibrate the floor with it
#
# Run from the repo root:  ./verify.sh
set -eu
cd "$(dirname "$0")"

echo "==> cargo build --release --locked"
cargo build --release --locked

echo "==> benchmark/ build (the crates' public API, as the benchmark links it)"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> dfs-lint crates/ shims/ . (JSON validated)"
cargo run -q --release -p dfs-lint -- crates shims .
lint_out=$(cargo run -q --release -p dfs-lint -- --json crates shims .)
printf '%s' "$lint_out" | cargo run -q --release -p dfs-bench --bin jsoncheck

echo "==> cargo clippy --workspace --all-targets (zero warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

# Runs one dfs-bench binary in --json mode with the given flags and
# validates what it printed (left in $out). Capture then pipe, so a
# bench panic fails the stage even without `pipefail` (plain sh).
smoke() {
  bin=$1
  shift
  out=$(cargo run -q --release -p dfs-bench --bin "$bin" -- --json "$@")
  printf '%s' "$out" | cargo run -q --release -p dfs-bench --bin jsoncheck
}

echo "==> bench smoke (t8 + t1, tiny params, JSON validated)"
smoke t8_group_commit --ops 64 --pages 32
smoke t1_metadata_traffic --files 50

echo "==> recovery gate (crash-restart tests + t13 smoke)"
cargo test -q --test recovery
smoke t13_crash_restart --files 8 --burst 4
row='"grace_waits": 1, "verified": true'
case "$out" in
  *"$row"*"$row"*"$row"*"$row"*) ;;
  *) echo "t13 smoke: a row no longer shows one grace wait and a verified burst"; exit 1 ;;
esac
rpcs=$(printf '%s' "$out" | grep -o '"recovery_rpcs": [0-9]*' || true)
rows=$(printf '%s\n' "$rpcs" | wc -l)
values=$(printf '%s\n' "$rpcs" | sort -u | wc -l)
[ "$rows" -eq 4 ] && [ "$values" -eq 1 ] || {
  echo "t13 smoke: recovery_rpcs is not one value over the 4 rows:" $rpcs
  exit 1
}

echo "==> fleet gate (multi-server cell tests + t15 smoke)"
cargo test -q --test fleet
smoke t15_fleet --servers 2 --ops 12
case "$out" in
  *'"move_completed": true,'*'"lost_updates": 0, "all_ops_ok": true'*) ;;
  *) echo "t15 smoke: the mid-run move failed, or an op or update was lost: $out"; exit 1 ;;
esac

echo "==> hotpath gate (token stress at 1 and 4 shards + t9/t8 client sweeps)"
cargo test -q -p dfs-token --test stress
smoke t9_revocation_pingpong --clients 8 --ops 200
case "$out" in
  *'"rpcs_per_handoff": 5.03,'*'"stale_reads": 0,'*) ;;
  *) echo "t9 smoke: a handoff no longer costs 5.03 RPCs with 0 stale reads"; exit 1 ;;
esac
smoke t8_group_commit --ops 64 --pages 16 --clients 4

echo "==> availability gate (fault-matrix tests + t14 smoke)"
cargo test -q --test faults
smoke t14_availability --files 6

echo "==> scenario gate (engine tests + tiny t17 crash/restart/move smoke)"
cargo test -q --test scenario
smoke t17_scenario --clients 8 --servers 2 --ops 12
case "$out" in
  *'"ok": true'*) ;;
  *) echo "t17 smoke: invariants, events, or seed replay failed"; exit 1 ;;
esac

echo "==> bench JSON smoke (every remaining binary validated, one in text mode)"
for f in crates/bench/src/bin/*.rs; do
  b=$(basename "$f" .rs)
  case $b in
    # jsoncheck is the validator; the others ran above with their own
    # flags, and T10 runs below for its row check.
    jsoncheck | t1_metadata_traffic | t8_group_commit | t9_revocation_pingpong | \
    t10_thread_pool_ablation | t13_crash_restart | t14_availability | t15_fleet | \
    t17_scenario) ;;
    *) smoke "$b" ;;
  esac
done
cargo run -q --release -p dfs-bench --bin fig3_open_token_matrix > /dev/null
# T10 must also show §6.4's shape: reserved revocation slots -> every
# handoff completes and nothing times out; none -> the store-back waits
# behind its own grant until the call timeout.
smoke t10_thread_pool_ablation
t10_row() {
  printf '%s' "$out" | grep -Eq \
    "\"revocation_workers\": $1, \"handoffs_ok\": [0-9]+, \"failed\": $2, \"no_timeouts\": $3"
}
t10_row 2 0 true && t10_row 1 0 true && t10_row 0 '[0-9]+' false || {
  echo "t10 smoke: the ablation lost its shape: $out"
  exit 1
}

echo "==> repo benchmark gate (benchmark/ unit tests + smoke)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/smoke.sh

echo "==> coherence gate (shared_handoff, flusher on, seeds 1-3, strict)"
for seed in 1 2 3; do
  out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      run --workload shared_handoff --seed "$seed" --seconds 5 --flusher --strict \
      --out "target/coherence-seed$seed.json") || {
    # The witnesses: client, fid, the tag written and the tag read.
    printf '%s\n' "$out" | grep FAILED || true
    echo "coherence gate: shared_handoff failed at seed $seed"
    exit 1
  }
done

echo "==> stationarity gate (meta_churn, strict, every grant accounted for)"
out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload meta_churn --seed 1 --seconds 4 --strict \
    --out target/stationarity.json) || {
  printf '%s\n' "$out" | grep FAILED || true
  echo "stationarity gate: meta_churn failed"
  exit 1
}
printf '%s\n' "$out" | awk '
  $2 == "token.unreturned_per_kop" { seen = 1; if ($3 != "0.0000") bad = 1; print }
  $2 == "journal.checkpoints_per_kop" { cp = 1; if ($3 > 0.9) bad = 1; print }
  $2 == "journal.txns_per_op" { tx = 1; if ($3 > 0.5010) bad = 1; print }
  END { exit !(seen && cp && tx && !bad) }' || {
  echo "stationarity gate: token.unreturned_per_kop is not 0.0000," \
    "journal.checkpoints_per_kop is above 0.9," \
    "or journal.txns_per_op is above 0.5010"
  exit 1
}
out=$(cargo run --release --quiet -p dfs-episode --example episode_churn -- 1 1)
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q 'two writers .*(0\.000 merges' || {
  echo "stationarity gate: episode_churn's two writers merged classes"
  exit 1
}

echo "==> buffer-cache gate (write_fsync, strict, the journal's misses kept)"
out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --workload write_fsync --seed 1 --seconds 4 --strict \
    --out target/buffer-cache.json) || {
  printf '%s\n' "$out" | grep FAILED || true
  echo "buffer-cache gate: write_fsync failed"
  exit 1
}
printf '%s\n' "$out" | awk '
  $2 == "failed_op_share" { f = 1; if ($3 != "0.0000") bad = 1; print }
  $2 == "disk.reads_per_op" { r = 1; if ($3 > 0.05) bad = 1; print }
  $2 == "journal.cache_hit_share" { h = 1; if ($3 < 0.83) bad = 1; print }
  END { exit !(f && r && h && !bad) }' || {
  echo "buffer-cache gate: failed ops, disk.reads_per_op above 0.05," \
    "or journal.cache_hit_share below 0.83"
  exit 1
}

echo "verify: OK"
