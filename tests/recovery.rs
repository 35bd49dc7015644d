//! Crash-restart recovery pipeline tests: server epochs, the
//! post-restart grace window, token reestablishment, and client
//! failover (ISSUE 5; §2.2 of the paper for the restart-cost claim,
//! Lustre-style epoch reconnection for the token recovery protocol).

use decorum_dfs::token::TokenTypes;
use decorum_dfs::types::{ByteRange, DfsError, VolumeId};
use decorum_dfs::Cell;

mod common;

/// The headline scenario: a write-behind client has dirty pages when the
/// server crashes. After the restart the client must detect the new
/// epoch, reestablish its tokens inside the grace window, and replay the
/// dirty pages — no lost update.
#[test]
fn crash_mid_writeback_replays_dirty_pages() {
    let cell = common::one_server_cell();
    // No background flusher: the dirty page must still be unstored at
    // crash time, so the replay is deterministically the client's job.
    let a = common::no_flush_client(&cell);
    let root = a.root(VolumeId(1)).unwrap();
    let fid = common::durable_file(&a, "inflight", b"acked and durable");
    // This update exists only in A's cache when the server dies.
    a.write(fid, 0, b"still dirty in A!").unwrap();
    assert!(a.dirty_pages(fid) > 0, "update must be write-behind");

    cell.crash_server(0);
    let report = cell.restart_server(0, 10_000_000).unwrap();
    assert!(!report.formatted, "restart must recover, not reformat");
    assert_eq!(cell.server(0).epoch(), 2, "epoch bumps on restart");
    assert!(cell.server(0).in_grace(), "grace window opens on restart");

    // A's next server-visible operation runs the whole pipeline:
    // GraceWait -> epoch probe -> reestablish -> dirty-page replay.
    a.create(root, "poke", 0o644).unwrap();
    let st = a.stats();
    assert_eq!(st.recoveries, 1, "exactly one recovery pass");
    assert!(st.grace_waits >= 1, "the gate held A's call until it checked in");
    assert!(st.tokens_reestablished > 0, "A re-registered its token set");
    assert!(st.recovery_replayed_pages > 0, "dirty pages were replayed");

    // A was the only expected host, so its check-in closes the window.
    assert!(!cell.server(0).in_grace(), "grace closes once every host checks in");

    // Zero lost updates: a fresh client reads the replayed bytes.
    let b = cell.new_client();
    assert_eq!(b.read(fid, 0, 32).unwrap(), b"still dirty in A!");
    assert_eq!(a.read(fid, 0, 32).unwrap(), b"still dirty in A!");
}

/// The same crash, found by the flusher instead of by an operation. Stores
/// travel in the reserved class, which the grace gate lets through, so
/// what the restarted server says to the pass's store is that it knows
/// no token of A's: `TokenRevoked`, nothing written. The page stays
/// dirty, the pass asks for the server's epoch, and recovery —
/// reestablish, then replay through the same store gate — stores it.
#[test]
fn flusher_store_refused_after_restart_is_replayed_by_recovery() {
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let fid = common::durable_file(&a, "inflight", b"acked and durable");
    a.write(fid, 0, b"still dirty in A!").unwrap();

    cell.crash_server(0);
    cell.restart_server(0, 10_000_000).unwrap();
    assert!(cell.server(0).in_grace());

    a.flush_pass().unwrap();
    let st = a.stats();
    assert_eq!(st.recoveries, 1, "the refused store led to exactly one recovery pass");
    assert_eq!(st.grace_waits, 0, "no call of A's was gated: the store was refused, not held");
    assert!(st.tokens_reestablished > 0);
    assert_eq!(st.recovery_replayed_pages, 1, "the refused page was handed to replay");
    assert_eq!(a.total_dirty_pages(), 0);
    assert_eq!(cell.new_client().read(fid, 0, 32).unwrap(), b"still dirty in A!");
    assert_eq!(a.read(fid, 0, 32).unwrap(), b"still dirty in A!");
}

/// What a refusal takes with it. A holds a lock token with a lock set
/// under it, and a dirty page; the server restarts, and the flusher's
/// store is what finds out. The refusal disproves nothing recovery has
/// just re-established, and never the lock token: A still holds its
/// lock, so B must still be refused it (§5.3 retention).
#[test]
fn a_refused_store_after_restart_keeps_the_lock_token() {
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let fid = common::durable_file(&a, "locked", b"acked and durable");
    let range = ByteRange::new(0, 100);
    a.acquire_lock_token(fid, range, true).unwrap();
    a.lock(fid, range, true).unwrap();
    a.write(fid, 0, b"written under lock").unwrap();

    cell.crash_server(0);
    cell.restart_server(0, 10_000_000).unwrap();
    a.flush_pass().unwrap();

    assert_eq!(a.stats().recoveries, 1);
    assert_eq!(a.total_dirty_pages(), 0);
    let held = a.held_tokens(fid);
    assert!(held.iter().any(|t| t.types.contains(TokenTypes::LOCK_WRITE)), "{held:?}");
    assert!(held.iter().any(|t| t.types.contains(TokenTypes::DATA_WRITE)), "{held:?}");
    assert!(!cell.server(0).in_grace(), "A was the only holder: checked in, grace is over");
    assert_eq!(b.lock(fid, range, true), Err(DfsError::LockConflict), "A still holds the lock");
    a.unlock(fid, range).unwrap();
    b.lock(fid, range, true).unwrap();
    assert_eq!(b.read(fid, 0, 32).unwrap(), b"written under lock");
}

/// Hole (h), a dirty file: A caches two pages and dirties the second
/// when the server dies. Grace closes before A is heard from, so A's
/// claims are refused and B rewrites the first page under a token of
/// its own; the server knows none of A's dead-epoch tokens and revokes
/// nothing. A's fsync then finds the restart, replays its dirty page
/// and takes a whole-file write token. That token must not vouch for
/// the clean page A fetched before the crash: A reads B's bytes.
#[test]
fn a_replayed_file_drops_the_clean_pages_no_token_covers() {
    const PAGE: usize = decorum_dfs::client::PAGE_SIZE;
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let fid = common::durable_file(&a, "h-dirty", &[1u8; 2 * PAGE]);
    assert!(a.read(fid, 0, 2 * PAGE).unwrap() == vec![1u8; 2 * PAGE], "A caches both pages");
    a.write(fid, PAGE as u64, &[2u8; PAGE]).unwrap();
    assert_eq!(a.dirty_pages(fid), 1);

    cell.crash_server(0);
    cell.restart_server(0, 1_000).unwrap();
    cell.clock().advance_secs(1);
    b.write(fid, 0, &[3u8; PAGE]).unwrap();
    b.fsync(fid).unwrap();

    a.fsync(fid).unwrap();
    let st = a.stats();
    assert_eq!((st.recoveries, st.tokens_reestablished), (1, 0), "grace was over: no claim back");
    assert_eq!(st.recovery_replayed_pages, 1);
    assert!(a.read(fid, 0, PAGE).unwrap() == vec![3u8; PAGE], "B's page 0, not A's stale copy");
    assert!(a.read(fid, PAGE as u64, PAGE).unwrap() == vec![2u8; PAGE], "A's replayed page 1");
    assert!(b.read(fid, PAGE as u64, PAGE).unwrap() == vec![2u8; PAGE], "B sees the replay");
}

/// Hole (h), a clean file: A's recovery runs first, with grace already
/// over, so no token comes back. The pages A cached before the crash
/// must not outlive that: B rewrites one, and the whole-file write
/// token A takes afterwards vouches only for what A fetches under it.
#[test]
fn a_clean_file_keeps_no_page_through_a_recovery_that_won_no_token() {
    const PAGE: usize = decorum_dfs::client::PAGE_SIZE;
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let root = a.root(VolumeId(1)).unwrap();
    let fid = common::durable_file(&a, "h-clean", &[1u8; 2 * PAGE]);
    assert!(a.read(fid, 0, 2 * PAGE).unwrap() == vec![1u8; 2 * PAGE], "A caches both pages");
    assert_eq!(a.dirty_pages(fid), 0);

    cell.crash_server(0);
    cell.restart_server(0, 1_000).unwrap();
    cell.clock().advance_secs(1);
    a.create(root, "poke", 0o644).unwrap();
    assert_eq!((a.stats().recoveries, a.stats().tokens_reestablished), (1, 0));

    b.write(fid, 0, &[3u8; PAGE]).unwrap();
    b.fsync(fid).unwrap();
    a.acquire_data_token(fid, ByteRange::WHOLE, true).unwrap();
    let both = a.read(fid, 0, 2 * PAGE).unwrap();
    assert!(both == [[3u8; PAGE], [1u8; PAGE]].concat(), "B's page 0, the server's page 1");
}

/// The same rule for the directory layer: names A looked up before the
/// crash ride on A's directory token, which does not come back after
/// grace. B then removes one; the directory token A takes for a later
/// lookup must not vouch for the name A cached before the crash.
#[test]
fn a_directory_keeps_no_name_through_a_recovery_that_won_no_token() {
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let root = a.root(VolumeId(1)).unwrap();
    common::durable_file(&a, "doomed", b"x");
    a.lookup(root, "doomed").unwrap();

    cell.crash_server(0);
    cell.restart_server(0, 1_000).unwrap();
    cell.clock().advance_secs(1);
    let other = common::durable_file(&b, "other", b"y");
    a.getattr(other).unwrap();
    assert_eq!((a.stats().recoveries, a.stats().tokens_reestablished), (1, 0));

    b.remove(root, "doomed").unwrap();
    a.lookup(root, "other").unwrap();
    assert_eq!(a.lookup(root, "doomed").map(|st| st.fid), Err(DfsError::NotFound));
}

/// A client that never reconnects must not pin the cell: the grace
/// window closes at its deadline and new clients are admitted, while a
/// *new* host arriving during grace is held off (`GraceWait`).
#[test]
fn new_client_held_off_until_grace_expires() {
    let cell = common::one_server_cell();
    // A takes a token, so the host log journals it as a holder (and the
    // restart expects it back) — then it never reconnects.
    let a = cell.new_client();
    common::durable_file(&a, "f", b"pre-crash");

    cell.crash_server(0);
    cell.restart_server(0, 60_000_000).unwrap();
    assert!(cell.server(0).in_grace());

    // A brand-new host gets GraceWait until the window closes; its retry
    // budget runs out long before the 60 s (simulated) deadline and the
    // client reports honest unavailability rather than a retryable
    // timeout.
    let b = cell.new_client();
    assert_eq!(b.root(VolumeId(1)).unwrap_err(), DfsError::Unavailable);
    assert!(b.stats().grace_waits > 0, "B was refused by the recovery gate");
    assert!(b.stats().unavailable_giveups >= 1, "the retry budget was spent");

    // Deadline passes (and A's lease expires with it): grace closes even
    // though A never checked in, and B is admitted.
    cell.clock().advance_secs(61);
    assert!(!cell.server(0).in_grace());
    let root = b.root(VolumeId(1)).unwrap();
    let got = b.lookup(root, "f").unwrap();
    assert_eq!(b.read(got.fid, 0, 16).unwrap(), b"pre-crash");
}

/// A client the host log still shows as a holder may hold nothing by the
/// time the server restarts. It must check in all the same — with an
/// empty claim set — or the grace window waits for it until the deadline
/// and every call it makes meanwhile is refused with `GraceWait`.
#[test]
fn a_client_with_nothing_to_claim_still_checks_in() {
    let cell = common::one_server_cell();
    let a = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    common::durable_file(&a, "gone", b"journaled as a holder");
    a.remove(root, "gone").unwrap();

    cell.crash_server(0);
    cell.restart_server(0, 60_000_000).unwrap();
    assert!(cell.server(0).in_grace(), "the restart expects A back");

    a.create(root, "after", 0o644).unwrap();
    assert_eq!(a.stats().recoveries, 1);
    assert_eq!(a.stats().tokens_reestablished, 0, "A had nothing to claim");
    assert!(!cell.server(0).in_grace(), "A's empty check-in closed the window");
}

/// Satellite: §3.8 replica promotion. The volume has a read-only
/// replica on a second server; when the primary (and the first VLDB
/// replica) crash, a fresh reader fails over through a surviving VLDB
/// replica to the read-only copy and is served *bounded-stale* reads —
/// every such response carries a nonzero staleness stamp, and the bytes
/// never masquerade as token-backed cache. Writes stay honestly
/// unavailable. When the primary returns, the same client reconciles:
/// reads come back primary-served (stale stamp zero) and writes work.
#[test]
fn location_failover_when_file_server_crashes() {
    let cell = Cell::builder().servers(2).vldb_replicas(2).build().unwrap();
    cell.create_volume(0, VolumeId(1), "v").unwrap();
    let c = cell.new_client();
    let root = c.root(VolumeId(1)).unwrap();
    let fid = common::durable_file(&c, "survivor", b"beyond the crash");

    // Replicate the volume onto server 1 (5 s staleness bound); the
    // replica advertises itself in the VLDB.
    cell.replicate_volume(0, 1, VolumeId(1), 5_000_000).unwrap();

    // The primary AND the first VLDB replica go down: both the replica
    // discovery and the location re-resolution must fail over to the
    // surviving VLDB replica.
    cell.net().set_crashed(decorum_dfs::rpc::Addr::Vldb(0), true);
    cell.crash_server(0);
    cell.clock().advance_secs(1);

    // A fresh reader knows only the fid (no root/lookup RPC needed).
    // Its FetchData gives up on the primary after a couple of attempts
    // and is served by the replica, stale-stamped.
    let b = cell.new_client();
    assert_eq!(b.read(fid, 0, 32).unwrap(), b"beyond the crash");
    let st = b.stats();
    assert!(st.replica_failovers >= 1, "the read failed over to the replica");
    assert!(st.stale_reads >= 1, "the read was served bounded-stale");
    assert!(
        st.max_stale_us >= 1_000_000,
        "staleness stamp reflects the replica's age, got {}",
        st.max_stale_us
    );
    assert!(
        st.max_stale_us <= 5_000_000,
        "staleness stays within the replication bound, got {}",
        st.max_stale_us
    );

    // Stale bytes were served, not cached: nothing in B's cache claims
    // token backing for this file.
    assert_eq!(b.dirty_pages(fid), 0);

    // Writes cannot be served by a read-only replica: the retry budget
    // runs out and the client reports honest unavailability.
    assert!(b.write(fid, 0, b"rejected").is_err());
    assert!(b.stats().unavailable_giveups >= 1, "the write spent its retry budget");

    // The primary returns; B reconciles: its next read is
    // primary-served (and authoritative), and writes flow again.
    cell.restart_server(0, 0).unwrap();
    assert_eq!(b.read(fid, 0, 32).unwrap(), b"beyond the crash");
    b.write(fid, 0, b"after the return").unwrap();
    b.fsync(fid).unwrap();
    assert_eq!(b.read(fid, 0, 32).unwrap(), b"after the return");

    // The pre-crash client reconnects too: its next server round-trip
    // runs the recovery pipeline against the new epoch.
    c.create(root, "after", 0o644).unwrap();
    assert_eq!(c.stats().recoveries, 1, "reconnection ran the recovery pipeline");
    assert_eq!(c.read(fid, 0, 32).unwrap(), b"after the return");
}

/// §2.2: restart cost tracks the *active log*, not the file-system
/// size. Two crashes of the same cell: the file system doubles between
/// them while the in-flight burst stays fixed, so the second recovery
/// scan must not scale with the accumulated data.
#[test]
fn recovery_scan_tracks_active_log_not_fs_size() {
    let cell = Cell::builder().servers(1).disk_blocks(32 * 1024).log_blocks(512).build().unwrap();
    cell.create_volume(0, common::VOL, "v").unwrap();
    let c = cell.new_client();
    let root = c.root(VolumeId(1)).unwrap();

    let grow = |tag: &str, n: u32| {
        for i in 0..n {
            let f = c.create(root, &format!("{tag}{i}"), 0o644).unwrap();
            c.write(f.fid, 0, &vec![i as u8; 16 * 1024]).unwrap();
            c.fsync(f.fid).unwrap();
        }
    };

    // Phase 1: ~1 MiB of data, then a fixed small burst right before
    // the crash.
    grow("one-", 64);
    grow("one-hot-", 2);
    cell.crash_server(0);
    let r1 = cell.restart_server(0, 0).unwrap();

    // Phase 2: double the file system, identical burst, crash again.
    grow("two-", 64);
    grow("two-hot-", 2);
    cell.crash_server(0);
    let r2 = cell.restart_server(0, 0).unwrap();

    // Each phase shipped ~66 files * 4 pages = 264+ data blocks; by the
    // second crash the aggregate holds twice that. The replay scan stays
    // bounded by the (checkpointed) active log in both runs and does not
    // grow with the aggregate.
    assert!(!r1.formatted && !r2.formatted);
    assert!(r1.scanned_blocks <= 512, "scan bounded by the log region, got {}", r1.scanned_blocks);
    assert!(r2.scanned_blocks <= 512, "scan bounded by the log region, got {}", r2.scanned_blocks);
    assert!(
        r2.scanned_blocks < 264,
        "scan ({} blocks) must be smaller than even one phase's data, let alone two",
        r2.scanned_blocks
    );
    // The client survived two restarts worth of epoch bumps.
    assert_eq!(cell.server(0).epoch(), 3);
    c.create(root, "post", 0o644).unwrap();
    assert_eq!(c.stats().recoveries, 2);
    let f = c.lookup(root, "one-0").unwrap();
    assert_eq!(c.read(f.fid, 0, 8).unwrap(), vec![0u8; 8]);
}

/// Tokens reestablished during grace keep their meaning: the pages a
/// reestablished data token covers stay valid (the one validity rule,
/// nothing revalidated file by file), so a re-read after the restart
/// is served from the cache with no refetch.
#[test]
fn reestablished_data_tokens_keep_the_cached_pages() {
    // No background flusher: after the fsync below nothing is dirty and
    // nothing is in flight, so the crash deterministically finds a clean
    // cache (a flusher mid-pass could re-dirty pages when the crash cuts
    // its store-back short).
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let root = a.root(VolumeId(1)).unwrap();
    let fid = common::durable_file(&a, "stable", &vec![7u8; 8192]);
    // Warm A's cache: valid pages under A's data token.
    assert_eq!(a.read(fid, 0, 8192).unwrap(), vec![7u8; 8192]);
    assert_eq!(a.dirty_pages(fid), 0, "fsync left nothing dirty");

    cell.crash_server(0);
    cell.restart_server(0, 10_000_000).unwrap();

    let before = cell.net().stats();
    // Trigger recovery with a namespace op, then re-read the file: A's
    // data token came back in the grace window, so the pages must come
    // from cache, not a refetch.
    a.create(root, "poke", 0o644).unwrap();
    assert_eq!(a.read(fid, 0, 8192).unwrap(), vec![7u8; 8192]);
    let st = a.stats();
    assert!(st.tokens_reestablished > 0, "A's data token was reestablished");
    let fetched = cell.net().stats().since(&before).by_label.get("FetchData").copied();
    assert_eq!(fetched.unwrap_or(0), 0, "no data refetch after reestablishment");
}

/// POSIX contract behind the new `Fsync` RPC: fsync on a freshly
/// created, never-written file must make the *create* durable. There is
/// no store-back whose group commit would force the log, so the client
/// has to ask the server explicitly.
#[test]
fn fsync_of_empty_file_survives_crash() {
    let cell = common::one_server_cell();
    let a = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "empty", 0o644).unwrap();
    a.fsync(f.fid).unwrap();

    cell.crash_server(0);
    cell.restart_server(0, 0).unwrap();

    let b = cell.new_client();
    let root = b.root(VolumeId(1)).unwrap();
    let got = b.lookup(root, "empty").unwrap();
    assert_eq!(got.fid, f.fid, "the fsync'd create survived the crash");
    assert_eq!(got.length, 0);
}
