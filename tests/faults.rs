//! Fault-matrix tests (ISSUE 9): the deterministic fault-injection
//! plane (`rpc::faults`) swept over the protocols that must absorb
//! message loss — write-behind flushing, token revocation, and live
//! volume migration. Every scenario asserts the two invariants the
//! paper's protocols promise: **zero lost updates** (every acknowledged
//! write is readable afterwards) and **exactly-once effect** (retries
//! and duplicate deliveries never double-apply).

use decorum_dfs::rpc::{Addr, FaultAction, FaultRule, FaultSchedule};
use decorum_dfs::token::TokenTypes;
use decorum_dfs::types::{ByteRange, DfsError, VolumeId};

mod common;

/// Write-behind flush vs. lossy transport: store-back requests are
/// dropped, their replies are dropped (the at-least-once hazard: the
/// side effect lands, the ack does not), and survivors are delayed.
/// The client's retry loop must push every dirty page through; the
/// reply-less store that is retried must land idempotently.
#[test]
fn writeback_flush_survives_drop_delay_and_lost_replies() {
    let cell = common::one_server_cell();
    // No background flusher: the test triggers the flush itself, so the
    // RPC sequence the schedule sees is deterministic.
    let a = common::no_flush_client(&cell);
    let root = a.root(VolumeId(1)).unwrap();
    let mut files = Vec::new();
    for i in 0..8u32 {
        let f = a.create(root, &format!("f{i}"), 0o644).unwrap();
        a.write(f.fid, 0, format!("payload-{i:02}").as_bytes()).unwrap();
        files.push(f.fid);
    }

    // The matrix, in rule order (first match wins): the first two
    // store-backs vanish outright, the next loses only its reply, and
    // half of the rest crawl through a 200 µs delay.
    let label = "StoreDataVec";
    cell.net().set_fault_schedule(
        FaultSchedule::seeded(11)
            .rule(FaultRule::on(FaultAction::Drop).label(label).limit(2))
            .rule(FaultRule::on(FaultAction::DropReply).label(label).limit(1))
            .rule(FaultRule::on(FaultAction::Delay(200)).label(label).prob(50)),
    );

    a.store_back_all().unwrap();
    for &fid in &files {
        a.fsync(fid).unwrap();
    }
    cell.net().clear_faults();

    // Zero lost updates: a fresh client (no shared cache) reads every
    // acknowledged byte back.
    let b = cell.new_client();
    for (i, &fid) in files.iter().enumerate() {
        assert_eq!(
            b.read(fid, 0, 16).unwrap(),
            format!("payload-{i:02}").as_bytes(),
            "file {i} lost an update under the fault storm"
        );
    }
    let st = a.stats();
    assert!(st.transport_retries >= 3, "dropped calls were retried, got {}", st.transport_retries);
    assert_eq!(st.unavailable_giveups, 0, "the budget absorbed the storm");
}

/// Token revocation vs. duplicate delivery: the revocation that makes
/// a reader see a write-behind writer's bytes is delivered twice. The
/// handler must be idempotent — the dirty pages are stored back exactly
/// once, and the second delivery finds nothing to do.
#[test]
fn revocation_is_exactly_once_under_duplicate_delivery() {
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let b = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "contested", 0o644).unwrap();
    a.write(f.fid, 0, b"only in A's cache").unwrap();
    assert!(a.dirty_pages(f.fid) > 0, "the update must still be write-behind");

    // Duplicate every revocation aimed at A.
    let to_a = Addr::Client(a.id());
    cell.net().set_fault_schedule(
        FaultSchedule::seeded(23)
            .rule(FaultRule::on(FaultAction::Duplicate).label("RevokeVec").to(to_a)),
    );

    // B's read forces the server to revoke A's write token; A must
    // store its dirty page first, so B sees the write-behind bytes.
    assert_eq!(b.read(f.fid, 0, 32).unwrap(), b"only in A's cache");
    assert!(cell.net().faults_injected() >= 1, "a revocation was duplicated");
    cell.net().clear_faults();

    // Both deliveries run on the pool; the first reply wins the race
    // back to B's read, so wait for the duplicate to land too.
    for _ in 0..200 {
        if a.stats().revocations >= 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let st = a.stats();
    assert!(st.revocations >= 2, "both deliveries arrived, got {}", st.revocations);
    assert_eq!(st.revocation_stores, 1, "the dirty page was stored exactly once");

    // The system stays live and consistent after the duplicate: both
    // clients still agree, and A can write again.
    a.write(f.fid, 0, b"A writes once more").unwrap();
    a.fsync(f.fid).unwrap();
    assert_eq!(b.read(f.fid, 0, 32).unwrap(), b"A writes once more");
}

/// Token revocation vs. a lost store-back: the one store a revocation
/// handler sends is dropped. The server is waiting on that handler, so
/// the token goes back anyway and what it covered is lost — but counted,
/// not silent — and everyone converges on the last bytes the server
/// *did* acknowledge.
#[test]
fn failed_revocation_store_back_is_counted() {
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let fid = common::durable_file(&a, "contested", b"stored and acked");
    a.write(fid, 0, b"only in A's cache").unwrap();
    assert_eq!(a.dirty_pages(fid), 1);

    let from_a = Addr::Client(a.id());
    cell.net().set_fault_schedule(
        FaultSchedule::seeded(7)
            .rule(FaultRule::on(FaultAction::Drop).from(from_a).label("StoreDataVec").limit(1)),
    );
    // B's read revokes A's write token; A's store-back never arrives.
    assert_eq!(b.read(fid, 0, 32).unwrap(), b"stored and acked", "the last *stored* bytes");
    assert_eq!(cell.net().faults_injected(), 1);
    cell.net().clear_faults();

    let st = a.stats();
    assert_eq!(st.revocation_store_failures, 1);
    assert_eq!(st.revocation_stores, 0);
    assert_eq!(a.total_dirty_pages(), 0, "the lost page must not linger as dirty");
    // Nothing is wedged: A re-reads what the server has, and writes on.
    assert_eq!(a.read(fid, 0, 32).unwrap(), b"stored and acked");
    a.write(fid, 0, b"A writes once more").unwrap();
    a.fsync(fid).unwrap();
    assert_eq!(b.read(fid, 0, 32).unwrap(), b"A writes once more");
    assert_eq!(a.stats().revocation_store_failures, 1);
}

/// A token taken while its holder could not be reached: the revocation
/// B's write sets off never arrives at A, so the server hands A's write
/// token on and A never hears of it. A's next store is refused —
/// `TokenRevoked`, nothing written, B undisturbed so far. The server
/// took A's whole token, read bits included: A forgets every data and
/// status bit it held, keeps its lock token (and the lock set under
/// it), takes the write token again the normal way — which stores B's
/// page back — and only then stores its own.
#[test]
fn a_store_refused_without_a_restart_forgets_its_data_and_status_bits() {
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let fid = common::durable_file(&a, "partitioned", b"stored and acked");
    let range = ByteRange::new(0, 100);
    a.acquire_lock_token(fid, range, false).unwrap();
    a.lock(fid, range, false).unwrap();
    a.write(fid, 0, b"A, while cut off").unwrap();

    let to_a = Addr::Client(a.id());
    cell.net().set_fault_schedule(
        FaultSchedule::seeded(3).rule(FaultRule::on(FaultAction::Drop).to(to_a).limit(1)),
    );
    b.write(fid, 4096, b"B's page").unwrap();
    assert_eq!(cell.net().faults_injected(), 1, "the revocation was lost");
    cell.net().clear_faults();

    a.fsync(fid).unwrap();
    let st = a.stats();
    assert_eq!((st.recoveries, st.revocation_store_failures), (0, 0));
    assert_eq!(a.total_dirty_pages(), 0);
    let held = a.held_tokens(fid);
    assert!(held.iter().any(|t| t.types.contains(TokenTypes::LOCK_READ)), "{held:?}");
    assert_eq!(b.lock(fid, range, true), Err(DfsError::LockConflict), "A still holds its lock");
    let c = cell.new_client();
    assert_eq!(c.read(fid, 0, 16).unwrap(), b"A, while cut off");
    assert_eq!(c.read(fid, 4096, 8).unwrap(), b"B's page");
}

/// Hole (i): the token the server took from A while A could not be
/// reached carried read bits too. A cached two pages and dirtied the
/// first; B rewrites the second meanwhile. When A's refused store
/// retakes the write token, the clean page A fetched under the lost
/// token must go with it: A reads B's bytes, and its own dirty page is
/// stored, not dropped.
#[test]
fn a_refused_store_drops_the_clean_pages_the_lost_token_covered() {
    const PAGE: usize = decorum_dfs::client::PAGE_SIZE;
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let fid = common::durable_file(&a, "hole-i", &[1u8; 2 * PAGE]);
    assert!(a.read(fid, 0, 2 * PAGE).unwrap() == vec![1u8; 2 * PAGE], "A caches both pages");
    a.write(fid, 0, &[2u8; PAGE]).unwrap();

    let to_a = Addr::Client(a.id());
    cell.net().set_fault_schedule(
        FaultSchedule::seeded(3).rule(FaultRule::on(FaultAction::Drop).to(to_a).limit(1)),
    );
    b.write(fid, PAGE as u64, &[3u8; PAGE]).unwrap();
    assert_eq!(cell.net().faults_injected(), 1, "the revocation was lost");
    cell.net().clear_faults();

    a.fsync(fid).unwrap();
    assert_eq!(a.stats().recoveries, 0, "no restart: the refusal was a lost token");
    assert!(a.read(fid, PAGE as u64, PAGE).unwrap() == vec![3u8; PAGE], "B's page 1");
    assert!(a.read(fid, 0, PAGE).unwrap() == vec![2u8; PAGE], "A's own page 0");
    let both = cell.new_client().read(fid, 0, 2 * PAGE).unwrap();
    assert!(both == [[2u8; PAGE], [3u8; PAGE]].concat(), "both writes reached the server");
}

/// Live migration vs. a flaky client-side partition: while a volume
/// moves between servers, a bounded storm drops calls from the client.
/// The migration itself (server-to-server traffic) is unaffected; the
/// client retries through the storm, chases `WrongServer` to the new
/// home, and no acknowledged write is lost.
#[test]
fn live_migration_survives_client_partition() {
    let cell = common::cell(2);
    cell.create_volume(0, VolumeId(7), "mv").unwrap();
    let c = cell.new_client();
    let root = c.root(VolumeId(7)).unwrap();
    let mut files = Vec::new();
    for i in 0..6u32 {
        let f = c.create(root, &format!("pre{i}"), 0o644).unwrap();
        c.write(f.fid, 0, format!("before-{i}").as_bytes()).unwrap();
        c.fsync(f.fid).unwrap();
        files.push((f.fid, format!("before-{i}")));
    }

    // A healing partition: the client loses up to 6 of its next calls
    // (40% each), in both directions of its file traffic. Admin and
    // server-to-server calls match no rule and sail through.
    let me = Addr::Client(c.id());
    cell.net().set_fault_schedule(
        FaultSchedule::seeded(5)
            .rule(FaultRule::on(FaultAction::Drop).from(me).prob(40).limit(6)),
    );

    cell.move_volume(VolumeId(7), 1).unwrap();

    // Work through the storm against the volume's new home.
    for i in 0..6u32 {
        let f = c.create(root, &format!("post{i}"), 0o644).unwrap();
        c.write(f.fid, 0, format!("after-{i}").as_bytes()).unwrap();
        c.fsync(f.fid).unwrap();
        files.push((f.fid, format!("after-{i}")));
    }
    cell.net().clear_faults();
    assert_eq!(cell.vldb().lookup(VolumeId(7)).unwrap(), cell.server(1).id());

    // Zero lost updates across the move + partition.
    let fresh = cell.new_client();
    for (fid, want) in &files {
        assert_eq!(fresh.read(*fid, 0, 16).unwrap(), want.as_bytes());
    }
}

/// A write of part of a page needs the rest of the page from the
/// server. When that fetch cannot be had, the write must fail: going
/// ahead over a zero-filled page would later store the zeros back over
/// bytes the caller never wrote (a lost update).
#[test]
fn partial_page_write_fails_when_its_page_cannot_be_fetched() {
    const PAGE: usize = decorum_dfs::client::PAGE_SIZE;
    let cell = common::one_server_cell();
    let a = common::no_flush_client(&cell);
    let fid = common::durable_file(&a, "sevens", &[7u8; PAGE]);
    // `b` takes the write token, but not the data.
    let b = common::no_flush_client(&cell);
    b.acquire_data_token(fid, ByteRange::WHOLE, true).unwrap();

    let primary = Addr::Server(cell.server(0).id());
    cell.net().set_fault_schedule(
        FaultSchedule::seeded(3)
            .rule(FaultRule::on(FaultAction::Drop).from(Addr::Client(b.id())).to(primary)),
    );
    assert!(b.write(fid, 100, b"xy").is_err(), "no page to merge into, no write");
    cell.net().clear_faults();

    // Healed: neither before nor after `b` retries does any reader see
    // a zero in the page.
    let no_zeros = |when: &str| {
        let page = cell.new_client().read(fid, 0, PAGE).unwrap();
        assert!(page.iter().all(|&x| x != 0), "{when}: zero-filled bytes were stored back");
        page
    };
    no_zeros("after the failed write");
    b.write(fid, 100, b"xy").unwrap();
    b.fsync(fid).unwrap();
    assert_eq!(&no_zeros("after the retried write")[98..104], &[7, 7, b'x', b'y', 7, 7]);
}

/// The determinism contract: the same seed over the same
/// single-threaded call sequence injects the same faults and leaves
/// the client with the same retry counts.
#[test]
fn same_seed_replays_the_same_fault_sequence() {
    let run = |seed: u64| -> (u64, u64) {
        let cell = common::one_server_cell();
        let a = common::no_flush_client(&cell);
        let root = a.root(VolumeId(1)).unwrap();
        let mut files = Vec::new();
        for i in 0..8u32 {
            let f = a.create(root, &format!("f{i}"), 0o644).unwrap();
            a.write(f.fid, 0, format!("d{i}").as_bytes()).unwrap();
            files.push(f.fid);
        }
        cell.net().set_fault_schedule(
            FaultSchedule::seeded(seed)
                .rule(FaultRule::on(FaultAction::Drop).label("StoreDataVec").prob(50)),
        );
        a.store_back_all().unwrap();
        cell.net().clear_faults();
        for (i, &fid) in files.iter().enumerate() {
            assert_eq!(a.read(fid, 0, 8).unwrap(), format!("d{i}").as_bytes());
        }
        (cell.net().faults_injected(), a.stats().transport_retries)
    };
    let first = run(99);
    let second = run(99);
    assert_eq!(first, second, "same seed must replay identically");
    assert!(first.0 >= 1, "the 50% drop rule fired at least once");
    let other = run(1234);
    assert!(other.0 >= 1);
}
