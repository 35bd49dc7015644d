//! Multi-server cell tests: volume-sharded cells, cross-server request
//! routing (every misdirected call gets a `WrongServer` hint), live
//! volume migration and load rebalancing (§2.1/§3.4 of the paper).

use decorum_dfs::rpc::{Addr, CallClass, Request, Response};
use decorum_dfs::types::{ClientId, DfsError, VolumeId};
use decorum_dfs::vfs::WriteExtent;
use decorum_dfs::Cell;

mod common;

/// (a) A client keeps reading and writing through a redirect: after the
/// volume moves, its cached location is stale, the old owner answers
/// `WrongServer`, and the client chases the hint transparently.
#[test]
fn read_write_through_a_redirect() {
    let cell = common::cell(2); // the volume lands on slot 0
    let c = cell.new_client();
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "f", 0o644).unwrap();
    c.write(f.fid, 0, b"before the move").unwrap();
    c.fsync(f.fid).unwrap();

    cell.move_volume(VolumeId(1), 1).unwrap();
    assert_eq!(cell.server_of(VolumeId(1)).unwrap(), 1);

    // The client's location cache still points at slot 0; both a write
    // and a read go through anyway.
    c.write(f.fid, 0, b"after the move!").unwrap();
    c.fsync(f.fid).unwrap();
    assert_eq!(c.read(f.fid, 0, 32).unwrap(), b"after the move!");
    assert!(c.stats().wrong_server_redirects >= 1, "client chased a hint");
    assert!(
        cell.server(0).stats().wrong_server_redirects >= 1,
        "old owner answered WrongServer"
    );
    // A fresh client resolves straight through the VLDB: no redirect.
    let b = cell.new_client();
    assert_eq!(b.read(f.fid, 0, 32).unwrap(), b"after the move!");
    assert_eq!(b.stats().wrong_server_redirects, 0);
}

/// (b) A stale location cache costs exactly one extra hop: the first
/// operation after a move follows one `WrongServer` hint and succeeds —
/// no second redirect, no VLDB storm, no error surfaced to the caller.
/// A token-free one-shot pays the same hop once, not on every call.
#[test]
fn stale_cache_resolves_in_one_retry() {
    let cell = common::cell(3); // the volume lands on slot 0
    let c = common::no_flush_client(&cell);
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "f", 0o644).unwrap();
    c.write(f.fid, 0, b"x").unwrap();
    c.fsync(f.fid).unwrap();
    let ln = c.symlink(root, "ln", "there").unwrap();

    cell.move_volume(VolumeId(1), 2).unwrap();

    let before = c.stats().wrong_server_redirects;
    // An operation the client cannot serve from cache (the move's write
    // quiesce pulled back its directory-write guarantee): it must talk
    // to a server, and the first server it picks is the stale one.
    c.create(root, "g", 0o644).unwrap();
    let after = c.stats().wrong_server_redirects;
    assert_eq!(after - before, 1, "stale cache costs exactly one redirect");

    // And the hint stuck: the next operation goes straight through.
    c.create(root, "h", 0o644).unwrap();
    assert_eq!(c.stats().wrong_server_redirects, after);

    // Move again and lead with a one-shot: the stale server's
    // `WrongServer` plus the owner's answer, then the owner alone.
    cell.move_volume(VolumeId(1), 1).unwrap();
    let rpcs = || {
        let before = cell.net().stats();
        assert_eq!(c.readlink(ln.fid).unwrap(), "there");
        cell.net().stats().since(&before).calls
    };
    assert_eq!(rpcs(), 2, "the first one-shot after the move chases one hint");
    assert_eq!(rpcs(), 1, "the hint taught the client the new owner");
}

/// (c) Tokens survive a live move with zero lost updates: a client with
/// dirty write-behind pages and live tokens keeps both guarantees across
/// the migration — the dirty data is stored back under the move's write
/// quiesce, the surviving tokens are installed at the target with their
/// ids intact, and no recovery pipeline runs.
#[test]
fn tokens_survive_live_move_with_zero_lost_updates() {
    let cell = common::cell(2); // the volume lands on slot 0
    // No background flusher: the second write is deterministically still
    // dirty in the client when the move begins.
    let a = common::no_flush_client(&cell);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "f", 0o644).unwrap();
    a.write(f.fid, 0, b"acked and durable").unwrap();
    a.fsync(f.fid).unwrap();
    a.write(f.fid, 0, b"dirty when moved!").unwrap();
    assert!(a.dirty_pages(f.fid) > 0, "update must still be write-behind");

    cell.move_volume(VolumeId(1), 1).unwrap();

    // The target imported A's surviving tokens rather than making A
    // start over.
    let imported = cell.server(1).token_manager().stats().imported;
    assert!(imported > 0, "surviving tokens shipped to the target (got {imported})");

    // Zero lost updates: the dirty page was stored back during the
    // move's write quiesce and travelled with the volume.
    let b = cell.new_client();
    assert_eq!(b.read(f.fid, 0, 32).unwrap(), b"dirty when moved!");
    assert_eq!(a.read(f.fid, 0, 32).unwrap(), b"dirty when moved!");

    // Transparent means transparent: no crash-recovery machinery ran.
    let st = a.stats();
    assert_eq!(st.recoveries, 0, "a live move is not a crash");
    assert_eq!(st.tokens_reestablished, 0, "tokens survived, not re-granted");
}

/// The same move with one of the client's stores already in the network
/// when it starts: a flusher pass has snapshotted page 0 and is delayed
/// in flight, and both pages are rewritten behind it. The move's write
/// quiesce revokes A's token; A's handler waits out the store in flight
/// (admitted, blackout or not: it travels in the reserved class and A
/// still holds the token), then stores the newer pages; only then does
/// the volume go. No page is lost and none goes back in time.
#[test]
fn live_move_waits_out_a_flusher_store_in_flight() {
    const PAGE: usize = decorum_dfs::client::PAGE_SIZE;
    let cell = common::cell(2);
    let a = common::no_flush_client(&cell);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "f", 0o644).unwrap();
    a.write(f.fid, 0, &[1u8; PAGE]).unwrap();
    let pass = common::delayed_flush_pass(&cell, &a);
    a.write(f.fid, 0, &[2u8; PAGE]).unwrap();
    a.write(f.fid, PAGE as u64, &[3u8; PAGE]).unwrap();

    cell.move_volume(VolumeId(1), 1).unwrap();
    pass.join().unwrap();

    assert_eq!(a.total_dirty_pages(), 0);
    let b = cell.new_client();
    assert_eq!(b.read(f.fid, 0, PAGE).unwrap(), vec![2u8; PAGE]);
    assert_eq!(b.read(f.fid, PAGE as u64, PAGE).unwrap(), vec![3u8; PAGE]);
    let st = a.stats();
    assert_eq!(st.revocation_store_failures, 0);
    assert_eq!(st.recoveries, 0, "a live move is not a crash");
}

/// (d) A call misdirected at a healthy server while the owner is down
/// gets the owner's address (not a hang, not a proxied error), and once
/// the owner restarts the client runs the recovery pipeline (§3.2) and
/// completes its operation.
#[test]
fn misdirected_call_during_owner_crash_redirects_then_recovers() {
    let cell = Cell::builder().servers(2).build().unwrap();
    cell.create_volume(0, VolumeId(7), "mine").unwrap();
    cell.create_volume(1, VolumeId(8), "other").unwrap();
    let a = cell.new_client();
    let root = a.root(VolumeId(7)).unwrap();
    let f = a.create(root, "f", 0o644).unwrap();
    a.write(f.fid, 0, b"pre-crash").unwrap();
    a.fsync(f.fid).unwrap();

    let owner = cell.server(0).id();
    cell.crash_server(0);

    // Even a token-free one-shot is answered with the VLDB's word on the
    // owner; chasing the owner while it is down is the client's ladder's
    // job, not this bystander's.
    let healthy = cell.server(1).id();
    let resp = cell
        .net()
        .call(
            Addr::Client(ClientId(999)),
            Addr::Server(healthy),
            None,
            CallClass::Normal,
            Request::GetRoot { volume: VolumeId(7) },
        )
        .unwrap();
    assert!(matches!(resp, Response::WrongServer { hint, .. } if hint == owner), "{resp:?}");
    assert_eq!(cell.server(1).stats().wrong_server_redirects, 1);

    // The owner comes back with a grace window; A's next operation runs
    // the recovery pipeline (epoch probe, token reestablishment) and
    // succeeds.
    cell.restart_server(0, 10_000_000).unwrap();
    a.create(root, "post-crash", 0o644).unwrap();
    let st = a.stats();
    assert_eq!(st.recoveries, 1, "exactly one recovery pass");
    assert!(st.tokens_reestablished > 0, "A re-registered its token set");
    assert_eq!(a.read(f.fid, 0, 16).unwrap(), b"pre-crash");
}

/// The cell's load monitor end-to-end: skewed traffic, one `rebalance`
/// call, and the hot volume lands on the cold server while every client
/// operation keeps succeeding.
#[test]
fn rebalance_migrates_hot_volume_under_live_traffic() {
    let cell = Cell::builder().servers(2).build().unwrap();
    cell.create_volume(0, VolumeId(1), "hot").unwrap();
    cell.create_volume(1, VolumeId(2), "cold").unwrap();
    cell.create_volume(0, VolumeId(3), "warm").unwrap();
    let c = cell.new_client();
    let hot = c.root(VolumeId(1)).unwrap();
    for i in 0..20 {
        let f = c.create(hot, &format!("f{i}"), 0o644).unwrap();
        c.write(f.fid, 0, format!("payload {i}").as_bytes()).unwrap();
        c.fsync(f.fid).unwrap();
    }
    // A trickle at the co-hosted warm volume: without it, shipping the
    // hot volume away would merely swap which server is overloaded, and
    // the monitor (correctly) declines such a move.
    let warm = c.root(VolumeId(3)).unwrap();
    let w = c.create(warm, "w", 0o644).unwrap();
    c.write(w.fid, 0, b"warm").unwrap();
    c.fsync(w.fid).unwrap();
    let moved = cell.rebalance().unwrap();
    assert_eq!(moved, Some((VolumeId(1), 0, 1)));
    // All data intact after the migration, reads served by the target.
    for i in 0..20 {
        let f = c.lookup(hot, &format!("f{i}")).unwrap();
        assert_eq!(c.read(f.fid, 0, 32).unwrap(), format!("payload {i}").as_bytes());
    }
    // Balanced now: a second pass finds nothing worth moving.
    assert_eq!(cell.rebalance().unwrap(), None);
}

/// A principal comes only from the caller's own ticket: a one-shot
/// aimed at a non-owner is redirected for every caller alike, with no
/// payload, so nobody can launder an ACL check by aiming a call at the
/// wrong server. Through their own clients, alice (on the ACL) reads
/// the link and bob gets `PermissionDenied` from the owner.
#[test]
fn misdirected_one_shots_redirect_and_the_owner_checks_the_caller() {
    use decorum_dfs::types::{Acl, AclEntry, Principal, Rights};
    use decorum_dfs::vfs::SetAttrs;

    let cell = Cell::builder().servers(2).require_auth(true).build().unwrap();
    cell.add_user(0, 42);
    cell.add_user(100, 1111);
    cell.add_user(200, 2222);
    cell.admin_login(0, 42).unwrap();
    cell.create_volume(0, VolumeId(1), "a").unwrap();
    cell.create_volume(1, VolumeId(2), "b").unwrap();

    let admin = cell.new_client();
    admin.login(0, 42).unwrap();
    let root = admin.root(VolumeId(1)).unwrap();
    admin.setattr(root, &SetAttrs { mode: Some(0o777), ..Default::default() }).unwrap();

    let alice = cell.new_client();
    alice.login(100, 1111).unwrap();
    let ln = alice.symlink(root, "ln", "the-target").unwrap();
    // Alice only: every other principal gets no rights at all.
    let mut acl = Acl::new();
    acl.push(AclEntry::allow(Principal::User(100), Rights::ALL));
    alice.set_acl(ln.fid, &acl).unwrap();

    // Aim the one-shot at the server that does NOT host volume 1.
    let (owner, wrong) = (cell.server(0).id(), cell.server(1).id());
    let net = cell.net();
    for (client, user, password) in [(900, 100, 1111), (901, 200, 2222)] {
        let ticket = net.auth().login(user, password).unwrap();
        let resp = net
            .call(
                Addr::Client(ClientId(client)),
                Addr::Server(wrong),
                Some(ticket),
                CallClass::Normal,
                Request::Readlink { fid: ln.fid },
            )
            .unwrap();
        assert!(matches!(resp, Response::WrongServer { hint, .. } if hint == owner), "{resp:?}");
    }
    assert_eq!(cell.server(1).stats().wrong_server_redirects, 2);

    assert_eq!(alice.readlink(ln.fid).unwrap(), "the-target");
    let bob = cell.new_client();
    bob.login(200, 2222).unwrap();
    assert_eq!(bob.readlink(ln.fid), Err(DfsError::PermissionDenied), "bob must not bypass the ACL");
}

/// A move target must never serve — let alone accept writes into — the
/// phase-1 snapshot: the shipped copy stays *staged* (still redirected)
/// until the token handover promotes it, and an aborted move discards
/// it so no stale fork of the volume survives.
#[test]
fn staged_move_copy_is_invisible_and_discards_on_abort() {
    let cell = common::cell(2); // the volume lands on slot 0
    let c = cell.new_client();
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "f", 0o644).unwrap();
    c.write(f.fid, 0, b"phase-1 state").unwrap();
    c.fsync(f.fid).unwrap();

    // Hand-drive a move's phase 1: full dump at the owner, restore at
    // the would-be target.
    let admin = Addr::Client(ClientId(999));
    let owner = cell.server(0).id();
    let target = cell.server(1).id();
    let net = cell.net();
    let dump = match net
        .call(
            admin,
            Addr::Server(owner),
            None,
            CallClass::Normal,
            Request::VolDump { volume: VolumeId(1), since_version: 0 },
        )
        .unwrap()
    {
        Response::Dump(d) => d,
        other => panic!("{other:?}"),
    };
    net.call(
        admin,
        Addr::Server(target),
        None,
        CallClass::Normal,
        Request::VolRestore { dump, read_only: false },
    )
    .unwrap()
    .into_result()
    .unwrap();

    // The VLDB still names the owner, so a stale-hinted read aimed at
    // the target is redirected — and a write cannot fork the volume.
    let resp = net
        .call(
            admin,
            Addr::Server(target),
            None,
            CallClass::Normal,
            Request::FetchData { fid: f.fid, offset: 0, len: 16, want: None },
        )
        .unwrap();
    assert!(
        matches!(resp, Response::WrongServer { hint, .. } if hint == owner),
        "staged copy served a read: {resp:?}"
    );
    let resp = net
        .call(
            admin,
            Addr::Server(target),
            None,
            CallClass::Normal,
            Request::StoreDataVec {
                fid: f.fid,
                extents: vec![WriteExtent { offset: 0, data: b"fork!".to_vec() }],
            },
        )
        .unwrap();
    assert!(
        matches!(resp, Response::WrongServer { .. }),
        "staged copy accepted a write: {resp:?}"
    );

    // The abort path: discarding deletes the staged copy outright.
    net.call(admin, Addr::Server(target), None, CallClass::Normal, Request::VolDiscard {
        volume: VolumeId(1),
    })
    .unwrap()
    .into_result()
    .unwrap();
    let resp = net
        .call(admin, Addr::Server(target), None, CallClass::Normal, Request::VolInfo {
            volume: VolumeId(1),
        })
        .unwrap();
    assert!(matches!(resp, Response::Err(_)), "staged copy still present: {resp:?}");

    // The owner was never disturbed, and a real move still works.
    assert_eq!(c.read(f.fid, 0, 16).unwrap(), b"phase-1 state");
    cell.move_volume(VolumeId(1), 1).unwrap();
    assert_eq!(c.read(f.fid, 0, 16).unwrap(), b"phase-1 state");
}
