//! Write-behind pipeline tests: coalesced extent store-backs, the
//! background flusher, and their interaction with tokens/revocations.

use dfs_client::{CacheManager, WritebackConfig, STORE_EXTENT_PAGES};
use dfs_core::Cell;
use dfs_rpc::{Addr, CallClass, Request, Response};
use dfs_token::TokenTypes;
use dfs_types::{DfsError, Fid, VolumeId};
use dfs_vfs::{SetAttrs, WriteExtent};

mod common;
use std::sync::Arc;
use std::time::Duration;

const PAGE: usize = dfs_client::PAGE_SIZE;

fn cell() -> Cell {
    let cell = Cell::builder().servers(1).latency_us(10).build().unwrap();
    cell.create_volume(0, VolumeId(1), "wb").unwrap();
    cell
}

/// A client whose flusher thread exists but only ever runs when the
/// budget kicks it: the tests drive passes themselves, with
/// `flush_pass`, instead of waiting on a timer.
fn idle_flusher_client(cell: &Cell, dirty_budget_pages: usize) -> Arc<CacheManager> {
    cell.new_client_writeback(WritebackConfig {
        flush_interval: Duration::from_secs(3600),
        dirty_budget_pages,
        ..WritebackConfig::default()
    })
}

#[test]
fn sequential_write_coalesces_into_few_rpcs() {
    let cell = cell();
    // No flusher: the fsync must do all the store-back work, making the
    // RPC counts deterministic.
    let c = common::no_flush_client(&cell);
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "seq", 0o644).unwrap();
    for p in 0..64u64 {
        c.write(f.fid, p * PAGE as u64, &[p as u8; PAGE]).unwrap();
    }
    let before = cell.net().stats();
    c.fsync(f.fid).unwrap();
    let d = cell.net().stats().since(&before);
    // 64 pages = 4 extents of STORE_EXTENT_PAGES, all in one vec RPC.
    assert_eq!(d.by_label.get("StoreDataVec").copied().unwrap_or(0), 1);
    let st = c.stats();
    assert_eq!(st.storeback_rpcs, 1);
    assert_eq!(st.storeback_extents, (64 / STORE_EXTENT_PAGES) as u64);
    assert_eq!(st.storeback_pages, 64);
    assert_eq!(c.dirty_pages(f.fid), 0);
    // A second client observes every page.
    let r = cell.new_client();
    for p in (0..64u64).step_by(17) {
        assert_eq!(r.read(f.fid, p * PAGE as u64, PAGE).unwrap(), vec![p as u8; PAGE]);
    }
}

#[test]
fn sparse_dirty_set_ships_one_extent_per_run() {
    let cell = cell();
    let c = common::no_flush_client(&cell);
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "sparse", 0o644).unwrap();
    // Three discontiguous runs: {0,1,2}, {10}, {20,21}.
    for p in [0u64, 1, 2, 10, 20, 21] {
        c.write(f.fid, p * PAGE as u64, &[(p + 1) as u8; PAGE]).unwrap();
    }
    let before = cell.net().stats();
    c.fsync(f.fid).unwrap();
    let d = cell.net().stats().since(&before);
    assert_eq!(d.by_label.get("StoreDataVec").copied().unwrap_or(0), 1);
    let st = c.stats();
    assert_eq!(st.storeback_extents, 3, "one extent per contiguous run");
    assert_eq!(st.storeback_pages, 6);
    // Holes stay holes; written pages read back.
    let r = cell.new_client();
    assert_eq!(r.read(f.fid, 10 * PAGE as u64, PAGE).unwrap(), vec![11u8; PAGE]);
    assert_eq!(r.read(f.fid, 5 * PAGE as u64, PAGE).unwrap(), vec![0u8; PAGE]);
    assert_eq!(r.read(f.fid, 21 * PAGE as u64, PAGE).unwrap(), vec![22u8; PAGE]);
}

#[test]
fn extent_straddling_eof_stores_partial_last_page() {
    let cell = cell();
    let c = common::no_flush_client(&cell);
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "tail", 0o644).unwrap();
    // One full page plus 100 bytes: the second page is dirty but only
    // 100 bytes of it are inside the file.
    let mut data = vec![5u8; PAGE + 100];
    data[PAGE..].fill(6);
    c.write(f.fid, 0, &data).unwrap();
    c.fsync(f.fid).unwrap();
    let r = cell.new_client();
    let st = r.getattr(f.fid).unwrap();
    assert_eq!(st.length, (PAGE + 100) as u64);
    assert_eq!(r.read(f.fid, 0, PAGE).unwrap(), vec![5u8; PAGE]);
    // Reads clamp at EOF: exactly the 100 tail bytes come back.
    assert_eq!(r.read(f.fid, PAGE as u64, PAGE).unwrap(), vec![6u8; 100]);
}

#[test]
fn concurrent_revocation_mid_flush_keeps_writers_consistent() {
    let cell = cell();
    let c1 = cell.new_client();
    let c2 = cell.new_client();
    let root = c1.root(VolumeId(1)).unwrap();
    let f = c1.create(root, "contended", 0o644).unwrap();
    // c1 dirties a large range, then both clients write the same file
    // concurrently while c1's store-back is racing c2's token
    // acquisition (which revokes c1's write tokens and forces
    // revocation-class store-backs mid-flush).
    for p in 0..32u64 {
        c1.write(f.fid, p * PAGE as u64, &[1u8; PAGE]).unwrap();
    }
    let c1b = c1.clone();
    let fid = f.fid;
    let flusher = std::thread::spawn(move || c1b.fsync(fid).unwrap());
    for p in 0..32u64 {
        c2.write(fid, p * PAGE as u64, &[2u8; PAGE]).unwrap();
    }
    flusher.join().unwrap();
    c1.fsync(fid).unwrap();
    c2.fsync(fid).unwrap();
    assert_eq!(c1.dirty_pages(fid), 0);
    assert_eq!(c2.dirty_pages(fid), 0);
    // Every page holds one writer's value in full (page writes are
    // atomic under the token protocol — no torn pages).
    let r = cell.new_client();
    for p in 0..32u64 {
        let page = r.read(fid, p * PAGE as u64, PAGE).unwrap();
        assert!(
            page == vec![1u8; PAGE] || page == vec![2u8; PAGE],
            "page {p} torn: starts {:?}",
            &page[..4]
        );
    }
}

#[test]
fn flusher_trickles_dirty_pages_out_under_budget() {
    let cell = cell();
    let c = idle_flusher_client(&cell, 8);
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "trickle", 0o644).unwrap();
    for p in 0..48u64 {
        c.write(f.fid, p * PAGE as u64, &[3u8; PAGE]).unwrap();
    }
    // No fsync: a flusher pass alone must drain the dirty set.
    c.flush_pass().unwrap();
    assert_eq!(c.total_dirty_pages(), 0, "the pass left dirty pages behind");
    assert!(c.stats().flusher_passes > 0, "flusher never ran");
    let r = cell.new_client();
    assert_eq!(r.read(f.fid, 47 * PAGE as u64, PAGE).unwrap(), vec![3u8; PAGE]);
}

#[test]
fn backpressure_forces_synchronous_flush_over_double_budget() {
    let cell = cell();
    let c = idle_flusher_client(&cell, 4);
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "pressure", 0o644).unwrap();
    for p in 0..64u64 {
        c.write(f.fid, p * PAGE as u64, &[4u8; PAGE]).unwrap();
        // The budget bounds the dirty set the whole way through,
        // whether or not a kicked pass gets there before the writer.
        assert!(c.total_dirty_pages() <= 2 * 4 + 1);
    }
    assert!(c.stats().backpressure_flushes > 0, "writer never paid for a flush");
    c.shutdown().unwrap();
}

#[test]
fn shutdown_flushes_remaining_dirty_data() {
    let cell = cell();
    let c = idle_flusher_client(&cell, 256);
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "parting", 0o644).unwrap();
    c.write(f.fid, 0, b"do not lose me").unwrap();
    c.write(f.fid, 5 * PAGE as u64, &[8u8; 64]).unwrap();
    assert!(c.total_dirty_pages() > 0);
    c.shutdown().unwrap();
    assert_eq!(c.total_dirty_pages(), 0);
    let r = cell.new_client();
    assert_eq!(r.read(f.fid, 0, 14).unwrap(), b"do not lose me");
    assert_eq!(r.read(f.fid, 5 * PAGE as u64, 64).unwrap(), vec![8u8; 64]);
    // Shutdown is idempotent.
    c.shutdown().unwrap();
}

// ----------------------------------------------------------------------
// The store gate (DESIGN.md §9): one store per vnode on the wire, a later
// snapshot sent only after the earlier one is acknowledged
// ----------------------------------------------------------------------

fn tag(t: u8) -> Vec<u8> {
    vec![t; PAGE]
}

/// A one-page file written with `tag(1)` by `a` and not yet stored.
fn dirty_file(a: &CacheManager, name: &str) -> Fid {
    let root = a.root(VolumeId(1)).unwrap();
    let fid = a.create(root, name, 0o644).unwrap().fid;
    a.write(fid, 0, &tag(1)).unwrap();
    fid
}

#[test]
fn writer_during_flush_loses_no_update() {
    let cell = cell();
    let a = common::no_flush_client(&cell);
    let fid = dirty_file(&a, "racy");
    let pass = common::delayed_flush_pass(&cell, &a);
    // The slot orders stores, not writers: with the pass's store still
    // in the network, the page is rewritten — here, now, without waiting
    // for it — and each rewrite is a local write, no RPC.
    let before = a.stats();
    for i in 2u8..100 {
        a.write(fid, 0, &tag(i)).unwrap();
    }
    let during = a.stats();
    assert_eq!(during.local_writes - before.local_writes, 98);
    assert_eq!(during.storeback_rpcs, 1, "the pass's store is the only one sent");
    assert_eq!(a.read(fid, 0, PAGE).unwrap(), tag(99));
    pass.join().unwrap();
    // The acknowledged store carried tag 1; the page had been rewritten
    // since its snapshot, so it stayed dirty and the pass went round
    // again: the final value wins.
    assert_eq!(a.stats().storeback_rpcs, 2);
    assert_eq!(a.dirty_pages(fid), 0);
    assert_eq!(cell.new_client().read(fid, 0, PAGE).unwrap(), tag(99));
}

#[test]
fn handoff_read_waits_out_a_flusher_store_in_flight() {
    let cell = cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let fid = dirty_file(&a, "handoff");
    let pass = common::delayed_flush_pass(&cell, &a);
    a.write(fid, 0, &tag(2)).unwrap();
    // B's read revokes A's token. A's handler must let the older
    // snapshot land before it stores the newer one and gives the token
    // up; otherwise tag 1 reaches the server last and overwrites tag 2.
    assert_eq!(b.read(fid, 0, PAGE).unwrap(), tag(2));
    pass.join().unwrap();
    assert_eq!(a.stats().revocation_stores, 1);
    for _ in 0..3 {
        assert_eq!(b.read(fid, 0, PAGE).unwrap(), tag(2), "B went back to a stale page");
    }
    assert_eq!(cell.new_client().read(fid, 0, PAGE).unwrap(), tag(2));
    assert_eq!(a.read(fid, 0, PAGE).unwrap(), tag(2));
}

#[test]
fn truncate_waits_out_a_flusher_store_in_flight() {
    let cell = cell();
    let a = common::no_flush_client(&cell);
    let fid = dirty_file(&a, "truncated");
    let pass = common::delayed_flush_pass(&cell, &a);
    a.write(fid, 0, &tag(2)).unwrap();
    // A store that reached the server after the truncation would bring
    // the page back.
    let st = a.setattr(fid, &SetAttrs { length: Some(0), ..SetAttrs::default() }).unwrap();
    assert_eq!(st.length, 0);
    pass.join().unwrap();
    assert_eq!(a.dirty_pages(fid), 0);
    let c = cell.new_client();
    assert_eq!(c.getattr(fid).unwrap().length, 0, "the file must stay empty");
    assert_eq!(c.read(fid, 0, PAGE).unwrap(), b"");
    assert_eq!(a.getattr(fid).unwrap().length, 0);
}

#[test]
fn close_and_fsync_wait_out_a_flusher_store_in_flight() {
    type Op = fn(&CacheManager, Fid);
    let ops: [(&str, Op); 2] = [
        ("close", |a, fid| a.close(fid, dfs_client::OpenMode::Write).unwrap()),
        ("fsync", |a, fid| a.fsync(fid).unwrap()),
    ];
    for (name, op) in ops {
        let cell = cell();
        let a = common::no_flush_client(&cell);
        let fid = dirty_file(&a, name);
        let pass = common::delayed_flush_pass(&cell, &a);
        a.write(fid, 0, &tag(2)).unwrap();
        // Returns with tag 2 stored — and stored *last*.
        op(&a, fid);
        assert_eq!(a.dirty_pages(fid), 0, "{name} left the page dirty");
        pass.join().unwrap();
        assert_eq!(cell.new_client().read(fid, 0, PAGE).unwrap(), tag(2), "after {name}");
    }
}

#[test]
fn store_arriving_after_the_token_went_is_refused() {
    let cell = cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let fid = dirty_file(&a, "late");
    // A store of tag 1 leaves A and is held up in the network — sent
    // outside the gate, in the ordinary class, as the pre-gate flusher
    // sent it: a message already out when the revocation arrives.
    let (from, to) = (Addr::Client(a.id()), Addr::Server(cell.server(0).id()));
    let net = cell.net().clone();
    let late = common::in_flight(&cell, &a, move |_| {
        let extents = vec![WriteExtent { offset: 0, data: tag(1) }];
        let stale = Request::StoreDataVec { fid, extents };
        net.call(from, to, None, CallClass::Normal, stale).unwrap()
    });
    // Meanwhile the token goes: B's write revokes it (A's handler stores
    // tag 1 first), and B's own bytes reach the server.
    b.write(fid, 0, &tag(2)).unwrap();
    b.fsync(fid).unwrap();
    let revocations = b.stats().revocations;
    // The late store arrives. The token table no longer shows A holding
    // the write token: refused, nothing written, and — a store never
    // acquires a token — B is not disturbed.
    assert_eq!(late.join().unwrap(), Response::Err(DfsError::TokenRevoked));
    assert_eq!(b.stats().revocations, revocations, "the refused store revoked B");
    assert!(b.held_tokens(fid).iter().any(|t| t.types.contains(TokenTypes::DATA_WRITE)));
    assert_eq!(cell.new_client().read(fid, 0, PAGE).unwrap(), tag(2), "the server's bytes are B's");
}

#[test]
fn typed_partial_revocation_leaves_a_data_store_admitted() {
    let cell = cell();
    let a = common::no_flush_client(&cell);
    let b = common::no_flush_client(&cell);
    let fid = dirty_file(&a, "partial");
    // B's getattr takes only A's STATUS_WRITE (A pushes its length and
    // mtime first); A keeps DATA_WRITE and its dirty page.
    assert_eq!(b.getattr(fid).unwrap().length, PAGE as u64);
    let held = a.held_tokens(fid);
    assert!(held.iter().any(|t| t.types.contains(TokenTypes::DATA_WRITE)));
    assert!(!held.iter().any(|t| t.types.contains(TokenTypes::STATUS_WRITE)));
    assert_eq!(a.dirty_pages(fid), 1);
    // The data store is admitted on DATA_WRITE alone: it lands, it does
    // not change the length B has cached, and it takes nothing from B.
    let revocations = b.stats().revocations;
    a.flush_pass().unwrap();
    assert_eq!(a.dirty_pages(fid), 0);
    assert_eq!(b.stats().revocations, revocations, "the store revoked B's status token");
    let local = b.stats().local_reads;
    assert_eq!(b.getattr(fid).unwrap().length, PAGE as u64);
    assert_eq!(b.stats().local_reads, local + 1, "B's cached status still stands");
    assert_eq!(cell.new_client().read(fid, 0, PAGE).unwrap(), tag(1));
}
