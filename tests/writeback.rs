//! Write-behind pipeline tests: coalesced extent store-backs, the
//! background flusher, and their interaction with tokens/revocations.

use dfs_client::{WritebackConfig, STORE_EXTENT_PAGES};
use dfs_core::Cell;
use dfs_types::VolumeId;

mod common;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: usize = dfs_client::PAGE_SIZE;

fn cell() -> Cell {
    let cell = Cell::builder().servers(1).latency_us(10).build().unwrap();
    cell.create_volume(0, VolumeId(1), "wb").unwrap();
    cell
}

/// Waits (bounded) for a condition driven by the background flusher.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
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
    assert_eq!(d.by_label.get("StoreData").copied().unwrap_or(0), 0);
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
    let c = cell.new_client_writeback(WritebackConfig {
        flush_interval: Duration::from_millis(1),
        dirty_budget_pages: 8,
        ..WritebackConfig::default()
    });
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "trickle", 0o644).unwrap();
    for p in 0..48u64 {
        c.write(f.fid, p * PAGE as u64, &[3u8; PAGE]).unwrap();
    }
    // No fsync: the background flusher alone must drain the dirty set.
    assert!(
        wait_for(|| c.total_dirty_pages() == 0),
        "flusher failed to drain: {} dirty pages left",
        c.total_dirty_pages()
    );
    let st = c.stats();
    assert!(st.flusher_passes > 0, "flusher never ran");
    let r = cell.new_client();
    assert_eq!(r.read(f.fid, 47 * PAGE as u64, PAGE).unwrap(), vec![3u8; PAGE]);
}

#[test]
fn backpressure_forces_synchronous_flush_over_double_budget() {
    let cell = cell();
    let c = cell.new_client_writeback(WritebackConfig {
        // A long interval so the writer outruns the timer-driven flusher
        // and hits the synchronous backpressure path deterministically.
        flush_interval: Duration::from_secs(30),
        dirty_budget_pages: 4,
        ..WritebackConfig::default()
    });
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "pressure", 0o644).unwrap();
    for p in 0..64u64 {
        c.write(f.fid, p * PAGE as u64, &[4u8; PAGE]).unwrap();
    }
    let st = c.stats();
    assert!(st.backpressure_flushes > 0, "writer never paid for a flush");
    // The budget bounds the dirty set the whole way through.
    assert!(c.total_dirty_pages() <= 2 * 4 + STORE_EXTENT_PAGES as u64);
    c.shutdown().unwrap();
}

#[test]
fn shutdown_flushes_remaining_dirty_data() {
    let cell = cell();
    let c = cell.new_client_writeback(WritebackConfig {
        // Effectively-idle flusher: shutdown itself must do the flush.
        flush_interval: Duration::from_secs(30),
        ..WritebackConfig::default()
    });
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

#[test]
fn writer_during_flush_loses_no_update() {
    let cell = cell();
    let c = cell.new_client_writeback(WritebackConfig {
        flush_interval: Duration::from_millis(1),
        dirty_budget_pages: 2,
        ..WritebackConfig::default()
    });
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "racy", 0o644).unwrap();
    // Rewrite page 0 many times while the flusher is aggressively
    // storing it back: the final value must win (write_seq check).
    let c2: Arc<_> = c.clone();
    let fid = f.fid;
    let writer = std::thread::spawn(move || {
        for i in 0u8..100 {
            c2.write(fid, 0, &[i; PAGE]).unwrap();
            if i % 8 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    });
    writer.join().unwrap();
    c.fsync(fid).unwrap();
    let r = cell.new_client();
    assert_eq!(r.read(fid, 0, PAGE).unwrap(), vec![99u8; PAGE]);
}
