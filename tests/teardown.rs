//! RAII teardown (ROADMAP coherence item, part c): dropping a cell ends
//! its world. `Cell::drop` unbinds every node, which breaks the
//! `Network` → node → service → `Network` cycles (a node is a table
//! entry: the RPC plane runs a call on its caller and owns no thread);
//! `CacheManager::drop` stops and joins its flusher.
//! This file holds one test so that it has a process — and a thread
//! count — to itself.
#![cfg(target_os = "linux")]

mod common;

use std::time::{Duration, Instant};

use decorum_dfs::types::VolumeId;
use decorum_dfs::Cell;

#[test]
fn two_hundred_cells_leave_the_thread_count_where_it_started() {
    let before = common::threads();
    for round in 0..200u32 {
        let cell = Cell::builder().servers(1).disk_blocks(4096).build().unwrap();
        cell.create_volume(0, VolumeId(1), "v").unwrap();
        // Two clients with running flushers, one revocation between them.
        let (a, b) = (cell.new_client(), cell.new_client());
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "f", 0o644).unwrap();
        a.write(f.fid, 0, &round.to_le_bytes()).unwrap();
        assert_eq!(b.read(f.fid, 0, 4).unwrap(), round.to_le_bytes());
        // Either order must work: the handles before the cell, or the
        // cell from under live handles.
        if round % 2 == 0 {
            drop((a, b));
            drop(cell);
        } else {
            drop(cell);
            drop((a, b));
        }
    }
    // Flushers are the only threads a world starts, and the drop joins
    // them — except one that held the last handle to its own client,
    // which exits on its own.
    let deadline = Instant::now() + Duration::from_secs(10);
    while common::threads() > before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(common::threads(), before, "threads outlived the cells that started them");
}
