//! A remove racing a write to the file it removes. The remove reads the
//! victim's anode to decide what to free, and the write allocates
//! blocks into that anode: unless the remove reads it under the victim's
//! lock, and the write checks under that lock that its fid still names
//! the slot, either the remove frees from a stale copy (the written
//! blocks leak) or the write lands in the freed slot (the same). The
//! salvager, run after every round, sees either as a block whose stored
//! refcount no anode accounts for.
//!
//! ```sh
//! cargo test -p dfs-episode --test remove_race -- --nocapture
//! ```

use dfs_disk::{DiskConfig, SimDisk, BLOCK_SIZE};
use dfs_episode::{Episode, FormatParams};
use dfs_types::{DfsError, SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs};
use std::sync::Barrier;

#[test]
fn a_write_racing_the_remove_of_its_file_leaks_nothing() {
    // A small aggregate keeps the salvage after each round cheap.
    let disk = SimDisk::new(DiskConfig::with_blocks(2048));
    let params = FormatParams { anodes: 256, ..FormatParams::default() };
    let ep = Episode::format(disk, SimClock::new(), params).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = vol.root().unwrap();
    let pages = vec![7u8; 64 * BLOCK_SIZE];
    let (mut written, mut stale) = (0, 0);
    for round in 0..3000 {
        let f = vol.create(&cred, root, "victim", 0o644).unwrap().fid;
        let start = Barrier::new(2);
        let wrote = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                start.wait();
                vol.write(&cred, f, 0, &pages)
            });
            start.wait();
            // A delay that sweeps the remove across the write's span.
            for _ in 0..round % 64 * 2048 {
                std::hint::spin_loop();
            }
            vol.remove(&cred, root, "victim").unwrap();
            writer.join().unwrap()
        });
        match wrote {
            Ok(_) => written += 1,
            Err(DfsError::StaleFid) => stale += 1,
            Err(e) => panic!("round {round}: write failed with {e:?}"),
        }
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "round {round}: {:?}", report.problems);
    }
    // `--nocapture` shows how the rounds fell.
    println!("3000 rounds: the write went first in {written}, found its file gone in {stale}");
}
