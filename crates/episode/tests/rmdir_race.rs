//! Removing a directory racing a create inside it. `rmdir`, and a
//! `rename` that replaces a directory, must check that the child is
//! empty under the child's lock, which the create holds while it inserts
//! its entry: else both succeed, the new entry goes with the freed
//! directory and its file is orphaned. Whichever goes first, the other
//! must fail: the create finds its directory gone (`StaleFid`), or the
//! removal finds it not empty (`NotEmpty`). The salvager, run after
//! every round, sees a lost entry as an orphaned anode.
//!
//! ```sh
//! cargo test -p dfs-episode --test rmdir_race -- --nocapture
//! ```

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_types::{DfsError, DfsResult, Fid, SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs, VfsPlus};
use std::sync::{Arc, Barrier};

/// A small mounted aggregate: the salvage after each round stays cheap.
fn mounted() -> (Arc<Episode>, Arc<dyn VfsPlus>) {
    let disk = SimDisk::new(DiskConfig::with_blocks(2048));
    let params = FormatParams { anodes: 256, ..FormatParams::default() };
    let ep = Episode::format(disk, SimClock::new(), params).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    (ep, vol)
}

/// Runs 3 000 rounds of `remove` (which removes directory "d" from the
/// root) against a create of "d/f". Each round starts with the
/// empty directories `dirs` ("d" first) in the root, and ends by
/// emptying the root. Returns how many rounds the create and the
/// removal won.
fn race(dirs: &[&str], remove: impl Fn(&dyn VfsPlus, Fid) -> DfsResult<()>) -> (u32, u32) {
    let (ep, vol) = mounted();
    let cred = Credentials::system();
    let root = vol.root().unwrap();
    let (mut created, mut removed) = (0, 0);
    for round in 0..3000 {
        for name in dirs {
            vol.mkdir(&cred, root, name, 0o755).unwrap();
        }
        let d = vol.lookup(&cred, root, "d").unwrap().fid;
        let start = Barrier::new(2);
        let outcome = std::thread::scope(|s| {
            let creator = s.spawn(|| {
                start.wait();
                vol.create(&cred, d, "f", 0o644).map(|_| ())
            });
            start.wait();
            // A delay that sweeps the removal across the create's span.
            for _ in 0..round % 64 * 64 {
                std::hint::spin_loop();
            }
            let removal = remove(&*vol, root);
            (creator.join().unwrap(), removal)
        });
        match outcome {
            (Ok(()), Err(DfsError::NotEmpty)) => created += 1,
            (Err(DfsError::StaleFid), Ok(())) => removed += 1,
            other => panic!("round {round}: create and removal returned {other:?}"),
        }
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "round {round}: {:?}", report.problems);
        for e in vol.readdir(&cred, root).unwrap() {
            if vol.lookup(&cred, e.fid, "f").is_ok() {
                vol.remove(&cred, e.fid, "f").unwrap();
            }
            vol.rmdir(&cred, root, &e.name).unwrap();
        }
    }
    (created, removed)
}

#[test]
fn rmdir_racing_a_create_in_the_directory_loses_nothing() {
    let cred = Credentials::system();
    let (created, removed) = race(&["d"], |vol, root| vol.rmdir(&cred, root, "d"));
    // `--nocapture` shows how the rounds fell.
    println!("3000 rounds: the create went first in {created}, the rmdir in {removed}");
}

#[test]
fn a_rename_replacing_a_directory_racing_a_create_in_it_loses_nothing() {
    let cred = Credentials::system();
    let (created, removed) = race(&["d", "e"], |vol, root| vol.rename(&cred, root, "e", root, "d"));
    println!("3000 rounds: the create went first in {created}, the rename in {removed}");
}
