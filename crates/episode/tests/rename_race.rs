//! Two renames that cross: "a" moves into "b" while "b" moves into "a".
//! Each alone is legal, and each checks that its directory is not moved
//! into its own subtree; checked side by side, before either has moved
//! anything, both would pass and both commit, and the two directories
//! would then hold each other with no path from the root. Renames
//! between two different directories run one at a time per volume, and
//! the check reads each directory under its lock, so the second sees the
//! first's move: one succeeds and the other fails with
//! `InvalidArgument`. The salvager, run after every round, reports a
//! directory the root does not reach.
//!
//! ```sh
//! cargo test -p dfs-episode --test rename_race -- --nocapture
//! ```

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_types::{DfsError, SimClock, VolumeId};
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

#[test]
fn crossing_directory_renames_never_both_succeed() {
    let (ep, vol) = mounted();
    let cred = Credentials::system();
    let root = vol.root().unwrap();
    let (mut a_moved, mut b_moved) = (0, 0);
    for round in 0..2000 {
        let a = vol.mkdir(&cred, root, "a", 0o755).unwrap().fid;
        let b = vol.mkdir(&cred, root, "b", 0o755).unwrap().fid;
        let start = Barrier::new(2);
        let (into_b, into_a) = std::thread::scope(|s| {
            let other = s.spawn(|| {
                start.wait();
                vol.rename(&cred, root, "b", a, "b")
            });
            start.wait();
            // A delay that sweeps this rename across the other's span.
            for _ in 0..round % 64 * 16 {
                std::hint::spin_loop();
            }
            let into_b = vol.rename(&cred, root, "a", b, "a");
            (into_b, other.join().unwrap())
        });
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "round {round}: {:?}", report.problems);
        // The winner's directory now sits in the loser's, which stays in
        // the root.
        let (outer, inner) = match (into_b, into_a) {
            (Ok(()), Err(DfsError::InvalidArgument)) => {
                a_moved += 1;
                (b, "a")
            }
            (Err(DfsError::InvalidArgument), Ok(())) => {
                b_moved += 1;
                (a, "b")
            }
            other => panic!("round {round}: {other:?}"),
        };
        vol.rmdir(&cred, outer, inner).unwrap();
        vol.rmdir(&cred, root, if inner == "a" { "b" } else { "a" }).unwrap();
    }
    println!("a moved first in {a_moved} rounds, b in {b_moved}");
}
