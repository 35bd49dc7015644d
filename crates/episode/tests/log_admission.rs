//! Log admission under concurrent writers (`Journal::admit`): two
//! threads churning names in their own directories share the volume
//! header and the anode table, so their transactions keep joining one
//! equivalence class. While the two always overlap the class never
//! closes, the log tail stays pinned at its first record, and without
//! admission the log fills: `LogFull`, for good (the failed operation's
//! transaction is never resolved). A small log makes a few dozen
//! overlapping transactions enough.

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_types::{SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs};

#[test]
fn overlapping_writers_never_fill_the_log() {
    let disk = SimDisk::new(DiskConfig::with_blocks(16384));
    let params = FormatParams { log_blocks: 16, ..FormatParams::default() };
    let ep = Episode::format(disk, SimClock::new(), params).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = vol.root().unwrap();
    std::thread::scope(|s| {
        for t in 0..2 {
            let (vol, cred) = (&vol, &cred);
            s.spawn(move || {
                let dir = vol.mkdir(cred, root, &format!("churn{t}"), 0o755).unwrap().fid;
                for cycle in 0..4_000 {
                    let name = format!("n{cycle}");
                    let made = vol.create(cred, dir, &name, 0o644);
                    let fid = made.unwrap_or_else(|e| panic!("create {name}: {e:?}")).fid;
                    assert_eq!(vol.getattr(cred, fid).unwrap().fid, fid);
                    let gone = vol.remove(cred, dir, &name);
                    assert_eq!(gone.unwrap_or_else(|e| panic!("remove {name}: {e:?}")).nlink, 0);
                }
            });
        }
    });
    assert_eq!(ep.journal().active_txns(), 0, "every class closed");
    assert!(ep.salvage().unwrap().is_clean());
}
