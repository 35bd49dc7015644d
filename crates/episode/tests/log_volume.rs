//! What one metadata cycle costs the log. A create + remove rewrites the
//! same anodes, directory entries and bitmap bytes it read, and the
//! journal logs only the bytes that change; the remove frees the file in
//! its unlink's transaction, writing the anode once. The cycle's log
//! volume is a count, pinned here so a record that grows back to whole
//! anodes, or a reclaim that splits off again, fails a test instead of a
//! benchmark.

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_types::{SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs};

#[test]
fn a_create_and_remove_cycle_logs_only_what_changes() {
    let disk = SimDisk::new(DiskConfig::with_blocks(16384));
    let ep = Episode::format(disk, SimClock::new(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let dir = vol.mkdir(&cred, vol.root().unwrap(), "churn", 0o755).unwrap().fid;
    let cycle = |i: u32| {
        let name = format!("n{}", i % 64);
        vol.create(&cred, dir, &name, 0o644).unwrap();
        vol.remove(&cred, dir, &name).unwrap();
    };
    // Warm up: the directory's blocks and the names' slots exist.
    for i in 0..128 {
        cycle(i);
    }
    let (mut bytes, mut records, mut most) = (0, 0, 0);
    for i in 128..192 {
        let before = ep.journal().stats();
        cycle(i);
        let d = ep.journal().stats().since(&before);
        assert!(d.log_bytes <= 620, "cycle {i} logged {} bytes", d.log_bytes);
        assert!(d.update_records <= 9, "cycle {i} logged {} updates", d.update_records);
        bytes += d.log_bytes;
        records += d.update_records;
        most = most.max(d.log_bytes);
    }
    // `--nocapture` shows the totals, for comparing two trees.
    println!(
        "64 measured cycles: {bytes} log bytes (at most {most} in one), {records} update records"
    );
}
