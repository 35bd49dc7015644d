//! Crash recovery: Episode's fast restart versus the FFS fsck (§2.2).
//!
//! Builds an Episode aggregate and an FFS partition of the same size,
//! runs the same workload on both, crashes both, and compares restart
//! work.
//!
//! Run with: `cargo run --example crash_recovery`

use decorum_dfs::disk::{DiskConfig, SimDisk};
use decorum_dfs::episode::{Episode, FormatParams};
use decorum_dfs::ffs::Ffs;
use decorum_dfs::types::{SimClock, VolumeId};
use decorum_dfs::vfs::{Credentials, PhysicalFs, Vfs};

const BLOCKS: u32 = 64 * 1024; // 256 MiB simulated disks.

fn main() {
    let cred = Credentials::system();

    // ---- Episode ------------------------------------------------------
    let disk = SimDisk::new(DiskConfig::with_blocks(BLOCKS));
    let clock = SimClock::new();
    let ep = Episode::format(disk.clone(), clock.clone(), FormatParams::default())
        .expect("format");
    ep.create_volume(VolumeId(1), "v").expect("volume");
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).expect("mount");
    let root = vol.root().expect("root");
    for i in 0..200 {
        let f = vol.create(&cred, root, &format!("file{i}"), 0o644).expect("create");
        vol.write(&cred, f.fid, 0, &vec![i as u8; 8192]).expect("write");
    }
    ep.sync_log().expect("group commit");
    // More work that will be interrupted mid-flight.
    for i in 200..220 {
        let _ = vol.create(&cred, root, &format!("file{i}"), 0o644);
    }
    println!("crash! (episode)");
    disk.crash(None);
    disk.power_on();

    let (ep2, report) = Episode::open(disk, clock).expect("recover");
    println!(
        "episode restart: scanned {} log blocks, redid {} updates, undid {}, \
         simulated disk time {:.1} ms",
        report.scanned_blocks,
        report.updates_redone,
        report.updates_undone,
        report.disk_busy_us as f64 / 1000.0
    );
    let salvage = ep2.salvage().expect("salvage");
    assert!(salvage.is_clean(), "recovered aggregate must be consistent");
    let vol2 = PhysicalFs::mount(&*ep2, VolumeId(1)).expect("remount");
    let listed = vol2.readdir(&cred, vol2.root().unwrap()).expect("readdir");
    println!("episode survived with {} files, salvager clean", listed.len());

    // ---- FFS ------------------------------------------------------------
    let disk = SimDisk::new(DiskConfig::with_blocks(BLOCKS));
    let fs = Ffs::format(disk.clone(), SimClock::new(), VolumeId(1)).expect("format");
    let root = fs.root().expect("root");
    for i in 0..200 {
        let f = fs.create(&cred, root, &format!("file{i}"), 0o644).expect("create");
        fs.write(&cred, f.fid, 0, &vec![i as u8; 8192]).expect("write");
    }
    println!("crash! (ffs)");
    disk.crash(None);
    disk.power_on();
    let (_fs2, fsck) = Ffs::open(disk, SimClock::new(), VolumeId(1)).expect("fsck");
    println!(
        "ffs restart: fsck scanned {} inodes / {} blocks, fixed {} bitmap bits, \
         simulated disk time {:.1} ms",
        fsck.inodes_scanned,
        fsck.blocks_scanned,
        fsck.bitmap_fixes,
        fsck.disk_busy_us as f64 / 1000.0
    );

    println!(
        "\nrestart cost ratio (ffs fsck / episode log replay): {:.1}x",
        fsck.disk_busy_us as f64 / report.disk_busy_us.max(1) as f64
    );
    println!("crash recovery demo: OK");
}
