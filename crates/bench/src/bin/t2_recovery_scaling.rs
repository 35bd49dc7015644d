//! T2 — §2.2 claim: "The time spent in recovery is proportional to the
//! size of the active portion of the log, not (as with fsck) to the size
//! of the file system."
//!
//! The file system size is swept while the in-flight work at crash time
//! is held constant; Episode restart cost should stay flat while FFS
//! fsck cost grows with the disk.

use dfs_bench::emit::{arr, Obj};
use dfs_bench::{f2, header, row};
use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_ffs::Ffs;
use dfs_types::{SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs, Vfs};

/// One restart's cost: blocks scanned and simulated disk microseconds.
type Restart = (u64, u64);

/// Fill ~10% of the disk, then crash with a fixed amount of unsynced
/// work in flight.
fn episode_case(blocks: u32) -> Restart {
    let disk = SimDisk::new(DiskConfig::with_blocks(blocks));
    let clock = SimClock::new();
    let ep = Episode::format(disk.clone(), clock.clone(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = v.root().unwrap();
    let files = blocks / 256; // Content scales with disk size.
    for i in 0..files {
        let f = v.create(&cred, root, &format!("f{i}"), 0o644).unwrap();
        v.write(&cred, f.fid, 0, &vec![i as u8; 16 * 1024]).unwrap();
        if i % 50 == 49 {
            ep.sync_all().unwrap();
        }
    }
    ep.sync_all().unwrap();
    // Fixed-size in-flight burst, synced to the log but not checkpointed.
    for i in 0..64 {
        let f = v.create(&cred, root, &format!("hot{i}"), 0o644).unwrap();
        v.write(&cred, f.fid, 0, &[1u8; 1024]).unwrap();
    }
    ep.sync_log().unwrap();
    disk.crash(None);
    disk.power_on();
    let before = disk.stats().busy_us;
    let (_, report) = Episode::open(disk.clone(), clock).unwrap();
    (report.scanned_blocks, disk.stats().busy_us - before)
}

fn ffs_case(blocks: u32) -> Restart {
    let disk = SimDisk::new(DiskConfig::with_blocks(blocks));
    let fs = Ffs::format(disk.clone(), SimClock::new(), VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = fs.root().unwrap();
    let files = blocks / 256;
    for i in 0..files {
        let f = fs.create(&cred, root, &format!("f{i}"), 0o644).unwrap();
        fs.write(&cred, f.fid, 0, &vec![i as u8; 16 * 1024]).unwrap();
    }
    fs.sync().unwrap();
    for i in 0..64 {
        let f = fs.create(&cred, root, &format!("hot{i}"), 0o644).unwrap();
        fs.write(&cred, f.fid, 0, &[1u8; 1024]).unwrap();
    }
    disk.crash(None);
    disk.power_on();
    let (_, report) = Ffs::open(disk, SimClock::new(), VolumeId(1)).unwrap();
    (report.blocks_scanned, report.disk_busy_us)
}

fn main() {
    let json = dfs_bench::Args::parse(&[]).json;
    let sweep: Vec<(u32, Restart, Restart)> =
        [16 * 1024u32, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024]
            .iter()
            .map(|&blocks| (blocks, episode_case(blocks), ffs_case(blocks)))
            .collect();

    if json {
        let rows = arr(sweep.iter().map(|&(blocks, (eb, eus), (fb, fus))| {
            Obj::new()
                .field("disk_mib", blocks / 256)
                .field("episode_blocks", eb)
                .field("episode_busy_us", eus)
                .field("fsck_blocks", fb)
                .field("fsck_busy_us", fus)
                .field("fsck_over_episode", fus as f64 / eus.max(1) as f64)
        }));
        let out = Obj::new()
            .field("bench", "t2_recovery_scaling")
            .field_raw("sweep", &rows)
            .render();
        println!("{out}");
        return;
    }

    println!("T2: restart cost vs file-system size (fixed in-flight work at crash)");
    println!("    Episode replays the active log; FFS runs a full fsck.\n");
    header(&[
        "disk MiB",
        "episode blocks",
        "episode ms",
        "fsck blocks",
        "fsck ms",
        "fsck/episode",
    ]);
    for &(blocks, (eb, eus), (fb, fus)) in &sweep {
        row(&[
            &(blocks / 256),
            &eb,
            &f2(eus as f64 / 1000.0),
            &fb,
            &f2(fus as f64 / 1000.0),
            &dfs_bench::ratio(fus as f64, eus as f64),
        ]);
    }
    println!("\nExpected shape (paper): the episode column stays roughly flat while");
    println!("fsck cost grows linearly with the file system, so the ratio widens.");
}
