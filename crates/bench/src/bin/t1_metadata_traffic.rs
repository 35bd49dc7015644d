//! T1 — §2.2 claim: a log-based file system issues *fewer* disk writes
//! than the FFS for metadata-heavy operations (create/delete/truncate),
//! despite writing data twice (log + home location), because log appends
//! are sequential and batched while FFS metadata writes are synchronous
//! and scattered.

use dfs_bench::emit::Obj;
use dfs_bench::Args;
use dfs_disk::{DiskConfig, DiskStats, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_ffs::Ffs;
use dfs_types::{SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs, SetAttrs, Vfs};

const DISK_BLOCKS: u32 = 128 * 1024;

fn episode_run(files: u32) -> DiskStats {
    let disk = SimDisk::new(DiskConfig::with_blocks(DISK_BLOCKS));
    let ep = Episode::format(disk.clone(), SimClock::new(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = v.root().unwrap();
    let before = disk.stats();
    // Create, grow, truncate, delete — pure metadata churn.
    for i in 0..files {
        let f = v.create(&cred, root, &format!("f{i}"), 0o644).unwrap();
        v.write(&cred, f.fid, 0, &[1u8; 2048]).unwrap();
        v.setattr(&cred, f.fid, &SetAttrs::truncate(0)).unwrap();
        v.remove(&cred, root, &format!("f{i}")).unwrap();
        if i % 64 == 63 {
            // The periodic 30-second batch commit of §2.2.
            ep.sync_log().unwrap();
        }
    }
    ep.sync_log().unwrap();
    disk.stats().since(&before)
}

fn ffs_run(files: u32) -> DiskStats {
    let disk = SimDisk::new(DiskConfig::with_blocks(DISK_BLOCKS));
    let fs = Ffs::format(disk.clone(), SimClock::new(), VolumeId(1)).unwrap();
    let cred = Credentials::system();
    let root = fs.root().unwrap();
    let before = disk.stats();
    for i in 0..files {
        let f = fs.create(&cred, root, &format!("f{i}"), 0o644).unwrap();
        fs.write(&cred, f.fid, 0, &[1u8; 2048]).unwrap();
        fs.setattr(&cred, f.fid, &SetAttrs::truncate(0)).unwrap();
        fs.remove(&cred, root, &format!("f{i}")).unwrap();
    }
    disk.stats().since(&before)
}

fn disk(s: &DiskStats) -> Obj {
    Obj::new()
        .field("durable_writes", s.stable_writes)
        .field("syncs", s.syncs)
        .field("disk_ms", s.busy_ms())
        .field("sequential_ops", s.sequential_ops)
        .field("random_ops", s.random_ops)
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

fn main() {
    let args = Args::parse(&["--files"]);
    let sweep = args.opt("--files").map_or(vec![100u32, 1000, 4000], |n| vec![n]);
    let runs = sweep.into_iter().map(|files| {
        let (e, f) = (episode_run(files), ffs_run(files));
        Obj::new()
            .field("files", files)
            .field("episode", disk(&e))
            .field("ffs", disk(&f))
            .field("ffs_over_episode_writes", ratio(f.stable_writes, e.stable_writes))
            .field("ffs_over_episode_disk", ratio(f.busy_us, e.busy_us))
    });
    args.print(
        "T1: disk traffic for metadata-heavy operations (create+write+truncate+delete)\n    \
         Episode batches metadata into sequential log appends; FFS writes\n    \
         metadata synchronously in place (files = files cycled).",
        "Expected shape (paper): Episode < FFS on writes and time, and the gap\n\
         is dominated by FFS's synchronous random metadata writes.",
        Obj::new().field("bench", "t1_metadata_traffic").field_arr("runs", runs),
    );
}
