//! T1 — §2.2 claim: a log-based file system issues *fewer* disk writes
//! than the FFS for metadata-heavy operations (create/delete/truncate),
//! despite writing data twice (log + home location), because log appends
//! are sequential and batched while FFS metadata writes are synchronous
//! and scattered.

use dfs_bench::{header, ratio, row, Args};
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

fn main() {
    let args = Args::parse(&["--files"]);
    let json = args.json;
    let sweep = args.opt("--files").map_or(vec![100u32, 1000, 4000], |n| vec![n]);
    if json {
        let rows: Vec<String> = sweep
            .iter()
            .map(|&files| {
                let e = episode_run(files);
                let f = ffs_run(files);
                format!(
                    "{{\"files\": {files}, \
                     \"episode\": {{\"durable_writes\": {}, \"syncs\": {}, \"disk_ms\": {:.2}}}, \
                     \"ffs\": {{\"durable_writes\": {}, \"syncs\": {}, \"disk_ms\": {:.2}}}}}",
                    e.stable_writes,
                    e.syncs,
                    e.busy_ms(),
                    f.stable_writes,
                    f.syncs,
                    f.busy_ms()
                )
            })
            .collect();
        println!("{{\"bench\": \"t1_metadata_traffic\", \"runs\": [{}]}}", rows.join(", "));
        return;
    }
    println!("T1: disk traffic for metadata-heavy operations (create+write+truncate+delete)");
    println!("    Episode batches metadata into sequential log appends; FFS writes");
    println!("    metadata synchronously in place (N = files cycled).\n");
    header(&["N", "fs", "durable writes", "sync ops", "seq ops", "random ops", "disk ms"]);
    for &files in &sweep {
        let e = episode_run(files);
        let f = ffs_run(files);
        row(&[&files, &"episode", &e.stable_writes, &e.syncs, &e.sequential_ops, &e.random_ops, &dfs_bench::f2(e.busy_ms())]);
        row(&[&files, &"ffs", &f.stable_writes, &f.syncs, &f.sequential_ops, &f.random_ops, &dfs_bench::f2(f.busy_ms())]);
        println!(
            "{:>16} advantage: {} fewer durable writes, {} less disk time\n",
            "",
            ratio(f.stable_writes as f64, e.stable_writes as f64),
            ratio(f.busy_us as f64, e.busy_us as f64),
        );
    }
    println!("Expected shape (paper): Episode < FFS on writes and time, and the gap");
    println!("is dominated by FFS's synchronous random metadata writes.");
}
