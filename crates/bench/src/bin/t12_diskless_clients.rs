//! T12 (extension) — §4.2: the diskless-client option.
//!
//! "An in-memory version of the data cache is provided as an option,
//! enabling diskless clients to be used." Both cache variants must show
//! identical network behaviour (tokens do the consistency work either
//! way); the disk-backed client additionally pays local disk traffic,
//! which this harness surfaces.

use dfs_bench::emit::{arr, Obj};
use dfs_bench::{header, row};
use dfs_client::DiskCache;
use dfs_disk::{DiskConfig, SimDisk};
use dfs_types::VolumeId;
use decorum_dfs::Cell;
use std::sync::Arc;

const FILES: u32 = 20;
const FILE_BYTES: usize = 32 * 1024;
const READ_PASSES: u32 = 3;

fn workload(cell: &Cell, cm: &Arc<dfs_client::CacheManager>) -> (u64, u64) {
    let root = cm.root(VolumeId(1)).unwrap();
    let before = cell.net().stats();
    let mut fids = Vec::new();
    for i in 0..FILES {
        let f = cm.create(root, &format!("f{i}"), 0o644).unwrap();
        cm.write(f.fid, 0, &vec![i as u8; FILE_BYTES]).unwrap();
        cm.fsync(f.fid).unwrap();
        fids.push(f.fid);
    }
    for _ in 0..READ_PASSES {
        for &f in &fids {
            let mut off = 0u64;
            while off < FILE_BYTES as u64 {
                cm.read(f, off, 4096).unwrap();
                off += 4096;
            }
        }
    }
    let d = cell.net().stats().since(&before);
    (d.calls, d.bytes)
}

fn main() {
    let json = dfs_bench::Args::parse(&[]).json;

    // Diskless (in-memory cache).
    let diskless = {
        let cell = Cell::builder().servers(1).disk_blocks(64 * 1024).build().unwrap();
        cell.create_volume(0, VolumeId(1), "v").unwrap();
        let cm = cell.new_client();
        let (rpcs, bytes) = workload(&cell, &cm);
        ("diskless (mem)", rpcs, bytes, 0u64)
    };

    // Disk-backed cache.
    let disk_cached = {
        let cell = Cell::builder().servers(1).disk_blocks(64 * 1024).build().unwrap();
        cell.create_volume(0, VolumeId(1), "v").unwrap();
        let local_disk = SimDisk::new(DiskConfig::with_blocks(8 * 1024));
        let cm = cell.new_client_with(Arc::new(DiskCache::new(local_disk.clone())));
        let (rpcs, bytes) = workload(&cell, &cm);
        let s = local_disk.stats();
        ("disk-cached", rpcs, bytes, s.reads + s.writes)
    };
    let variants = [diskless, disk_cached];

    if json {
        let rows = arr(variants.iter().map(|&(name, rpcs, bytes, ios)| {
            Obj::new()
                .field("client", name)
                .field("rpcs", rpcs)
                .field("net_bytes", bytes)
                .field("local_disk_ios", ios)
        }));
        let out = Obj::new()
            .field("bench", "t12_diskless_clients")
            .field("files", FILES)
            .field("file_bytes", FILE_BYTES)
            .field("read_passes", READ_PASSES)
            .field("identical_network", diskless.1 == disk_cached.1)
            .field_raw("variants", &rows)
            .render();
        println!("{out}");
        return;
    }

    println!("T12 (extension): diskless vs disk-cached clients (§4.2)");
    println!(
        "    {FILES} files x {} KiB written + fsynced, then read x{READ_PASSES}\n",
        FILE_BYTES / 1024
    );
    header(&["client", "RPCs", "net bytes", "local disk IOs"]);
    for &(name, rpcs, bytes, ios) in &variants {
        row(&[&name, &rpcs, &bytes, &ios]);
    }

    println!("\nExpected shape: identical network behaviour for both variants");
    println!("(tokens, not the cache medium, carry the consistency); the disk");
    println!("client trades local disk traffic for surviving reboots with a");
    println!("warm cache — the §4.2 design point.");
}
