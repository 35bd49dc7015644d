//! A file lives next to its directory (DESIGN.md §7): a directory's
//! files take their anodes from its anode-table block and their vnodes
//! from its vnode-map block, so writers in two directories share no
//! Episode block, a create reads the same blocks however many files the
//! volume holds elsewhere, and the vnode map stays bounded under
//! directory churn. Crash recovery and the salvager see nothing new.
//!
//! ```sh
//! cargo test -p dfs-episode --test placement -- --nocapture
//! ```

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::volume::VNODE_GROUPS;
use dfs_episode::{Episode, FormatParams};
use dfs_types::{Fid, SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs, VfsPlus};
use std::sync::Arc;

fn cred() -> Credentials {
    Credentials::system()
}

/// A fresh aggregate of `blocks` blocks and `anodes` anode slots, with
/// volume 1 mounted.
fn mounted(blocks: u32, anodes: u32) -> (SimDisk, Arc<Episode>, Arc<dyn VfsPlus>) {
    let disk = SimDisk::new(DiskConfig::with_blocks(blocks));
    let params = FormatParams { anodes, ..FormatParams::default() };
    let ep = Episode::format(disk.clone(), SimClock::new(), params).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    (disk, ep, vol)
}

/// `meta_churn`'s op cycle on one name of directory `dir`.
fn cycle(vol: &dyn VfsPlus, dir: Fid, name: &str) {
    let fid = vol.create(&cred(), dir, name, 0o644).unwrap().fid;
    assert_eq!(vol.lookup(&cred(), dir, name).unwrap().fid, fid);
    vol.getattr(&cred(), fid).unwrap();
    vol.remove(&cred(), dir, name).unwrap();
}

/// Two threads, each cycling create, lookup, getattr and remove in a
/// directory of its own, never put two transactions in one class: no
/// block is written by both.
#[test]
fn writers_in_two_directories_never_merge_classes() {
    let (_, ep, vol) = mounted(16384, 4096);
    let root = vol.root().unwrap();
    let dirs: Vec<Fid> =
        ["a", "b"].iter().map(|d| vol.mkdir(&cred(), root, d, 0o755).unwrap().fid).collect();
    // Each directory's first entry allocates its block: not measured.
    for &dir in &dirs {
        cycle(&*vol, dir, "warm");
    }
    let before = ep.journal().stats();
    std::thread::scope(|s| {
        for &dir in &dirs {
            let vol = &vol;
            s.spawn(move || {
                for i in 0..2000 {
                    cycle(&**vol, dir, &format!("f{}", i % 64));
                }
            });
        }
    });
    let d = ep.journal().stats().since(&before);
    assert!(d.txns_begun >= 8000, "{} transactions", d.txns_begun);
    assert_eq!(d.class_merges, 0, "over {} transactions", d.txns_begun);
    let report = ep.salvage().unwrap();
    assert!(report.is_clean(), "{:?}", report.problems);
}

/// The fewest buffer-cache gets (hits and misses) one create in a fresh
/// directory costs, in a volume holding `others` files in eight other
/// directories. The fewest of eight: a create that extends the volume's
/// counter marks runs a transaction more.
fn gets_per_create(others: usize) -> u64 {
    let (_, ep, vol) = mounted(32768, 8192);
    let root = vol.root().unwrap();
    let dirs: Vec<Fid> =
        (0..8).map(|d| vol.mkdir(&cred(), root, &format!("o{d}"), 0o755).unwrap().fid).collect();
    for i in 0..others {
        vol.create(&cred(), dirs[i % dirs.len()], &format!("f{i}"), 0o644).unwrap();
    }
    let mine = vol.mkdir(&cred(), root, "mine", 0o755).unwrap().fid;
    cycle(&*vol, mine, "warm");
    (0..8)
        .map(|i| {
            let before = ep.journal().stats();
            vol.create(&cred(), mine, &format!("n{i}"), 0o644).unwrap();
            let d = ep.journal().stats().since(&before);
            vol.remove(&cred(), mine, &format!("n{i}")).unwrap();
            d.cache_hits + d.cache_misses
        })
        .min()
        .unwrap()
}

/// A create reads its directory's blocks, not the volume's: it costs the
/// same buffer-cache gets beside 4 000 files as beside 10.
#[test]
fn a_create_costs_the_same_gets_beside_10_files_as_beside_4000() {
    let (few, many) = (gets_per_create(10), gets_per_create(4000));
    println!("gets per create: {few} beside 10 files, {many} beside 4000");
    assert_eq!(few, many);
}

/// 20 000 rounds of mkdir, a create inside, a remove and rmdir on a small
/// aggregate: freed slots and vnodes are reused, and the vnode map stays
/// within its bound — no more than `VNODE_GROUPS` blocks while the live
/// vnodes fit in one.
#[test]
fn directory_churn_keeps_the_vnode_map_bounded() {
    let (_, ep, vol) = mounted(2048, 256);
    let root = vol.root().unwrap();
    let keep = vol.mkdir(&cred(), root, "keep", 0o755).unwrap().fid;
    vol.create(&cred(), keep, "f", 0o644).unwrap();
    for round in 0..20_000 {
        let name = format!("d{}", round % 3);
        let d = vol.mkdir(&cred(), root, &name, 0o755).unwrap().fid;
        vol.create(&cred(), d, "f", 0o644).unwrap();
        vol.remove(&cred(), d, "f").unwrap();
        vol.rmdir(&cred(), root, &name).unwrap();
    }
    let blocks = ep.vnode_map_blocks(VolumeId(1)).unwrap();
    assert!(blocks <= VNODE_GROUPS, "the vnode map has {blocks} blocks");
    let report = ep.salvage().unwrap();
    assert!(report.is_clean(), "{:?}", report.problems);
    assert_eq!(vol.readdir(&cred(), root).unwrap().len(), 1);
}

/// Files in two directories, a crash before or after the log is synced,
/// and recovery: the salvager finds the aggregate clean, and every file
/// created before the sync is there.
#[test]
fn a_crash_around_the_log_sync_loses_no_synced_file() {
    for synced in [false, true] {
        let (disk, ep, vol) = mounted(16384, 4096);
        let root = vol.root().unwrap();
        let dirs: Vec<Fid> =
            ["a", "b"].iter().map(|d| vol.mkdir(&cred(), root, d, 0o755).unwrap().fid).collect();
        for i in 0..40 {
            vol.create(&cred(), dirs[i % 2], &format!("f{i}"), 0o644).unwrap();
        }
        if synced {
            ep.sync_log().unwrap();
        }
        // Unsynced work after the sync point, in both directories.
        for i in 0..40 {
            vol.create(&cred(), dirs[i % 2], &format!("g{i}"), 0o644).unwrap();
            if i % 4 == 3 {
                vol.remove(&cred(), dirs[i % 2], &format!("g{}", i - 2)).unwrap();
            }
        }
        drop((ep, vol));
        disk.crash(None);
        disk.power_on();
        let (ep, _) = Episode::open(disk, SimClock::new()).unwrap();
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "synced {synced}: {:?}", report.problems);
        let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let root = vol.root().unwrap();
        if synced {
            for (d, dir) in ["a", "b"].iter().enumerate() {
                let dir = vol.lookup(&cred(), root, dir).unwrap().fid;
                for i in (d..40).step_by(2) {
                    let name = format!("f{i}");
                    assert!(vol.lookup(&cred(), dir, &name).is_ok(), "{name} lost");
                }
            }
        }
        // Recovered, the volume takes new files in both directories.
        for name in ["a", "b"] {
            if let Ok(dir) = vol.lookup(&cred(), root, name) {
                cycle(&*vol, dir.fid, "after");
            }
        }
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "synced {synced}, after: {:?}", report.problems);
    }
}
