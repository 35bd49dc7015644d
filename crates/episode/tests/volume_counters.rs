//! A volume's version and uniquifier counters live in memory; only a
//! high-water mark, logged in a transaction of its own whenever a draw
//! passes it, reaches the log (DESIGN.md §7 "Volume counters off the
//! transaction"). These tests pin what that must keep: counters that
//! resume above everything on disk after a crash, incremental dumps that
//! miss no change, and the number of mark transactions.

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_types::{Fid, SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs, VfsPlus};
use std::collections::HashSet;
use std::sync::{Arc, Barrier};

fn cred() -> Credentials {
    Credentials::system()
}

fn fresh() -> (SimDisk, Arc<Episode>, Arc<dyn VfsPlus>) {
    let disk = SimDisk::new(DiskConfig::with_blocks(16384));
    let ep = Episode::format(disk.clone(), SimClock::new(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    (disk, ep, vol)
}

/// Crashes the disk (its cache is lost) and reopens the aggregate.
fn crash_and_reopen(disk: SimDisk) -> (Arc<Episode>, Arc<dyn VfsPlus>) {
    disk.crash(None);
    disk.power_on();
    let (ep, _) = Episode::open(disk, SimClock::new()).unwrap();
    let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    (ep, vol)
}

/// Makes `n` directories under the root, and `per` files in each.
fn populate(vol: &dyn VfsPlus, n: usize, per: usize) {
    let root = vol.root().unwrap();
    for d in 0..n {
        let dir = vol.mkdir(&cred(), root, &format!("d{d}"), 0o755).unwrap().fid;
        for i in 0..per {
            vol.create(&cred(), dir, &format!("f{d}.{i}"), 0o644).unwrap();
        }
    }
}

/// The largest uniquifier and data version of any live file.
fn max_on_disk(ep: &Episode) -> (u32, u64) {
    let dump = ep.dump_volume(VolumeId(1), 0).unwrap();
    let uniq = dump.live.iter().map(|f| f.uniq).max().unwrap();
    let version = dump.files.iter().map(|f| f.status.data_version).max().unwrap();
    (uniq, version)
}

#[test]
fn after_a_crash_the_counters_resume_above_everything_on_disk() {
    let (disk, ep, vol) = fresh();
    // 1 100 creates and 11 mkdirs draw past the marks the first draw
    // logged, 1 024 values ahead of it.
    populate(&*vol, 11, 100);
    ep.sync_log().unwrap();
    let (ep, vol) = crash_and_reopen(disk);
    let (uniq, version) = max_on_disk(&ep);
    assert!(uniq > 1024 && version > 1024, "the draws passed a mark: {uniq}, {version}");
    let root = vol.root().unwrap();
    let f = vol.create(&cred(), root, "after", 0o644).unwrap();
    assert!(f.fid.uniq > uniq, "uniquifier {} reused (on disk: {uniq})", f.fid.uniq);
    let dir_version = vol.getattr(&cred(), root).unwrap().data_version;
    assert!(dir_version > version, "version {dir_version} reused (on disk: {version})");
    assert!(ep.salvage().unwrap().is_clean());
}

/// A dump reports the live version, not the mark: the mark is ahead of
/// every version handed out, so a change after a dump that reported it
/// could carry a version below it and be skipped by the next
/// incremental dump.
#[test]
fn an_incremental_dump_after_a_crash_finds_a_file_changed_after_the_full_dump() {
    let (disk, ep, vol) = fresh();
    let root = vol.root().unwrap();
    let a = vol.create(&cred(), root, "a", 0o644).unwrap().fid;
    let b = vol.create(&cred(), root, "b", 0o644).unwrap().fid;
    vol.write(&cred(), a, 0, b"first").unwrap();
    let full = ep.dump_volume(VolumeId(1), 0).unwrap();
    vol.write(&cred(), b, 0, b"changed after the full dump").unwrap();
    ep.sync_log().unwrap();
    let (ep, _) = crash_and_reopen(disk);
    let incr = ep.dump_volume(VolumeId(1), full.max_data_version).unwrap();
    let shipped: Vec<Fid> = incr.files.iter().map(|f| f.status.fid).collect();
    assert!(shipped.contains(&b), "b changed after the full dump: {shipped:?}");
    assert!(!shipped.contains(&a), "a did not: {shipped:?}");
}

/// Mark extensions are rare and exact. Each draw past a mark logs both
/// marks 1 024 past the live values, in one transaction of its own.
/// The first mkdir's uniquifier (2, mark 1) logs marks (1 024, 1 026).
/// After 30 mkdirs the counters stand at version 30, uniquifier 31,
/// and create `k` draws uniquifier 31 + k, then version 30 + k. So
/// version 1 025 passes its mark at create 995 (marks 2 049, 2 050),
/// uniquifier 2 051 at create 2 020 (marks 3 073, 3 075), and the
/// next would be version 3 074 at create 3 044: two in 3 000 creates.
#[test]
fn three_thousand_creates_log_exactly_two_marks() {
    let (_disk, ep, vol) = fresh();
    let root = vol.root().unwrap();
    let before = ep.journal().stats();
    let dirs: Vec<Fid> =
        (0..30).map(|d| vol.mkdir(&cred(), root, &format!("d{d}"), 0o755).unwrap().fid).collect();
    let mkdirs = ep.journal().stats().since(&before).txns_begun;
    assert_eq!(mkdirs, 30 + 1, "30 mkdirs, and the volume's first mark");
    let before = ep.journal().stats();
    for k in 0..3000 {
        vol.create(&cred(), dirs[k % 30], &format!("f{k}"), 0o644).unwrap();
    }
    let d = ep.journal().stats().since(&before);
    assert_eq!(d.txns_begun, 3000 + 2, "one per create, and two mark extensions");
    assert_eq!(d.commit_records, d.txns_begun, "every mark commits in a class of one");
}

/// Two writers, released together, draw concurrently past a mark:
/// every uniquifier is handed out once.
#[test]
fn two_writers_never_share_a_uniquifier() {
    let (_disk, ep, vol) = fresh();
    let root = vol.root().unwrap();
    let start = Barrier::new(2);
    let fids: Vec<Fid> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (vol, start) = (&vol, &start);
                s.spawn(move || {
                    let dir = vol.mkdir(&cred(), root, &format!("w{w}"), 0o755).unwrap().fid;
                    start.wait();
                    (0..700)
                        .map(|i| vol.create(&cred(), dir, &format!("f{i}"), 0o644).unwrap().fid)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });
    let uniqs: HashSet<u32> = fids.iter().map(|f| f.uniq).collect();
    assert_eq!(uniqs.len(), fids.len(), "a uniquifier was handed out twice");
    assert!(uniqs.iter().any(|&u| u > 1026), "the draws passed the first mark");
    assert!(ep.salvage().unwrap().is_clean());
}
