//! Integration tests: crash recovery with the salvager as consistency
//! oracle, and volume dump/restore (the substrate of volume motion and
//! lazy replication).

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::layout::FIRST_FREE_ANODE;
use dfs_episode::{Anode, AnodeKind, Episode, FormatParams};
use dfs_types::{DfsError, SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs, SetAttrs};
use std::sync::Arc;

fn cred() -> Credentials {
    Credentials::system()
}

fn fresh(blocks: u32) -> (SimDisk, Arc<Episode>) {
    let disk = SimDisk::new(DiskConfig::with_blocks(blocks));
    let ep = Episode::format(disk.clone(), SimClock::new(), FormatParams::default()).unwrap();
    (disk, ep)
}

#[test]
fn committed_files_survive_crash_without_writeback() {
    let (disk, ep) = fresh(16384);
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let root = v.root().unwrap();
    let f = v.create(&cred(), root, "precious", 0o644).unwrap();
    // Metadata commits are durable after a log sync; data needs fsync.
    v.fsync(&cred(), f.fid).unwrap();

    disk.crash(None);
    disk.power_on();
    let (ep2, report) = Episode::open(disk, SimClock::new()).unwrap();
    assert!(!report.formatted);
    let v2 = PhysicalFs::mount(&*ep2, VolumeId(1)).unwrap();
    let root2 = v2.root().unwrap();
    let found = v2.lookup(&cred(), root2, "precious").unwrap();
    assert_eq!(found.fid, f.fid, "fid must be stable across recovery");
    let salvage = ep2.salvage().unwrap();
    assert!(salvage.is_clean(), "{:?}", salvage.problems);
}

#[test]
fn uncommitted_work_is_rolled_back_consistently() {
    let (disk, ep) = fresh(16384);
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let root = v.root().unwrap();
    for i in 0..20 {
        v.create(&cred(), root, &format!("file{i}"), 0o644).unwrap();
    }
    // Force the log out so some transactions are durable, then keep
    // going without syncing so the tail of the work is lost.
    ep.sync_log().unwrap();
    for i in 20..40 {
        v.create(&cred(), root, &format!("file{i}"), 0o644).unwrap();
    }
    disk.crash(None);
    disk.power_on();
    let (ep2, _) = Episode::open(disk, SimClock::new()).unwrap();
    let v2 = PhysicalFs::mount(&*ep2, VolumeId(1)).unwrap();
    let root2 = v2.root().unwrap();
    let listed = v2.readdir(&cred(), root2).unwrap();
    assert_eq!(listed.len(), 20, "synced creations survive, unsynced are gone");
    // The critical property: whatever survived, the aggregate is
    // consistent — no orphans, no bad refcounts, no dangling entries.
    let salvage = ep2.salvage().unwrap();
    assert!(salvage.is_clean(), "{:?}", salvage.problems);
}

#[test]
fn repeated_crash_recover_cycles_stay_consistent() {
    let disk = SimDisk::new(DiskConfig::with_blocks(16384));
    let clock = SimClock::new();
    let ep = Episode::format(disk.clone(), clock.clone(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    drop(ep);
    for round in 0..5u32 {
        let (ep, _) = Episode::open(disk.clone(), clock.clone()).unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let root = v.root().unwrap();
        let name = format!("round{round}");
        let f = v.create(&cred(), root, &name, 0o644).unwrap();
        v.write(&cred(), f.fid, 0, format!("data {round}").as_bytes()).unwrap();
        if round % 2 == 0 {
            ep.sync_log().unwrap();
        }
        // Mutate without syncing, then crash.
        let _ = v.create(&cred(), root, &format!("doomed{round}"), 0o644);
        disk.crash(None);
        disk.power_on();
        let (ep2, _) = Episode::open(disk.clone(), clock.clone()).unwrap();
        let salvage = ep2.salvage().unwrap();
        assert!(salvage.is_clean(), "round {round}: {:?}", salvage.problems);
        drop(ep2);
    }
}

#[test]
fn truncate_interrupted_by_crash_leaves_consistent_state() {
    let (disk, ep) = fresh(32768);
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let root = v.root().unwrap();
    let f = v.create(&cred(), root, "big", 0o644).unwrap();
    v.write(&cred(), f.fid, 0, &vec![7u8; 300 * 4096]).unwrap();
    ep.sync_all().unwrap();
    // Truncation is split into many short transactions; crash mid-way.
    v.setattr(&cred(), f.fid, &SetAttrs::truncate(0)).unwrap();
    // Only some of the truncate transactions were synced by group commit
    // (none explicitly here) — crash now.
    disk.crash(None);
    disk.power_on();
    let (ep2, _) = Episode::open(disk, SimClock::new()).unwrap();
    let v2 = PhysicalFs::mount(&*ep2, VolumeId(1)).unwrap();
    let st = v2.getattr(&cred(), f.fid).unwrap();
    // The length is whatever prefix of the chunked truncate committed,
    // but consistency must hold regardless.
    assert!(st.length <= 300 * 4096);
    let salvage = ep2.salvage().unwrap();
    assert!(salvage.is_clean(), "{:?}", salvage.problems);
}

/// A remove is one transaction: its name, its vnode and its anode slot
/// go together. Synced before the crash, all three are gone after it;
/// not synced, the file is whole.
#[test]
fn a_remove_crashes_whole_or_not_at_all() {
    for synced in [true, false] {
        let (disk, ep) = fresh(16384);
        ep.create_volume(VolumeId(1), "v").unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "doomed", 0o644).unwrap().fid;
        let data = vec![5u8; 10 * 4096];
        v.write(&cred(), f, 0, &data).unwrap();
        v.fsync(&cred(), f).unwrap();
        let is_f = |a: &Anode| a.kind == AnodeKind::File && a.uniq == f.uniq;
        let slot = (FIRST_FREE_ANODE..ep.superblock().anode_count())
            .find(|&i| is_f(&ep.read_anode(i).unwrap()))
            .unwrap();
        let files = ep.volume_info(VolumeId(1)).unwrap().files;
        v.remove(&cred(), root, "doomed").unwrap();
        if synced {
            ep.sync_log().unwrap();
        }
        disk.crash(None);
        disk.power_on();
        let (ep2, _) = Episode::open(disk, SimClock::new()).unwrap();
        let v2 = PhysicalFs::mount(&*ep2, VolumeId(1)).unwrap();
        let root2 = v2.root().unwrap();
        let files2 = ep2.volume_info(VolumeId(1)).unwrap().files;
        if synced {
            assert_eq!(v2.lookup(&cred(), root2, "doomed").unwrap_err(), DfsError::NotFound);
            assert_eq!(v2.getattr(&cred(), f).unwrap_err(), DfsError::StaleFid);
            assert_eq!(files2, files - 1, "the vnode is gone");
            assert_eq!(ep2.read_anode(slot).unwrap().kind, AnodeKind::Free);
        } else {
            assert_eq!(v2.lookup(&cred(), root2, "doomed").unwrap().fid, f);
            assert_eq!(v2.read(&cred(), f, 0, data.len()).unwrap(), data);
            assert_eq!(files2, files);
            assert!(is_f(&ep2.read_anode(slot).unwrap()));
        }
        let salvage = ep2.salvage().unwrap();
        assert!(salvage.is_clean(), "synced {synced}: {:?}", salvage.problems);
    }
}

#[test]
fn full_dump_restore_preserves_tree_and_fids() {
    let (_, src) = fresh(16384);
    src.create_volume(VolumeId(7), "proj").unwrap();
    let v = PhysicalFs::mount(&*src, VolumeId(7)).unwrap();
    let root = v.root().unwrap();
    let dir = v.mkdir(&cred(), root, "src", 0o755).unwrap();
    let f1 = v.create(&cred(), dir.fid, "main.c", 0o644).unwrap();
    v.write(&cred(), f1.fid, 0, b"int main(){}").unwrap();
    let f2 = v.create(&cred(), root, "README", 0o644).unwrap();
    v.write(&cred(), f2.fid, 0, &vec![0xAB; 9000]).unwrap();
    v.symlink(&cred(), root, "link", "src/main.c").unwrap();
    let mut acl = dfs_types::Acl::unix_default(42);
    acl.push(dfs_types::AclEntry::allow(
        dfs_types::Principal::Group(9),
        dfs_types::Rights::READ,
    ));
    v.set_acl(&cred(), f1.fid, &acl).unwrap();

    let dump = src.dump_volume(VolumeId(7), 0).unwrap();
    assert_eq!(dump.files.len(), 5, "root, dir, two files, symlink");

    // Restore on a different aggregate — this is a volume move.
    let (_, dst) = fresh(16384);
    dst.restore_volume(&dump, false).unwrap();
    let v2 = PhysicalFs::mount(&*dst, VolumeId(7)).unwrap();
    let root2 = v2.root().unwrap();
    assert_eq!(root2, root, "root fid preserved");
    let dir2 = v2.lookup(&cred(), root2, "src").unwrap();
    assert_eq!(dir2.fid, dir.fid, "directory fid preserved across the move");
    let got = v2.lookup(&cred(), dir2.fid, "main.c").unwrap();
    assert_eq!(got.fid, f1.fid, "file fid preserved across the move");
    assert_eq!(v2.read(&cred(), got.fid, 0, 64).unwrap(), b"int main(){}");
    assert_eq!(v2.read(&cred(), f2.fid, 0, 9000).unwrap(), vec![0xAB; 9000]);
    assert_eq!(v2.readlink(&cred(), v2.lookup(&cred(), root2, "link").unwrap().fid).unwrap(),
        "src/main.c");
    assert_eq!(v2.get_acl(&cred(), f1.fid).unwrap(), acl);
    let salvage = dst.salvage().unwrap();
    assert!(salvage.is_clean(), "{:?}", salvage.problems);
}

#[test]
fn incremental_dump_carries_only_changes() {
    let (_, src) = fresh(16384);
    src.create_volume(VolumeId(7), "proj").unwrap();
    let v = PhysicalFs::mount(&*src, VolumeId(7)).unwrap();
    let root = v.root().unwrap();
    let stable = v.create(&cred(), root, "stable", 0o644).unwrap();
    v.write(&cred(), stable.fid, 0, &vec![1u8; 50_000]).unwrap();

    // Replicate fully, then change one small file at the source.
    let full = src.dump_volume(VolumeId(7), 0).unwrap();
    let (_, dst) = fresh(16384);
    dst.restore_volume(&full, true).unwrap();
    let base = full.max_data_version;

    let hot = v.create(&cred(), root, "hot", 0o644).unwrap();
    v.write(&cred(), hot.fid, 0, b"changed!").unwrap();

    let incr = src.dump_volume(VolumeId(7), base).unwrap();
    // The big stable file is not re-shipped (§3.8: "obtain from the
    // master copy only those files that have changed").
    assert!(
        !incr.files.iter().any(|f| f.status.fid == stable.fid),
        "unchanged file must not be in the incremental dump"
    );
    assert!(incr.payload_bytes() < 10_000, "incremental dump is small");

    dst.restore_volume(&incr, true).unwrap();
    let v2 = PhysicalFs::mount(&*dst, VolumeId(7)).unwrap();
    let root2 = v2.root().unwrap();
    let got = v2.lookup(&cred(), root2, "hot").unwrap();
    assert_eq!(v2.read(&cred(), got.fid, 0, 16).unwrap(), b"changed!");
    assert_eq!(v2.read(&cred(), stable.fid, 0, 50_000).unwrap(), vec![1u8; 50_000]);
}

#[test]
fn incremental_dump_propagates_deletions() {
    let (_, src) = fresh(16384);
    src.create_volume(VolumeId(7), "proj").unwrap();
    let v = PhysicalFs::mount(&*src, VolumeId(7)).unwrap();
    let root = v.root().unwrap();
    v.create(&cred(), root, "doomed", 0o644).unwrap();
    let full = src.dump_volume(VolumeId(7), 0).unwrap();
    let (_, dst) = fresh(16384);
    dst.restore_volume(&full, true).unwrap();

    v.remove(&cred(), root, "doomed").unwrap();
    let incr = src.dump_volume(VolumeId(7), full.max_data_version).unwrap();
    dst.restore_volume(&incr, true).unwrap();

    let v2 = PhysicalFs::mount(&*dst, VolumeId(7)).unwrap();
    let root2 = v2.root().unwrap();
    assert_eq!(v2.lookup(&cred(), root2, "doomed").unwrap_err(), DfsError::NotFound);
    let salvage = dst.salvage().unwrap();
    assert!(salvage.is_clean(), "{:?}", salvage.problems);
}

#[test]
fn clone_cost_is_metadata_not_data() {
    // The heart of experiment T5: cloning shares data blocks.
    let (disk, ep) = fresh(32768);
    ep.create_volume(VolumeId(1), "big").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let root = v.root().unwrap();
    for i in 0..10 {
        let f = v.create(&cred(), root, &format!("data{i}"), 0o644).unwrap();
        v.write(&cred(), f.fid, 0, &vec![i as u8; 100 * 4096]).unwrap();
    }
    ep.sync_all().unwrap();
    let before = disk.stats();
    let used_before = disk.stable_block_count();
    Episode::clone_volume(&ep, VolumeId(1), VolumeId(2), "big.backup").unwrap();
    ep.sync_all().unwrap();
    let written = disk.stats().since(&before).stable_writes;
    let grown = disk.stable_block_count() - used_before;
    // 1000 data blocks in the volume; the clone must write far fewer
    // blocks than that (only anodes, maps, refcounts, and the log).
    assert!(grown < 300, "clone allocated {grown} blocks; COW should share data");
    assert!(written < 2000, "clone wrote {written} blocks");
    let salvage = ep.salvage().unwrap();
    assert!(salvage.is_clean(), "{:?}", salvage.problems);
}

#[test]
fn deleting_clone_returns_shared_blocks() {
    let (_, ep) = fresh(32768);
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let root = v.root().unwrap();
    let f = v.create(&cred(), root, "f", 0o644).unwrap();
    v.write(&cred(), f.fid, 0, &vec![5u8; 50 * 4096]).unwrap();
    Episode::clone_volume(&ep, VolumeId(1), VolumeId(2), "snap").unwrap();
    // Delete the clone; the original must keep all its data.
    Episode::delete_volume(&ep, VolumeId(2)).unwrap();
    assert_eq!(v.read(&cred(), f.fid, 0, 8).unwrap(), vec![5u8; 8]);
    let salvage = ep.salvage().unwrap();
    assert!(salvage.is_clean(), "{:?}", salvage.problems);
    // And deleting the original afterwards frees everything.
    Episode::delete_volume(&ep, VolumeId(1)).unwrap();
    let salvage = ep.salvage().unwrap();
    assert!(salvage.is_clean(), "{:?}", salvage.problems);
}

#[test]
fn media_failure_is_surfaced() {
    let (disk, ep) = fresh(16384);
    ep.create_volume(VolumeId(1), "v").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    let root = v.root().unwrap();
    let f = v.create(&cred(), root, "f", 0o644).unwrap();
    v.write(&cred(), f.fid, 0, &vec![1u8; 100 * 4096]).unwrap();
    ep.sync_all().unwrap();
    let data_start = ep.superblock().data_start();
    drop(v);
    drop(ep);
    // Fail a slice of the data region (past the refcount table and the
    // volume's metadata blocks), then reopen with a cold cache.
    disk.inject_media_failure(data_start + 30, data_start + 200);
    let (ep2, _) = Episode::open(disk, SimClock::new()).unwrap();
    let v2 = PhysicalFs::mount(&*ep2, VolumeId(1)).unwrap();
    // Reads of affected blocks surface the media failure (logging does
    // not protect against media failure, §2.2 — salvage would be next).
    let mut saw_failure = false;
    for off in (0..100 * 4096u64).step_by(4096) {
        if v2.read(&cred(), f.fid, off, 4096) == Err(DfsError::MediaFailure) {
            saw_failure = true;
        }
    }
    assert!(saw_failure, "media failure must not be silently masked");
}
