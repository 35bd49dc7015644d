//! Property-based tests for Episode against simple in-memory models.

use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_types::{DfsError, Fid, SimClock, VolumeId};
use dfs_vfs::{Credentials, PhysicalFs, SetAttrs, VfsPlus};
use proptest::prelude::*;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

fn fresh() -> (Arc<Episode>, Arc<dyn VfsPlus>) {
    let disk = SimDisk::new(DiskConfig::with_blocks(32 * 1024));
    let ep = Episode::format(disk, SimClock::new(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "prop").unwrap();
    let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
    (ep, v)
}

#[derive(Clone, Debug)]
enum FileOp {
    Write { offset: u64, len: usize, byte: u8 },
    Truncate { len: u64 },
    Read { offset: u64, len: usize },
}

fn file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        4 => (0u64..200_000, 1usize..30_000, any::<u8>())
            .prop_map(|(offset, len, byte)| FileOp::Write { offset, len, byte }),
        2 => (0u64..250_000).prop_map(|len| FileOp::Truncate { len }),
        3 => (0u64..250_000, 1usize..40_000).prop_map(|(offset, len)| FileOp::Read { offset, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// File contents behave exactly like a sparse byte vector.
    #[test]
    fn file_matches_vec_model(ops in proptest::collection::vec(file_op(), 1..25)) {
        let (ep, v) = fresh();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        let f = v.create(&cred, root, "model", 0o644).unwrap();
        let mut model: Vec<u8> = Vec::new();

        for op in ops {
            match op {
                FileOp::Write { offset, len, byte } => {
                    let bytes = vec![byte; len];
                    v.write(&cred, f.fid, offset, &bytes).unwrap();
                    if model.len() < (offset as usize + len) {
                        model.resize(offset as usize + len, 0);
                    }
                    model[offset as usize..offset as usize + len].copy_from_slice(&bytes);
                }
                FileOp::Truncate { len } => {
                    v.setattr(&cred, f.fid, &SetAttrs::truncate(len)).unwrap();
                    model.resize(len as usize, 0);
                }
                FileOp::Read { offset, len } => {
                    let got = v.read(&cred, f.fid, offset, len).unwrap();
                    let end = model.len().min(offset as usize + len);
                    let want: &[u8] =
                        if offset as usize >= model.len() { &[] } else { &model[offset as usize..end] };
                    prop_assert_eq!(&got[..], want);
                }
            }
            let st = v.getattr(&cred, f.fid).unwrap();
            prop_assert_eq!(st.length, model.len() as u64);
        }
        // The aggregate stays structurally consistent throughout.
        let report = ep.salvage().unwrap();
        prop_assert!(report.is_clean(), "{:?}", report.problems);
    }

    /// Directory operations in two directories behave exactly like a
    /// (directory, name) → (fid, is a directory) map: create, mkdir,
    /// remove, rmdir, link, and rename with POSIX's rules — onto another
    /// link of the same file does nothing, a file never replaces a
    /// directory nor a directory a file. Directory link counts are left
    /// to the salvager.
    #[test]
    fn directory_matches_map_model(
        script in proptest::collection::vec((0u8..8, 0u8..12, 0u8..4), 1..60)
    ) {
        let (ep, v) = fresh();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        let dirs = [root, v.mkdir(&cred, root, "sub", 0o755).unwrap().fid];
        let mut model: HashMap<(usize, String), (Fid, bool)> = HashMap::new();

        for (action, name_idx, pick) in script {
            // The source names `name_idx` in one directory; rename and
            // link target the next name in the same or the other one.
            let (sd, dd) = (usize::from(pick & 1), usize::from(pick >> 1));
            let src = (sd, format!("name-{name_idx}"));
            let dst = (dd, format!("name-{}", (name_idx + 1) % 12));
            let found = model.get(&src).copied();
            match action {
                0 | 1 => {
                    let r = if action == 0 {
                        v.create(&cred, dirs[sd], &src.1, 0o644)
                    } else {
                        v.mkdir(&cred, dirs[sd], &src.1, 0o755)
                    };
                    match found {
                        Some(_) => prop_assert_eq!(r.unwrap_err(), DfsError::Exists),
                        None => {
                            model.insert(src, (r.unwrap().fid, action == 1));
                        }
                    }
                }
                2 | 3 => {
                    let r = if action == 2 {
                        v.remove(&cred, dirs[sd], &src.1).map(drop)
                    } else {
                        v.rmdir(&cred, dirs[sd], &src.1)
                    };
                    match found {
                        None => prop_assert_eq!(r.unwrap_err(), DfsError::NotFound),
                        Some((_, true)) if action == 2 => {
                            prop_assert_eq!(r.unwrap_err(), DfsError::IsDirectory)
                        }
                        Some((_, false)) if action == 3 => {
                            prop_assert_eq!(r.unwrap_err(), DfsError::NotDirectory)
                        }
                        Some(_) => {
                            r.unwrap();
                            model.remove(&src);
                        }
                    }
                }
                4 => {
                    let r = v.lookup(&cred, dirs[sd], &src.1);
                    match found {
                        Some((fid, _)) => prop_assert_eq!(r.unwrap().fid, fid),
                        None => prop_assert_eq!(r.unwrap_err(), DfsError::NotFound),
                    }
                }
                5 => {
                    let Some((fid, is_dir)) = found else { continue };
                    let r = v.link(&cred, dirs[dd], &dst.1, fid);
                    if is_dir {
                        prop_assert_eq!(r.unwrap_err(), DfsError::IsDirectory);
                    } else {
                        match model.entry(dst) {
                            Entry::Occupied(_) => prop_assert_eq!(r.unwrap_err(), DfsError::Exists),
                            Entry::Vacant(name) => {
                                prop_assert_eq!(r.unwrap().fid, fid);
                                name.insert((fid, false));
                            }
                        }
                    }
                }
                _ => {
                    let r = v.rename(&cred, dirs[sd], &src.1, dirs[dd], &dst.1);
                    match (found, model.get(&dst).copied()) {
                        (None, _) => prop_assert_eq!(r.unwrap_err(), DfsError::NotFound),
                        (Some((f, _)), Some((g, _))) if f == g => r.unwrap(),
                        (Some((_, false)), Some((_, true))) => {
                            prop_assert_eq!(r.unwrap_err(), DfsError::IsDirectory)
                        }
                        (Some((_, true)), Some((_, false))) => {
                            prop_assert_eq!(r.unwrap_err(), DfsError::NotDirectory)
                        }
                        (Some(moved), _) => {
                            r.unwrap();
                            model.remove(&src);
                            model.insert(dst, moved);
                        }
                    }
                }
            }
            // Each directory lists exactly the model's names for it.
            for (d, fid) in dirs.iter().enumerate() {
                let mut listed: Vec<String> =
                    v.readdir(&cred, *fid).unwrap().into_iter().map(|e| e.name).collect();
                listed.retain(|n| n != "sub");
                listed.sort();
                let mut want: Vec<String> =
                    model.keys().filter(|(k, _)| *k == d).map(|(_, n)| n.clone()).collect();
                want.sort();
                prop_assert_eq!(listed, want);
            }
        }
        let report = ep.salvage().unwrap();
        prop_assert!(report.is_clean(), "{:?}", report.problems);
    }

    /// Any prefix of work, crashed and recovered, salvages clean.
    #[test]
    fn random_crash_points_salvage_clean(
        n_ops in 1usize..30,
        sync_every in 1usize..8,
    ) {
        let disk = SimDisk::new(DiskConfig::with_blocks(32 * 1024));
        let clock = SimClock::new();
        let ep = Episode::format(disk.clone(), clock.clone(), FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "v").unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        for i in 0..n_ops {
            let f = v.create(&cred, root, &format!("f{i}"), 0o644).unwrap();
            v.write(&cred, f.fid, 0, &vec![i as u8; 3000]).unwrap();
            if i % 3 == 2 {
                v.remove(&cred, root, &format!("f{}", i - 1)).unwrap();
            }
            if i % sync_every == 0 {
                ep.sync_log().unwrap();
            }
        }
        disk.crash(None);
        disk.power_on();
        let (ep2, _) = Episode::open(disk, clock).unwrap();
        let report = ep2.salvage().unwrap();
        prop_assert!(report.is_clean(), "{:?}", report.problems);
    }
}
