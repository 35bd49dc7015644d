//! The salvager: a full consistency check of an aggregate.
//!
//! Logging obviates the routine post-crash salvage (§2.2), but "media
//! failure will normally necessitate salvaging" — and the test suite uses
//! the salvager as the oracle that crash recovery really does leave the
//! file system consistent. Because "all data and meta-data are stored in
//! anodes, the disk presents a uniform interface to utilities that access
//! it" (§2.4): the salvager is a single walk over the anode table.
//!
//! Checks performed:
//!
//! * every block pointer is inside the data region;
//! * the stored refcount of every data block equals the number of anode
//!   references to it (clones legitimately push counts above one);
//! * every volume-table entry names a live header anode;
//! * every vnode-map slot names a live anode of the right volume;
//! * every directory entry resolves to a live vnode with matching
//!   uniquifier, and no directory holds one name twice;
//! * link counts match directory contents, and every mapped file is
//!   named by at least one entry;
//! * no file/directory anode is orphaned (unreachable from any volume),
//!   and every mapped directory is reachable from its volume's root.

use crate::layout::{Anode, AnodeKind, FIRST_FREE_ANODE};
use crate::Episode;
use dfs_types::DfsResult;
use dfs_vfs::SalvageReport;
use std::collections::{HashMap, HashSet};

/// Runs a full consistency check. The aggregate should be quiescent.
pub fn salvage(ep: &Episode) -> DfsResult<SalvageReport> {
    let mut report = SalvageReport::default();
    let sb = ep.superblock();
    let data_start = sb.data_start();
    let total = sb.total_blocks;

    // Pass 1: walk every live anode, accumulating expected refcounts.
    let mut expected: HashMap<u32, u16> = HashMap::new();
    let mut live_anodes: HashMap<u32, Anode> = HashMap::new();
    for idx in 1..sb.anode_count() {
        let a = ep.read_anode(idx)?;
        if a.kind == AnodeKind::Free {
            continue;
        }
        report.files_checked += 1;
        ep.for_each_block(&a, |b| {
            if b < data_start || b >= total {
                report.problems.push(format!("pointer to out-of-range block {b}"));
            } else {
                *expected.entry(b).or_insert(0) += 1;
            }
            Ok(())
        })?;
        live_anodes.insert(idx, a);
    }

    // Pass 2: stored refcounts must match the references we counted.
    for b in data_start..total {
        report.blocks_checked += 1;
        let stored = ep.block_refcount(b)?;
        let want = expected.get(&b).copied().unwrap_or(0);
        if stored != want {
            report
                .problems
                .push(format!("block {b}: stored refcount {stored}, referenced {want} times"));
        }
    }
    report.blocks_checked += data_start as u64; // Reserved region scanned implicitly.

    // Pass 3: volumes, vnode maps, directories, link counts.
    let mut referenced: HashMap<u32, &'static str> = HashMap::new();
    referenced.insert(crate::layout::VOLTABLE_ANODE, "volume table");
    referenced.insert(crate::layout::REFCOUNT_ANODE, "refcount table");
    let mut nlink_expected: HashMap<u32, u32> = HashMap::new();
    let mut mapped_files = Vec::new();

    for (vol, header) in ep.voltable_list()? {
        let Some(h) = live_anodes.get(&header) else {
            report.problems.push(format!("{vol:?}: header anode {header} not live"));
            continue;
        };
        if h.kind != AnodeKind::Meta {
            report.problems.push(format!("{vol:?}: header anode {header} has wrong kind"));
        }
        referenced.insert(header, "volume header");
        let vnodes = ep.vnode_list(header)?;
        for (v, slot) in &vnodes {
            let Some(a) = live_anodes.get(slot) else {
                report.problems.push(format!("{vol:?}: vnode {v} maps to dead anode {slot}"));
                continue;
            };
            if a.volume != vol.0 {
                report.problems.push(format!(
                    "{vol:?}: vnode {v} anode {slot} belongs to volume {}",
                    a.volume
                ));
            }
            referenced.insert(*slot, "vnode map");
            if a.kind != AnodeKind::Directory {
                mapped_files.push(*slot);
            }
            if a.acl_anode != 0 {
                referenced.insert(a.acl_anode, "acl");
                match live_anodes.get(&a.acl_anode) {
                    Some(acl) if acl.kind == AnodeKind::Meta => {}
                    _ => report
                        .problems
                        .push(format!("{vol:?}: vnode {v} has bad ACL anode {}", a.acl_anode)),
                }
            }
        }
        // Directory structure: entries resolve, uniqs match, links count.
        let by_vnode: HashMap<u32, u32> = vnodes.iter().copied().collect();
        let mut subdirs_of: HashMap<u32, Vec<u32>> = HashMap::new();
        for (v, slot) in &vnodes {
            let a = match live_anodes.get(slot) {
                Some(a) => a,
                None => continue,
            };
            if a.kind != AnodeKind::Directory {
                continue;
            }
            let mut subdirs = 0u32;
            let mut names = HashSet::new();
            for e in ep.dir_list(a)? {
                if !names.insert(e.name.clone()) {
                    report.problems.push(format!("{vol:?}: dir vnode {v} has '{}' twice", e.name));
                }
                match by_vnode.get(&e.vnode).and_then(|s| live_anodes.get(s)) {
                    Some(t) => {
                        if t.uniq != e.uniq {
                            report.problems.push(format!(
                                "{vol:?}: dir vnode {v} entry '{}' uniq {} != anode uniq {}",
                                e.name, e.uniq, t.uniq
                            ));
                        }
                        if t.kind == AnodeKind::Directory {
                            subdirs += 1;
                            subdirs_of.entry(*v).or_default().push(e.vnode);
                        } else {
                            *nlink_expected.entry(by_vnode[&e.vnode]).or_insert(0) += 1;
                        }
                    }
                    None => report.problems.push(format!(
                        "{vol:?}: dir vnode {v} entry '{}' points at dead vnode {}",
                        e.name, e.vnode
                    )),
                }
            }
            // A directory's link count is 2 plus its subdirectories.
            let want = 2 + subdirs;
            if a.nlink as u32 != want {
                report
                    .problems
                    .push(format!("{vol:?}: dir vnode {v} nlink {} != expected {want}", a.nlink));
            }
        }
        // Every directory hangs from the volume root: one moved into its
        // own subtree heads a loop no walk from the root reaches.
        let root = ep.read_volume_header(header)?.root_vnode;
        let (mut reached, mut todo) = (HashSet::from([root]), vec![root]);
        while let Some(v) = todo.pop() {
            for &c in subdirs_of.get(&v).into_iter().flatten() {
                if reached.insert(c) {
                    todo.push(c);
                }
            }
        }
        for (v, slot) in &vnodes {
            let is_dir = live_anodes.get(slot).is_some_and(|a| a.kind == AnodeKind::Directory);
            if is_dir && !reached.contains(v) {
                let problem = format!("{vol:?}: dir vnode {v} is unreachable from the root");
                report.problems.push(problem);
            }
        }
    }

    // Non-directory link counts, for every mapped file. A file no entry
    // names is lost: a crash between two steps of its reclaim leaves
    // one, with nlink 0.
    for slot in mapped_files {
        let (a, want) = (&live_anodes[&slot], nlink_expected.get(&slot).copied().unwrap_or(0));
        if want == 0 {
            report
                .problems
                .push(format!("anode {slot}: mapped, nlink {}, but no entry names it", a.nlink));
        } else if a.nlink as u32 != want {
            report
                .problems
                .push(format!("anode {slot}: nlink {} != {} directory entries", a.nlink, want));
        }
    }

    // Orphans: live file/dir/symlink anodes unreachable from any volume.
    for (idx, a) in &live_anodes {
        if *idx < FIRST_FREE_ANODE {
            continue;
        }
        if !referenced.contains_key(idx) && a.kind != AnodeKind::Meta {
            report.problems.push(format!("anode {idx} ({:?}) is orphaned", a.kind));
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fresh;
    use dfs_types::VolumeId;
    use dfs_vfs::{Credentials, PhysicalFs};

    #[test]
    fn fresh_aggregate_is_clean() {
        let ep = fresh(8192);
        let r = salvage(&ep).unwrap();
        assert!(r.is_clean(), "{:?}", r.problems);
        assert_eq!(r.files_checked, 2, "volume table and refcount table");
    }

    #[test]
    fn populated_aggregate_is_clean() {
        let ep = fresh(16384);
        ep.create_volume(VolumeId(1), "v").unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        let d = v.mkdir(&cred, root, "dir", 0o755).unwrap();
        let f = v.create(&cred, d.fid, "file", 0o644).unwrap();
        v.write(&cred, f.fid, 0, &vec![3u8; 100_000]).unwrap();
        v.symlink(&cred, root, "ln", "dir/file").unwrap();
        let r = salvage(&ep).unwrap();
        assert!(r.is_clean(), "{:?}", r.problems);
        assert!(r.files_checked >= 6);
        assert_eq!(r.blocks_checked, 16384);
    }

    #[test]
    fn detects_refcount_corruption() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(1), "v").unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        let f = v.create(&cred, root, "x", 0o644).unwrap();
        v.write(&cred, f.fid, 0, b"data").unwrap();
        // Corrupt: bump a data block's refcount outside any clone.
        let txn = ep.journal().begin();
        let b = ep.alloc_block(txn).unwrap();
        ep.incref_block(txn, b).unwrap();
        ep.journal().commit(txn).unwrap();
        let r = salvage(&ep).unwrap();
        assert!(!r.is_clean());
        assert!(r.problems.iter().any(|p| p.contains("refcount")), "{:?}", r.problems);
    }

    #[test]
    fn detects_two_entries_with_one_name() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(1), "v").unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        let f = v.create(&cred, root, "x", 0o644).unwrap();
        // A second entry "x" for the same file, its link counted: only
        // the name is wrong.
        let (_, header) = ep.voltable_find(VolumeId(1)).unwrap().unwrap();
        let dslot = ep.vnode_get(header, root.vnode.0).unwrap();
        let fslot = ep.vnode_get(header, f.fid.vnode.0).unwrap();
        let txn = ep.journal().begin();
        let mut d = ep.read_anode(dslot).unwrap();
        let e = ep.dir_lookup(&d, "x").unwrap().unwrap();
        ep.dir_insert(txn, &mut d, &e).unwrap();
        ep.write_anode(txn, dslot, &d).unwrap();
        let mut a = ep.read_anode(fslot).unwrap();
        a.nlink = 2;
        ep.write_anode(txn, fslot, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        let r = salvage(&ep).unwrap();
        assert_eq!(r.problems.len(), 1, "{:?}", r.problems);
        assert!(r.problems[0].contains("has 'x' twice"), "{:?}", r.problems);
    }

    /// A remove of a file over `TRUNCATE_CHUNK` blocks frees it in
    /// several transactions; a crash after the first leaves the file in
    /// its vnode map with nlink 0, some blocks still held, and no entry.
    #[test]
    fn detects_a_mapped_file_no_entry_names() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(1), "v").unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        let f = v.create(&cred, root, "big", 0o644).unwrap().fid;
        v.write(&cred, f, 0, &vec![5u8; 100 * dfs_disk::BLOCK_SIZE]).unwrap();
        let (_, header) = ep.voltable_find(VolumeId(1)).unwrap().unwrap();
        let dslot = ep.vnode_get(header, root.vnode.0).unwrap();
        let fslot = ep.vnode_get(header, f.vnode.0).unwrap();
        // The remove's first transaction: the entry goes, and the first
        // reclaim step frees 64 of the 100 blocks.
        let done = ep
            .txn(|txn| {
                let mut d = ep.read_anode(dslot)?;
                ep.dir_remove(txn, &mut d, "big")?;
                ep.write_anode(txn, dslot, &d)?;
                let a = Anode { nlink: 0, ..ep.read_anode(fslot)? };
                ep.reclaim_step(txn, fslot, a, Some((header, f.vnode.0)))
            })
            .unwrap();
        assert!(!done, "a 100-block file takes more than one step");
        let r = salvage(&ep).unwrap();
        assert_eq!(r.problems.len(), 1, "{:?}", r.problems);
        assert!(r.problems[0].contains("no entry names it"), "{:?}", r.problems);
    }

    /// The state a rename of `a` into its own child `b` left: `a`'s
    /// entry moved from the root into `b`, every link count kept, so only
    /// a walk from the root tells.
    #[test]
    fn detects_directories_the_root_does_not_reach() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(1), "v").unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        let a = v.mkdir(&cred, root, "a", 0o755).unwrap().fid;
        let b = v.mkdir(&cred, a, "b", 0o755).unwrap().fid;
        let (_, header) = ep.voltable_find(VolumeId(1)).unwrap().unwrap();
        let slot = |fid: dfs_types::Fid| ep.vnode_get(header, fid.vnode.0).unwrap();
        let (rslot, bslot) = (slot(root), slot(b));
        ep.txn(|txn| {
            let mut r = ep.read_anode(rslot)?;
            let e = ep.dir_lookup(&r, "a")?.expect("a is in the root");
            ep.dir_remove(txn, &mut r, "a")?;
            r.nlink -= 1;
            ep.write_anode(txn, rslot, &r)?;
            let mut bd = ep.read_anode(bslot)?;
            ep.dir_insert(txn, &mut bd, &e)?;
            bd.nlink += 1;
            ep.write_anode(txn, bslot, &bd)
        })
        .unwrap();
        let r = salvage(&ep).unwrap();
        let unreached: Vec<&String> =
            r.problems.iter().filter(|p| p.contains("unreachable from the root")).collect();
        assert_eq!(unreached.len(), 2, "{:?}", r.problems);
        assert_eq!(r.problems.len(), 2, "{:?}", r.problems);
    }

    #[test]
    fn detects_bad_link_count() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(1), "v").unwrap();
        let v = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let cred = Credentials::system();
        let root = v.root().unwrap();
        let f = v.create(&cred, root, "x", 0o644).unwrap();
        // Corrupt the nlink directly.
        let (_, header) = ep.voltable_find(VolumeId(1)).unwrap().unwrap();
        let slot = ep.vnode_get(header, f.fid.vnode.0).unwrap();
        let txn = ep.journal().begin();
        let mut a = ep.read_anode(slot).unwrap();
        a.nlink = 9;
        ep.write_anode(txn, slot, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        let r = salvage(&ep).unwrap();
        assert!(r.problems.iter().any(|p| p.contains("nlink")), "{:?}", r.problems);
    }
}
