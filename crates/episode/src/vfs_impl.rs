//! Episode's implementation of the VFS+ and PhysicalFs interfaces.
//!
//! Each mounted volume is an [`EpisodeVolume`] implementing
//! [`dfs_vfs::Vfs`] and [`dfs_vfs::VfsPlus`]; the aggregate itself
//! implements [`dfs_vfs::PhysicalFs`]. Operations use per-anode
//! reader/writer locks (Episode "is designed with finely grained locking",
//! §2), short transactions, and ACL-based permission checks (§2.3).

use crate::anode::Unlinked;
use crate::dir::RawDirEntry;
use crate::layout::{check_name, Anode, AnodeKind};
use crate::volume::VolumeCounters;
use crate::Episode;
use dfs_journal::{Admitted, TxnId};
use dfs_types::{Acl, DfsError, DfsResult, FileStatus, Fid, Rights, VnodeId, VolumeId};
use dfs_vfs::{
    Credentials, DirEntry, PhysicalFs, SalvageReport, SetAttrs, Vfs, VfsPlus, VolumeDump,
    VolumeInfo,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A mounted Episode volume: the "VFS is a mounted volume" of §2.1.
pub struct EpisodeVolume {
    ep: Arc<Episode>,
    vol: VolumeId,
    header: u32,
    counters: Arc<VolumeCounters>,
    read_only: bool,
    root_vnode: u32,
}

impl EpisodeVolume {
    /// Resolves a fid to its anode slot through the vnode map. An op
    /// reads the slot once, through [`Self::anode_of`]: under the slot's
    /// lock if it takes one.
    fn resolve(&self, fid: Fid) -> DfsResult<u32> {
        if fid.volume != self.vol {
            return Err(DfsError::NoSuchVolume);
        }
        match self.ep.vnode_get(self.header, fid.vnode.0)? {
            0 => Err(DfsError::StaleFid),
            slot => Ok(slot),
        }
    }

    /// Reads anode `slot` and checks that it holds the file `fid` names.
    /// The fid was resolved before any lock, and an op that then waited
    /// for the slot's lock may find it freed by a remove (a freed slot
    /// keeps its uniquifier) or reused by a create.
    fn anode_of(&self, slot: u32, fid: Fid) -> DfsResult<Anode> {
        let a = self.ep.read_anode(slot)?;
        if a.kind == AnodeKind::Free || a.uniq != fid.uniq {
            return Err(DfsError::StaleFid);
        }
        Ok(a)
    }

    /// Computes the caller's rights on an anode: the ACL if present,
    /// otherwise rights synthesized from the UNIX mode bits.
    fn rights_on(&self, cred: &Credentials, a: &Anode) -> DfsResult<Rights> {
        if cred.is_system() {
            return Ok(Rights::ALL);
        }
        if a.acl_anode != 0 {
            let acl = self.ep.read_acl(a.acl_anode)?;
            return Ok(acl.rights_for(cred.user, &cred.groups, a.owner));
        }
        let bits = if cred.user == a.owner {
            (a.mode >> 6) & 7
        } else if cred.groups.contains(&a.group) {
            (a.mode >> 3) & 7
        } else {
            a.mode & 7
        };
        let mut r = Rights::NONE;
        if bits & 4 != 0 {
            r |= Rights::READ;
        }
        if bits & 2 != 0 {
            r |= Rights::WRITE | Rights::INSERT | Rights::DELETE;
        }
        if bits & 1 != 0 {
            r |= Rights::EXECUTE;
        }
        if cred.user == a.owner {
            r |= Rights::CONTROL;
        }
        Ok(r)
    }

    fn check(&self, cred: &Credentials, a: &Anode, needed: Rights) -> DfsResult<()> {
        if self.rights_on(cred, a)?.allows(needed) {
            Ok(())
        } else {
            Err(DfsError::PermissionDenied)
        }
    }

    /// The first step of every mutating operation, taken before any
    /// lock: refuses a read-only volume, and admits the operation to the
    /// log (`Journal::admit`) for as long as the guard lives.
    fn begin_write(&self) -> DfsResult<Admitted<'_>> {
        if self.read_only {
            Err(DfsError::ReadOnlyVolume)
        } else {
            Ok(self.ep.jn.admit())
        }
    }

    /// Reads directory `dir`'s anode `slot`, whose lock the caller
    /// holds, and checks that `cred` holds `needed` on it.
    fn read_dir(
        &self,
        cred: &Credentials,
        dir: Fid,
        slot: u32,
        needed: Rights,
    ) -> DfsResult<Anode> {
        let d = self.anode_of(slot, dir)?;
        if d.kind != AnodeKind::Directory {
            return Err(DfsError::NotDirectory);
        }
        self.check(cred, &d, needed)?;
        Ok(d)
    }

    /// Stamps a changed directory (mtime, the next volume version) and
    /// writes its anode.
    fn write_dir(&self, txn: TxnId, slot: u32, d: &mut Anode) -> DfsResult<()> {
        d.mtime = self.ep.clock.now().as_micros();
        d.data_version = self.ep.bump_volume_version(&self.counters)?;
        self.ep.write_anode(txn, slot, d)
    }

    /// Runs `body` holding the write locks of directories `dirs`, taken
    /// in slot order, once each. `body` takes any other anode's lock
    /// through the `take` it is passed, which never waits: if that lock
    /// is busy, `take` fails and `body` returns its error, every lock is
    /// let go, the holder waited out with nothing held, and `body` run
    /// again from the start. So `body` takes those locks before it
    /// changes anything (DESIGN.md §8 "Episode's anode locks").
    fn locked<T>(
        &self,
        dirs: &[u32],
        mut body: impl FnMut(&mut dyn FnMut(u32) -> DfsResult<()>) -> DfsResult<T>,
    ) -> DfsResult<T> {
        let dirs: BTreeSet<u32> = dirs.iter().copied().collect();
        loop {
            let mut held: Vec<_> =
                dirs.iter().map(|&s| (s, self.ep.anode_lock(s).write())).collect();
            let mut busy = None;
            let out = body(&mut |slot| {
                if held.iter().all(|&(s, _)| s != slot) {
                    let Some(guard) = self.ep.anode_lock(slot).try_write() else {
                        busy = Some(slot);
                        return Err(DfsError::Internal("anode lock busy: the op runs again"));
                    };
                    held.push((slot, guard));
                }
                Ok(())
            });
            let Some(slot) = busy else { return out };
            drop(held);
            drop(self.ep.anode_lock(slot).write());
        }
    }

    /// True if directory `dir` is directory `slot` or holds it somewhere
    /// below: a walk down from `dir`, as directory anodes keep no parent
    /// pointer. Each directory's entries are read under its lock, taken
    /// through `take` ([`Self::locked`]).
    fn holds(
        &self,
        dir: u32,
        slot: u32,
        take: &mut dyn FnMut(u32) -> DfsResult<()>,
    ) -> DfsResult<bool> {
        let mut todo = vec![dir];
        while let Some(d) = todo.pop() {
            if d == slot {
                return Ok(true);
            }
            take(d)?;
            for e in self.ep.dir_list(&self.ep.read_anode(d)?)? {
                if e.kind == AnodeKind::Directory.to_byte() {
                    todo.push(self.ep.vnode_get(self.header, e.vnode)?);
                }
            }
        }
        Ok(false)
    }

    /// Creates a file/directory/symlink entry; shared by create paths.
    /// The new file's anode and vnode go next to its directory's, a new
    /// directory's to blocks of its own (DESIGN.md §7 "A file lives next
    /// to its directory").
    fn make_node(
        &self,
        cred: &Credentials,
        dir: Fid,
        name: &str,
        kind: AnodeKind,
        mode: u16,
        symlink_target: Option<&str>,
    ) -> DfsResult<FileStatus> {
        let _op = self.begin_write()?;
        check_name(name)?;
        let dslot = self.resolve(dir)?;
        let _g = self.ep.anode_lock(dslot).write();
        let mut d = self.read_dir(cred, dir, dslot, Rights::INSERT)?;
        if self.ep.dir_lookup(&d, name)?.is_some() {
            return Err(DfsError::Exists);
        }
        let (v, a) = self.ep.txn(|txn| {
            let (slot, mut a) =
                self.ep.alloc_anode(txn, Some(dslot), kind, self.vol.0, mode, cred.user)?;
            a.uniq = self.ep.next_uniq(&self.counters)?;
            if kind == AnodeKind::Directory {
                a.nlink = 2;
                d.nlink += 1;
            }
            if let Some(target) = symlink_target {
                self.ep.anode_write(txn, &mut a, 0, target.as_bytes(), true)?;
            }
            self.ep.write_anode(txn, slot, &a)?;
            let near = self.counters.vnode_near(kind, dir.vnode.0);
            let v = self.ep.vnode_alloc(txn, self.header, slot, near)?;
            let kind = kind.to_byte();
            let entry = RawDirEntry { name: name.into(), vnode: v, uniq: a.uniq, kind };
            self.ep.dir_insert(txn, &mut d, &entry)?;
            self.write_dir(txn, dslot, &mut d)?;
            Ok((v, a))
        })?;
        let fid = Fid::new(self.vol, VnodeId(v), a.uniq);
        Ok(self.ep.status_from_anode(fid, &a))
    }
}

impl Vfs for EpisodeVolume {
    fn volume_id(&self) -> VolumeId {
        self.vol
    }

    fn root(&self) -> DfsResult<Fid> {
        let slot = self.ep.vnode_get(self.header, self.root_vnode)?;
        let a = self.ep.read_anode(slot)?;
        Ok(Fid::new(self.vol, VnodeId(self.root_vnode), a.uniq))
    }

    fn lookup(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        let dslot = self.resolve(dir)?;
        let _g = self.ep.anode_lock(dslot).read();
        let d = self.read_dir(cred, dir, dslot, Rights::EXECUTE)?;
        let e = self.ep.dir_lookup(&d, name)?.ok_or(DfsError::NotFound)?;
        self.getattr(cred, Fid::new(self.vol, VnodeId(e.vnode), e.uniq))
    }

    fn create(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.make_node(cred, dir, name, AnodeKind::File, mode, None)
    }

    fn mkdir(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.make_node(cred, dir, name, AnodeKind::Directory, mode, None)
    }

    fn symlink(
        &self,
        cred: &Credentials,
        dir: Fid,
        name: &str,
        target: &str,
    ) -> DfsResult<FileStatus> {
        self.make_node(cred, dir, name, AnodeKind::Symlink, 0o777, Some(target))
    }

    fn link(&self, cred: &Credentials, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus> {
        let _op = self.begin_write()?;
        check_name(name)?;
        let (dslot, tslot) = (self.resolve(dir)?, self.resolve(target)?);
        if dslot == tslot {
            return Err(DfsError::InvalidArgument);
        }
        self.locked(&[dslot], |take| {
            take(tslot)?;
            let mut t = self.anode_of(tslot, target)?;
            if t.kind == AnodeKind::Directory {
                return Err(DfsError::IsDirectory);
            }
            let mut d = self.read_dir(cred, dir, dslot, Rights::INSERT)?;
            if self.ep.dir_lookup(&d, name)?.is_some() {
                return Err(DfsError::Exists);
            }
            self.ep.txn(|txn| {
                t.nlink += 1;
                t.ctime = self.ep.clock.now().as_micros();
                self.ep.write_anode(txn, tslot, &t)?;
                let (vnode, uniq, kind) = (target.vnode.0, target.uniq, t.kind.to_byte());
                let entry = RawDirEntry { name: name.into(), vnode, uniq, kind };
                self.ep.dir_insert(txn, &mut d, &entry)?;
                self.write_dir(txn, dslot, &mut d)
            })?;
            Ok(self.ep.status_from_anode(target, &t))
        })
    }

    fn remove(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        let _op = self.begin_write()?;
        let dslot = self.resolve(dir)?;
        self.locked(&[dslot], |take| {
            let mut d = self.read_dir(cred, dir, dslot, Rights::DELETE)?;
            let e = self.ep.dir_lookup(&d, name)?.ok_or(DfsError::NotFound)?;
            if e.kind == AnodeKind::Directory.to_byte() {
                return Err(DfsError::IsDirectory);
            }
            let tslot = self.ep.vnode_get(self.header, e.vnode)?;
            take(tslot)?;
            let mut t = self.ep.read_anode(tslot)?;
            t.nlink = t.nlink.saturating_sub(1);
            t.ctime = self.ep.clock.now().as_micros();
            let fid = Fid::new(self.vol, VnodeId(e.vnode), e.uniq);
            let status = self.ep.status_from_anode(fid, &t);
            let unlinked = Unlinked { slot: tslot, anode: t, vnode: Some((self.header, e.vnode)) };
            self.ep.txn_unlinking(Some(unlinked), |txn| {
                self.ep.dir_remove(txn, &mut d, name)?;
                self.write_dir(txn, dslot, &mut d)
            })?;
            Ok(status)
        })
    }

    fn rmdir(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<()> {
        let _op = self.begin_write()?;
        let dslot = self.resolve(dir)?;
        self.locked(&[dslot], |take| {
            let mut d = self.read_dir(cred, dir, dslot, Rights::DELETE)?;
            let e = self.ep.dir_lookup(&d, name)?.ok_or(DfsError::NotFound)?;
            if e.kind != AnodeKind::Directory.to_byte() {
                return Err(DfsError::NotDirectory);
            }
            let tslot = self.ep.vnode_get(self.header, e.vnode)?;
            // Held, the child stays empty until it is freed.
            take(tslot)?;
            let t = self.ep.read_anode(tslot)?;
            if !self.ep.dir_is_empty(&t)? {
                return Err(DfsError::NotEmpty);
            }
            // Its entry and its own `.` go: no link is left.
            let t = Anode { nlink: 0, ..t };
            let unlinked = Unlinked { slot: tslot, anode: t, vnode: Some((self.header, e.vnode)) };
            self.ep.txn_unlinking(Some(unlinked), |txn| {
                self.ep.dir_remove(txn, &mut d, name)?;
                d.nlink = d.nlink.saturating_sub(1);
                self.write_dir(txn, dslot, &mut d)
            })
        })
    }

    /// POSIX `rename()`: one path whether the source and target
    /// directories are one or two. A name over another link of the same
    /// file does nothing; a file may replace a file, a directory only an
    /// empty directory.
    fn rename(
        &self,
        cred: &Credentials,
        src_dir: Fid,
        src_name: &str,
        dst_dir: Fid,
        dst_name: &str,
    ) -> DfsResult<()> {
        let _op = self.begin_write()?;
        check_name(src_name)?;
        check_name(dst_name)?;
        let (sslot, dslot) = (self.resolve(src_dir)?, self.resolve(dst_dir)?);
        // A move between two directories may move a directory: one at a
        // time per volume, so the tree the ancestry check walks holds
        // still (the moves within one directory change no ancestry).
        let _moving = (sslot != dslot).then(|| self.counters.renames.lock());
        self.locked(&[sslot, dslot], |take| {
            // The directories touched, source first; `dirs[t]` is the
            // target directory, which may be the source itself.
            let target = self.read_dir(cred, dst_dir, dslot, Rights::INSERT)?;
            let mut dirs = vec![(sslot, self.read_dir(cred, src_dir, sslot, Rights::DELETE)?)];
            if dslot != sslot {
                dirs.push((dslot, target));
            }
            let t = dirs.len() - 1;
            let e = self.ep.dir_lookup(&dirs[0].1, src_name)?.ok_or(DfsError::NotFound)?;
            let is_dir = e.kind == AnodeKind::Directory.to_byte();
            if is_dir && sslot != dslot {
                let moved = self.ep.vnode_get(self.header, e.vnode)?;
                if self.holds(moved, dslot, take)? {
                    return Err(DfsError::InvalidArgument);
                }
            }
            let replaced = match self.ep.dir_lookup(&dirs[t].1, dst_name)? {
                Some(old) if old.vnode == e.vnode => return Ok(()),
                Some(old) => {
                    let oslot = self.ep.vnode_get(self.header, old.vnode)?;
                    take(oslot)?;
                    let o = self.ep.read_anode(oslot)?;
                    match (is_dir, o.kind == AnodeKind::Directory) {
                        (false, true) => return Err(DfsError::IsDirectory),
                        (true, false) => return Err(DfsError::NotDirectory),
                        (true, true) if !self.ep.dir_is_empty(&o)? => {
                            return Err(DfsError::NotEmpty)
                        }
                        _ => Some((old.vnode, oslot, o)),
                    }
                }
                None => None,
            };
            let replacing = replaced.is_some();
            let unlinked = replaced.map(|(ov, oslot, o)| Unlinked {
                slot: oslot,
                // A directory loses its own two links and its parent's.
                anode: Anode { nlink: o.nlink.saturating_sub(if is_dir { 2 } else { 1 }), ..o },
                vnode: Some((self.header, ov)),
            });
            self.ep.txn_unlinking(unlinked, |txn| {
                if replacing {
                    self.ep.dir_remove(txn, &mut dirs[t].1, dst_name)?;
                    dirs[t].1.nlink = dirs[t].1.nlink.saturating_sub(u16::from(is_dir));
                }
                self.ep.dir_remove(txn, &mut dirs[0].1, src_name)?;
                let moved = RawDirEntry { name: dst_name.into(), ..e };
                self.ep.dir_insert(txn, &mut dirs[t].1, &moved)?;
                if is_dir {
                    dirs[0].1.nlink = dirs[0].1.nlink.saturating_sub(1);
                    dirs[t].1.nlink += 1;
                }
                for (slot, d) in &mut dirs {
                    self.write_dir(txn, *slot, d)?;
                }
                Ok(())
            })
        })
    }

    fn readdir(&self, cred: &Credentials, dir: Fid) -> DfsResult<Vec<DirEntry>> {
        let dslot = self.resolve(dir)?;
        let _g = self.ep.anode_lock(dslot).read();
        let d = self.read_dir(cred, dir, dslot, Rights::READ)?;
        Ok(self
            .ep
            .dir_list(&d)?
            .into_iter()
            .map(|e| DirEntry {
                name: e.name,
                fid: Fid::new(self.vol, VnodeId(e.vnode), e.uniq),
            })
            .collect())
    }

    fn read(&self, cred: &Credentials, file: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        let slot = self.resolve(file)?;
        let _g = self.ep.anode_lock(slot).read();
        let a = self.anode_of(slot, file)?;
        if a.kind == AnodeKind::Directory {
            return Err(DfsError::IsDirectory);
        }
        self.check(cred, &a, Rights::READ)?;
        self.ep.anode_read(&a, offset, len)
    }

    fn write(
        &self,
        cred: &Credentials,
        file: Fid,
        offset: u64,
        data: &[u8],
    ) -> DfsResult<FileStatus> {
        let _op = self.begin_write()?;
        let slot = self.resolve(file)?;
        let _g = self.ep.anode_lock(slot).write();
        let mut a = self.anode_of(slot, file)?;
        if a.kind == AnodeKind::Directory {
            return Err(DfsError::IsDirectory);
        }
        self.check(cred, &a, Rights::WRITE)?;
        self.ep.txn(|txn| {
            self.ep.anode_write(txn, &mut a, offset, data, false)?;
            a.mtime = self.ep.clock.now().as_micros();
            a.data_version = self.ep.bump_volume_version(&self.counters)?;
            self.ep.write_anode(txn, slot, &a)
        })?;
        Ok(self.ep.status_from_anode(file, &a))
    }

    /// The batched store-back path: all extents land in *one* journal
    /// transaction with a single version bump and anode write, then the
    /// log is group-committed once and the pages go home with one disk
    /// flush. A 16-page store-back thus costs two disk syncs.
    fn write_vec(
        &self,
        cred: &Credentials,
        file: Fid,
        extents: &[dfs_vfs::WriteExtent],
    ) -> DfsResult<FileStatus> {
        let _op = self.begin_write()?;
        let slot = self.resolve(file)?;
        let _g = self.ep.anode_lock(slot).write();
        let mut a = self.anode_of(slot, file)?;
        if a.kind == AnodeKind::Directory {
            return Err(DfsError::IsDirectory);
        }
        self.check(cred, &a, Rights::WRITE)?;
        if !extents.is_empty() {
            self.ep.txn(|txn| {
                for e in extents {
                    self.ep.anode_write(txn, &mut a, e.offset, &e.data, false)?;
                }
                a.mtime = self.ep.clock.now().as_micros();
                a.data_version = self.ep.bump_volume_version(&self.counters)?;
                self.ep.write_anode(txn, slot, &a)
            })?;
        }
        // Durability contract: the client discards its dirty pages on
        // the strength of this reply, so force the log (metadata redo)
        // AND the touched data buffers (user data is unlogged) before
        // returning — otherwise a crash that loses the disk cache loses
        // an acknowledged store.
        self.ep.jn.sync()?;
        self.ep.anode_force_home(&a, extents.iter().map(|e| (e.offset, e.data.len() as u64)))?;
        Ok(self.ep.status_from_anode(file, &a))
    }

    fn getattr(&self, _cred: &Credentials, file: Fid) -> DfsResult<FileStatus> {
        let a = self.anode_of(self.resolve(file)?, file)?;
        Ok(self.ep.status_from_anode(file, &a))
    }

    fn setattr(&self, cred: &Credentials, file: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus> {
        let _op = self.begin_write()?;
        let slot = self.resolve(file)?;
        let _g = self.ep.anode_lock(slot).write();
        let a = self.anode_of(slot, file)?;
        if attrs.mode.is_some() || attrs.owner.is_some() || attrs.group.is_some() {
            self.check(cred, &a, Rights::CONTROL)?;
        }
        if let Some(len) = attrs.length {
            if a.kind == AnodeKind::Directory {
                return Err(DfsError::IsDirectory);
            }
            self.check(cred, &a, Rights::WRITE)?;
            // Truncation runs as its own sequence of short transactions.
            self.ep.anode_truncate(slot, len)?;
        }
        let a = self.ep.txn(|txn| {
            let mut a = self.ep.read_anode(slot)?;
            if attrs.length.is_some() {
                a.data_version = self.ep.bump_volume_version(&self.counters)?;
            }
            if let Some(m) = attrs.mode {
                a.mode = m;
            }
            if let Some(o) = attrs.owner {
                a.owner = o;
            }
            if let Some(g) = attrs.group {
                a.group = g;
            }
            if let Some(t) = attrs.mtime {
                a.mtime = t.as_micros();
            }
            a.ctime = self.ep.clock.now().as_micros();
            self.ep.write_anode(txn, slot, &a)?;
            Ok(a)
        })?;
        Ok(self.ep.status_from_anode(file, &a))
    }

    fn readlink(&self, cred: &Credentials, file: Fid) -> DfsResult<String> {
        let slot = self.resolve(file)?;
        let _g = self.ep.anode_lock(slot).read();
        let a = self.anode_of(slot, file)?;
        if a.kind != AnodeKind::Symlink {
            return Err(DfsError::InvalidArgument);
        }
        self.check(cred, &a, Rights::READ)?;
        let bytes = self.ep.anode_read(&a, 0, a.length as usize)?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    fn fsync(&self, _cred: &Credentials, file: Fid) -> DfsResult<()> {
        self.anode_of(self.resolve(file)?, file)?;
        // Group-commit the log and force buffers home (§2.2 fsync).
        self.ep.jn.flush_all()
    }

    fn sync(&self) -> DfsResult<()> {
        self.ep.jn.flush_all()
    }
}

impl VfsPlus for EpisodeVolume {
    fn get_acl(&self, _cred: &Credentials, file: Fid) -> DfsResult<Acl> {
        let a = self.anode_of(self.resolve(file)?, file)?;
        if a.acl_anode == 0 {
            return Ok(Acl::new());
        }
        self.ep.read_acl(a.acl_anode)
    }

    fn set_acl(&self, cred: &Credentials, file: Fid, acl: &Acl) -> DfsResult<()> {
        let _op = self.begin_write()?;
        let slot = self.resolve(file)?;
        let _g = self.ep.anode_lock(slot).write();
        let mut a = self.anode_of(slot, file)?;
        self.check(cred, &a, Rights::CONTROL)?;
        self.ep.txn(|txn| {
            self.ep.write_acl(txn, &mut a, acl)?;
            a.ctime = self.ep.clock.now().as_micros();
            self.ep.write_anode(txn, slot, &a)
        })
    }
}

impl PhysicalFs for Episode {
    fn aggregate_id(&self) -> dfs_types::AggregateId {
        self.aggregate()
    }

    fn list_volumes(&self) -> DfsResult<Vec<VolumeInfo>> {
        self.voltable_list()?
            .into_iter()
            .map(|(id, _)| self.volume_info_inner(id))
            .collect()
    }

    fn volume_info(&self, vol: VolumeId) -> DfsResult<VolumeInfo> {
        self.volume_info_inner(vol)
    }

    fn create_volume(&self, id: VolumeId, name: &str) -> DfsResult<()> {
        Episode::create_volume(self, id, name)
    }

    fn delete_volume(&self, vol: VolumeId) -> DfsResult<()> {
        Episode::delete_volume(self, vol)
    }

    fn clone_volume(&self, src: VolumeId, clone_id: VolumeId, name: &str) -> DfsResult<()> {
        Episode::clone_volume(self, src, clone_id, name)
    }

    fn mount(&self, vol: VolumeId) -> DfsResult<Arc<dyn VfsPlus>> {
        let (_, header) = self.voltable_find(vol)?.ok_or(DfsError::NoSuchVolume)?;
        let vh = self.read_volume_header(header)?;
        // SAFETY of the self-clone: Episode is always used behind Arc;
        // mount is only reachable through Arc<Episode> receivers.
        let ep = self.self_arc();
        Ok(Arc::new(EpisodeVolume {
            ep,
            vol,
            header,
            counters: self.volume_counters(header)?,
            read_only: vh.read_only(),
            root_vnode: vh.root_vnode,
        }))
    }

    fn dump_volume(&self, vol: VolumeId, since_version: u64) -> DfsResult<VolumeDump> {
        self.dump_volume_inner(vol, since_version)
    }

    fn restore_volume(&self, dump: &VolumeDump, read_only: bool) -> DfsResult<()> {
        self.restore_volume_inner(dump, read_only)
    }

    fn salvage(&self) -> DfsResult<SalvageReport> {
        crate::salvage::salvage(self)
    }

    fn sync_aggregate(&self) -> DfsResult<()> {
        self.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fresh;
    use dfs_disk::BLOCK_SIZE;

    pub(crate) fn mounted() -> (Arc<Episode>, Arc<dyn VfsPlus>) {
        let ep = fresh(16384);
        ep.create_volume(VolumeId(1), "test").unwrap();
        let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        (ep, vol)
    }

    fn cred() -> Credentials {
        Credentials::system()
    }

    #[test]
    fn create_lookup_read_write() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "hello.txt", 0o644).unwrap();
        assert_eq!(f.length, 0);
        let st = v.write(&cred(), f.fid, 0, b"hello episode").unwrap();
        assert_eq!(st.length, 13);
        assert!(st.data_version > f.data_version);
        let found = v.lookup(&cred(), root, "hello.txt").unwrap();
        assert_eq!(found.fid, f.fid);
        assert_eq!(v.read(&cred(), f.fid, 0, 64).unwrap(), b"hello episode");
        assert_eq!(v.read(&cred(), f.fid, 6, 7).unwrap(), b"episode");
    }

    #[test]
    fn write_vec_single_txn_single_sync() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "batched", 0o644).unwrap();
        let before = ep.journal().stats();
        let before_version = f.data_version;
        // Two discontiguous extents (hole between them) in one call.
        let extents = vec![
            dfs_vfs::WriteExtent { offset: 0, data: vec![7u8; 8192] },
            dfs_vfs::WriteExtent { offset: 16384, data: vec![9u8; 100] },
        ];
        let st = v.write_vec(&cred(), f.fid, &extents).unwrap();
        assert_eq!(st.length, 16484);
        // One transaction, one commit record, one group commit for the
        // whole batch — and a single version bump across both extents.
        let d = ep.journal().stats().since(&before);
        assert_eq!(d.syncs, 1);
        assert_eq!(d.txns_begun, 1);
        assert_eq!(d.commit_records, 1);
        assert!(st.data_version > before_version);
        assert_eq!(v.read(&cred(), f.fid, 0, 8192).unwrap(), vec![7u8; 8192]);
        assert_eq!(v.read(&cred(), f.fid, 16384, 100).unwrap(), vec![9u8; 100]);
        // The hole reads back as zeros.
        assert_eq!(v.read(&cred(), f.fid, 8192, 4).unwrap(), vec![0u8; 4]);
        // Empty batch: no transaction, no version change; the log force
        // is a no-op because nothing is pending after the sync above.
        let after = ep.journal().stats();
        let st2 = v.write_vec(&cred(), f.fid, &[]).unwrap();
        assert_eq!(st2.data_version, st.data_version);
        assert_eq!(ep.journal().stats().since(&after).txns_begun, 0);
    }

    fn page(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    fn extent(offset: usize, data: Vec<u8>) -> dfs_vfs::WriteExtent {
        dfs_vfs::WriteExtent { offset: offset as u64, data }
    }

    /// Opens the aggregate on `disk` again, as after a crash, and mounts
    /// volume 1.
    fn reopen(disk: &dfs_disk::SimDisk) -> (Arc<Episode>, Arc<dyn VfsPlus>) {
        let (ep, _) = Episode::open(disk.clone(), dfs_types::SimClock::new()).unwrap();
        let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        (ep, vol)
    }

    #[test]
    fn a_16_page_write_vec_costs_two_disk_syncs() {
        let (ep, v) = mounted();
        let f = v.create(&cred(), v.root().unwrap(), "pages", 0o644).unwrap().fid;
        // Four extents of four pages, with holes between them.
        let extents: Vec<_> =
            (0..16).map(|i| extent((i + i / 4) * BLOCK_SIZE, page(i as u8))).collect();
        let before = ep.disk().stats();
        v.write_vec(&cred(), f, &extents).unwrap();
        let d = ep.disk().stats().since(&before);
        // The log's group commit and one flush for all sixteen blocks.
        assert_eq!(d.syncs, 2);
        for e in &extents {
            assert_eq!(v.read(&cred(), f, e.offset, BLOCK_SIZE).unwrap(), e.data);
        }
    }

    #[test]
    fn a_full_page_store_reads_nothing_and_a_partial_one_reads_its_page() {
        let (ep, v) = mounted();
        let disk = ep.disk().clone();
        let f = v.create(&cred(), v.root().unwrap(), "pages", 0o644).unwrap().fid;
        let reads = disk.stats().reads;
        let pages: Vec<_> = (0..3).map(|i| extent(i * BLOCK_SIZE, page(i as u8 + 1))).collect();
        v.write_vec(&cred(), f, &pages).unwrap();
        assert_eq!(disk.stats().reads, reads, "fresh blocks, overwritten whole: no read");
        // Acknowledged, the pages survive a crash that loses the disk cache.
        drop((ep, v));
        disk.crash(None);
        disk.power_on();
        let (ep, v) = reopen(&disk);
        // A partial store warms the metadata it needs, and reads its page.
        v.write_vec(&cred(), f, &[extent(10, page(4)[..100].to_vec())]).unwrap();
        let reads = disk.stats().reads;
        v.write_vec(&cred(), f, &[extent(BLOCK_SIZE + 10, page(5)[..100].to_vec())]).unwrap();
        assert_eq!(disk.stats().reads, reads + 1, "a partial page is read, then changed");
        // A whole page over an uncached block reads nothing.
        let reads = disk.stats().reads;
        v.write_vec(&cred(), f, &[extent(2 * BLOCK_SIZE, page(6))]).unwrap();
        assert_eq!(disk.stats().reads, reads);
        drop((ep, v));
        disk.crash(None);
        disk.power_on();
        let (_ep, v) = reopen(&disk);
        let back = v.read(&cred(), f, 0, 3 * BLOCK_SIZE).unwrap();
        for (i, (old, new)) in [(1, 4), (2, 5)].into_iter().enumerate() {
            let at = i * BLOCK_SIZE;
            assert_eq!(back[at..at + 10], [old; 10], "page {i} keeps its head");
            assert_eq!(back[at + 10..at + 110], [new; 100], "page {i}");
            assert_eq!(back[at + 110..at + BLOCK_SIZE], [old; BLOCK_SIZE - 110], "page {i}");
        }
        assert_eq!(back[2 * BLOCK_SIZE..], page(6)[..]);
    }

    #[test]
    fn a_full_page_store_over_a_block_shared_with_a_clone_copies_it() {
        let (ep, v) = mounted();
        let f = v.create(&cred(), v.root().unwrap(), "shared", 0o644).unwrap().fid;
        v.write_vec(&cred(), f, &[extent(0, page(5))]).unwrap();
        Episode::clone_volume(&ep, VolumeId(1), VolumeId(2), "snap").unwrap();
        v.write_vec(&cred(), f, &[extent(0, page(6))]).unwrap();
        let snap = PhysicalFs::mount(&*ep, VolumeId(2)).unwrap();
        let sf = Fid { volume: VolumeId(2), ..f };
        assert_eq!(snap.read(&cred(), sf, 0, BLOCK_SIZE).unwrap(), page(5));
        assert_eq!(v.read(&cred(), f, 0, BLOCK_SIZE).unwrap(), page(6));
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn a_partial_store_over_a_block_shared_with_a_clone_reads_only_that_block() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let files: Vec<Fid> = ["warm", "cold"]
            .map(|name| v.create(&cred(), root, name, 0o644).unwrap().fid)
            .into();
        for &f in &files {
            v.write_vec(&cred(), f, &[extent(0, page(5))]).unwrap();
        }
        Episode::clone_volume(&ep, VolumeId(1), VolumeId(2), "snap").unwrap();
        ep.sync_all().unwrap();
        let disk = ep.disk().clone();
        drop((ep, v));
        let (ep, v) = reopen(&disk);
        // The first store warms the metadata both files share; the
        // second meets only its own uncached, shared data block. The
        // copy it gets is written whole, so only the original is read.
        v.write_vec(&cred(), files[0], &[extent(10, vec![6; 100])]).unwrap();
        let reads = disk.stats().reads;
        v.write_vec(&cred(), files[1], &[extent(10, vec![6; 100])]).unwrap();
        assert_eq!(disk.stats().reads, reads + 1, "the shared block, and not its fresh copy");
        let snap = PhysicalFs::mount(&*ep, VolumeId(2)).unwrap();
        for &f in &files {
            let sf = Fid { volume: VolumeId(2), ..f };
            assert_eq!(snap.read(&cred(), sf, 0, BLOCK_SIZE).unwrap(), page(5));
            let back = v.read(&cred(), f, 0, BLOCK_SIZE).unwrap();
            assert_eq!(back[..10], [5; 10]);
            assert_eq!(back[10..110], [6; 100]);
            assert_eq!(back[110..], [5; BLOCK_SIZE - 110]);
        }
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn a_full_page_store_onto_bad_media_fails() {
        let (ep, v) = mounted();
        let disk = ep.disk().clone();
        let f = v.create(&cred(), v.root().unwrap(), "bad", 0o644).unwrap().fid;
        v.write_vec(&cred(), f, &[extent(0, page(1))]).unwrap();
        let (_, header) = ep.voltable_find(VolumeId(1)).unwrap().unwrap();
        let slot = ep.vnode_get(header, f.vnode.0).unwrap();
        let block = ep.map_block(&ep.read_anode(slot).unwrap(), 0).unwrap();
        ep.sync_all().unwrap();
        drop((ep, v));
        disk.inject_media_failure(block, block + 1);
        // Cold: the store reads nothing, so only its write-back meets the
        // bad block, and the reply must say so.
        let (ep, v) = reopen(&disk);
        let err = v.write_vec(&cred(), f, &[extent(0, page(2))]).unwrap_err();
        assert_eq!(err, DfsError::MediaFailure);
        // The unstored page is not left behind as a dirty frame that can
        // never come home: checkpoints go on, the log tail with them.
        ep.sync_all().unwrap();
        ep.journal().checkpoint().unwrap();
        ep.journal().checkpoint().unwrap();
        let g = v.create(&cred(), v.root().unwrap(), "good", 0o644).unwrap().fid;
        v.write_vec(&cred(), g, &[extent(0, page(3))]).unwrap();
        // Nor is it served from the cache: the block's bad media answers.
        assert_eq!(v.read(&cred(), f, 0, BLOCK_SIZE).unwrap_err(), DfsError::MediaFailure);
        drop((ep, v));
        disk.crash(None);
        disk.power_on();
        let (_ep, v) = reopen(&disk);
        assert_eq!(v.read(&cred(), g, 0, BLOCK_SIZE).unwrap(), page(3));
        assert_eq!(v.read(&cred(), f, 0, BLOCK_SIZE).unwrap_err(), DfsError::MediaFailure);
    }

    #[test]
    fn write_vec_respects_permissions_and_read_only() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "guarded", 0o600).unwrap();
        let ext = vec![dfs_vfs::WriteExtent { offset: 0, data: vec![1u8; 16] }];
        // Non-owner without write bits is rejected.
        assert_eq!(
            v.write_vec(&Credentials::user(42), f.fid, &ext).unwrap_err(),
            DfsError::PermissionDenied
        );
        // Read-only clones refuse the batch outright.
        Episode::clone_volume(&ep, VolumeId(1), VolumeId(2), "snap").unwrap();
        let snap = PhysicalFs::mount(&*ep, VolumeId(2)).unwrap();
        let froot = snap.root().unwrap();
        let fs = snap.lookup(&cred(), froot, "guarded").unwrap();
        assert_eq!(
            snap.write_vec(&cred(), fs.fid, &ext).unwrap_err(),
            DfsError::ReadOnlyVolume
        );
    }

    #[test]
    fn mkdir_and_nested_paths() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let d1 = v.mkdir(&cred(), root, "a", 0o755).unwrap();
        let d2 = v.mkdir(&cred(), d1.fid, "b", 0o755).unwrap();
        let f = v.create(&cred(), d2.fid, "deep.txt", 0o644).unwrap();
        let hit = v.lookup(&cred(), d1.fid, "b").unwrap();
        assert_eq!(hit.fid, d2.fid);
        assert!(hit.is_dir());
        let hit = v.lookup(&cred(), d2.fid, "deep.txt").unwrap();
        assert_eq!(hit.fid, f.fid);
        // Parent nlink grew for the subdirectory.
        let rst = v.getattr(&cred(), root).unwrap();
        assert_eq!(rst.nlink, 3);
    }

    #[test]
    fn duplicate_create_fails() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        v.create(&cred(), root, "x", 0o644).unwrap();
        assert_eq!(v.create(&cred(), root, "x", 0o644).unwrap_err(), DfsError::Exists);
        assert_eq!(v.mkdir(&cred(), root, "x", 0o755).unwrap_err(), DfsError::Exists);
    }

    #[test]
    fn remove_frees_and_stales_fid() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "gone", 0o644).unwrap();
        v.write(&cred(), f.fid, 0, &vec![1u8; 10000]).unwrap();
        let st = v.remove(&cred(), root, "gone").unwrap();
        assert_eq!(st.nlink, 0);
        assert_eq!(v.lookup(&cred(), root, "gone").unwrap_err(), DfsError::NotFound);
        assert_eq!(v.getattr(&cred(), f.fid).unwrap_err(), DfsError::StaleFid);
        // Blocks were reclaimed.
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn hard_links_share_data() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "orig", 0o644).unwrap();
        v.write(&cred(), f.fid, 0, b"shared").unwrap();
        let linked = v.link(&cred(), root, "alias", f.fid).unwrap();
        assert_eq!(linked.nlink, 2);
        assert_eq!(v.read(&cred(), f.fid, 0, 16).unwrap(), b"shared");
        let via_alias = v.lookup(&cred(), root, "alias").unwrap();
        assert_eq!(via_alias.fid, f.fid);
        // Removing one name keeps the file alive.
        v.remove(&cred(), root, "orig").unwrap();
        assert_eq!(v.read(&cred(), f.fid, 0, 16).unwrap(), b"shared");
        v.remove(&cred(), root, "alias").unwrap();
        assert_eq!(v.getattr(&cred(), f.fid).unwrap_err(), DfsError::StaleFid);
    }

    #[test]
    fn rmdir_requires_empty() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let d = v.mkdir(&cred(), root, "dir", 0o755).unwrap();
        v.create(&cred(), d.fid, "child", 0o644).unwrap();
        assert_eq!(v.rmdir(&cred(), root, "dir").unwrap_err(), DfsError::NotEmpty);
        v.remove(&cred(), d.fid, "child").unwrap();
        v.rmdir(&cred(), root, "dir").unwrap();
        assert_eq!(v.lookup(&cred(), root, "dir").unwrap_err(), DfsError::NotFound);
    }

    /// `rmdir` checks that the child is empty under the child's lock. A
    /// create holds that lock from its check to its insert; here the test
    /// plays it, inserting an entry (a second link to a file) under the
    /// lock while `rmdir` runs. Whether `rmdir` has started by then or
    /// not, it must see the entry: it cannot read the child before the
    /// lock is let go. The bounded wait only gives an `rmdir` that does
    /// not take the lock the time to finish first.
    #[test]
    fn rmdir_checks_emptiness_under_the_childs_lock() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let d = v.mkdir(&cred(), root, "d", 0o755).unwrap().fid;
        let f = v.create(&cred(), root, "f", 0o644).unwrap().fid;
        let header = ep.voltable_find(VolumeId(1)).unwrap().unwrap().1;
        let dslot = ep.vnode_get(header, d.vnode.0).unwrap();
        let fslot = ep.vnode_get(header, f.vnode.0).unwrap();
        let held = ep.anode_lock(dslot).write();
        std::thread::scope(|s| {
            let rmdir = s.spawn(|| v.rmdir(&cred(), root, "d"));
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
            while !rmdir.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            ep.txn(|txn| {
                let (mut dir, mut file) = (ep.read_anode(dslot)?, ep.read_anode(fslot)?);
                let kind = AnodeKind::File.to_byte();
                let entry = RawDirEntry { name: "g".into(), vnode: f.vnode.0, uniq: f.uniq, kind };
                ep.dir_insert(txn, &mut dir, &entry)?;
                ep.write_anode(txn, dslot, &dir)?;
                file.nlink += 1;
                ep.write_anode(txn, fslot, &file)
            })
            .unwrap();
            drop(held);
            assert_eq!(rmdir.join().unwrap(), Err(DfsError::NotEmpty));
        });
        assert_eq!(v.lookup(&cred(), d, "g").unwrap().fid, f);
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn rename_within_and_across_directories() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let d = v.mkdir(&cred(), root, "sub", 0o755).unwrap();
        let f = v.create(&cred(), root, "a", 0o644).unwrap();
        v.write(&cred(), f.fid, 0, b"content").unwrap();
        // Same-directory rename.
        v.rename(&cred(), root, "a", root, "b").unwrap();
        assert_eq!(v.lookup(&cred(), root, "b").unwrap().fid, f.fid);
        assert!(v.lookup(&cred(), root, "a").is_err());
        // Cross-directory rename.
        v.rename(&cred(), root, "b", d.fid, "c").unwrap();
        assert_eq!(v.lookup(&cred(), d.fid, "c").unwrap().fid, f.fid);
        assert_eq!(v.read(&cred(), f.fid, 0, 16).unwrap(), b"content");
    }

    #[test]
    fn rename_replaces_existing_target() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let a = v.create(&cred(), root, "a", 0o644).unwrap();
        let b = v.create(&cred(), root, "b", 0o644).unwrap();
        v.write(&cred(), a.fid, 0, b"AAA").unwrap();
        v.write(&cred(), b.fid, 0, b"BBB").unwrap();
        v.rename(&cred(), root, "a", root, "b").unwrap();
        let now_b = v.lookup(&cred(), root, "b").unwrap();
        assert_eq!(now_b.fid, a.fid, "a took over the name b");
        assert_eq!(v.getattr(&cred(), b.fid).unwrap_err(), DfsError::StaleFid);
        assert_eq!(v.readdir(&cred(), root).unwrap().len(), 1);
    }

    #[test]
    fn rename_into_a_file_is_not_directory() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        v.create(&cred(), root, "x", 0o644).unwrap();
        let file = v.create(&cred(), root, "plain", 0o644).unwrap();
        assert_eq!(
            v.rename(&cred(), root, "x", file.fid, "y").unwrap_err(),
            DfsError::NotDirectory
        );
        assert_eq!(v.getattr(&cred(), file.fid).unwrap().length, 0);
        assert!(v.lookup(&cred(), root, "x").is_ok());
        assert!(ep.salvage().unwrap().is_clean());
    }

    #[test]
    fn rename_refuses_a_kind_mismatch() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        v.create(&cred(), root, "f", 0o644).unwrap();
        v.mkdir(&cred(), root, "d", 0o755).unwrap();
        assert_eq!(v.rename(&cred(), root, "f", root, "d").unwrap_err(), DfsError::IsDirectory);
        assert_eq!(v.rename(&cred(), root, "d", root, "f").unwrap_err(), DfsError::NotDirectory);
        let sub = v.mkdir(&cred(), root, "sub", 0o755).unwrap();
        v.create(&cred(), sub.fid, "f", 0o644).unwrap();
        v.mkdir(&cred(), sub.fid, "d", 0o755).unwrap();
        assert_eq!(v.rename(&cred(), root, "f", sub.fid, "d").unwrap_err(), DfsError::IsDirectory);
        assert_eq!(v.rename(&cred(), root, "d", sub.fid, "f").unwrap_err(), DfsError::NotDirectory);
        assert_eq!(v.readdir(&cred(), root).unwrap().len(), 3);
        assert!(ep.salvage().unwrap().is_clean());
    }

    #[test]
    fn replacing_an_empty_directory_drops_its_parents_link() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        v.mkdir(&cred(), root, "a", 0o755).unwrap();
        v.mkdir(&cred(), root, "b", 0o755).unwrap();
        v.rename(&cred(), root, "a", root, "b").unwrap();
        assert_eq!(v.getattr(&cred(), root).unwrap().nlink, 3);
        let (src, dst) = (
            v.mkdir(&cred(), root, "src", 0o755).unwrap().fid,
            v.mkdir(&cred(), root, "dst", 0o755).unwrap().fid,
        );
        v.mkdir(&cred(), src, "a", 0o755).unwrap();
        v.mkdir(&cred(), dst, "b", 0o755).unwrap();
        v.rename(&cred(), src, "a", dst, "b").unwrap();
        assert_eq!(v.getattr(&cred(), src).unwrap().nlink, 2);
        assert_eq!(v.getattr(&cred(), dst).unwrap().nlink, 3);
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn rename_within_a_directory_needs_insert_rights() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        v.create(&cred(), root, "x", 0o644).unwrap();
        let mut acl = Acl::new();
        acl.push(dfs_types::AclEntry::allow(
            dfs_types::Principal::User(7),
            Rights::DELETE | Rights::EXECUTE | Rights::READ,
        ));
        v.set_acl(&cred(), root, &acl).unwrap();
        let seven = Credentials::user(7);
        assert_eq!(v.create(&seven, root, "y", 0o644).unwrap_err(), DfsError::PermissionDenied);
        assert_eq!(
            v.rename(&seven, root, "x", root, "y").unwrap_err(),
            DfsError::PermissionDenied
        );
        assert!(v.lookup(&cred(), root, "x").is_ok());
    }

    #[test]
    fn rename_refuses_to_move_a_directory_into_its_own_subtree() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let a = v.mkdir(&cred(), root, "a", 0o755).unwrap().fid;
        let b = v.mkdir(&cred(), a, "b", 0o755).unwrap().fid;
        let c = v.mkdir(&cred(), b, "c", 0o755).unwrap().fid;
        for (into, name) in [(b, "a2"), (c, "a3"), (a, "a4")] {
            let err = v.rename(&cred(), root, "a", into, name).unwrap_err();
            assert_eq!(err, DfsError::InvalidArgument, "into {name}'s parent");
            assert_eq!(v.lookup(&cred(), into, name).unwrap_err(), DfsError::NotFound);
        }
        assert_eq!(v.rename(&cred(), a, "b", c, "b2").unwrap_err(), DfsError::InvalidArgument);
        // The tree is as it was.
        assert_eq!(v.lookup(&cred(), root, "a").unwrap().fid, a);
        assert_eq!(v.lookup(&cred(), a, "b").unwrap().fid, b);
        assert_eq!(v.lookup(&cred(), b, "c").unwrap().fid, c);
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
        // Up the tree, or into a sibling's, is a move like any other.
        v.rename(&cred(), b, "c", root, "c").unwrap();
        v.rename(&cred(), root, "a", c, "a").unwrap();
        assert_eq!(v.lookup(&cred(), c, "a").unwrap().fid, a);
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn rename_onto_another_link_of_the_same_file_is_a_no_op() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let sub = v.mkdir(&cred(), root, "sub", 0o755).unwrap();
        let f = v.create(&cred(), root, "a", 0o644).unwrap();
        v.link(&cred(), root, "b", f.fid).unwrap();
        v.link(&cred(), sub.fid, "c", f.fid).unwrap();
        v.rename(&cred(), root, "a", root, "b").unwrap();
        v.rename(&cred(), root, "a", sub.fid, "c").unwrap();
        let mut names: Vec<String> =
            v.readdir(&cred(), root).unwrap().into_iter().map(|e| e.name).collect();
        names.sort();
        assert_eq!(names, ["a", "b", "sub"]);
        assert_eq!(v.readdir(&cred(), sub.fid).unwrap().len(), 1);
        assert_eq!(v.getattr(&cred(), f.fid).unwrap().nlink, 3);
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    /// How many transactions each mutating VFS+ op runs. Every one of
    /// them begins and ends in `Episode::txn`; a refactor of the op
    /// bodies must not move these counts, and no op may leave a
    /// transaction open. A mark extension (`keep_below_marks`) is not the
    /// op's: the table is the same with the marks far ahead and with
    /// every op's first draw passing one.
    #[test]
    fn each_mutating_op_runs_a_fixed_number_of_transactions() {
        for at_marks in [false, true] {
            let (table, extensions) = transactions_per_op(at_marks);
            let want = [
                ("create", 1),
                ("mkdir", 1),
                ("symlink", 1),
                ("link", 1),
                ("write", 1),
                ("write_vec", 1),
                ("setattr(mode)", 1),
                ("set_acl", 1),
                ("setattr(truncate)", 2),
                ("rename", 1),
                ("remove(a link)", 1),
                ("rmdir", 1),
                ("rename(replacing a file)", 1),
                ("remove(last link, data + ACL)", 1),
                ("remove(last link, empty)", 1),
                ("remove(last link, 100 blocks)", 2),
            ];
            assert_eq!(table, want, "at_marks {at_marks}");
            // At the marks, every op but `setattr(mode)` and `set_acl`
            // draws, and its first draw logs new marks.
            assert_eq!(extensions, if at_marks { 14 } else { 0 });
        }
    }

    /// Runs each mutating op once on a fresh volume; returns each op's
    /// transactions less its mark extensions, and the extensions. With
    /// `at_marks`, the live counters jump to their marks before each op.
    fn transactions_per_op(at_marks: bool) -> (Vec<(&'static str, u64)>, u64) {
        let (ep, v) = mounted();
        let header = ep.voltable_find(VolumeId(1)).unwrap().unwrap().1;
        let counters = ep.volume_counters(header).unwrap();
        let cred = cred();
        let root = v.root().unwrap();
        let (mut table, mut extensions) = (Vec::new(), 0);
        let mut txns = |what, op: &mut dyn FnMut()| {
            if at_marks {
                counters.resume_at_marks();
            }
            let (before, marks) = (ep.journal().stats(), counters.marks());
            op();
            let d = ep.journal().stats().since(&before);
            assert_eq!(d.commit_records, d.txns_begun, "{what}");
            assert_eq!(ep.journal().active_txns(), 0, "{what} left a transaction open");
            let extended = u64::from(counters.marks() != marks);
            extensions += extended;
            table.push((what, d.txns_begun - extended));
        };
        let c = &cred;
        let f = v.create(c, root, "f", 0o644).unwrap().fid;
        let acl = Acl::unix_default(0);
        let page = vec![dfs_vfs::WriteExtent { offset: 4096, data: vec![2u8; 4096] }];
        txns("create", &mut || _ = v.create(c, root, "e", 0o644).unwrap());
        txns("mkdir", &mut || _ = v.mkdir(c, root, "d", 0o755).unwrap());
        txns("symlink", &mut || _ = v.symlink(c, root, "s", "f").unwrap());
        txns("link", &mut || _ = v.link(c, root, "f2", f).unwrap());
        txns("write", &mut || _ = v.write(c, f, 0, &[1u8; 5000]).unwrap());
        txns("write_vec", &mut || _ = v.write_vec(c, f, &page).unwrap());
        let mode = SetAttrs { mode: Some(0o600), ..SetAttrs::default() };
        txns("setattr(mode)", &mut || _ = v.setattr(c, f, &mode).unwrap());
        txns("set_acl", &mut || v.set_acl(c, f, &acl).unwrap());
        txns("setattr(truncate)", &mut || _ = v.setattr(c, f, &SetAttrs::truncate(10)).unwrap());
        txns("rename", &mut || v.rename(c, root, "s", root, "s2").unwrap());
        txns("remove(a link)", &mut || _ = v.remove(c, root, "f2").unwrap());
        txns("rmdir", &mut || v.rmdir(c, root, "d").unwrap());
        v.create(c, root, "g", 0o644).unwrap();
        txns("rename(replacing a file)", &mut || v.rename(c, root, "g", root, "e").unwrap());
        txns("remove(last link, data + ACL)", &mut || _ = v.remove(c, root, "f").unwrap());
        txns("remove(last link, empty)", &mut || _ = v.remove(c, root, "e").unwrap());
        let big = v.create(c, root, "big", 0o644).unwrap().fid;
        v.write(c, big, 0, &vec![3u8; 100 * dfs_disk::BLOCK_SIZE]).unwrap();
        txns("remove(last link, 100 blocks)", &mut || {
            v.remove(c, root, "big").unwrap();
        });
        assert!(ep.salvage().unwrap().is_clean());
        (table, extensions)
    }

    #[test]
    fn readdir_lists_entries() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        for name in ["one", "two", "three"] {
            v.create(&cred(), root, name, 0o644).unwrap();
        }
        let mut names: Vec<String> =
            v.readdir(&cred(), root).unwrap().into_iter().map(|e| e.name).collect();
        names.sort();
        assert_eq!(names, vec!["one", "three", "two"]);
    }

    #[test]
    fn symlink_round_trip() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let s = v.symlink(&cred(), root, "ln", "/target/path").unwrap();
        assert_eq!(v.readlink(&cred(), s.fid).unwrap(), "/target/path");
        let st = v.lookup(&cred(), root, "ln").unwrap();
        assert_eq!(st.ftype, dfs_types::FileType::Symlink);
    }

    #[test]
    fn setattr_truncate_and_chmod() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "t", 0o644).unwrap();
        v.write(&cred(), f.fid, 0, &vec![9u8; 50_000]).unwrap();
        let st = v.setattr(&cred(), f.fid, &SetAttrs::truncate(100)).unwrap();
        assert_eq!(st.length, 100);
        assert_eq!(v.read(&cred(), f.fid, 0, 200).unwrap(), vec![9u8; 100]);
        let st = v
            .setattr(
                &cred(),
                f.fid,
                &SetAttrs { mode: Some(0o600), owner: Some(5), ..SetAttrs::default() },
            )
            .unwrap();
        assert_eq!(st.mode, 0o600);
        assert_eq!(st.owner, 5);
    }

    #[test]
    fn permissions_mode_bits() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let owner = Credentials::user(100);
        let other = Credentials::user(200);
        // Root dir is 0o755 owned by system; the owner can't insert.
        assert_eq!(
            v.create(&owner, root, "denied", 0o644).unwrap_err(),
            DfsError::PermissionDenied
        );
        // Open up the root for this test.
        v.setattr(&cred(), root, &SetAttrs { mode: Some(0o777), ..SetAttrs::default() })
            .unwrap();
        let f = v.create(&owner, root, "mine", 0o640).unwrap();
        assert_eq!(f.owner, 100);
        v.write(&owner, f.fid, 0, b"secret").unwrap();
        assert_eq!(
            v.read(&other, f.fid, 0, 10).unwrap_err(),
            DfsError::PermissionDenied
        );
        assert_eq!(
            v.write(&other, f.fid, 0, b"x").unwrap_err(),
            DfsError::PermissionDenied
        );
        // Group member may read (mode 0o640).
        let mut teammate = Credentials::user(300);
        teammate.groups.push(0);
        assert_eq!(v.read(&teammate, f.fid, 0, 6).unwrap(), b"secret");
    }

    #[test]
    fn acl_overrides_mode_bits() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "guarded", 0o777).unwrap();
        let mut acl = Acl::new();
        acl.push(dfs_types::AclEntry::allow(
            dfs_types::Principal::User(7),
            Rights::READ | Rights::WRITE,
        ));
        v.set_acl(&cred(), f.fid, &acl).unwrap();
        assert_eq!(v.get_acl(&cred(), f.fid).unwrap(), acl);
        let seven = Credentials::user(7);
        let eight = Credentials::user(8);
        v.write(&seven, f.fid, 0, b"ok").unwrap();
        assert_eq!(
            v.read(&eight, f.fid, 0, 2).unwrap_err(),
            DfsError::PermissionDenied,
            "mode bits said 0o777 but the ACL is authoritative"
        );
    }

    #[test]
    fn write_to_read_only_clone_fails() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "base", 0o644).unwrap();
        v.write(&cred(), f.fid, 0, b"v1").unwrap();
        Episode::clone_volume(&ep, VolumeId(1), VolumeId(2), "test.backup").unwrap();
        let snap = PhysicalFs::mount(&*ep, VolumeId(2)).unwrap();
        let sroot = snap.root().unwrap();
        let sf = snap.lookup(&cred(), sroot, "base").unwrap();
        assert_eq!(snap.read(&cred(), sf.fid, 0, 10).unwrap(), b"v1");
        assert_eq!(
            snap.write(&cred(), sf.fid, 0, b"nope").unwrap_err(),
            DfsError::ReadOnlyVolume
        );
        assert_eq!(
            snap.create(&cred(), sroot, "new", 0o644).unwrap_err(),
            DfsError::ReadOnlyVolume
        );
    }

    #[test]
    fn clone_preserves_snapshot_while_original_diverges() {
        let (ep, v) = mounted();
        let root = v.root().unwrap();
        let f = v.create(&cred(), root, "doc", 0o644).unwrap();
        v.write(&cred(), f.fid, 0, b"original contents").unwrap();
        Episode::clone_volume(&ep, VolumeId(1), VolumeId(2), "snap").unwrap();
        // Mutate the original after the clone.
        v.write(&cred(), f.fid, 0, b"MUTATED~~contents").unwrap();
        v.create(&cred(), root, "newfile", 0o644).unwrap();

        let snap = PhysicalFs::mount(&*ep, VolumeId(2)).unwrap();
        let sroot = snap.root().unwrap();
        let sf = snap.lookup(&cred(), sroot, "doc").unwrap();
        assert_eq!(snap.read(&cred(), sf.fid, 0, 32).unwrap(), b"original contents");
        assert!(snap.lookup(&cred(), sroot, "newfile").is_err(), "snapshot is frozen");
        assert_eq!(v.read(&cred(), f.fid, 0, 32).unwrap(), b"MUTATED~~contents");
        let report = ep.salvage().unwrap();
        assert!(report.is_clean(), "{:?}", report.problems);
    }

    #[test]
    fn stale_fid_after_recreate() {
        let (_ep, v) = mounted();
        let root = v.root().unwrap();
        let f1 = v.create(&cred(), root, "f", 0o644).unwrap();
        v.remove(&cred(), root, "f").unwrap();
        let f2 = v.create(&cred(), root, "f", 0o644).unwrap();
        assert_ne!(f1.fid, f2.fid, "uniquifier must differ on reuse");
        assert_eq!(v.getattr(&cred(), f1.fid).unwrap_err(), DfsError::StaleFid);
        assert!(v.getattr(&cred(), f2.fid).is_ok());
    }
}
