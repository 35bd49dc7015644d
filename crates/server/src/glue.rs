//! The Vnode glue layer (§3.3, §5.1).
//!
//! "For each Vnode operation provided by a conventional file system, a
//! corresponding 'wrapper' operation is substituted that obtains tokens
//! and then performs the original operation." The glue layer is what
//! makes *local* access on a file server — and any non-DEcorum exporter
//! on the same host — synchronize with guarantees exported to remote
//! DEcorum clients: it is itself just another client of the token
//! manager (§5.1).
//!
//! The local host's revoke procedure blocks while a local operation is
//! in progress on the file (local callers hold tokens only for the
//! duration of a Vnode call, §5.5), then returns the token: the glue
//! never caches anything, so there is nothing to store back.

use dfs_token::{RevokeResult, Token, TokenHost, TokenManager, TokenTypes};
use dfs_types::{
    Acl, ByteRange, DfsError, DfsResult, FileStatus, Fid, HostId, SerializationStamp,
};
use dfs_types::lock::{rank, OrderedCondvar, OrderedMutex};
use dfs_vfs::{Credentials, DirEntry, SetAttrs, Vfs, VfsPlus};
use crate::{LockTable, DELETE, DIR_READ, DIR_WRITE};
use std::collections::HashMap;
use std::sync::Arc;

/// The glue layer's registration with the token manager: tracks which
/// fids have a local operation in flight so revocations wait for them.
pub struct LocalHost {
    id: HostId,
    active: OrderedMutex<HashMap<Fid, usize>, { rank::HOST_TABLE }>,
    cv: OrderedCondvar,
}

impl LocalHost {
    /// Creates the local host for a server.
    pub fn new(id: HostId) -> Arc<LocalHost> {
        Arc::new(LocalHost {
            id,
            active: OrderedMutex::new(HashMap::new()),
            cv: OrderedCondvar::new(),
        })
    }

    fn enter(&self, fid: Fid) {
        *self.active.lock().entry(fid).or_insert(0) += 1;
    }

    fn exit(&self, fid: Fid) {
        let mut active = self.active.lock();
        if let Some(n) = active.get_mut(&fid) {
            *n -= 1;
            if *n == 0 {
                active.remove(&fid);
            }
        }
        self.cv.notify_all();
    }
}

impl TokenHost for LocalHost {
    fn host_id(&self) -> HostId {
        self.id
    }

    fn revoke(
        &self,
        token: &Token,
        _types: TokenTypes,
        _stamp: SerializationStamp,
    ) -> RevokeResult {
        // Wait until no local operation is using this file, then yield.
        let mut active = self.active.lock();
        while active.contains_key(&token.fid) {
            self.cv.wait(&mut active);
        }
        RevokeResult::Returned
    }
}

/// The glue-wrapped view of a physical file system volume.
///
/// Presents the same VFS+ interface it is given ("transparent from the
/// point of view of the programmer"), but every operation first obtains
/// the tokens that make it serializable against remote holders.
pub struct Glue {
    fs: Arc<dyn VfsPlus>,
    tm: Arc<TokenManager>,
    host: Arc<LocalHost>,
    locks: Arc<LockTable>,
}

impl Glue {
    /// Wraps `fs` with token acquisition against `tm`; a local delete
    /// clears the server's `locks` of its victim.
    pub fn new(
        fs: Arc<dyn VfsPlus>,
        tm: Arc<TokenManager>,
        host: Arc<LocalHost>,
        locks: Arc<LockTable>,
    ) -> Glue {
        tm.register_host(host.clone());
        Glue { fs, tm, host, locks }
    }

    /// Runs `f`, lent the guard, while holding every token in `wants`.
    fn with_tokens<R, const N: usize>(
        &self,
        wants: [Want; N],
        f: impl FnOnce(&Granted<'_, N>) -> DfsResult<R>,
    ) -> DfsResult<R> {
        let fids = wants.map(|(fid, ..)| fid);
        // Local callers return tokens as soon as the call completes
        // (§5.5: "it can return the token any time after the VOP_RDWR
        // call has completed execution"): the guard's drop.
        let held = Granted::new(&self.tm, self.host.id, wants)?;
        fids.iter().for_each(|fid| self.host.enter(*fid));
        let result = f(&held);
        fids.iter().for_each(|fid| self.host.exit(*fid));
        result
    }
}

/// One token request: file, types, byte range.
pub(crate) type Want = (Fid, TokenTypes, ByteRange);

/// A request for `types` over the whole of `fid`.
pub(crate) fn whole(fid: Fid, types: TokenTypes) -> Want {
    (fid, types, ByteRange::WHOLE)
}

/// The tokens a rename takes: write tokens on both directories and — if
/// `dst_name` exists, the rename replaces it, perhaps its last link —
/// [`DELETE`] on that target, which the caller [`retire`](Granted::retire)s
/// if it is [`gone`] afterwards. With no target the destination directory
/// is listed twice (granted once).
pub(crate) fn rename_wants(
    fs: &dyn Vfs,
    cred: &Credentials,
    (src_dir, dst_dir, dst_name): (Fid, Fid, &str),
) -> DfsResult<([Want; 3], Option<Fid>)> {
    let target = match fs.lookup(cred, dst_dir, dst_name) {
        Err(DfsError::NotFound) => None,
        found => Some(found?.fid),
    };
    let third = target.map_or(whole(dst_dir, DIR_WRITE), |fid| whole(fid, DELETE));
    Ok(([whole(src_dir, DIR_WRITE), whole(dst_dir, DIR_WRITE), third], target))
}

/// A rename's replaced target, if that was its last link: if it no
/// longer resolves.
pub(crate) fn gone(fs: &dyn Vfs, cred: &Credentials, target: Option<Fid>) -> Option<Fid> {
    target.filter(|fid| fs.getattr(cred, *fid) == Err(DfsError::StaleFid))
}

/// Tokens granted to `host` for the duration of one operation — the
/// "obtain tokens, then perform the original operation" step of §3.3,
/// shared by the glue layer and the server procedures.
///
/// Grants are taken in fid order whatever order the caller lists them
/// in, so two multi-file operations cannot deadlock against each other;
/// a fid listed twice (rename within one directory) is granted once,
/// as first listed. Dropping the guard releases every token it still
/// holds, so an error or early return after a partial grant leaks
/// nothing.
pub(crate) struct Granted<'a, const N: usize> {
    tm: &'a TokenManager,
    host: HostId,
    /// Indexed like the caller's list; `None` = duplicate fid or kept.
    held: [Option<Token>; N],
    /// The serialization stamp of the grant on the first-listed file.
    pub(crate) stamp: SerializationStamp,
}

impl<'a, const N: usize> Granted<'a, N> {
    pub(crate) fn new(tm: &'a TokenManager, host: HostId, wants: [Want; N]) -> DfsResult<Self> {
        let mut order: [usize; N] = std::array::from_fn(|i| i);
        order.sort_by_key(|&i| wants[i].0);
        let mut granted =
            Granted { tm, host, held: [const { None }; N], stamp: SerializationStamp::default() };
        let mut last = None;
        for i in order {
            let (fid, types, range) = wants[i];
            if last.replace(fid) == Some(fid) {
                continue;
            }
            let (token, stamp) = tm.grant(host, fid, types, range)?;
            granted.held[i] = Some(token);
            if i == 0 {
                granted.stamp = stamp;
            }
        }
        Ok(granted)
    }

    /// Hands the first-listed file's token to the caller instead of
    /// releasing it; the rest are released.
    pub(crate) fn keep_first(mut self) -> Token {
        self.held[0].take().expect("the first-listed want is always granted")
    }

    /// Token lifetime follows the file: `victim`, on which this guard
    /// holds [`DELETE`] (a directory: `DIR_WRITE`), was just destroyed,
    /// so every grant on it — the caller's cached ones, this guard's own
    /// — leaves the table now, with its byte-range locks: while the
    /// write tokens that revoked every other host's copy are still held.
    pub(crate) fn retire(&self, locks: &LockTable, victim: Fid) {
        self.tm.retire_fid(victim);
        locks.release_fid(victim);
    }
}

impl<const N: usize> Drop for Granted<'_, N> {
    fn drop(&mut self) {
        for token in self.held.iter().flatten() {
            self.tm.release_on(self.host, token.fid, token.id);
        }
    }
}

impl Vfs for Glue {
    fn volume_id(&self) -> dfs_types::VolumeId {
        self.fs.volume_id()
    }

    fn root(&self) -> DfsResult<Fid> {
        self.fs.root()
    }

    fn lookup(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_READ)], |_| self.fs.lookup(cred, dir, name))
    }

    fn create(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_WRITE)], |_| self.fs.create(cred, dir, name, mode))
    }

    fn mkdir(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_WRITE)], |_| self.fs.mkdir(cred, dir, name, mode))
    }

    fn symlink(
        &self,
        cred: &Credentials,
        dir: Fid,
        name: &str,
        target: &str,
    ) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_WRITE)], |_| {
            self.fs.symlink(cred, dir, name, target)
        })
    }

    fn link(&self, cred: &Credentials, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_WRITE), whole(target, TokenTypes::STATUS_WRITE)], |_| {
            self.fs.link(cred, dir, name, target)
        })
    }

    fn remove(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        let victim = self.fs.lookup(cred, dir, name)?;
        self.with_tokens([whole(dir, DIR_WRITE), whole(victim.fid, DELETE)], |held| {
            let status = self.fs.remove(cred, dir, name)?;
            if status.nlink == 0 {
                held.retire(&self.locks, status.fid);
            }
            Ok(status)
        })
    }

    fn rmdir(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<()> {
        let victim = self.fs.lookup(cred, dir, name)?;
        self.with_tokens([whole(dir, DIR_WRITE), whole(victim.fid, DIR_WRITE)], |held| {
            self.fs.rmdir(cred, dir, name)?;
            held.retire(&self.locks, victim.fid);
            Ok(())
        })
    }

    fn rename(
        &self,
        cred: &Credentials,
        src_dir: Fid,
        src_name: &str,
        dst_dir: Fid,
        dst_name: &str,
    ) -> DfsResult<()> {
        let (wants, target) = rename_wants(&*self.fs, cred, (src_dir, dst_dir, dst_name))?;
        self.with_tokens(wants, |held| {
            self.fs.rename(cred, src_dir, src_name, dst_dir, dst_name)?;
            if let Some(fid) = gone(&*self.fs, cred, target) {
                held.retire(&self.locks, fid);
            }
            Ok(())
        })
    }

    fn readdir(&self, cred: &Credentials, dir: Fid) -> DfsResult<Vec<DirEntry>> {
        self.with_tokens([whole(dir, DIR_READ)], |_| self.fs.readdir(cred, dir))
    }

    fn read(&self, cred: &Credentials, file: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        let types = TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0);
        self.with_tokens([(file, types, ByteRange::at(offset, len as u64))], |_| {
            self.fs.read(cred, file, offset, len)
        })
    }

    fn write(
        &self,
        cred: &Credentials,
        file: Fid,
        offset: u64,
        data: &[u8],
    ) -> DfsResult<FileStatus> {
        let types = TokenTypes(TokenTypes::DATA_WRITE.0 | TokenTypes::STATUS_WRITE.0);
        self.with_tokens([(file, types, ByteRange::at(offset, data.len() as u64))], |_| {
            self.fs.write(cred, file, offset, data)
        })
    }

    fn getattr(&self, cred: &Credentials, file: Fid) -> DfsResult<FileStatus> {
        self.with_tokens([whole(file, TokenTypes::STATUS_READ)], |_| {
            self.fs.getattr(cred, file)
        })
    }

    fn setattr(&self, cred: &Credentials, file: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus> {
        let types = if attrs.length.is_some() {
            TokenTypes(TokenTypes::STATUS_WRITE.0 | TokenTypes::DATA_WRITE.0)
        } else {
            TokenTypes::STATUS_WRITE
        };
        self.with_tokens([whole(file, types)], |_| self.fs.setattr(cred, file, attrs))
    }

    fn readlink(&self, cred: &Credentials, file: Fid) -> DfsResult<String> {
        self.with_tokens([whole(file, TokenTypes::DATA_READ)], |_| {
            self.fs.readlink(cred, file)
        })
    }

    fn fsync(&self, cred: &Credentials, file: Fid) -> DfsResult<()> {
        self.fs.fsync(cred, file)
    }

    fn sync(&self) -> DfsResult<()> {
        self.fs.sync()
    }
}

impl VfsPlus for Glue {
    fn get_acl(&self, cred: &Credentials, file: Fid) -> DfsResult<Acl> {
        self.with_tokens([whole(file, TokenTypes::STATUS_READ)], |_| {
            self.fs.get_acl(cred, file)
        })
    }

    fn set_acl(&self, cred: &Credentials, file: Fid, acl: &Acl) -> DfsResult<()> {
        self.with_tokens([whole(file, TokenTypes::STATUS_WRITE)], |_| {
            self.fs.set_acl(cred, file, acl)
        })
    }
}
