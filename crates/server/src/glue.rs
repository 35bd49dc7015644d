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
    Acl, ByteRange, DfsResult, FileStatus, Fid, HostId, SerializationStamp,
};
use dfs_types::lock::{rank, OrderedCondvar, OrderedMutex};
use dfs_vfs::{Credentials, DirEntry, SetAttrs, Vfs, VfsPlus};
use crate::{DIR_READ, DIR_WRITE};
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
}

impl Glue {
    /// Wraps `fs` with token acquisition against `tm`.
    pub fn new(fs: Arc<dyn VfsPlus>, tm: Arc<TokenManager>, host: Arc<LocalHost>) -> Glue {
        tm.register_host(host.clone());
        Glue { fs, tm, host }
    }

    /// Runs `f` while holding every token in `wants`.
    fn with_tokens<R, const N: usize>(
        &self,
        wants: [Want; N],
        f: impl FnOnce() -> DfsResult<R>,
    ) -> DfsResult<R> {
        let fids = wants.map(|(fid, ..)| fid);
        // Local callers return tokens as soon as the call completes
        // (§5.5: "it can return the token any time after the VOP_RDWR
        // call has completed execution"): the guard's drop.
        let _held = Granted::new(&self.tm, self.host.id, wants)?;
        fids.iter().for_each(|fid| self.host.enter(*fid));
        let result = f();
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
}

impl<const N: usize> Drop for Granted<'_, N> {
    fn drop(&mut self) {
        for token in self.held.iter().flatten() {
            self.tm.release(self.host, token.id);
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
        self.with_tokens([whole(dir, DIR_READ)], || self.fs.lookup(cred, dir, name))
    }

    fn create(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_WRITE)], || self.fs.create(cred, dir, name, mode))
    }

    fn mkdir(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_WRITE)], || self.fs.mkdir(cred, dir, name, mode))
    }

    fn symlink(
        &self,
        cred: &Credentials,
        dir: Fid,
        name: &str,
        target: &str,
    ) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_WRITE)], || {
            self.fs.symlink(cred, dir, name, target)
        })
    }

    fn link(&self, cred: &Credentials, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus> {
        self.with_tokens([whole(dir, DIR_WRITE), whole(target, TokenTypes::STATUS_WRITE)], || {
            self.fs.link(cred, dir, name, target)
        })
    }

    fn remove(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        // Deleting needs assurance the file has no remote users (§5.4):
        // an exclusive-write open token on the victim.
        let victim = self.fs.lookup(cred, dir, name)?;
        let exclusive =
            TokenTypes(TokenTypes::OPEN_EXCLUSIVE_WRITE.0 | TokenTypes::STATUS_WRITE.0);
        self.with_tokens([whole(dir, DIR_WRITE), whole(victim.fid, exclusive)], || {
            self.fs.remove(cred, dir, name)
        })
    }

    fn rmdir(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<()> {
        let victim = self.fs.lookup(cred, dir, name)?;
        let wants = [whole(dir, DIR_WRITE), whole(victim.fid, TokenTypes::STATUS_WRITE)];
        self.with_tokens(wants, || self.fs.rmdir(cred, dir, name))
    }

    fn rename(
        &self,
        cred: &Credentials,
        src_dir: Fid,
        src_name: &str,
        dst_dir: Fid,
        dst_name: &str,
    ) -> DfsResult<()> {
        self.with_tokens([whole(src_dir, DIR_WRITE), whole(dst_dir, DIR_WRITE)], || {
            self.fs.rename(cred, src_dir, src_name, dst_dir, dst_name)
        })
    }

    fn readdir(&self, cred: &Credentials, dir: Fid) -> DfsResult<Vec<DirEntry>> {
        self.with_tokens([whole(dir, DIR_READ)], || self.fs.readdir(cred, dir))
    }

    fn read(&self, cred: &Credentials, file: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        let types = TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0);
        self.with_tokens([(file, types, ByteRange::at(offset, len as u64))], || {
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
        self.with_tokens([(file, types, ByteRange::at(offset, data.len() as u64))], || {
            self.fs.write(cred, file, offset, data)
        })
    }

    fn getattr(&self, cred: &Credentials, file: Fid) -> DfsResult<FileStatus> {
        self.with_tokens([whole(file, TokenTypes::STATUS_READ)], || {
            self.fs.getattr(cred, file)
        })
    }

    fn setattr(&self, cred: &Credentials, file: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus> {
        let types = if attrs.length.is_some() {
            TokenTypes(TokenTypes::STATUS_WRITE.0 | TokenTypes::DATA_WRITE.0)
        } else {
            TokenTypes::STATUS_WRITE
        };
        self.with_tokens([whole(file, types)], || self.fs.setattr(cred, file, attrs))
    }

    fn readlink(&self, cred: &Credentials, file: Fid) -> DfsResult<String> {
        self.with_tokens([whole(file, TokenTypes::DATA_READ)], || {
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
        self.with_tokens([whole(file, TokenTypes::STATUS_READ)], || {
            self.fs.get_acl(cred, file)
        })
    }

    fn set_acl(&self, cred: &Credentials, file: Fid, acl: &Acl) -> DfsResult<()> {
        self.with_tokens([whole(file, TokenTypes::STATUS_WRITE)], || {
            self.fs.set_acl(cred, file, acl)
        })
    }
}
