//! Baseline distributed file systems for the §5.4 comparison.
//!
//! "In this section we compare tokens with the spectrum of distributed
//! file system semantic models": this crate reimplements the two
//! comparators exactly as the paper describes them —
//!
//! * **NFS-style** ([`NfsServer`]/[`NfsClient`]): "a page of cached file
//!   data is assumed to be valid for 3 seconds; if it is directory data,
//!   it is assumed to be valid for 30 seconds" — weak consistency *and*
//!   chatty validation traffic;
//! * **AFS-style** ([`AfsServer`]/[`AfsClient`]): whole-file caching
//!   with untyped callbacks; dirty data is stored back at `close`, so
//!   readers can see stale data between a writer's `write` and `close`,
//!   and disjoint sharers ship the entire file back and forth.
//!
//! Both are built on the same [`dfs_vfs::VfsPlus`] substrate and
//! [`dfs_rpc::Network`] as the DEcorum implementation, so experiment T3
//! and T4 measure protocol differences, not substrate differences.

pub mod afs;
pub mod nfs;

pub use afs::{AfsClient, AfsServer};
pub use nfs::{NfsClient, NfsServer};

use dfs_types::{DfsError, DfsResult, Fid, FileStatus};
use dfs_vfs::{Credentials, VfsPlus, WriteExtent};

/// A baseline server's store arm: applies a `StoreDataVec`'s extents
/// one plain `write` each, in order, and returns the last status.
fn write_extents(
    fs: &dyn VfsPlus,
    cred: &Credentials,
    fid: Fid,
    extents: &[WriteExtent],
) -> DfsResult<FileStatus> {
    let mut status = Err(DfsError::InvalidArgument);
    for e in extents {
        status = Ok(fs.write(cred, fid, e.offset, &e.data)?);
    }
    status
}
