//! Common types shared by every DEcorum file system subsystem.
//!
//! This crate deliberately has no dependencies beyond the standard library
//! and the lock primitives: it defines the vocabulary — identifiers,
//! errors, access rights, byte ranges, file status, the lock hierarchy,
//! the statistics counters — that the disk, journal, physical file
//! systems, token manager, protocol exporter, and cache manager all
//! speak.

pub mod acl;
pub mod clock;
pub mod counters;
pub mod error;
pub mod id;
pub mod lock;
pub mod range;
pub mod status;

pub use acl::{Acl, AclEntry, Principal, Rights};
pub use clock::{SimClock, Timestamp};
pub use error::{DfsError, DfsResult};
pub use id::{AggregateId, CellId, ClientId, Fid, HostId, ServerId, VnodeId, VolumeId};
pub use lock::{
    held_ranks, rank, LockRank, OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock,
    OrderedRwLockReadGuard, OrderedRwLockWriteGuard, OrderedShardGuard, OrderedShardedMutex,
};
pub use range::ByteRange;
pub use status::{FileStatus, FileType, SerializationStamp};
