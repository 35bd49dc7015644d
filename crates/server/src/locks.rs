//! Server-side byte-range file locks.
//!
//! "Without holding a lock token, a client must call the server to set a
//! file lock" (§5.2). This table is where those server-mediated locks
//! live; clients holding lock tokens manage equivalent state locally.
//!
//! One map under one lock at rank `LOCK_TABLE`.

use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{ByteRange, DfsError, DfsResult, Fid, HostId};
use std::collections::HashMap;

/// One held lock.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HeldLock {
    owner: HostId,
    range: ByteRange,
    write: bool,
}

/// A per-server table of byte-range file locks.
#[derive(Default)]
pub struct LockTable {
    held: OrderedMutex<HashMap<Fid, Vec<HeldLock>>, { rank::LOCK_TABLE }>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// Sets a read or write lock, failing on conflict.
    ///
    /// Two read locks may overlap; a write lock conflicts with any
    /// overlapping lock held by another owner.
    pub fn set(&self, owner: HostId, fid: Fid, range: ByteRange, write: bool) -> DfsResult<()> {
        let mut locks = self.held.lock();
        let held = locks.entry(fid).or_default();
        for l in held.iter() {
            if l.owner != owner && l.range.overlaps(&range) && (l.write || write) {
                return Err(DfsError::LockConflict);
            }
        }
        held.push(HeldLock { owner, range, write });
        Ok(())
    }

    /// Releases `owner`'s locks over `range`, POSIX-style: only the
    /// requested bytes are unlocked. A held lock extending past either
    /// end of `range` is trimmed (or split in two, when `range` falls in
    /// its middle) rather than dropped wholesale.
    pub fn release(&self, owner: HostId, fid: Fid, range: ByteRange) {
        let mut locks = self.held.lock();
        if let Some(held) = locks.get_mut(&fid) {
            let mut kept = Vec::with_capacity(held.len());
            for l in held.drain(..) {
                if l.owner != owner || !l.range.overlaps(&range) {
                    kept.push(l);
                    continue;
                }
                if l.range.start < range.start {
                    kept.push(HeldLock {
                        owner: l.owner,
                        range: ByteRange::new(l.range.start, range.start),
                        write: l.write,
                    });
                }
                if range.end < l.range.end {
                    kept.push(HeldLock {
                        owner: l.owner,
                        range: ByteRange::new(range.end, l.range.end),
                        write: l.write,
                    });
                }
            }
            *held = kept;
            if held.is_empty() {
                locks.remove(&fid);
            }
        }
    }

    /// Releases everything held by `owner` (client death).
    pub fn release_owner(&self, owner: HostId) {
        let mut locks = self.held.lock();
        for held in locks.values_mut() {
            held.retain(|l| l.owner != owner);
        }
        locks.retain(|_, v| !v.is_empty());
    }

    /// Releases every lock on `fid`, whoever holds it: the file is gone.
    pub fn release_fid(&self, fid: Fid) {
        self.held.lock().remove(&fid);
    }

    /// Returns the number of locks held on `fid`.
    pub fn count(&self, fid: Fid) -> usize {
        self.held.lock().get(&fid).map_or(0, |v| v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_types::{ClientId, VnodeId, VolumeId};

    fn fid() -> Fid {
        Fid::new(VolumeId(1), VnodeId(1), 1)
    }

    fn host(n: u32) -> HostId {
        HostId::Client(ClientId(n))
    }

    #[test]
    fn read_locks_share_write_locks_exclude() {
        let t = LockTable::new();
        t.set(host(1), fid(), ByteRange::new(0, 10), false).unwrap();
        t.set(host(2), fid(), ByteRange::new(5, 15), false).unwrap();
        assert_eq!(
            t.set(host(3), fid(), ByteRange::new(0, 5), true).unwrap_err(),
            DfsError::LockConflict
        );
        t.set(host(3), fid(), ByteRange::new(20, 30), true).unwrap();
    }

    #[test]
    fn same_owner_may_overlap_itself() {
        let t = LockTable::new();
        t.set(host(1), fid(), ByteRange::new(0, 10), true).unwrap();
        t.set(host(1), fid(), ByteRange::new(5, 15), true).unwrap();
    }

    #[test]
    fn release_unblocks() {
        let t = LockTable::new();
        t.set(host(1), fid(), ByteRange::new(0, 10), true).unwrap();
        assert!(t.set(host(2), fid(), ByteRange::new(0, 10), false).is_err());
        t.release(host(1), fid(), ByteRange::new(0, 10));
        t.set(host(2), fid(), ByteRange::new(0, 10), false).unwrap();
    }

    #[test]
    fn release_of_subrange_keeps_remainders() {
        let t = LockTable::new();
        t.set(host(1), fid(), ByteRange::new(0, 100), true).unwrap();
        // Unlocking the middle splits the lock; both ends stay held.
        t.release(host(1), fid(), ByteRange::new(40, 60));
        assert_eq!(t.count(fid()), 2);
        t.set(host(2), fid(), ByteRange::new(40, 60), true).unwrap();
        assert_eq!(
            t.set(host(2), fid(), ByteRange::new(0, 40), false).unwrap_err(),
            DfsError::LockConflict,
            "left remainder still held"
        );
        assert_eq!(
            t.set(host(2), fid(), ByteRange::new(60, 100), false).unwrap_err(),
            DfsError::LockConflict,
            "right remainder still held"
        );
    }

    #[test]
    fn release_trims_overlapping_edge() {
        let t = LockTable::new();
        t.set(host(1), fid(), ByteRange::new(10, 30), true).unwrap();
        // Release a range overhanging the left edge: only [20, 30) stays.
        t.release(host(1), fid(), ByteRange::new(0, 20));
        assert_eq!(t.count(fid()), 1);
        t.set(host(2), fid(), ByteRange::new(10, 20), true).unwrap();
        assert_eq!(
            t.set(host(2), fid(), ByteRange::new(20, 30), true).unwrap_err(),
            DfsError::LockConflict
        );
    }

    #[test]
    fn release_owner_drops_everything() {
        let t = LockTable::new();
        t.set(host(1), fid(), ByteRange::new(0, 10), true).unwrap();
        t.set(host(1), Fid::new(VolumeId(1), VnodeId(2), 1), ByteRange::WHOLE, true).unwrap();
        t.set(host(2), fid(), ByteRange::new(20, 30), true).unwrap();
        t.release_owner(host(1));
        assert_eq!(t.count(fid()), 1, "another owner's lock stays");
        t.set(host(2), fid(), ByteRange::new(0, 10), true).unwrap();
    }

    #[test]
    fn release_fid_drops_every_owners_locks_on_that_file_only() {
        let t = LockTable::new();
        let other = Fid::new(VolumeId(1), VnodeId(1), 2);
        t.set(host(1), fid(), ByteRange::new(0, 10), true).unwrap();
        t.set(host(2), fid(), ByteRange::new(10, 20), false).unwrap();
        t.set(host(1), other, ByteRange::WHOLE, true).unwrap();
        t.release_fid(fid());
        assert_eq!(t.count(fid()), 0);
        assert_eq!(t.count(other), 1, "the slot's next incarnation keeps its locks");
    }
}
