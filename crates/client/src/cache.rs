//! The cache layer's page stores (§4.2).
//!
//! "In AFS clients, vnode status information is cached in memory, while
//! file data are cached in disk files provided by the 'native' physical
//! file system. This structure is carried over to DEcorum, with the
//! exception that an in-memory version of the data cache is provided as
//! an option, enabling diskless clients to be used."
//!
//! [`DiskCache`] stores pages on a local [`SimDisk`] (so experiments see
//! client disk traffic); [`MemCache`] is the diskless variant.

use dfs_disk::{SimDisk, BLOCK_SIZE};
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{DfsError, DfsResult, Fid};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Page size of the client data cache (one disk block).
pub const PAGE_SIZE: usize = BLOCK_SIZE;

/// A store for cached file pages, keyed by (fid, page index).
pub trait DataCache: Send + Sync {
    /// Reads a cached page, if present.
    fn read_page(&self, fid: Fid, page: u64) -> Option<Vec<u8>>;

    /// Appends bytes `s..e` of a cached page to `out`; false (and
    /// nothing appended) if the page is absent. [`MemCache`] copies
    /// straight from its store, with no page-sized copy between.
    fn read_into(&self, fid: Fid, page: u64, s: usize, e: usize, out: &mut Vec<u8>) -> bool {
        self.read_page(fid, page).map(|p| out.extend_from_slice(&p[s..e])).is_some()
    }

    /// Writes (or replaces) a cached page.
    fn write_page(&self, fid: Fid, page: u64, data: &[u8]) -> DfsResult<()>;

    /// Drops one page.
    fn drop_page(&self, fid: Fid, page: u64);

    /// Drops every page of a file.
    fn evict_file(&self, fid: Fid);

    /// Bytes currently cached. O(1) and lock-free in both built-in
    /// caches (a maintained counter), so monitoring and the write-behind
    /// budget checks never contend with the page maps.
    fn bytes_used(&self) -> u64;
}

/// In-memory page cache: the diskless-client option (§4.2).
#[derive(Default)]
pub struct MemCache {
    pages: OrderedMutex<HashMap<(Fid, u64), Vec<u8>>, { rank::CLIENT_DATA_CACHE }>,
    bytes: AtomicU64,
}

impl MemCache {
    /// Creates an empty cache.
    pub fn new() -> MemCache {
        MemCache::default()
    }
}

impl DataCache for MemCache {
    fn read_page(&self, fid: Fid, page: u64) -> Option<Vec<u8>> {
        self.pages.lock().get(&(fid, page)).cloned()
    }

    fn read_into(&self, fid: Fid, page: u64, s: usize, e: usize, out: &mut Vec<u8>) -> bool {
        self.pages.lock().get(&(fid, page)).map(|p| out.extend_from_slice(&p[s..e])).is_some()
    }

    fn write_page(&self, fid: Fid, page: u64, data: &[u8]) -> DfsResult<()> {
        let mut p = data.to_vec();
        p.resize(PAGE_SIZE, 0);
        if self.pages.lock().insert((fid, page), p).is_none() {
            self.bytes.fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    fn drop_page(&self, fid: Fid, page: u64) {
        if self.pages.lock().remove(&(fid, page)).is_some() {
            self.bytes.fetch_sub(PAGE_SIZE as u64, Ordering::Relaxed);
        }
    }

    fn evict_file(&self, fid: Fid) {
        let mut pages = self.pages.lock();
        let before = pages.len();
        pages.retain(|(f, _), _| *f != fid);
        let dropped = (before - pages.len()) as u64;
        self.bytes.fetch_sub(dropped * PAGE_SIZE as u64, Ordering::Relaxed);
    }

    fn bytes_used(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Disk-backed page cache using a local [`SimDisk`] partition, as an
/// AFS-style client caches in its native file system.
pub struct DiskCache {
    disk: SimDisk,
    inner: OrderedMutex<DiskCacheInner, { rank::CLIENT_DATA_CACHE }>,
    bytes: AtomicU64,
}

struct DiskCacheInner {
    /// (fid, page) → local disk block.
    index: HashMap<(Fid, u64), u32>,
    /// Free local blocks.
    free: Vec<u32>,
    /// LRU order for clean-page eviction (approximate: insertion order).
    order: Vec<(Fid, u64)>,
}

impl DiskCache {
    /// Creates a cache over the whole of `disk`.
    pub fn new(disk: SimDisk) -> DiskCache {
        let free = (0..disk.blocks()).rev().collect();
        DiskCache {
            disk,
            inner: OrderedMutex::new(DiskCacheInner {
                index: HashMap::new(),
                free,
                order: Vec::new(),
            }),
            bytes: AtomicU64::new(0),
        }
    }

    /// The underlying local disk (for traffic statistics).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }
}

impl DataCache for DiskCache {
    fn read_page(&self, fid: Fid, page: u64) -> Option<Vec<u8>> {
        let block = *self.inner.lock().index.get(&(fid, page))?;
        self.disk.read(block).ok().map(|b| b.to_vec())
    }

    fn write_page(&self, fid: Fid, page: u64, data: &[u8]) -> DfsResult<()> {
        let mut inner = self.inner.lock();
        let block = match inner.index.get(&(fid, page)) {
            Some(b) => *b,
            None => {
                let b = match inner.free.pop() {
                    Some(b) => {
                        self.bytes.fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
                        b
                    }
                    None => {
                        // Cache full: evict the oldest other page. One
                        // mapping replaces another, so `bytes` is net
                        // unchanged.
                        let victim = inner
                            .order
                            .iter()
                            .position(|k| *k != (fid, page))
                            .ok_or(DfsError::NoSpace)?;
                        let key = inner.order.remove(victim);
                        inner.index.remove(&key).expect("ordered page in index")
                    }
                };
                inner.index.insert((fid, page), b);
                inner.order.push((fid, page));
                b
            }
        };
        let mut buf = [0u8; PAGE_SIZE];
        buf[..data.len().min(PAGE_SIZE)].copy_from_slice(&data[..data.len().min(PAGE_SIZE)]);
        self.disk.write(block, &buf)?;
        Ok(())
    }

    fn drop_page(&self, fid: Fid, page: u64) {
        let mut inner = self.inner.lock();
        if let Some(b) = inner.index.remove(&(fid, page)) {
            inner.free.push(b);
            inner.order.retain(|k| *k != (fid, page));
            self.bytes.fetch_sub(PAGE_SIZE as u64, Ordering::Relaxed);
        }
    }

    fn evict_file(&self, fid: Fid) {
        let mut inner = self.inner.lock();
        let keys: Vec<(Fid, u64)> =
            inner.index.keys().filter(|(f, _)| *f == fid).copied().collect();
        let mut dropped = 0u64;
        for k in keys {
            if let Some(b) = inner.index.remove(&k) {
                inner.free.push(b);
                dropped += 1;
            }
        }
        inner.order.retain(|(f, _)| *f != fid);
        self.bytes.fetch_sub(dropped * PAGE_SIZE as u64, Ordering::Relaxed);
    }

    fn bytes_used(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_disk::DiskConfig;
    use dfs_types::{VnodeId, VolumeId};

    fn fid(n: u32) -> Fid {
        Fid::new(VolumeId(1), VnodeId(n), 1)
    }

    fn check_basic(cache: &dyn DataCache) {
        assert!(cache.read_page(fid(1), 0).is_none());
        cache.write_page(fid(1), 0, b"hello").unwrap();
        let p = cache.read_page(fid(1), 0).unwrap();
        assert_eq!(&p[..5], b"hello");
        assert_eq!(p.len(), PAGE_SIZE);
        cache.write_page(fid(1), 7, &[9u8; PAGE_SIZE]).unwrap();
        assert!(cache.bytes_used() >= 2 * PAGE_SIZE as u64);
        cache.drop_page(fid(1), 0);
        assert!(cache.read_page(fid(1), 0).is_none());
        assert!(cache.read_page(fid(1), 7).is_some());
        cache.evict_file(fid(1));
        assert!(cache.read_page(fid(1), 7).is_none());
    }

    #[test]
    fn mem_cache_basics() {
        check_basic(&MemCache::new());
    }

    #[test]
    fn disk_cache_basics() {
        let cache = DiskCache::new(SimDisk::new(DiskConfig::with_blocks(64)));
        check_basic(&cache);
    }

    #[test]
    fn disk_cache_charges_local_disk_traffic() {
        let disk = SimDisk::new(DiskConfig::with_blocks(64));
        let cache = DiskCache::new(disk.clone());
        cache.write_page(fid(1), 0, &[1u8; PAGE_SIZE]).unwrap();
        cache.read_page(fid(1), 0).unwrap();
        let s = disk.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn disk_cache_evicts_when_full() {
        let cache = DiskCache::new(SimDisk::new(DiskConfig::with_blocks(4)));
        for p in 0..4 {
            cache.write_page(fid(1), p, &[p as u8; 8]).unwrap();
        }
        // A fifth page forces eviction of the oldest.
        cache.write_page(fid(2), 0, b"new").unwrap();
        assert!(cache.read_page(fid(2), 0).is_some());
        assert!(cache.read_page(fid(1), 0).is_none(), "oldest page evicted");
    }

    fn check_byte_accounting(cache: &dyn DataCache) {
        assert_eq!(cache.bytes_used(), 0);
        cache.write_page(fid(1), 0, b"a").unwrap();
        cache.write_page(fid(1), 1, b"b").unwrap();
        cache.write_page(fid(2), 0, b"c").unwrap();
        assert_eq!(cache.bytes_used(), 3 * PAGE_SIZE as u64);
        // Overwrites do not double-charge.
        cache.write_page(fid(1), 0, b"a2").unwrap();
        assert_eq!(cache.bytes_used(), 3 * PAGE_SIZE as u64);
        cache.drop_page(fid(1), 1);
        cache.drop_page(fid(1), 1); // double drop is a no-op
        assert_eq!(cache.bytes_used(), 2 * PAGE_SIZE as u64);
        cache.evict_file(fid(1));
        assert_eq!(cache.bytes_used(), PAGE_SIZE as u64);
        cache.evict_file(fid(2));
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn mem_cache_byte_counter_stays_exact() {
        check_byte_accounting(&MemCache::new());
    }

    #[test]
    fn disk_cache_byte_counter_stays_exact() {
        check_byte_accounting(&DiskCache::new(SimDisk::new(DiskConfig::with_blocks(64))));
    }

    #[test]
    fn disk_cache_counter_constant_across_full_cache_eviction() {
        let cache = DiskCache::new(SimDisk::new(DiskConfig::with_blocks(4)));
        for p in 0..4 {
            cache.write_page(fid(1), p, &[p as u8; 8]).unwrap();
        }
        assert_eq!(cache.bytes_used(), 4 * PAGE_SIZE as u64);
        // Replacement eviction: one page out, one in — no net change.
        cache.write_page(fid(2), 0, b"new").unwrap();
        assert_eq!(cache.bytes_used(), 4 * PAGE_SIZE as u64);
    }

    #[test]
    fn overwrite_reuses_block() {
        let cache = DiskCache::new(SimDisk::new(DiskConfig::with_blocks(2)));
        cache.write_page(fid(1), 0, b"v1").unwrap();
        cache.write_page(fid(1), 0, b"v2").unwrap();
        cache.write_page(fid(1), 1, b"other").unwrap();
        assert_eq!(&cache.read_page(fid(1), 0).unwrap()[..2], b"v2");
    }
}
