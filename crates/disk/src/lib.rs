//! A simulated block device for the DEcorum file system reproduction.
//!
//! The paper's performance arguments (§2.2) are about *disk-operation
//! counts and patterns*: the Berkeley FFS schedules many synchronous and
//! asynchronous metadata writes scattered across the disk, while a logging
//! file system batches metadata into sequential appends to a log. This
//! crate provides a block device that:
//!
//! * stores blocks sparsely in memory (so a simulated 1 GiB aggregate does
//!   not cost 1 GiB of RAM),
//! * models a volatile write cache with an explicit [`SimDisk::flush`],
//!   so crash injection can drop or tear unflushed writes,
//! * charges every operation against a seek/rotation/transfer cost model,
//!   distinguishing sequential from random access, and
//! * keeps full [`DiskStats`] so experiments can report operation counts
//!   and simulated elapsed disk time.

pub mod stats;

pub use stats::DiskStats;

use dfs_types::{DfsError, DfsResult};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Size of a disk block in bytes.
pub const BLOCK_SIZE: usize = 4096;

/// One disk block's worth of bytes.
pub type Block = Box<[u8; BLOCK_SIZE]>;

fn zero_block() -> Block {
    Box::new([0u8; BLOCK_SIZE])
}

/// Cost model for the simulated disk, in microseconds.
///
/// Defaults approximate a circa-1990 SCSI disk: 16 ms average seek,
/// half-rotation latency of ~8 ms at 3600 rpm, and about 1 MiB/s
/// sustained transfer (4 ms per 4 KiB block). The experiments depend on
/// the *ratios* (random ≫ sequential), not the absolute values.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Average seek time charged for a non-sequential access.
    pub seek_us: u64,
    /// Average rotational latency charged for a non-sequential access.
    pub rotational_us: u64,
    /// Transfer time per block, charged on every access.
    pub transfer_us: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { seek_us: 16_000, rotational_us: 8_000, transfer_us: 4_000 }
    }
}

impl CostModel {
    /// Cost of one access that follows the previous access sequentially.
    pub fn sequential_us(&self) -> u64 {
        self.transfer_us
    }

    /// Cost of one access requiring a seek and rotational delay.
    pub fn random_us(&self) -> u64 {
        self.seek_us + self.rotational_us + self.transfer_us
    }
}

/// Configuration for a [`SimDisk`].
#[derive(Clone, Debug)]
pub struct DiskConfig {
    /// Number of addressable blocks.
    pub blocks: u32,
    /// Cost model used to charge simulated time.
    pub cost: CostModel,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig { blocks: 16 * 1024, cost: CostModel::default() }
    }
}

impl DiskConfig {
    /// Returns a config with the given number of blocks and default costs.
    pub fn with_blocks(blocks: u32) -> Self {
        DiskConfig { blocks, ..DiskConfig::default() }
    }
}

struct DiskInner {
    /// Durable contents; blocks absent from the map read as zeroes.
    stable: BTreeMap<u32, Block>,
    /// Writes accepted but not yet flushed to stable storage.
    volatile: BTreeMap<u32, Block>,
    /// Blocks marked bad by media-failure injection.
    bad: Vec<(u32, u32)>,
    /// Head position: block following the last access, for sequentiality.
    head: Option<u32>,
    /// Whether the disk has crashed (all I/O refused until `power_on`).
    crashed: bool,
    stats: DiskStats,
}

impl DiskInner {
    fn charge(&mut self, block: u32, cost: &CostModel) -> u64 {
        let sequential = self.head == Some(block);
        self.head = Some(block.wrapping_add(1));
        if sequential {
            self.stats.sequential_ops += 1;
            self.stats.busy_us += cost.sequential_us();
            cost.sequential_us()
        } else {
            self.stats.random_ops += 1;
            self.stats.busy_us += cost.random_us();
            cost.random_us()
        }
    }

    fn is_bad(&self, block: u32) -> bool {
        self.bad.iter().any(|&(s, e)| s <= block && block < e)
    }
}

/// A simulated disk: sparse stable storage plus a volatile write cache.
///
/// All methods take `&self`; the disk is internally synchronized and can
/// be shared between the journal daemon, file system threads, and crash
/// injection harnesses by cloning the handle.
///
/// # Examples
///
/// ```
/// use dfs_disk::{SimDisk, DiskConfig, BLOCK_SIZE};
///
/// let disk = SimDisk::new(DiskConfig::with_blocks(128));
/// let mut data = [0u8; BLOCK_SIZE];
/// data[0] = 0xEE;
/// disk.write(5, &data).unwrap();
/// disk.flush().unwrap();
/// assert_eq!(disk.read(5).unwrap()[0], 0xEE);
/// ```
#[derive(Clone)]
pub struct SimDisk {
    cfg: DiskConfig,
    inner: Arc<Mutex<DiskInner>>,
}

impl SimDisk {
    /// Creates a zero-filled disk with the given configuration.
    pub fn new(cfg: DiskConfig) -> Self {
        SimDisk {
            cfg,
            inner: Arc::new(Mutex::new(DiskInner {
                stable: BTreeMap::new(),
                volatile: BTreeMap::new(),
                bad: Vec::new(),
                head: None,
                crashed: false,
                stats: DiskStats::default(),
            })),
        }
    }

    /// Returns the number of addressable blocks.
    pub fn blocks(&self) -> u32 {
        self.cfg.blocks
    }

    fn check(&self, block: u32) -> DfsResult<()> {
        if block >= self.cfg.blocks {
            return Err(DfsError::InvalidArgument);
        }
        Ok(())
    }

    /// Reads one block, serving unflushed writes from the cache first.
    pub fn read(&self, block: u32) -> DfsResult<Block> {
        self.check(block)?;
        let mut inner = self.inner.lock();
        if inner.crashed {
            return Err(DfsError::Crashed);
        }
        if inner.is_bad(block) {
            return Err(DfsError::MediaFailure);
        }
        inner.stats.reads += 1;
        inner.charge(block, &self.cfg.cost);
        if let Some(b) = inner.volatile.get(&block) {
            return Ok(b.clone());
        }
        Ok(inner.stable.get(&block).cloned().unwrap_or_else(zero_block))
    }

    /// Writes one block into the volatile cache.
    ///
    /// The write is *not* durable until [`SimDisk::flush`] (or
    /// [`SimDisk::write_sync`]) completes; a crash discards it. No time
    /// is charged here — the cache absorbs the write — matching how the
    /// paper's FFS comparison charges actual disk traffic, not queuing.
    pub fn write(&self, block: u32, data: &[u8; BLOCK_SIZE]) -> DfsResult<()> {
        self.check(block)?;
        let mut inner = self.inner.lock();
        if inner.crashed {
            return Err(DfsError::Crashed);
        }
        if inner.is_bad(block) {
            return Err(DfsError::MediaFailure);
        }
        inner.stats.writes += 1;
        inner.volatile.insert(block, Box::new(*data));
        Ok(())
    }

    /// Writes one block and immediately makes it durable.
    ///
    /// This is the synchronous metadata write the Berkeley FFS issues on
    /// every inode/directory/indirect-block update (§2.2); it charges a
    /// full (usually random) disk access.
    pub fn write_sync(&self, block: u32, data: &[u8; BLOCK_SIZE]) -> DfsResult<()> {
        self.check(block)?;
        let mut inner = self.inner.lock();
        if inner.crashed {
            return Err(DfsError::Crashed);
        }
        if inner.is_bad(block) {
            return Err(DfsError::MediaFailure);
        }
        inner.stats.writes += 1;
        inner.stats.stable_writes += 1;
        inner.stats.syncs += 1;
        inner.charge(block, &self.cfg.cost);
        inner.volatile.remove(&block);
        inner.stable.insert(block, Box::new(*data));
        Ok(())
    }

    /// Flushes every cached write to stable storage.
    ///
    /// Blocks are written in ascending order so runs of consecutive
    /// blocks — e.g. a batch of log appends — are charged sequentially.
    pub fn flush(&self) -> DfsResult<()> {
        let mut inner = self.inner.lock();
        if inner.crashed {
            return Err(DfsError::Crashed);
        }
        if inner.volatile.is_empty() {
            return Ok(());
        }
        inner.stats.syncs += 1;
        let pending: Vec<(u32, Block)> = std::mem::take(&mut inner.volatile).into_iter().collect();
        for (block, data) in pending {
            inner.stats.stable_writes += 1;
            inner.charge(block, &self.cfg.cost);
            inner.stable.insert(block, data);
        }
        Ok(())
    }

    /// Flushes only the blocks in `[start, end)`.
    pub fn flush_range(&self, start: u32, end: u32) -> DfsResult<()> {
        let mut inner = self.inner.lock();
        if inner.crashed {
            return Err(DfsError::Crashed);
        }
        let keys: Vec<u32> = inner.volatile.range(start..end).map(|(&k, _)| k).collect();
        if keys.is_empty() {
            return Ok(());
        }
        inner.stats.syncs += 1;
        for block in keys {
            let data = inner.volatile.remove(&block).expect("key just listed");
            inner.stats.stable_writes += 1;
            inner.charge(block, &self.cfg.cost);
            inner.stable.insert(block, data);
        }
        Ok(())
    }

    /// Simulates a power failure: every unflushed write is lost.
    ///
    /// If `tear` names a currently-unflushed block, only the first half of
    /// that write reaches stable storage — a torn write, the worst case a
    /// recovery procedure must tolerate. I/O fails with
    /// [`DfsError::Crashed`] until [`SimDisk::power_on`].
    pub fn crash(&self, tear: Option<u32>) {
        let mut inner = self.inner.lock();
        if let Some(block) = tear {
            if let Some(data) = inner.volatile.get(&block).cloned() {
                let mut torn = inner.stable.get(&block).cloned().unwrap_or_else(zero_block);
                torn[..BLOCK_SIZE / 2].copy_from_slice(&data[..BLOCK_SIZE / 2]);
                inner.stable.insert(block, torn);
                inner.stats.torn_writes += 1;
            }
        }
        let lost = inner.volatile.len() as u64;
        inner.stats.lost_writes += lost;
        inner.volatile.clear();
        inner.crashed = true;
        inner.head = None;
    }

    /// Brings a crashed disk back on line; stable contents survive.
    pub fn power_on(&self) {
        self.inner.lock().crashed = false;
    }

    /// Marks the block range `[start, end)` as bad media.
    ///
    /// Subsequent reads and writes of those blocks fail with
    /// [`DfsError::MediaFailure`]; the paper notes media failure still
    /// requires salvaging even with logging (§2.2).
    pub fn inject_media_failure(&self, start: u32, end: u32) {
        self.inner.lock().bad.push((start, end));
    }

    /// Returns a snapshot of the accumulated statistics.
    pub fn stats(&self) -> DiskStats {
        self.inner.lock().stats.clone()
    }

    /// Returns the number of distinct blocks ever written to stable storage.
    pub fn stable_block_count(&self) -> usize {
        self.inner.lock().stable.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskConfig::with_blocks(256))
    }

    fn filled(byte: u8) -> [u8; BLOCK_SIZE] {
        [byte; BLOCK_SIZE]
    }

    #[test]
    fn read_back_after_flush() {
        let d = disk();
        d.write(3, &filled(7)).unwrap();
        assert_eq!(d.read(3).unwrap()[0], 7, "cache serves unflushed write");
        d.flush().unwrap();
        assert_eq!(d.read(3).unwrap()[100], 7);
    }

    #[test]
    fn unwritten_blocks_read_as_zero() {
        let d = disk();
        assert_eq!(d.read(200).unwrap()[0], 0);
    }

    #[test]
    fn out_of_range_access_fails() {
        let d = disk();
        assert_eq!(d.read(256).unwrap_err(), DfsError::InvalidArgument);
        assert_eq!(d.write(999, &filled(1)).unwrap_err(), DfsError::InvalidArgument);
    }

    #[test]
    fn crash_loses_unflushed_writes() {
        let d = disk();
        d.write(1, &filled(1)).unwrap();
        d.flush().unwrap();
        d.write(1, &filled(2)).unwrap();
        d.write(2, &filled(3)).unwrap();
        d.crash(None);
        assert_eq!(d.read(1).unwrap_err(), DfsError::Crashed);
        d.power_on();
        assert_eq!(d.read(1).unwrap()[0], 1, "flushed value survives");
        assert_eq!(d.read(2).unwrap()[0], 0, "unflushed write lost");
        assert_eq!(d.stats().lost_writes, 2);
    }

    #[test]
    fn torn_write_applies_half_a_block() {
        let d = disk();
        d.write(9, &filled(0xAA)).unwrap();
        d.flush().unwrap();
        d.write(9, &filled(0xBB)).unwrap();
        d.crash(Some(9));
        d.power_on();
        let b = d.read(9).unwrap();
        assert_eq!(b[0], 0xBB, "first half of torn write present");
        assert_eq!(b[BLOCK_SIZE - 1], 0xAA, "second half is the old data");
        assert_eq!(d.stats().torn_writes, 1);
    }

    #[test]
    fn write_sync_is_durable_immediately() {
        let d = disk();
        d.write_sync(4, &filled(9)).unwrap();
        d.crash(None);
        d.power_on();
        assert_eq!(d.read(4).unwrap()[0], 9);
    }

    #[test]
    fn sequential_flush_is_cheaper_than_random() {
        let cost = CostModel::default();
        let d1 = disk();
        for b in 10..20 {
            d1.write(b, &filled(1)).unwrap();
        }
        d1.flush().unwrap();
        let seq = d1.stats();

        let d2 = disk();
        for b in [40u32, 4, 90, 17, 200, 63, 150, 8, 111, 33] {
            d2.write(b, &filled(1)).unwrap();
        }
        d2.flush().unwrap();
        let rnd = d2.stats();

        assert_eq!(seq.stable_writes, 10);
        assert_eq!(rnd.stable_writes, 10);
        assert!(seq.busy_us < rnd.busy_us, "sequential batch must be cheaper");
        // First block of the run seeks; the other 9 are sequential.
        assert_eq!(seq.busy_us, cost.random_us() + 9 * cost.sequential_us());
    }

    #[test]
    fn media_failure_injection() {
        let d = disk();
        d.write(50, &filled(1)).unwrap();
        d.flush().unwrap();
        d.inject_media_failure(50, 60);
        assert_eq!(d.read(50).unwrap_err(), DfsError::MediaFailure);
        assert_eq!(d.write(55, &filled(2)).unwrap_err(), DfsError::MediaFailure);
        assert_eq!(d.read(60).unwrap()[0], 0, "blocks outside range fine");
    }

    #[test]
    fn flush_range_only_persists_that_range() {
        let d = disk();
        d.write(10, &filled(1)).unwrap();
        d.write(100, &filled(2)).unwrap();
        d.flush_range(0, 50).unwrap();
        d.crash(None);
        d.power_on();
        assert_eq!(d.read(10).unwrap()[0], 1);
        assert_eq!(d.read(100).unwrap()[0], 0);
    }

    #[test]
    fn stats_track_counts() {
        let d = disk();
        d.write(1, &filled(1)).unwrap();
        d.write(2, &filled(2)).unwrap();
        d.flush().unwrap();
        d.read(1).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.stable_writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.syncs, 1);
        // One phase's counters: snapshot before, diff after.
        d.read(2).unwrap();
        let busy_us = CostModel::default().sequential_us();
        let phase = DiskStats { reads: 1, sequential_ops: 1, busy_us, ..DiskStats::default() };
        assert_eq!(d.stats().since(&s), phase);
    }

    #[test]
    fn clone_shares_contents() {
        let d = disk();
        let d2 = d.clone();
        d.write_sync(7, &filled(5)).unwrap();
        assert_eq!(d2.read(7).unwrap()[0], 5);
    }
}
