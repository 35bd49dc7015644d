//! Episode: the fast-restarting physical file system of DEcorum (§2).
//!
//! Episode implements the [`dfs_vfs`] VFS+ interface on a simulated disk,
//! with the capabilities the paper calls out as missing from vendor file
//! systems:
//!
//! * **logical volumes**: many mountable volumes per aggregate, movable
//!   and cloneable ([`crate::volume`], §2.1);
//! * **access control lists** on any file or directory ([`crate::aclstore`],
//!   §2.3);
//! * **fast crash recovery** via the [`dfs_journal`] write-ahead log —
//!   metadata changes are transactions, user data is unlogged, and
//!   restart replays only the active log (§2.2);
//! * **anodes**: a uniform open-ended container abstraction used for
//!   files, directories, ACLs, volume headers, the volume table, and the
//!   block refcount table itself ([`crate::anode`], §2.4).
//!
//! An [`Episode`] value manages one aggregate; mounting (via
//! [`dfs_vfs::PhysicalFs::mount`]) returns per-volume
//! [`dfs_vfs::VfsPlus`] views.

pub mod aclstore;
pub mod anode;
pub mod dir;
pub mod layout;
pub mod salvage;
pub mod vfs_impl;
pub mod volume;

pub use dfs_journal::RecoveryReport;
pub use layout::{Anode, AnodeKind, SuperBlock};
pub use vfs_impl::EpisodeVolume;

use dfs_disk::{SimDisk, BLOCK_SIZE};
use dfs_journal::{HostLog, HostLogRegion, HostLogReplay, Journal, LogRegion, TxnId};
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{AggregateId, DfsError, DfsResult, SimClock};
use layout::{ANODES_PER_BLOCK, REFCOUNT_ANODE, VOLTABLE_ANODE};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

/// Parameters for formatting a fresh aggregate.
#[derive(Clone, Copy, Debug)]
pub struct FormatParams {
    /// Aggregate id to stamp into the superblock.
    pub aggregate: AggregateId,
    /// Blocks reserved for the transaction log (including its
    /// superblock); fixed at initialization, as the paper requires.
    pub log_blocks: u32,
    /// Number of anode slots to provision.
    pub anodes: u32,
    /// Blocks reserved for the host journal ring (durable host/lease
    /// state for §3.5 recovery); fixed at initialization.
    pub host_log_blocks: u32,
}

impl Default for FormatParams {
    fn default() -> Self {
        FormatParams {
            aggregate: AggregateId(0),
            log_blocks: 256,
            anodes: 4096,
            host_log_blocks: 32,
        }
    }
}

struct AllocState {
    /// Next anode slot to consider.
    anode_rotor: u32,
    /// Next data block to consider.
    block_rotor: u32,
}

/// One Episode aggregate: anode table, refcount table, volumes, and log.
///
/// All methods are internally synchronized. Fine-grained locking follows
/// the paper's requirement ("designed with finely grained locking, and as
/// few points of global contention as possible", §2): each anode has its
/// own lock, and the allocator and volume table have their own.
pub struct Episode {
    pub(crate) disk: SimDisk,
    pub(crate) jn: Arc<Journal>,
    pub(crate) sb: SuperBlock,
    pub(crate) clock: SimClock,
    pub(crate) alloc: OrderedMutex<AllocState, { rank::EPISODE_ALLOC }>,
    /// One lock per anode slot ([`AnodeLocks`]).
    anode_locks: AnodeLocks,
    /// Serializes volume-table operations (create/delete/clone/mount).
    pub(crate) vol_lock: OrderedMutex<(), { rank::EPISODE_VOLUME_OPS }>,
    /// Each volume's version and uniquifier counters, by header anode:
    /// loaded on first use (a mount, dump, clone or restore), dropped on
    /// delete.
    pub(crate) volumes:
        OrderedMutex<HashMap<u32, Arc<volume::VolumeCounters>>, { rank::EPISODE_COUNTERS }>,
    /// The host journal ring, when the aggregate reserves one.
    host_log: Option<Arc<HostLog>>,
    /// What host-log replay recovered at open time.
    host_replay: HostLogReplay,
    /// Weak self-reference so `&self` methods can hand out `Arc<Episode>`.
    me: Weak<Episode>,
}

impl Episode {
    /// Formats `disk` as a fresh Episode aggregate.
    ///
    /// Layout: superblock, log region, anode table, data region. The
    /// volume table (anode 1) and the block refcount table (anode 2) are
    /// provisioned here; the refcount table doubles as the allocation
    /// bitmap (refcount zero means free).
    pub fn format(
        disk: SimDisk,
        clock: SimClock,
        params: FormatParams,
    ) -> DfsResult<Arc<Episode>> {
        let total = disk.blocks();
        let anode_table_blocks = params.anodes.div_ceil(ANODES_PER_BLOCK as u32);
        let sb = SuperBlock {
            aggregate: params.aggregate.0,
            total_blocks: total,
            log_first: 1,
            log_blocks: params.log_blocks,
            anode_table_start: 1 + params.log_blocks,
            anode_table_blocks,
            host_log_blocks: params.host_log_blocks,
        };
        let data_start = sb.data_start();
        if data_start + 16 > total {
            return Err(DfsError::NoSpace);
        }

        // Provision the refcount table: 2 bytes per block, preallocated
        // where the superblock places it (`SuperBlock::refcount_location`).
        let rc_blocks = sb.refcount_blocks();
        if rc_blocks > layout::NDIRECT as u32 + layout::PTRS_PER_BLOCK as u32 {
            return Err(DfsError::InvalidArgument); // Aggregate too large.
        }
        let indirect_block = sb.refcount_indirect();
        // The table block holding the entries from the `i`th one on.
        let rc_block = |i: u32| {
            sb.refcount_location(i * (BLOCK_SIZE / 2) as u32)
                .expect("in the table")
                .0
        };
        let reserved_end = data_start + rc_blocks + u32::from(indirect_block.is_some());
        if reserved_end >= total {
            return Err(DfsError::NoSpace);
        }

        // Superblock.
        disk.write(0, &sb.encode())?;

        // Refcount table contents: 1 for every reserved block.
        let mut rc = vec![0u8; rc_blocks as usize * BLOCK_SIZE];
        for b in 0..reserved_end {
            rc[2 * b as usize..2 * b as usize + 2].copy_from_slice(&1u16.to_le_bytes());
        }
        for (i, chunk) in rc.chunks(BLOCK_SIZE).enumerate() {
            let mut block = [0u8; BLOCK_SIZE];
            block.copy_from_slice(chunk);
            disk.write(rc_block(i as u32), &block)?;
        }

        // The refcount anode's indirect block, if needed.
        if let Some(ib) = indirect_block {
            let mut block = [0u8; BLOCK_SIZE];
            for i in layout::NDIRECT as u32..rc_blocks {
                let ptr = rc_block(i);
                let slot = (i - layout::NDIRECT as u32) as usize * 4;
                block[slot..slot + 4].copy_from_slice(&ptr.to_le_bytes());
            }
            disk.write(ib, &block)?;
        }

        // Anode table: all zero (free) except the two reserved anodes.
        let mut voltable = Anode::free();
        voltable.kind = AnodeKind::Meta;
        voltable.uniq = 1;
        let mut rc_anode = Anode::free();
        rc_anode.kind = AnodeKind::Meta;
        rc_anode.uniq = 1;
        rc_anode.length = 2 * u64::from(total);
        for i in 0..layout::NDIRECT.min(rc_blocks as usize) {
            rc_anode.direct[i] = rc_block(i as u32);
        }
        if let Some(ib) = indirect_block {
            rc_anode.indirect = ib;
        }
        let (blk1, off1) = sb.anode_location(VOLTABLE_ANODE);
        let (blk2, off2) = sb.anode_location(REFCOUNT_ANODE);
        debug_assert_eq!(blk1, blk2, "reserved anodes share the first table block");
        let mut table = [0u8; BLOCK_SIZE];
        table[off1..off1 + layout::ANODE_SIZE].copy_from_slice(&voltable.encode());
        table[off2..off2 + layout::ANODE_SIZE].copy_from_slice(&rc_anode.encode());
        disk.write(blk1, &table)?;
        disk.flush()?;

        let jn = Journal::format(
            disk.clone(),
            LogRegion { first_block: sb.log_first, blocks: sb.log_blocks },
        )?;
        let (host_log, host_replay) = Self::open_host_log(&disk, &sb)?;
        Ok(Episode::assemble(disk, jn, sb, clock, host_log, host_replay))
    }

    /// Opens an existing aggregate, running log recovery if required.
    ///
    /// This is the fast restart the paper promises: the time spent is
    /// proportional to the active portion of the log, not the size of
    /// the file system (§2.2). The [`RecoveryReport`] says what replay
    /// did.
    pub fn open(disk: SimDisk, clock: SimClock) -> DfsResult<(Arc<Episode>, RecoveryReport)> {
        let sb = SuperBlock::decode(&*disk.read(0)?)?;
        let (jn, report) = Journal::open(
            disk.clone(),
            LogRegion { first_block: sb.log_first, blocks: sb.log_blocks },
        )?;
        let (host_log, host_replay) = Self::open_host_log(&disk, &sb)?;
        Ok((Episode::assemble(disk, jn, sb, clock, host_log, host_replay), report))
    }

    /// Opens (and replays) the host journal ring, when the superblock
    /// reserves one. Aggregates formatted before the ring existed have
    /// `host_log_blocks == 0` and simply have no host journal.
    fn open_host_log(
        disk: &SimDisk,
        sb: &SuperBlock,
    ) -> DfsResult<(Option<Arc<HostLog>>, HostLogReplay)> {
        if sb.host_log_blocks == 0 {
            return Ok((None, HostLogReplay::default()));
        }
        let region =
            HostLogRegion { first_block: sb.host_log_start(), blocks: sb.host_log_blocks };
        let (log, replay) = HostLog::open(disk.clone(), region)?;
        Ok((Some(Arc::new(log)), replay))
    }

    fn assemble(
        disk: SimDisk,
        jn: Arc<Journal>,
        sb: SuperBlock,
        clock: SimClock,
        host_log: Option<Arc<HostLog>>,
        host_replay: HostLogReplay,
    ) -> Arc<Episode> {
        Arc::new_cyclic(|me| Episode {
            disk,
            jn,
            clock,
            alloc: OrderedMutex::new(AllocState {
                anode_rotor: layout::FIRST_FREE_ANODE,
                block_rotor: sb.data_start(),
            }),
            anode_locks: AnodeLocks::new(sb.anode_count()),
            vol_lock: OrderedMutex::new(()),
            volumes: OrderedMutex::new(HashMap::new()),
            host_log,
            host_replay,
            me: me.clone(),
            sb,
        })
    }

    /// Returns a strong reference to this aggregate.
    ///
    /// # Panics
    ///
    /// Panics if called during destruction (never happens in practice:
    /// mounts hold strong references).
    pub(crate) fn self_arc(&self) -> Arc<Episode> {
        self.me.upgrade().expect("Episode used after drop")
    }

    /// Returns the aggregate id.
    pub fn aggregate(&self) -> AggregateId {
        AggregateId(self.sb.aggregate)
    }

    /// Returns the aggregate superblock (static geometry).
    pub fn superblock(&self) -> SuperBlock {
        self.sb
    }

    /// Returns the journal, for statistics and explicit sync control.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.jn
    }

    /// Returns the host journal ring, when the aggregate has one.
    pub fn host_log(&self) -> Option<&Arc<HostLog>> {
        self.host_log.as_ref()
    }

    /// What host-log replay recovered when this aggregate was opened:
    /// the durable host/lease facts and the last journaled epoch.
    pub fn host_replay(&self) -> &HostLogReplay {
        &self.host_replay
    }

    /// Returns the underlying disk, for statistics and crash injection.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Returns the simulated clock used for timestamps.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Forces the log and all dirty buffers to stable storage.
    pub fn sync_all(&self) -> DfsResult<()> {
        self.jn.flush_all()
    }

    /// Group commit: makes all buffered commit records durable without
    /// writing back data buffers (the cheap periodic sync of §2.2).
    pub fn sync_log(&self) -> DfsResult<()> {
        self.jn.sync()
    }

    /// Runs `body` as one short transaction (§2.2): begin, run, commit.
    ///
    /// This is the one place an Episode transaction begins and ends; an
    /// operation that frees a file runs it through
    /// [`Episode::txn_unlinking`]. On `Err` the transaction is left
    /// unresolved: its updates stay applied and its equivalence class
    /// stays open. ROADMAP item 1 (abort on every error path) changes
    /// this one function.
    pub(crate) fn txn<T>(&self, body: impl FnOnce(TxnId) -> DfsResult<T>) -> DfsResult<T> {
        let txn = self.jn.begin();
        let out = body(txn)?;
        self.jn.commit(txn)?;
        Ok(out)
    }

    /// Returns the lock of anode slot `idx`.
    ///
    /// The rule (DESIGN.md §8): an op waits for its directories' locks
    /// in slot order, and for any other anode's only with nothing held;
    /// holding locks, it takes another only if it is free at once
    /// (`EpisodeVolume::locked`). A volume header's lock (the vnode map)
    /// comes last, inside the transaction.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is past the anode table; every slot a caller
    /// locks came through [`Episode::read_anode`] or
    /// [`Episode::vnode_get`], which refuse one.
    pub(crate) fn anode_lock(&self, idx: u32) -> &RwLock<()> {
        self.anode_locks.get(idx)
    }
}

/// The anode locks: one `RwLock` per slot, in chunks of [`Self::CHUNK`]
/// filled on first use. Nothing is built at format or open time, no two
/// slots share a lock, and finding one takes no lock of its own.
struct AnodeLocks {
    chunks: Box<[OnceLock<LockChunk>]>,
}

/// The locks of [`AnodeLocks::CHUNK`] consecutive slots.
type LockChunk = Box<[RwLock<()>]>;

impl AnodeLocks {
    /// Slots per chunk.
    const CHUNK: usize = 512;

    fn new(slots: u32) -> AnodeLocks {
        let chunks = (slots as usize).div_ceil(Self::CHUNK);
        AnodeLocks { chunks: (0..chunks).map(|_| OnceLock::new()).collect() }
    }

    fn get(&self, idx: u32) -> &RwLock<()> {
        let (chunk, at) = (idx as usize / Self::CHUNK, idx as usize % Self::CHUNK);
        let locks = self.chunks[chunk]
            .get_or_init(|| (0..Self::CHUNK).map(|_| RwLock::new(())).collect());
        &locks[at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_disk::DiskConfig;

    pub(crate) fn fresh(blocks: u32) -> Arc<Episode> {
        let disk = SimDisk::new(DiskConfig::with_blocks(blocks));
        Episode::format(disk, SimClock::new(), FormatParams::default()).unwrap()
    }

    #[test]
    fn format_and_reopen() {
        let disk = SimDisk::new(DiskConfig::with_blocks(8192));
        let ep = Episode::format(disk.clone(), SimClock::new(), FormatParams::default()).unwrap();
        let sb = ep.superblock();
        assert_eq!(sb.total_blocks, 8192);
        drop(ep);
        let (ep2, report) = Episode::open(disk, SimClock::new()).unwrap();
        assert!(!report.formatted, "journal was formatted, reopen is clean");
        assert_eq!(ep2.superblock(), sb);
    }

    #[test]
    fn format_reserves_refcounts_for_metadata() {
        let ep = fresh(8192);
        // Block 0 (superblock) and the log and anode table are reserved.
        assert_eq!(ep.block_refcount(0).unwrap(), 1);
        assert_eq!(ep.block_refcount(ep.sb.log_first).unwrap(), 1);
        assert_eq!(ep.block_refcount(ep.sb.anode_table_start).unwrap(), 1);
        // A block far into the data region is free.
        assert_eq!(ep.block_refcount(8000).unwrap(), 0);
    }

    #[test]
    fn format_too_small_disk_fails() {
        let disk = SimDisk::new(DiskConfig::with_blocks(128));
        match Episode::format(disk, SimClock::new(), FormatParams::default()) {
            Err(e) => assert_eq!(e, DfsError::NoSpace),
            Ok(_) => panic!("format of a too-small disk must fail"),
        }
    }

    /// Every Episode transaction begins and ends in `Episode::txn`: outside
    /// the tests, the crate's source calls `jn.begin()` and `jn.commit(`
    /// once each, inside that function.
    #[test]
    fn transactions_begin_and_commit_only_in_the_txn_scope() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut sites = Vec::new();
        for file in std::fs::read_dir(dir).unwrap() {
            let path = file.unwrap().path();
            let src = std::fs::read_to_string(&path).unwrap();
            let code = src.split("#[cfg(test)]").next().unwrap();
            for what in ["jn.begin()", "jn.commit("] {
                for (at, _) in code.match_indices(what) {
                    let in_txn =
                        code[..at].rfind(" fn ").is_some_and(|f| code[f..].starts_with(" fn txn<"));
                    sites.push((path.file_name().unwrap().to_owned(), what, in_txn));
                }
            }
        }
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert!(sites.iter().all(|(file, _, in_txn)| file == "lib.rs" && *in_txn), "{sites:?}");
    }

    #[test]
    fn open_rejects_unformatted_disk() {
        let disk = SimDisk::new(DiskConfig::with_blocks(1024));
        assert!(Episode::open(disk, SimClock::new()).is_err());
    }
}
