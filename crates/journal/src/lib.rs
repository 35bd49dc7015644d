//! Buffer package and write-ahead logging system for Episode (§2.2).
//!
//! "The logging system is intricately entwined with the disk buffer
//! cache" — so this crate implements both as one [`Journal`] object:
//!
//! * a **buffer cache** whose frames can only be modified through logging
//!   primitives ([`Journal::update`]), never directly. Replacement is
//!   CLOCK: a hit sets the frame's reference bit under the cache's read
//!   lock (no frame latch), a miss takes the write lock and advances the
//!   hand to the first frame neither referenced nor pinned
//!   by a [`BufHandle`], writes it back under the WAL rule if dirty, and
//!   reuses its slot;
//! * a **write-ahead log**: byte-level old/new value records grouped into
//!   transactions, with commit records, group commit ([`Journal::sync`]),
//!   and a fixed-size circular on-disk log. A record carries only the
//!   span of bytes its update changes, and the group commit writes the
//!   log with the log lock released;
//! * **equivalence classes**: transactions that modify the same buffer
//!   are merged and commit atomically, which is how serializability of
//!   "A used data modified by B" (§2.2) is guaranteed;
//! * **log admission** ([`Journal::admit`]): a class stays open — and
//!   pins the log tail at its oldest record — while any member is
//!   unresolved, and two writers that keep overlapping keep one class
//!   open for ever. Once more than half the log is pinned, new
//!   file-system operations wait for the running ones to finish, which
//!   closes every class;
//! * **recovery** that replays the active portion of the log — redoing
//!   committed transactions and undoing uncommitted ones — in time
//!   proportional to the active log, not the file-system size.
//!
//! User data is *not* logged (§2.2): Episode writes file data blocks to
//! the disk directly, and only metadata flows through the journal.

pub mod frame;
pub mod hostlog;
pub mod logfmt;
pub mod stats;

pub use frame::BufHandle;
pub use hostlog::{HostLog, HostLogRegion, HostLogReplay};
pub use logfmt::{Lsn, Record};
pub use stats::{JournalStats, RecoveryReport};
use stats::JournalCounters;

use dfs_disk::{Block, SimDisk, BLOCK_SIZE};
use dfs_types::{DfsError, DfsResult};
use frame::{Frame, FrameCell};
use logfmt::{commit_len, decode_block, encode_block, update_len, LOG_PAYLOAD};
use dfs_types::lock::{rank, OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Largest number of bytes a single update record may change.
///
/// Larger updates are transparently chunked by [`Journal::update`].
pub const MAX_UPDATE: usize = 2048;

/// The region of a disk occupied by a journal log.
///
/// `first_block` holds the log superblock; the remaining `blocks - 1`
/// blocks form the circular record stream. The paper notes the log "is
/// an area of disk, not necessarily contiguous, whose size is fixed at
/// aggregate initialization"; we use a contiguous range for simplicity —
/// nothing in the design depends on contiguity.
#[derive(Clone, Copy, Debug)]
pub struct LogRegion {
    /// Block number of the log superblock.
    pub first_block: u32,
    /// Total blocks including the superblock; must be at least 8.
    pub blocks: u32,
}

impl LogRegion {
    /// Returns the number of stream (non-superblock) blocks.
    pub fn stream_blocks(&self) -> u32 {
        self.blocks - 1
    }

    /// Maps a stream block index to its physical block number.
    pub fn physical(&self, stream_index: u64) -> u32 {
        self.first_block + 1 + (stream_index % self.stream_blocks() as u64) as u32
    }

    /// Usable capacity of the circular log in stream bytes.
    ///
    /// Two blocks of headroom keep the head from catching the tail.
    pub fn capacity_bytes(&self) -> u64 {
        (self.stream_blocks().saturating_sub(2)) as u64 * LOG_PAYLOAD as u64
    }
}

const SUPER_MAGIC: u32 = 0xEF150DE5;

/// A transaction identifier.
pub type TxnId = u64;

/// One parsed update record during recovery:
/// (transaction, block, offset, old bytes, new bytes).
type UpdateRec = (TxnId, u32, u16, Vec<u8>, Vec<u8>);

struct TxnState {
    /// Union-find parent for equivalence classes.
    parent: TxnId,
    first_lsn: Option<Lsn>,
    /// Updates made by this transaction as (block, offset, old bytes),
    /// for CLR-style abort.
    undo: Vec<(u32, u16, Vec<u8>)>,
    /// Set once the owner has requested commit or abort.
    resolved: bool,
    /// At a class root, every member of the class (the root included);
    /// empty elsewhere.
    members: Vec<TxnId>,
    /// At a class root, the members not yet resolved; the class commits
    /// when it reaches zero.
    unresolved: usize,
}

struct LogState {
    /// Next stream position to be assigned.
    head: Lsn,
    /// Stream position up to which the log is durable on disk.
    durable: Lsn,
    /// Oldest stream position recovery would need.
    tail: Lsn,
    /// Encoded records not yet handed to a group commit: head minus
    /// durable bytes, less a batch in flight.
    pending: Vec<u8>,
    /// A group commit is writing a batch with the lock released.
    syncing: bool,
    /// A checkpoint is running, with the lock released.
    checkpointing: bool,
}

/// The buffer cache, replaced by CLOCK (second chance).
struct CacheState {
    /// Block → its slot in `slots`.
    frames: HashMap<u32, usize>,
    /// Every cached frame; the slot `slots[i]` holds the only reference
    /// the cache keeps, so a count above one means a handle pins it.
    slots: Vec<Arc<FrameCell>>,
    /// The CLOCK hand: the next slot a miss looks at.
    hand: usize,
    capacity: usize,
}

impl CacheState {
    /// Advances the hand to the next victim: the first slot that is
    /// neither referenced since the hand last passed nor pinned. Every
    /// step clears the reference bit, so two turns find one if any frame
    /// is unpinned; `None` means every frame is pinned.
    fn victim(&mut self) -> Option<usize> {
        for _ in 0..2 * self.slots.len() {
            let slot = self.hand;
            self.hand = (slot + 1) % self.slots.len();
            let cell = &self.slots[slot];
            let referenced = cell.referenced.load(Ordering::Relaxed);
            if referenced {
                cell.referenced.store(false, Ordering::Relaxed);
            } else if Arc::strong_count(cell) == 1 {
                return Some(slot);
            }
        }
        None
    }

    /// Puts the frame `cell` in the victim's `slot`, or in a new slot.
    fn install(&mut self, slot: Option<usize>, cell: Arc<FrameCell>) {
        let block = cell.block;
        match slot {
            Some(slot) => {
                let old = std::mem::replace(&mut self.slots[slot], cell);
                self.frames.remove(&old.block);
                self.frames.insert(block, slot);
            }
            None => {
                self.frames.insert(block, self.slots.len());
                self.slots.push(cell);
            }
        }
    }

    /// Hands the victim's `slot` over to `block`, frame and buffer and
    /// all, and returns the frame for the caller to fill. The victim is
    /// clean and unpinned, and the caller holds the cache's write lock,
    /// so the slot holds the frame's only reference.
    fn reuse(&mut self, slot: usize, block: u32) -> &mut Frame {
        let cell = Arc::get_mut(&mut self.slots[slot]).expect("a victim is unpinned");
        self.frames.remove(&cell.block);
        self.frames.insert(block, slot);
        cell.block = block;
        *cell.referenced.get_mut() = false;
        cell.state.get_mut()
    }

    /// Drops the frame in `slot`, moving the last slot into its place.
    fn remove(&mut self, slot: usize) {
        let gone = self.slots.swap_remove(slot);
        self.frames.remove(&gone.block);
        match self.slots.get(slot) {
            Some(moved) => {
                self.frames.insert(moved.block, slot);
                self.hand = slot;
            }
            None => self.hand = 0,
        }
    }
}

struct TxnTable {
    next_id: TxnId,
    active: HashMap<TxnId, TxnState>,
    /// File-system operations admitted and not yet finished
    /// ([`Journal::admit`]).
    ops: usize,
}

impl TxnTable {
    fn find(&mut self, id: TxnId) -> Option<TxnId> {
        let mut root = id;
        loop {
            let p = self.active.get(&root)?.parent;
            if p == root {
                break;
            }
            root = p;
        }
        // Path compression.
        let mut cur = id;
        while cur != root {
            let st = self.active.get_mut(&cur).expect("walked above");
            let next = st.parent;
            st.parent = root;
            cur = next;
        }
        Some(root)
    }

    /// Merges the classes rooted at `a` and `b` and returns the merged
    /// root: the smaller member list moves into the larger, so a
    /// transaction's id moves O(log n) times however its class grows.
    fn union(&mut self, a: TxnId, b: TxnId) -> TxnId {
        let (big, small) = if self.active[&a].members.len() >= self.active[&b].members.len() {
            (a, b)
        } else {
            (b, a)
        };
        let s = self.active.get_mut(&small).expect("active root");
        s.parent = big;
        let members = std::mem::take(&mut s.members);
        let unresolved = std::mem::take(&mut s.unresolved);
        let r = self.active.get_mut(&big).expect("active root");
        r.members.extend(members);
        r.unresolved += unresolved;
        big
    }
}

/// The combined buffer package and logging system.
///
/// A `Journal` owns a region of a [`SimDisk`] for its log and caches data
/// blocks from anywhere on that disk. It is internally synchronized;
/// share it with `Arc`.
///
/// # Examples
///
/// ```
/// use dfs_disk::{SimDisk, DiskConfig};
/// use dfs_journal::{Journal, LogRegion};
///
/// let disk = SimDisk::new(DiskConfig::with_blocks(1024));
/// let region = LogRegion { first_block: 1, blocks: 64 };
/// let journal = Journal::format(disk.clone(), region).unwrap();
///
/// let txn = journal.begin();
/// let buf = journal.get(100).unwrap();
/// journal.update(txn, &buf, 0, &[1, 2, 3]).unwrap();
/// journal.commit(txn).unwrap();
/// journal.sync().unwrap();
/// assert_eq!(buf.read_at(0, 3), vec![1, 2, 3]);
/// ```
pub struct Journal {
    disk: SimDisk,
    region: LogRegion,
    log: OrderedMutex<LogState, { rank::JOURNAL_LOG }>,
    cache: OrderedRwLock<CacheState, { rank::JOURNAL_CACHE }>,
    txns: OrderedMutex<TxnTable, { rank::JOURNAL_TXNS }>,
    /// Signalled when the last admitted operation finishes.
    drained: OrderedCondvar,
    /// Signalled when a group commit in flight finishes.
    synced: OrderedCondvar,
    /// Signalled when a checkpoint in flight finishes.
    checkpointed: OrderedCondvar,
    stats: JournalCounters,
}

/// One file-system operation — a run of transactions — admitted to the
/// log by [`Journal::admit`]; dropping it ends the operation.
pub struct Admitted<'a>(&'a Journal);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        let mut txns = self.0.txns.lock();
        txns.ops -= 1;
        if txns.ops == 0 {
            self.0.drained.notify_all();
        }
    }
}

impl Journal {
    /// Formats a fresh, empty log in `region` and returns the journal.
    pub fn format(disk: SimDisk, region: LogRegion) -> DfsResult<Arc<Journal>> {
        assert!(region.blocks >= 8, "log region must have at least 8 blocks");
        let jn = Journal::with_state(disk, region, Lsn(0));
        jn.persist_superblock(Lsn(0))?;
        Ok(jn)
    }

    /// Opens a journal from disk, running crash recovery if needed.
    ///
    /// If the superblock is not a valid journal superblock, the region is
    /// formatted fresh (the report says so). Otherwise the active log is
    /// replayed: committed transactions are redone, uncommitted ones
    /// undone, and the data region is flushed before the journal returns.
    pub fn open(disk: SimDisk, region: LogRegion) -> DfsResult<(Arc<Journal>, RecoveryReport)> {
        assert!(region.blocks >= 8, "log region must have at least 8 blocks");
        let busy_before = disk.stats().busy_us;
        let tail = match Self::read_superblock(&disk, region)? {
            Some(tail) => tail,
            None => {
                let jn = Journal::format(disk, region)?;
                let report = RecoveryReport { formatted: true, ..Default::default() };
                return Ok((jn, report));
            }
        };
        let mut report = RecoveryReport::default();

        // Phase 1: scan the stream from the tail, collecting records.
        let mut stream = Vec::new();
        let mut index = tail.block_index();
        let mut scanned = 0u64;
        loop {
            let phys = region.physical(index);
            let data = disk.read(phys)?;
            match decode_block(&data) {
                Some((seq, payload)) if seq == index => {
                    stream.extend_from_slice(payload);
                    scanned += 1;
                    index += 1;
                    if scanned >= region.stream_blocks() as u64 {
                        break;
                    }
                }
                _ => break,
            }
        }
        report.scanned_blocks = scanned;

        // Parse records starting at the tail's offset within its block.
        let mut pos = tail.block_offset();
        let mut updates: Vec<UpdateRec> = Vec::new();
        let mut committed: HashSet<TxnId> = HashSet::new();
        let mut all_txns: HashSet<TxnId> = HashSet::new();
        let mut parsed_end = pos;
        while pos < stream.len() {
            match Record::decode(&stream, pos) {
                Some((rec, next)) => {
                    report.records += 1;
                    match rec {
                        Record::Update { txid, block, offset, old, new } => {
                            all_txns.insert(txid);
                            updates.push((txid, block, offset, old, new));
                        }
                        Record::Commit { txids } => {
                            committed.extend(txids);
                        }
                        // Host-journal records never appear in the
                        // episode log (they live in their own region);
                        // skip them if one ever does.
                        Record::Pad { .. }
                        | Record::Checkpoint { .. }
                        | Record::HostLease { .. }
                        | Record::HostBarrier
                        | Record::ServerEpoch { .. } => {}
                    }
                    pos = next;
                    parsed_end = next;
                }
                None => break, // Ragged end: a record cut off by the crash.
            }
        }

        // Phase 2: redo every update in log order (values are absolute,
        // so this is idempotent), then undo uncommitted ones in reverse.
        let mut blocks: BTreeMap<u32, Block> = BTreeMap::new();
        let load =
            |disk: &SimDisk, blocks: &mut BTreeMap<u32, Block>, b: u32| -> DfsResult<()> {
                if let std::collections::btree_map::Entry::Vacant(e) = blocks.entry(b) {
                    e.insert(disk.read(b)?);
                }
                Ok(())
            };
        for (_, block, offset, _, new) in &updates {
            load(&disk, &mut blocks, *block)?;
            let frame = blocks.get_mut(block).expect("loaded");
            frame[*offset as usize..*offset as usize + new.len()].copy_from_slice(new);
            report.updates_redone += 1;
        }
        for (txid, block, offset, old, _) in updates.iter().rev() {
            if committed.contains(txid) {
                continue;
            }
            load(&disk, &mut blocks, *block)?;
            let frame = blocks.get_mut(block).expect("loaded");
            frame[*offset as usize..*offset as usize + old.len()].copy_from_slice(old);
            report.updates_undone += 1;
        }
        for (b, data) in &blocks {
            disk.write(*b, data)?;
        }
        disk.flush()?;
        report.committed_txns = committed.len() as u64;
        report.uncommitted_txns = all_txns.difference(&committed).count() as u64;

        // Phase 3: seal the ragged end with padding so future appends and
        // scans see a clean block-aligned stream head.
        let stream_base = tail.block_index() * LOG_PAYLOAD as u64;
        let mut head = Lsn(stream_base + parsed_end as u64);
        if head.block_offset() != 0 {
            let pad = LOG_PAYLOAD - head.block_offset();
            let start = parsed_end - head.block_offset();
            let mut payload = stream[start..parsed_end].to_vec();
            Record::Pad { len: pad as u32 }.encode(&mut payload);
            payload.resize(LOG_PAYLOAD, 0);
            let phys = region.physical(head.block_index());
            let block = encode_block(head.block_index(), &payload);
            disk.write_sync(phys, &block)?;
            head = Lsn(head.0 + pad as u64);
        }

        let jn = Journal::with_state(disk, region, head);
        jn.persist_superblock(head)?;
        report.disk_busy_us = jn.disk.stats().busy_us - busy_before;
        Ok((jn, report))
    }

    fn with_state(disk: SimDisk, region: LogRegion, head: Lsn) -> Arc<Journal> {
        Arc::new(Journal {
            disk,
            region,
            log: OrderedMutex::new(LogState {
                head,
                durable: head,
                tail: head,
                pending: Vec::new(),
                syncing: false,
                checkpointing: false,
            }),
            cache: OrderedRwLock::new(CacheState {
                frames: HashMap::new(),
                slots: Vec::new(),
                hand: 0,
                capacity: 1024,
            }),
            txns: OrderedMutex::new(TxnTable { next_id: 1, active: HashMap::new(), ops: 0 }),
            drained: OrderedCondvar::new(),
            synced: OrderedCondvar::new(),
            checkpointed: OrderedCondvar::new(),
            stats: JournalCounters::default(),
        })
    }

    /// Sets the buffer-cache capacity in frames (default 1024). A shrink
    /// takes effect on the next miss.
    pub fn set_cache_capacity(&self, frames: usize) {
        self.cache.write().capacity = frames.max(8);
    }

    /// Returns the underlying disk handle.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Returns the log region this journal occupies.
    pub fn region(&self) -> LogRegion {
        self.region
    }

    /// Returns a snapshot of the journal statistics.
    pub fn stats(&self) -> JournalStats {
        self.stats.snapshot()
    }

    fn read_superblock(disk: &SimDisk, region: LogRegion) -> DfsResult<Option<Lsn>> {
        let data = disk.read(region.first_block)?;
        let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
        if magic != SUPER_MAGIC {
            return Ok(None);
        }
        let tail = u64::from_le_bytes(data[4..12].try_into().unwrap());
        let sum = u32::from_le_bytes(data[12..16].try_into().unwrap());
        if logfmt::checksum(tail, &data[0..12]) != sum {
            return Ok(None);
        }
        Ok(Some(Lsn(tail)))
    }

    fn persist_superblock(&self, tail: Lsn) -> DfsResult<()> {
        let mut data = [0u8; BLOCK_SIZE];
        data[0..4].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
        data[4..12].copy_from_slice(&tail.0.to_le_bytes());
        let sum = logfmt::checksum(tail.0, &data[0..12]);
        data[12..16].copy_from_slice(&sum.to_le_bytes());
        self.disk.write_sync(self.region.first_block, &data)
    }

    // ------------------------------------------------------------------
    // Buffer cache
    // ------------------------------------------------------------------

    /// Returns a pinned handle to `block`, reading it if not cached.
    ///
    /// A hit takes the cache lock for reading, sets the frame's reference
    /// bit and takes no frame latch. A miss takes it for writing, looks
    /// again (a racing miss may have read the block meanwhile), and reads
    /// the block into the CLOCK victim's slot, or into a new slot while
    /// the cache is below capacity or every frame is pinned.
    pub fn get(&self, block: u32) -> DfsResult<BufHandle> {
        if let Some(hit) = self.hit(&self.cache.read(), block) {
            return Ok(hit);
        }
        let mut cache = self.cache.write();
        if let Some(hit) = self.hit(&cache, block) {
            return Ok(hit);
        }
        self.stats.cache_misses.add(1);
        let victim = self.make_room(&mut cache)?;
        let cell = Arc::new(FrameCell::new(block, Frame::read(self.disk.read(block)?)));
        cache.install(victim, cell.clone());
        Ok(BufHandle { cell })
    }

    /// Overwrites all of `block` with `data`, unlogged: a whole page of
    /// user data (§2.2), as [`Journal::write_data`] writes a part of one.
    ///
    /// A miss reads nothing, for every byte the disk holds is about to be
    /// replaced: the block is installed as a dirty frame in the CLOCK
    /// victim's slot, in the victim's own frame and buffer (written home
    /// first if dirty), or in a new slot while the cache is below
    /// capacity. A hit is [`Journal::write_data`] of the whole block.
    pub fn write_block(&self, block: u32, data: &[u8; BLOCK_SIZE]) -> DfsResult<()> {
        let hit = self.hit(&self.cache.read(), block);
        if let Some(hit) = hit {
            return self.write_data(&hit, 0, data);
        }
        let mut cache = self.cache.write();
        let hit = self.hit(&cache, block);
        if let Some(hit) = hit {
            drop(cache);
            return self.write_data(&hit, 0, data);
        }
        self.stats.cache_misses.add(1);
        match self.make_room(&mut cache)? {
            Some(slot) => cache.reuse(slot, block).overwrite(data),
            None => {
                let frame = Frame { dirty: true, unlogged: true, ..Frame::read(Box::new(*data)) };
                cache.install(None, Arc::new(FrameCell::new(block, frame)));
            }
        }
        Ok(())
    }

    /// A handle to `block` if it is cached, its reference bit set.
    fn hit(&self, cache: &CacheState, block: u32) -> Option<BufHandle> {
        let cell = cache.slots[*cache.frames.get(&block)?].clone();
        cell.referenced.store(true, Ordering::Relaxed);
        self.stats.cache_hits.add(1);
        Some(BufHandle { cell })
    }

    /// Makes room for one more frame: returns the victim's slot, written
    /// back under the WAL rule, or `None` to append a slot — below
    /// capacity, or with every frame pinned. Over capacity (after such an
    /// overshoot, or a shrink) it drops victims until the cache is back.
    /// A victim whose home block has gone bad with only user data on it
    /// is dropped like a clean one ([`Journal::write_frame`]).
    fn make_room(&self, cache: &mut CacheState) -> DfsResult<Option<usize>> {
        while cache.slots.len() >= cache.capacity {
            let Some(slot) = cache.victim() else { break };
            let cell = &cache.slots[slot];
            if self.write_frame(cell)? {
                self.disk.flush_blocks(&[cell.block])?;
            }
            if cache.slots.len() == cache.capacity {
                return Ok(Some(slot));
            }
            cache.remove(slot);
        }
        Ok(None)
    }

    /// Writes one dirty frame to its home block, honouring the WAL rule,
    /// and leaves it clean; the caller flushes the block. The log is
    /// forced up to the frame's last record with the latch released;
    /// then, under the latch again, a record that landed meanwhile sends
    /// it round once more, and otherwise the frame's own buffer goes to
    /// [`SimDisk::write`] under the latch — no copy is taken, and no
    /// update can land between the write and the frame turning clean
    /// (ranks `JOURNAL_FRAME`, then the disk's).
    ///
    /// Returns `false` when the home block has gone bad and the frame
    /// carries no log record (user data only): the frame turns clean with
    /// its bytes lost, and the caller drops it from the cache, so a read
    /// of the block meets the bad media, not bytes the disk never took.
    /// The store that wrote them was answered `MediaFailure` by its own
    /// write-home; kept dirty, the frame would fail every checkpoint and
    /// every eviction that picked it. A frame with a log record keeps
    /// the error: its records must stay redoable.
    fn write_frame(&self, cell: &FrameCell) -> DfsResult<bool> {
        let mut forced = Lsn(0);
        loop {
            let mut st = cell.state.lock();
            if !st.dirty {
                return Ok(true);
            }
            if st.last_lsn <= forced {
                match self.disk.write(cell.block, &st.data) {
                    Err(DfsError::MediaFailure) if st.first_lsn.is_none() => {
                        st.dirty = false;
                        st.unlogged = false;
                        return Ok(false);
                    }
                    written => written?,
                }
                let (version, first_lsn, last_lsn) = (st.version, st.first_lsn, st.last_lsn);
                st.written_home(version, first_lsn, last_lsn);
                self.stats.writebacks.add(1);
                return Ok(true);
            }
            forced = st.last_lsn;
            drop(st);
            self.force(Some(forced))?;
        }
    }

    /// Modifies a buffer *without* logging — for user data only.
    ///
    /// The paper's rule (§2.2) is that changes to user data are not
    /// logged; only metadata goes through [`Journal::update`]. Data
    /// written this way is durable only after the frame is written back
    /// (eviction, [`Journal::write_home`], or a checkpoint).
    pub fn write_data(&self, buf: &BufHandle, offset: usize, data: &[u8]) -> DfsResult<()> {
        if offset + data.len() > BLOCK_SIZE {
            return Err(DfsError::InvalidArgument);
        }
        let mut st = buf.cell.state.lock();
        st.data[offset..offset + data.len()].copy_from_slice(data);
        st.dirty = true;
        st.unlogged = true;
        st.version += 1;
        Ok(())
    }

    /// Forces the frames `bufs` home to stable storage: the store path's
    /// durability point for unlogged user data. Each dirty frame is
    /// written home under the WAL rule, then every block in
    /// `bufs` is flushed by one [`SimDisk::flush_blocks`] — a clean one
    /// too, whose write-back by another thread may not be flushed yet.
    pub fn write_home(&self, bufs: &[BufHandle]) -> DfsResult<()> {
        for buf in bufs {
            if !self.write_frame(&buf.cell)? {
                self.forget(&buf.cell);
                return Err(DfsError::MediaFailure);
            }
        }
        let blocks: Vec<u32> = bufs.iter().map(BufHandle::block).collect();
        self.disk.flush_blocks(&blocks)
    }

    /// Drops `cell` from the cache if it is still there: a frame whose
    /// bytes could not come home ([`Journal::write_frame`]).
    fn forget(&self, cell: &Arc<FrameCell>) {
        let mut cache = self.cache.write();
        if let Some(&slot) = cache.frames.get(&cell.block) {
            if Arc::ptr_eq(&cache.slots[slot], cell) {
                cache.remove(slot);
            }
        }
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Admits one file-system operation to the log. Call it first, with
    /// no lock held and no transaction open, and keep the guard until
    /// the operation's last transaction has resolved.
    ///
    /// The log tail cannot pass the oldest record of an open equivalence
    /// class, and a class stays open while any member is unresolved: two
    /// writers whose transactions keep overlapping on a shared buffer
    /// extend one class without end, until the log is full and
    /// [`DfsError::LogFull`] fails them both. So once more than half the
    /// log is pinned, a new operation waits here for the admitted ones
    /// to finish. They need nothing a waiter holds, nothing new joins
    /// their classes, so every class closes and the next checkpoint
    /// frees the log. It waits for operations, not transactions: one that
    /// failed and left its transaction unresolved still ends.
    pub fn admit(&self) -> Admitted<'_> {
        let mut txns = self.txns.lock();
        while txns.ops > 0 && self.pinned_bytes(&txns) > self.region.capacity_bytes() / 2 {
            self.drained.wait(&mut txns);
        }
        txns.ops += 1;
        Admitted(self)
    }

    /// Log bytes from the oldest record of an unfinished transaction to
    /// the head: what no checkpoint can free right now.
    fn pinned_bytes(&self, txns: &TxnTable) -> u64 {
        let (head, tail) = {
            let log = self.log.lock();
            (log.head, log.tail)
        };
        // The scan is for the rare case only: usually the whole log in
        // use is under half of it.
        if head.0 - tail.0 <= self.region.capacity_bytes() / 2 {
            return 0;
        }
        let oldest = txns.active.values().filter_map(|t| t.first_lsn).min();
        oldest.map_or(0, |first| head.0.saturating_sub(first.0))
    }

    /// Begins a new transaction and returns its id.
    pub fn begin(&self) -> TxnId {
        let mut txns = self.txns.lock();
        let id = txns.next_id;
        txns.next_id += 1;
        txns.active.insert(
            id,
            TxnState {
                parent: id,
                first_lsn: None,
                undo: Vec::new(),
                resolved: false,
                members: vec![id],
                unresolved: 1,
            },
        );
        self.stats.txns_begun.add(1);
        id
    }

    /// Applies a logged change of `new` bytes at `offset` in `buf`.
    ///
    /// The old value is captured from the buffer, an update record with
    /// both values is appended to the log, and the buffer is modified —
    /// the only way buffers are ever modified. The record carries only
    /// the span from the first to the last byte that differs from the
    /// buffer, and an update that changes nothing appends no record; it
    /// still joins `txn` to the buffer's equivalence class. Changes
    /// larger than [`MAX_UPDATE`] are chunked into several records.
    pub fn update(&self, txn: TxnId, buf: &BufHandle, offset: usize, new: &[u8]) -> DfsResult<()> {
        if offset + new.len() > BLOCK_SIZE {
            return Err(DfsError::InvalidArgument);
        }
        let mut done = 0;
        while done < new.len() {
            let n = (new.len() - done).min(MAX_UPDATE);
            self.update_chunk(txn, buf, offset + done, &new[done..done + n])?;
            done += n;
        }
        Ok(())
    }

    fn update_chunk(
        &self,
        txn: TxnId,
        buf: &BufHandle,
        offset: usize,
        new: &[u8],
    ) -> DfsResult<()> {
        // Reserve log space before taking any locks: reservation may
        // checkpoint, which needs the cache, frame, and txn locks itself.
        self.reserve(update_len(new.len()) as u64)?;
        let mut st = buf.cell.state.lock();

        // Log only the bytes that change. Not against a frame holding
        // unlogged user data, though: the disk lacks those bytes, so if
        // the block is reused as metadata before it goes home, redo must
        // restore every byte of the update, equal to the frame or not.
        let span = if st.unlogged {
            Some((0, new.len()))
        } else {
            changed_span(&st.data[offset..offset + new.len()], new)
        };

        // `txns` is held for the class merge, the append and the undo
        // entry only: a checkpoint computing the tail under it sees the
        // record or the transaction's `first_lsn`, never neither.
        let mut txns = self.txns.lock();
        let mut root =
            txns.find(txn).ok_or(DfsError::Internal("update on inactive transaction"))?;
        // Merge equivalence classes when two active transactions touch
        // the same buffer (§2.2 serializability). The dependency is on
        // what `txn` read, so an update that changes nothing merges too.
        if let Some(prev_root) = st.writer_class.and_then(|prev| txns.find(prev)) {
            if prev_root != root {
                root = txns.union(prev_root, root);
                self.stats.class_merges.add(1);
            }
        }
        st.writer_class = Some(root);
        let Some((lo, hi)) = span else {
            return Ok(());
        };
        let (offset, new) = (offset + lo, &new[lo..hi]);
        let old = st.data[offset..offset + new.len()].to_vec();
        let len = update_len(new.len());
        let lsn = self.append(len, |out| {
            logfmt::encode_update(out, txn, buf.cell.block, offset as u16, &old, new)
        });
        let t = txns.active.get_mut(&txn).expect("checked active");
        t.first_lsn.get_or_insert(lsn);
        t.undo.push((buf.cell.block, offset as u16, old));
        drop(txns);

        st.data[offset..offset + new.len()].copy_from_slice(new);
        st.dirty = true;
        st.version += 1;
        st.first_lsn.get_or_insert(lsn);
        st.last_lsn = Lsn(lsn.0 + len as u64);
        drop(st);
        self.stats.update_records.add(1);
        Ok(())
    }

    /// Fills `len` bytes at `offset` in `buf` with `byte`, logged.
    pub fn update_fill(
        &self,
        txn: TxnId,
        buf: &BufHandle,
        offset: usize,
        len: usize,
        byte: u8,
    ) -> DfsResult<()> {
        self.update(txn, buf, offset, &vec![byte; len])
    }

    /// Requests commit of `txn`.
    ///
    /// If the transaction shares an equivalence class with other active
    /// transactions, the commit record is deferred until every member has
    /// resolved; the class then commits atomically. The commit record is
    /// buffered — durability requires [`Journal::sync`] (group commit).
    pub fn commit(&self, txn: TxnId) -> DfsResult<()> {
        self.resolve(txn, false)
    }

    /// Aborts `txn`, rolling back its changes.
    ///
    /// Rollback is CLR-style: each update is reversed by a new logged
    /// update, so recovery only ever replays forward. The class still
    /// commits (the aborted member's net effect is nothing).
    pub fn abort(&self, txn: TxnId) -> DfsResult<()> {
        // Reverse this transaction's updates with compensating records.
        let undo = {
            let mut txns = self.txns.lock();
            let t = txns
                .active
                .get_mut(&txn)
                .ok_or(DfsError::Internal("abort on inactive transaction"))?;
            std::mem::take(&mut t.undo)
        };
        for (block, offset, old) in undo.into_iter().rev() {
            let buf = self.get(block)?;
            self.update_chunk(txn, &buf, offset as usize, &old)?;
        }
        self.stats.txns_aborted.add(1);
        self.resolve(txn, true)
    }

    fn resolve(&self, txn: TxnId, aborted: bool) -> DfsResult<()> {
        // Reserve room for the class's commit record while no lock is
        // held (reservation may checkpoint). The class is known only
        // under the lock: if this resolve closes a class larger than
        // reserved for, release it and reserve again.
        let mut reserved = 1;
        let (mut txns, root) = loop {
            self.reserve(commit_len(reserved) as u64)?;
            let mut txns = self.txns.lock();
            let root =
                txns.find(txn).ok_or(DfsError::Internal("resolve on inactive transaction"))?;
            let class = &txns.active[&root];
            if class.unresolved > 1 || class.members.len() <= reserved {
                break (txns, root);
            }
            reserved = class.members.len();
        };
        {
            let t = txns.active.get_mut(&txn).expect("found root implies active");
            if t.resolved {
                return Err(DfsError::Internal("transaction resolved twice"));
            }
            t.resolved = true;
        }
        let class = txns.active.get_mut(&root).expect("active root");
        class.unresolved -= 1;
        if class.unresolved > 0 {
            return Ok(());
        }
        // The commit record goes in before the members leave the table,
        // so no checkpoint sees the class gone while its records still
        // need undoing.
        let members = std::mem::take(&mut class.members);
        self.append(commit_len(members.len()), |out| logfmt::encode_commit(out, &members));
        for m in &members {
            txns.active.remove(m);
        }
        drop(txns);
        self.stats.commit_records.add(1);
        self.stats.txns_committed.add(members.len() as u64 - u64::from(aborted));
        Ok(())
    }

    /// Returns the number of currently active (unresolved) transactions.
    pub fn active_txns(&self) -> usize {
        self.txns.lock().active.len()
    }

    // ------------------------------------------------------------------
    // Log management
    // ------------------------------------------------------------------

    /// Ensures at least `need` bytes of log space are available.
    ///
    /// Must be called with *no* journal locks held: it may checkpoint,
    /// which takes the cache, frame, and transaction locks. Out of space,
    /// a caller that finds a checkpoint in flight waits for it and looks
    /// again, as a forcer waits for the group commit in flight; only one
    /// that still finds the log full runs a checkpoint of its own.
    fn reserve(&self, need: u64) -> DfsResult<()> {
        let capacity = self.region.capacity_bytes();
        let fits = |log: &LogState| (log.head.0 - log.tail.0) + need <= capacity;
        let mut log = self.log.lock();
        while !fits(&log) && log.checkpointing {
            self.checkpointed.wait(&mut log);
        }
        if fits(&log) {
            return Ok(());
        }
        // Out of space: checkpoint to advance the tail, then re-check.
        self.lead_checkpoint(log)?;
        if !fits(&self.log.lock()) {
            return Err(DfsError::LogFull);
        }
        Ok(())
    }

    /// Appends the `len` bytes `encode` writes to the in-memory log,
    /// returning their LSN.
    ///
    /// Space must have been reserved by [`Journal::reserve`].
    fn append(&self, len: usize, encode: impl FnOnce(&mut Vec<u8>)) -> Lsn {
        let mut log = self.log.lock();
        let lsn = log.head;
        encode(&mut log.pending);
        log.head = Lsn(lsn.0 + len as u64);
        drop(log);
        self.stats.log_bytes.add(len as u64);
        lsn
    }

    /// Group commit: forces the log to disk (§2.2 batch commit).
    ///
    /// The pending record stream is padded to a block boundary and
    /// written sequentially to the circular log region, then flushed.
    /// All buffered commit records become durable.
    pub fn sync(&self) -> DfsResult<()> {
        self.force(None)
    }

    /// Makes the log durable up to `upto`, or up to the head at the
    /// call. A caller that finds a group commit in flight waits for it;
    /// if that covered its records it is done, else it leads the next.
    ///
    /// The leader swaps the pending batch out under `log` and writes it
    /// with the lock released, so appenders keep appending behind it
    /// (the group-commit leader of Aether, Johnson et al., VLDB 2010),
    /// then publishes `durable` and wakes the waiters.
    fn force(&self, upto: Option<Lsn>) -> DfsResult<()> {
        let mut log = self.log.lock();
        let target = upto.unwrap_or(log.head);
        while log.syncing && log.durable < target {
            self.synced.wait(&mut log);
        }
        if log.durable >= target {
            return Ok(());
        }
        // Pad to a block boundary so every flushed block is complete.
        let ragged = (log.head.0 % LOG_PAYLOAD as u64) as usize;
        if ragged != 0 {
            let pad = LOG_PAYLOAD - ragged;
            Record::Pad { len: pad as u32 }.encode(&mut log.pending);
            log.head = Lsn(log.head.0 + pad as u64);
            self.stats.pad_bytes.add(pad as u64);
        }
        debug_assert_eq!(log.head.0 % LOG_PAYLOAD as u64, 0);
        debug_assert_eq!(log.durable.0 % LOG_PAYLOAD as u64, 0);
        let first = log.durable.block_index();
        let batch = std::mem::take(&mut log.pending);
        let done = log.head;
        log.syncing = true;
        drop(log);

        let written = self.write_log(first, &batch);

        let mut log = self.log.lock();
        match written {
            Ok(()) => log.durable = log.durable.max(done),
            // `durable` stays where it was: the batch goes back in front
            // of whatever was appended since, for the next leader.
            Err(_) => {
                let newer = std::mem::replace(&mut log.pending, batch);
                log.pending.extend_from_slice(&newer);
            }
        }
        log.syncing = false;
        drop(log);
        self.synced.notify_all();
        written
    }

    /// Writes `batch` as whole log blocks from stream block `first` on
    /// and flushes the log region. Called with no lock held.
    fn write_log(&self, first: u64, batch: &[u8]) -> DfsResult<()> {
        for (i, chunk) in batch.chunks(LOG_PAYLOAD).enumerate() {
            let index = first + i as u64;
            self.disk.write(self.region.physical(index), &encode_block(index, chunk))?;
        }
        self.disk
            .flush_range(self.region.first_block, self.region.first_block + self.region.blocks)?;
        self.stats.syncs.add(1);
        self.stats.log_block_writes.add((batch.len() / LOG_PAYLOAD) as u64);
        Ok(())
    }

    /// Checkpoints the journal: all dirty frames are written home and the
    /// log tail advances past everything now reflected on disk. One runs
    /// at a time: a caller that finds one in flight waits for it, then
    /// runs its own, which covers what changed since that one began.
    pub fn checkpoint(&self) -> DfsResult<()> {
        let mut log = self.log.lock();
        while log.checkpointing {
            self.checkpointed.wait(&mut log);
        }
        self.lead_checkpoint(log)
    }

    /// Runs a checkpoint as the one in flight; `log` is the log lock,
    /// under which no checkpoint was found running.
    fn lead_checkpoint(
        &self,
        mut log: OrderedMutexGuard<'_, LogState, { rank::JOURNAL_LOG }>,
    ) -> DfsResult<()> {
        log.checkpointing = true;
        drop(log);
        let done = self.run_checkpoint();
        self.log.lock().checkpointing = false;
        self.checkpointed.notify_all();
        done
    }

    /// The checkpoint itself: a group commit, every dirty frame written
    /// home with one flush for them all, and the tail moved up.
    fn run_checkpoint(&self) -> DfsResult<()> {
        self.sync()?;
        let cells = self.cache.read().slots.clone();
        for cell in &cells {
            if !self.write_frame(cell)? {
                self.forget(cell);
            }
        }
        self.disk.flush()?;
        // New tail: oldest LSN still needed by an active transaction,
        // else the durable head.
        let mut tail = self.log.lock().durable;
        {
            let txns = self.txns.lock();
            for t in txns.active.values() {
                if let Some(f) = t.first_lsn {
                    tail = tail.min(f);
                }
            }
        }
        // Frames re-dirtied since the sweep passed them hold logged
        // changes not yet on disk; the tail must not pass their oldest
        // LSN or recovery could no longer redo them.
        for cell in &cells {
            let st = cell.state.lock();
            if st.dirty {
                if let Some(f) = st.first_lsn {
                    tail = tail.min(f);
                }
            }
        }
        let new_tail = {
            let mut log = self.log.lock();
            log.tail = log.tail.max(tail);
            log.tail
        };
        self.persist_superblock(new_tail)?;
        self.stats.checkpoints.add(1);
        Ok(())
    }

    /// Returns (tail, durable, head) LSNs, for diagnostics and tests.
    pub fn log_positions(&self) -> (Lsn, Lsn, Lsn) {
        let log = self.log.lock();
        (log.tail, log.durable, log.head)
    }

    /// Returns bytes of log space currently in use (head minus tail).
    pub fn log_used_bytes(&self) -> u64 {
        let log = self.log.lock();
        log.head.0 - log.tail.0
    }

    /// Flushes everything: log, dirty buffers, and the disk cache.
    ///
    /// Used at unmount and by `fsync`-style operations.
    pub fn flush_all(&self) -> DfsResult<()> {
        self.checkpoint()
    }
}

/// The span `lo..hi` of `new` from its first to its last byte that
/// differs from `cur` (as long), or `None` if none does. Whole chunks
/// compare first, as slices: most of a rewritten block is unchanged.
fn changed_span(cur: &[u8], new: &[u8]) -> Option<(usize, usize)> {
    const CHUNK: usize = 64;
    let differs = |(a, b): (&u8, &u8)| a != b;
    let mut lo = 0;
    while lo + CHUNK <= cur.len() && cur[lo..lo + CHUNK] == new[lo..lo + CHUNK] {
        lo += CHUNK;
    }
    let lo = lo + cur[lo..].iter().zip(&new[lo..]).position(differs)?;
    let mut hi = cur.len();
    while hi >= lo + CHUNK && cur[hi - CHUNK..hi] == new[hi - CHUNK..hi] {
        hi -= CHUNK;
    }
    let tail = cur[lo..hi].iter().zip(&new[lo..hi]).rev().position(differs);
    Some((lo, hi - tail.expect("byte `lo` differs")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_disk::DiskConfig;

    fn setup() -> (SimDisk, Arc<Journal>) {
        let disk = SimDisk::new(DiskConfig::with_blocks(4096));
        let region = LogRegion { first_block: 1, blocks: 128 };
        let jn = Journal::format(disk.clone(), region).unwrap();
        (disk, jn)
    }

    /// `changed_span` finds the span a byte-by-byte scan finds, at
    /// every length around its chunk size, with the changes anywhere.
    #[test]
    fn changed_span_matches_a_byte_by_byte_scan() {
        let naive = |cur: &[u8], new: &[u8]| {
            let diff: Vec<usize> = (0..cur.len()).filter(|&i| cur[i] != new[i]).collect();
            Some((*diff.first()?, diff.last()? + 1))
        };
        for len in [0, 1, 63, 64, 65, 127, 128, 200, 2048] {
            let cur: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            assert_eq!(changed_span(&cur, &cur), None, "len {len}");
            for lo in (0..len).step_by(13) {
                for hi in (lo..len).step_by(29).chain([len - 1]) {
                    let mut new = cur.clone();
                    new[lo] ^= 1;
                    new[hi] ^= 2;
                    assert_eq!(changed_span(&cur, &new), naive(&cur, &new), "{len}: {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn update_modifies_buffer_and_survives_sync() {
        let (_, jn) = setup();
        let t = jn.begin();
        let b = jn.get(500).unwrap();
        jn.update(t, &b, 10, &[1, 2, 3, 4]).unwrap();
        assert_eq!(b.read_at(10, 4), vec![1, 2, 3, 4]);
        jn.commit(t).unwrap();
        jn.sync().unwrap();
        assert_eq!(jn.active_txns(), 0);
    }

    #[test]
    fn committed_transaction_survives_crash() {
        let (disk, jn) = setup();
        let t = jn.begin();
        let b = jn.get(500).unwrap();
        jn.update(t, &b, 0, &[0xAB; 16]).unwrap();
        jn.commit(t).unwrap();
        jn.sync().unwrap();
        // Dirty frame never written back; crash loses the disk cache.
        disk.crash(None);
        disk.power_on();
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        assert!(!report.formatted);
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.uncommitted_txns, 0);
        assert!(report.updates_redone >= 1);
        let b = jn2.get(500).unwrap();
        assert_eq!(b.read_at(0, 16), vec![0xAB; 16]);
    }

    #[test]
    fn uncommitted_transaction_is_undone() {
        let (disk, jn) = setup();
        // Committed baseline value.
        let t0 = jn.begin();
        let b = jn.get(600).unwrap();
        jn.update(t0, &b, 0, &[7; 8]).unwrap();
        jn.commit(t0).unwrap();
        // Uncommitted overwrite, forced durable by sync.
        let t1 = jn.begin();
        jn.update(t1, &b, 0, &[9; 8]).unwrap();
        jn.sync().unwrap();
        disk.crash(None);
        disk.power_on();
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        assert_eq!(report.uncommitted_txns, 1);
        assert!(report.updates_undone >= 1);
        let b = jn2.get(600).unwrap();
        assert_eq!(b.read_at(0, 8), vec![7; 8], "uncommitted change rolled back");
    }

    #[test]
    fn unsynced_commit_is_lost_but_consistent() {
        let (disk, jn) = setup();
        let t = jn.begin();
        let b = jn.get(700).unwrap();
        jn.update(t, &b, 0, &[5; 4]).unwrap();
        jn.commit(t).unwrap();
        // No sync: commit record never reaches disk.
        disk.crash(None);
        disk.power_on();
        let (jn2, _) = Journal::open(disk, jn.region()).unwrap();
        let b = jn2.get(700).unwrap();
        assert_eq!(b.read_at(0, 4), vec![0; 4], "lost commit leaves old state");
    }

    #[test]
    fn abort_rolls_back_in_memory_and_after_crash() {
        let (disk, jn) = setup();
        let t = jn.begin();
        let b = jn.get(800).unwrap();
        jn.update(t, &b, 4, &[1, 1]).unwrap();
        jn.update(t, &b, 8, &[2, 2]).unwrap();
        jn.abort(t).unwrap();
        assert_eq!(b.read_at(4, 6), vec![0, 0, 0, 0, 0, 0]);
        jn.sync().unwrap();
        disk.crash(None);
        disk.power_on();
        let (jn2, _) = Journal::open(disk, jn.region()).unwrap();
        let b = jn2.get(800).unwrap();
        assert_eq!(b.read_at(4, 6), vec![0; 6]);
    }

    #[test]
    fn shared_buffer_merges_equivalence_classes() {
        let (disk, jn) = setup();
        let a = jn.begin();
        let b_txn = jn.begin();
        let buf = jn.get(900).unwrap();
        jn.update(a, &buf, 0, &[1]).unwrap();
        jn.update(b_txn, &buf, 1, &[2]).unwrap();
        // A commits, but the class must wait for B.
        jn.commit(a).unwrap();
        assert_eq!(jn.active_txns(), 2, "class not committed until B resolves");
        jn.sync().unwrap();
        disk.crash(None);
        disk.power_on();
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        // Neither A nor B committed: both undone.
        assert_eq!(report.committed_txns, 0);
        let buf = jn2.get(900).unwrap();
        assert_eq!(buf.read_at(0, 2), vec![0, 0], "A must not commit without B");
    }

    #[test]
    fn admission_waits_out_the_running_ops_once_half_the_log_is_pinned() {
        let (_disk, jn) = setup();
        let half = jn.region().capacity_bytes() / 2;
        let buf = jn.get(902).unwrap();
        // One operation whose transactions always overlap on one buffer,
        // as two busy writers' do: each joins the class before the last
        // resolves, nothing commits, and the tail stays at the first.
        let running = jn.admit();
        let mut open = jn.begin();
        jn.update(open, &buf, 0, &[0; 512]).unwrap();
        for fill in 1.. {
            if jn.log_used_bytes() > half + half / 4 {
                break;
            }
            let next = jn.begin();
            jn.update(next, &buf, 0, &[fill as u8; 512]).unwrap();
            jn.commit(open).unwrap();
            open = next;
        }
        assert!(jn.active_txns() > 10, "one open class");
        assert_eq!(jn.stats().commit_records, 0);

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let jn = &jn;
            s.spawn(move || {
                tx.send("arrived").unwrap();
                let _op = jn.admit();
                tx.send("admitted").unwrap();
            });
            assert_eq!(rx.recv(), Ok("arrived"));
            for _ in 0..1000 {
                std::thread::yield_now();
            }
            assert!(rx.try_recv().is_err(), "admitted on top of a pinned log");
            // The running operation's last transaction resolves — the
            // class closes — and the operation ends.
            jn.commit(open).unwrap();
            assert_eq!(jn.active_txns(), 0);
            drop(running);
            assert_eq!(rx.recv(), Ok("admitted"));
        });
        // Nothing pinned: admission never waits, whatever is running.
        let _both = (jn.admit(), jn.admit());
        // And the log the class held is free again.
        jn.checkpoint().unwrap();
        assert_eq!(jn.log_used_bytes(), 0);
    }

    #[test]
    fn a_frame_redirtied_under_its_writeback_needs_only_what_came_after() {
        let (_disk, jn) = setup();
        let buf = jn.get(903).unwrap();
        let write = |byte: u8| {
            let t = jn.begin();
            jn.update(t, &buf, 0, &[byte; 256]).unwrap();
            jn.commit(t).unwrap();
        };
        write(1);
        // A sweep snapshots the frame and releases its latch for the
        // I/O; an update lands before it looks again.
        let (version, first, last) = {
            let st = buf.cell.state.lock();
            (st.version, st.first_lsn, st.last_lsn)
        };
        write(2);
        buf.cell.state.lock().written_home(version, first, last);
        let mut st = buf.cell.state.lock();
        assert!(st.dirty, "the newer change is not home");
        // Everything before it is: the tail may pass the first update.
        // Left at `first`, a frame re-dirtied under every sweep held the
        // whole log.
        assert_eq!(st.first_lsn, Some(last));
        assert!(first.expect("logged") < last);
        // Undisturbed, a write-back cleans the frame.
        let (version, first, last) = (st.version, st.first_lsn, st.last_lsn);
        st.written_home(version, first, last);
        assert!(!st.dirty && st.first_lsn.is_none());
    }

    #[test]
    fn an_identical_write_appends_no_record_and_still_merges_the_class() {
        let (_, jn) = setup();
        let buf = jn.get(904).unwrap();
        let a = jn.begin();
        jn.update(a, &buf, 0, &[1, 2, 3]).unwrap();
        jn.commit(a).unwrap();
        jn.checkpoint().unwrap();
        assert!(!buf.cell.state.lock().dirty);

        // While another transaction has the buffer, B writes back what
        // A wrote, unchanged, as Episode rewrites a whole anode: nothing
        // to log.
        let writer = jn.begin();
        jn.update(writer, &buf, 8, &[9]).unwrap();
        let before = jn.stats();
        let b = jn.begin();
        jn.update(b, &buf, 0, &[1, 2, 3]).unwrap();
        let d = jn.stats().since(&before);
        assert_eq!((d.update_records, d.log_bytes), (0, 0), "no record");
        // But B joined the class of the buffer's live writer: B read its
        // byte 8, so B commits only with it.
        assert_eq!(d.class_merges, 1);
        jn.commit(b).unwrap();
        assert_eq!(jn.active_txns(), 2, "B waits for the class");
        jn.commit(writer).unwrap();
        assert_eq!(jn.active_txns(), 0);

        // An identical write to a clean frame leaves it clean.
        jn.checkpoint().unwrap();
        let c = jn.begin();
        jn.update(c, &buf, 0, &[1, 2, 3]).unwrap();
        jn.commit(c).unwrap();
        assert!(!buf.cell.state.lock().dirty, "an unchanged frame is not dirtied");
    }

    #[test]
    fn a_partly_identical_write_logs_only_the_changed_span_and_recovers() {
        let (disk, jn) = setup();
        let buf = jn.get(905).unwrap();
        let t = jn.begin();
        jn.update(t, &buf, 0, &[7; 64]).unwrap();
        jn.commit(t).unwrap();
        jn.checkpoint().unwrap();

        let mut image = [7u8; 64];
        image[10] = 1;
        image[19] = 2;
        let before = jn.stats();
        let t = jn.begin();
        jn.update(t, &buf, 0, &image).unwrap();
        jn.commit(t).unwrap();
        jn.sync().unwrap();
        let d = jn.stats().since(&before);
        assert_eq!(d.update_records, 1);
        // Bytes 10 through 19: the span between the first and last change.
        assert_eq!(d.log_bytes, (update_len(10) + commit_len(1)) as u64);

        disk.crash(None);
        disk.power_on();
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        assert_eq!((report.committed_txns, report.updates_redone), (1, 1));
        assert_eq!(jn2.get(905).unwrap().read_at(0, 64), image.to_vec());
    }

    #[test]
    fn unlogged_bytes_reused_as_metadata_recover_byte_exact() {
        let (disk, jn) = setup();
        let buf = jn.get(906).unwrap();
        // The block's home copy: an old user-data page.
        jn.write_data(&buf, 0, &[0x55; BLOCK_SIZE]).unwrap();
        jn.write_home(std::slice::from_ref(&buf)).unwrap();
        // A newer page, freed before its write-back: zeros but for a
        // stretch in the middle, in the frame only.
        let mut page = [0u8; BLOCK_SIZE];
        page[100..200].fill(0xEE);
        jn.write_data(&buf, 0, &page).unwrap();
        // The block is reused as metadata, zero-filled and committed.
        let t = jn.begin();
        jn.update_fill(t, &buf, 0, BLOCK_SIZE, 0).unwrap();
        jn.commit(t).unwrap();
        jn.sync().unwrap();
        disk.crash(None);
        disk.power_on();
        // Trimmed against the frame, the record would name bytes 100..200
        // only, and redo would leave the home copy's 0x55 everywhere else.
        let (jn2, _) = Journal::open(disk, jn.region()).unwrap();
        assert_eq!(jn2.get(906).unwrap().read_at(0, BLOCK_SIZE), vec![0; BLOCK_SIZE]);
    }

    #[test]
    fn a_200_member_class_commits_within_the_log() {
        let disk = SimDisk::new(DiskConfig::with_blocks(4096));
        let jn = Journal::format(disk, LogRegion { first_block: 1, blocks: 8 }).unwrap();
        let capacity = jn.region().capacity_bytes();
        // Two hundred transactions that read one buffer: one class, whose
        // commit record is 1 603 bytes.
        let shared = jn.get(1000).unwrap();
        let members: Vec<TxnId> = (0..200)
            .map(|_| {
                let t = jn.begin();
                jn.update(t, &shared, 0, &[0; 8]).unwrap();
                t
            })
            .collect();
        // Other work fills the log to within 1 000 bytes of capacity.
        let mut round = 0u32;
        while capacity - jn.log_used_bytes() >= 1000 {
            let t = jn.begin();
            let b = jn.get(2000 + round % 16).unwrap();
            jn.update(t, &b, 0, &[round as u8 + 1; 100]).unwrap();
            jn.commit(t).unwrap();
            assert!(jn.log_used_bytes() <= capacity);
            round += 1;
        }
        for t in members {
            jn.commit(t).unwrap();
            assert!(jn.log_used_bytes() <= capacity, "the commit record overran the log");
        }
        assert_eq!(jn.active_txns(), 0);
        assert_eq!(jn.stats().commit_records, u64::from(round) + 1);
    }

    #[test]
    fn four_syncing_threads_recover_every_transaction_whose_sync_returned() {
        let (disk, jn) = setup();
        let returned: Vec<Vec<(u32, usize, u64)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4u32)
                .map(|t| {
                    let jn = &jn;
                    s.spawn(move || {
                        let mut synced = Vec::new();
                        for i in 0..300u64 {
                            // Admitted like an Episode operation: a writer
                            // descheduled with its transaction open must
                            // not let the other three fill the log.
                            let _op = jn.admit();
                            let (block, offset) = (3950 + t, (i as usize % 500) * 8);
                            let buf = jn.get(block).unwrap();
                            let txn = jn.begin();
                            jn.update(txn, &buf, offset, &(i + 1).to_le_bytes()).unwrap();
                            jn.commit(txn).unwrap();
                            jn.sync().unwrap();
                            synced.push((block, offset, i + 1));
                        }
                        synced
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        disk.crash(None);
        disk.power_on();
        // Checkpoints took the older ones home; the log holds the rest.
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        assert!(report.committed_txns > 0);
        for (block, offset, value) in returned.into_iter().flatten() {
            assert_eq!(jn2.get(block).unwrap().u64_at(offset), value, "{block}+{offset}");
        }
    }

    #[test]
    fn a_writeback_waits_for_the_sync_in_flight_that_covers_it() {
        let (_, jn) = setup();
        let buf = jn.get(907).unwrap();
        let t = jn.begin();
        jn.update(t, &buf, 0, &[4; 16]).unwrap();
        jn.commit(t).unwrap();
        // Play the leader of a group commit up to its disk write: the
        // batch is out, `syncing` set, the lock released.
        let (first, batch, done) = {
            let mut log = jn.log.lock();
            let pad = LOG_PAYLOAD - log.head.block_offset();
            Record::Pad { len: pad as u32 }.encode(&mut log.pending);
            log.head = Lsn(log.head.0 + pad as u64);
            log.syncing = true;
            (log.durable.block_index(), std::mem::take(&mut log.pending), log.head)
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let (jn, buf) = (&jn, &buf);
            s.spawn(move || {
                jn.write_home(std::slice::from_ref(buf)).unwrap();
                tx.send(()).unwrap();
            });
            for _ in 0..1000 {
                std::thread::yield_now();
            }
            assert!(rx.try_recv().is_err(), "wrote the frame home ahead of its log");
            assert_eq!((jn.stats().writebacks, jn.stats().syncs), (0, 0));
            // The leader's write lands and `durable` is published.
            jn.write_log(first, &batch).unwrap();
            {
                let mut log = jn.log.lock();
                log.durable = done;
                log.syncing = false;
            }
            jn.synced.notify_all();
            rx.recv().unwrap();
        });
        // The write-back rode on the leader's sync instead of its own.
        assert_eq!((jn.stats().writebacks, jn.stats().syncs), (1, 1));
    }

    #[test]
    fn class_commits_when_all_members_resolve() {
        let (disk, jn) = setup();
        let a = jn.begin();
        let b_txn = jn.begin();
        let buf = jn.get(901).unwrap();
        jn.update(a, &buf, 0, &[1]).unwrap();
        jn.update(b_txn, &buf, 1, &[2]).unwrap();
        jn.commit(a).unwrap();
        jn.commit(b_txn).unwrap();
        assert_eq!(jn.active_txns(), 0);
        jn.sync().unwrap();
        disk.crash(None);
        disk.power_on();
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        assert_eq!(report.committed_txns, 2);
        let buf = jn2.get(901).unwrap();
        assert_eq!(buf.read_at(0, 2), vec![1, 2]);
    }

    #[test]
    fn torn_log_write_is_detected() {
        let (disk, jn) = setup();
        let t = jn.begin();
        let b = jn.get(1000).unwrap();
        // 1500 changed bytes -> a ~3 KB record, so the torn (half-block)
        // write cuts through real record content, not just padding.
        jn.update(t, &b, 0, &[3; 1500]).unwrap();
        jn.commit(t).unwrap();
        // Build the log block by hand into the volatile cache, then crash
        // tearing it; the checksum must reject the half-written block.
        let log_block = jn.region().physical(0);
        {
            let mut log = jn.log.lock();
            let mut padded = std::mem::take(&mut log.pending);
            let ragged = (log.head.0 % LOG_PAYLOAD as u64) as usize;
            if ragged != 0 {
                Record::Pad { len: (LOG_PAYLOAD - ragged) as u32 }.encode(&mut padded);
            }
            padded.resize(LOG_PAYLOAD, 0);
            disk.write(log_block, &encode_block(0, &padded)).unwrap();
        }
        disk.crash(Some(log_block));
        disk.power_on();
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        assert_eq!(report.records, 0, "torn block fails checksum, scan stops");
        let b = jn2.get(1000).unwrap();
        assert_eq!(b.read_at(0, 1500), vec![0; 1500]);
    }

    #[test]
    fn checkpoint_advances_tail_and_bounds_log() {
        let (_, jn) = setup();
        for round in 0..50u32 {
            let t = jn.begin();
            let b = jn.get(2000 + round % 7).unwrap();
            jn.update(t, &b, 0, &[round as u8; 64]).unwrap();
            jn.commit(t).unwrap();
        }
        jn.checkpoint().unwrap();
        assert_eq!(jn.log_used_bytes(), 0, "checkpoint reclaims the whole log");
    }

    #[test]
    fn log_wraps_around_circularly() {
        let (_, jn) = setup();
        // Capacity is (128-1-2)*4080 ≈ 510 KB; push more than that through.
        for round in 0..4000u32 {
            let t = jn.begin();
            let b = jn.get(2100 + (round % 13)).unwrap();
            jn.update(t, &b, (round % 16) as usize * 200, &[round as u8; 200]).unwrap();
            jn.commit(t).unwrap();
            if round % 50 == 0 {
                jn.sync().unwrap();
            }
        }
        jn.checkpoint().unwrap();
        let (tail, _, head) = jn.log_positions();
        assert!(head.0 > jn.region().capacity_bytes(), "stream wrapped at least once");
        assert_eq!(tail, head);
    }

    #[test]
    fn recovery_after_wrap_reads_only_active_region() {
        let (disk, jn) = setup();
        for round in 0..3000u32 {
            let t = jn.begin();
            let b = jn.get(2200 + (round % 5)).unwrap();
            jn.update(t, &b, 0, &[round as u8; 100]).unwrap();
            jn.commit(t).unwrap();
            if round % 100 == 0 {
                jn.checkpoint().unwrap();
            }
        }
        let t = jn.begin();
        let b = jn.get(2300).unwrap();
        jn.update(t, &b, 0, &[0xCD; 32]).unwrap();
        jn.commit(t).unwrap();
        jn.sync().unwrap();
        disk.crash(None);
        disk.power_on();
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        assert!(
            report.scanned_blocks < 128,
            "recovery must scan only the active log, scanned {}",
            report.scanned_blocks
        );
        let b = jn2.get(2300).unwrap();
        assert_eq!(b.read_at(0, 32), vec![0xCD; 32]);
    }

    #[test]
    fn single_transaction_larger_than_log_fails() {
        let disk = SimDisk::new(DiskConfig::with_blocks(4096));
        let region = LogRegion { first_block: 1, blocks: 8 };
        let jn = Journal::format(disk, region).unwrap();
        let t = jn.begin();
        let mut failed = false;
        'outer: for block in 0..64u32 {
            let b = jn.get(1000 + block).unwrap();
            for off in 0..2 {
                if jn.update(t, &b, off * 2048, &[1; 2048]).is_err() {
                    failed = true;
                    break 'outer;
                }
            }
        }
        assert!(failed, "a transaction exceeding log capacity must fail");
    }

    #[test]
    fn large_update_is_chunked() {
        let (_, jn) = setup();
        let t = jn.begin();
        let b = jn.get(3000).unwrap();
        jn.update(t, &b, 0, &[0x55; BLOCK_SIZE]).unwrap();
        jn.commit(t).unwrap();
        assert_eq!(b.read_at(0, BLOCK_SIZE), vec![0x55; BLOCK_SIZE]);
        assert!(jn.stats().update_records >= 2, "full-block update chunks");
    }

    #[test]
    fn cache_eviction_writes_back_dirty_frames() {
        let (disk, jn) = setup();
        jn.set_cache_capacity(8);
        for i in 0..64u32 {
            let t = jn.begin();
            let b = jn.get(3100 + i).unwrap();
            jn.update(t, &b, 0, &[i as u8; 8]).unwrap();
            jn.commit(t).unwrap();
        }
        // Early frames were evicted; their contents must be on disk.
        assert!(jn.stats().writebacks > 0);
        let b = disk.read(3105).unwrap();
        assert_eq!(&b[0..8], &[5u8; 8]);
    }

    #[test]
    fn eviction_forces_the_log_before_writing_a_frame_home() {
        let (disk, jn) = setup();
        jn.set_cache_capacity(8);
        for i in 0..64u32 {
            let t = jn.begin();
            let b = jn.get(3500 + i).unwrap();
            jn.update(t, &b, 0, &[i as u8 + 1; 8]).unwrap();
            jn.commit(t).unwrap();
        }
        // Nothing called `sync`: every log force was an eviction's.
        assert!(jn.stats().syncs > 0, "evictions must force the log (WAL rule)");
        let cached: HashSet<u32> = jn.cache.read().frames.keys().copied().collect();
        let evicted: Vec<u32> = (0..64u32).filter(|i| !cached.contains(&(3500 + i))).collect();
        assert_eq!(evicted.len(), 56);
        disk.crash(None);
        disk.power_on();
        let (jn2, _) = Journal::open(disk, jn.region()).unwrap();
        for i in evicted {
            let b = jn2.get(3500 + i).unwrap();
            assert_eq!(b.read_at(0, 8), vec![i as u8 + 1; 8], "evicted block {}", 3500 + i);
        }
    }

    /// Cached blocks, checking the map and the slots agree.
    fn population(jn: &Journal) -> usize {
        let cache = jn.cache.read();
        assert_eq!(cache.frames.len(), cache.slots.len());
        for (&block, &slot) in &cache.frames {
            assert_eq!(cache.slots[slot].block, block);
        }
        cache.slots.len()
    }

    #[test]
    fn clock_never_evicts_a_pinned_frame() {
        let (_, jn) = setup();
        jn.set_cache_capacity(8);
        let pinned = jn.get(3600).unwrap();
        let t = jn.begin();
        jn.update(t, &pinned, 0, &[0xAA; 4]).unwrap();
        jn.commit(t).unwrap();
        for i in 1..200u32 {
            jn.get(3600 + i).unwrap();
        }
        assert_eq!(population(&jn), 8);
        let again = jn.get(3600).unwrap();
        assert!(Arc::ptr_eq(&again.cell, &pinned.cell), "same frame, never evicted");
        assert_eq!(pinned.read_at(0, 4), vec![0xAA; 4]);
    }

    #[test]
    fn clock_gives_a_frame_touched_since_the_hand_passed_a_second_chance() {
        let (_, jn) = setup();
        jn.set_cache_capacity(8);
        for i in 0..8u32 {
            jn.get(3700 + i).unwrap();
        }
        // Hand at slot 0, every bit clear. Touch (and unpin) the first
        // frame; the next miss passes it, clearing its bit, and takes
        // the second.
        jn.get(3700).unwrap();
        jn.get(3708).unwrap();
        {
            let cache = jn.cache.read();
            let slot = cache.frames[&3700];
            assert!(!cache.slots[slot].referenced.load(Ordering::Relaxed), "bit cleared");
            assert!(!cache.frames.contains_key(&3701), "the untouched one is the victim");
        }
        // Untouched since, it is the victim once the hand comes round.
        for i in 9..16u32 {
            jn.get(3700 + i).unwrap();
        }
        assert!(!jn.cache.read().frames.contains_key(&3700));
    }

    #[test]
    fn cache_over_capacity_while_all_pinned_returns_to_capacity() {
        let (_, jn) = setup();
        jn.set_cache_capacity(8);
        let held: Vec<BufHandle> = (0..12u32).map(|i| jn.get(3800 + i).unwrap()).collect();
        assert_eq!(population(&jn), 12, "every frame pinned: the cache overshoots");
        drop(held);
        jn.get(3820).unwrap();
        assert_eq!(population(&jn), 8, "the first miss after the handles drop");
        for i in 0..50u32 {
            jn.get(3830 + i).unwrap();
            assert_eq!(population(&jn), 8);
        }
    }

    #[test]
    fn shrinking_the_cache_takes_effect_on_the_next_miss() {
        let (_, jn) = setup();
        for i in 0..40u32 {
            jn.get(3900 + i).unwrap();
        }
        assert_eq!(population(&jn), 40);
        jn.set_cache_capacity(10);
        jn.get(3950).unwrap();
        assert_eq!(population(&jn), 10);
        assert!(jn.cache.read().frames.contains_key(&3950));
    }

    #[test]
    fn write_block_installs_a_miss_in_the_victims_frame_without_a_read() {
        let (disk, jn) = setup();
        jn.set_cache_capacity(8);
        // The first frame holds a committed change; the hand rests on it.
        let first = jn.get(3960).unwrap();
        let t = jn.begin();
        jn.update(t, &first, 0, &[0xAB; 8]).unwrap();
        jn.commit(t).unwrap();
        drop(first);
        for i in 1..8u32 {
            jn.get(3960 + i).unwrap();
        }
        let victim = Arc::as_ptr(&jn.cache.read().slots[0]);
        let (before, reads) = (jn.stats(), disk.stats().reads);
        jn.write_block(3990, &[7; BLOCK_SIZE]).unwrap();
        let d = jn.stats().since(&before);
        assert_eq!(disk.stats().reads, reads, "a whole block is not read");
        assert_eq!((d.cache_misses, d.writebacks), (1, 1), "the victim went home first");
        assert_eq!(disk.read(3960).unwrap()[..8], [0xAB; 8]);
        {
            let cache = jn.cache.read();
            assert_eq!(cache.frames[&3990], 0);
            assert!(!cache.frames.contains_key(&3960));
            assert!(std::ptr::eq(Arc::as_ptr(&cache.slots[0]), victim), "the frame is reused");
        }
        assert_eq!(population(&jn), 8);
        let buf = jn.get(3990).unwrap();
        {
            let st = buf.cell.state.lock();
            assert!(st.dirty && st.unlogged && st.writer_class.is_none());
            assert_eq!((st.first_lsn, st.last_lsn), (None, Lsn(0)));
        }
        // A hit overwrites the cached frame.
        jn.write_block(3990, &[8; BLOCK_SIZE]).unwrap();
        assert_eq!(jn.stats().since(&before).cache_misses, 1);
        jn.write_home(std::slice::from_ref(&buf)).unwrap();
        disk.crash(None);
        disk.power_on();
        assert_eq!(disk.read(3990).unwrap()[..], [8; BLOCK_SIZE]);
    }

    #[test]
    fn a_full_log_waits_for_the_checkpoint_in_flight_instead_of_running_its_own() {
        let disk = SimDisk::new(DiskConfig::with_blocks(4096));
        let jn = Journal::format(disk, LogRegion { first_block: 1, blocks: 8 }).unwrap();
        let capacity = jn.region().capacity_bytes();
        let buf = jn.get(1000).unwrap();
        let write = |byte: u8| {
            let t = jn.begin();
            jn.update(t, &buf, 0, &[byte; 100]).unwrap();
            jn.commit(t).unwrap();
        };
        let mut byte = 0u8;
        while capacity - jn.log_used_bytes() >= (update_len(100) + commit_len(1)) as u64 {
            byte = byte.wrapping_add(1).max(1);
            write(byte);
        }
        assert_eq!(jn.stats().checkpoints, 0);
        // Play a checkpoint's leader up to its sweep: the flag set, the
        // lock released.
        jn.log.lock().checkpointing = true;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                write(byte.wrapping_add(1).max(1));
                tx.send(()).unwrap();
            });
            for _ in 0..1000 {
                std::thread::yield_now();
            }
            assert!(rx.try_recv().is_err(), "wrote into a full log");
            assert_eq!(jn.stats().checkpoints, 0, "ran a checkpoint beside the one in flight");
            // The leader's sweep lands and frees the log.
            jn.run_checkpoint().unwrap();
            jn.log.lock().checkpointing = false;
            jn.checkpointed.notify_all();
            rx.recv().unwrap();
        });
        // The waiter found room after it and ran none of its own.
        assert_eq!(jn.stats().checkpoints, 1);
    }

    #[test]
    fn two_threads_cycling_through_a_small_cache_share_one_frame_per_block() {
        const BLOCKS: u32 = 256;
        const BASE: u32 = 2000;
        type Held = std::sync::Mutex<HashMap<(u32, usize), BufHandle>>;
        // Thread `t` owns the u64 at `t * 8` of every block; the two
        // sweep in opposite directions, so they cross, each holding its
        // last four blocks. `held` maps (block, thread) to that handle.
        fn cycle(jn: &Journal, held: &Held, t: usize) -> HashMap<u32, u64> {
            let mut last: HashMap<u32, u64> = HashMap::new();
            let mut window = std::collections::VecDeque::new();
            for i in 0..4 * BLOCKS as u64 {
                let step = (i % BLOCKS as u64) as u32;
                let block = BASE + if t == 0 { step } else { BLOCKS - 1 - step };
                let _op = jn.admit();
                let buf = jn.get(block).unwrap();
                let want = last.get(&block).copied().unwrap_or(0);
                assert_eq!(buf.u64_at(t * 8), want, "block {block}");
                let txn = jn.begin();
                jn.update(txn, &buf, t * 8, &(i + 1).to_le_bytes()).unwrap();
                jn.commit(txn).unwrap();
                last.insert(block, i + 1);
                let mut map = held.lock().unwrap();
                if let Some(other) = map.get(&(block, 1 - t)) {
                    assert!(Arc::ptr_eq(&other.cell, &buf.cell), "two frames for {block}");
                }
                map.insert((block, t), buf);
                window.push_back(block);
                if window.len() > 4 {
                    map.remove(&(window.pop_front().unwrap(), t));
                }
            }
            last
        }
        let (_, jn) = setup();
        jn.set_cache_capacity(16);
        let held = Held::default();
        let lasts: Vec<HashMap<u32, u64>> = std::thread::scope(|s| {
            let (jn, held) = (&jn, &held);
            let workers: Vec<_> = (0..2).map(|t| s.spawn(move || cycle(jn, held, t))).collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(population(&jn) <= 16);
        for (t, last) in lasts.iter().enumerate() {
            assert_eq!(last.len(), BLOCKS as usize);
            for (&block, &value) in last {
                assert_eq!(jn.get(block).unwrap().u64_at(t * 8), value, "block {block}");
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let (_, jn) = setup();
        let before = jn.stats();
        let t = jn.begin();
        let b = jn.get(3200).unwrap();
        jn.update(t, &b, 0, &[1]).unwrap();
        jn.commit(t).unwrap();
        jn.sync().unwrap();
        let d = jn.stats().since(&before);
        assert_eq!(d.txns_begun, 1);
        assert_eq!(d.txns_committed, 1);
        assert_eq!(d.update_records, 1);
        assert_eq!(d.commit_records, 1);
        assert_eq!(d.syncs, 1);
        assert!(d.log_block_writes >= 1);
    }

    #[test]
    fn fresh_open_formats() {
        let disk = SimDisk::new(DiskConfig::with_blocks(512));
        let (jn, report) = Journal::open(disk, LogRegion { first_block: 0, blocks: 16 }).unwrap();
        assert!(report.formatted);
        assert_eq!(jn.log_used_bytes(), 0);
    }

    #[test]
    fn reopen_without_crash_is_clean() {
        let (disk, jn) = setup();
        let t = jn.begin();
        let b = jn.get(3300).unwrap();
        jn.update(t, &b, 0, &[9; 4]).unwrap();
        jn.commit(t).unwrap();
        jn.flush_all().unwrap();
        let (jn2, report) = Journal::open(disk, jn.region()).unwrap();
        assert!(!report.formatted);
        assert_eq!(report.updates_redone, 0, "clean shutdown replays nothing");
        let b = jn2.get(3300).unwrap();
        assert_eq!(b.read_at(0, 4), vec![9; 4]);
    }

    #[test]
    fn metadata_burst_costs_less_disk_time_than_sync_writes() {
        // The germ of experiment T1: many small metadata updates through
        // the log cost (sequential log writes) far less than the same
        // updates written synchronously in place.
        let (disk, jn) = setup();
        let before = disk.stats();
        for i in 0..200u32 {
            let t = jn.begin();
            let b = jn.get(3400 + (i % 40)).unwrap();
            jn.update(t, &b, (i as usize % 32) * 16, &[i as u8; 16]).unwrap();
            jn.commit(t).unwrap();
        }
        jn.sync().unwrap();
        let logged = disk.stats().since(&before).busy_us;

        let disk2 = SimDisk::new(DiskConfig::with_blocks(4096));
        for i in 0..200u32 {
            let mut block = [0u8; BLOCK_SIZE];
            block[0] = i as u8;
            disk2.write_sync(3400 + (i % 40), &block).unwrap();
        }
        let synced = disk2.stats().busy_us;
        assert!(
            logged * 2 < synced,
            "logging ({logged} us) should beat sync writes ({synced} us) by 2x+"
        );
    }
}
