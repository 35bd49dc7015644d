//! Buffer-cache frames and handles.

use crate::logfmt::Lsn;
use dfs_disk::{Block, BLOCK_SIZE};
use dfs_types::lock::{rank, OrderedMutex};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// In-memory state of one cached disk block.
pub(crate) struct Frame {
    /// Current contents (the only authoritative copy while cached).
    pub data: Block,
    /// True if the frame differs from the disk copy.
    pub dirty: bool,
    /// LSN of the first unwritten-back logged change, for tail tracking.
    pub first_lsn: Option<Lsn>,
    /// LSN one past the last logged change; the frame must not be written
    /// back before the log is durable up to this point (the WAL rule,
    /// §2.2: "the buffer must not be written to disk until the log has
    /// been flushed to disk up to that position").
    pub last_lsn: Lsn,
    /// Root transaction id of the equivalence class that last modified
    /// this frame, if any; used to merge transactions that share buffers.
    pub writer_class: Option<u64>,
    /// Bumped on every modification; writeback clears `dirty` only if
    /// the frame was not touched while its lock was released for I/O.
    pub version: u64,
    /// Set by [`Journal::write_data`](crate::Journal::write_data) and
    /// cleared once the frame comes home clean: the frame holds unlogged
    /// bytes the disk lacks, so an update must not be trimmed against it
    /// (a byte it already holds may still have to be redone).
    pub unlogged: bool,
}

impl Frame {
    /// A clean frame holding `data`, as read from the disk.
    pub fn read(data: Block) -> Frame {
        Frame {
            data,
            dirty: false,
            first_lsn: None,
            last_lsn: Lsn(0),
            writer_class: None,
            version: 0,
            unlogged: false,
        }
    }

    /// Makes this the frame of a block overwritten whole with unlogged
    /// `data` ([`Journal::write_block`](crate::Journal::write_block)):
    /// dirty, with no logged change and no writer class.
    pub fn overwrite(&mut self, data: &[u8; BLOCK_SIZE]) {
        self.data.copy_from_slice(data);
        self.dirty = true;
        self.unlogged = true;
        self.first_lsn = None;
        self.last_lsn = Lsn(0);
        self.writer_class = None;
        self.version += 1;
    }

    /// Settles a write-back: the contents as of `version` — logged
    /// changes `first_lsn` up to `last_lsn` — are home.
    pub fn written_home(&mut self, version: u64, first_lsn: Option<Lsn>, last_lsn: Lsn) {
        if self.version == version {
            self.dirty = false;
            self.first_lsn = None;
            self.unlogged = false;
        } else if first_lsn.is_some() {
            // An update landed between the snapshot and the settle (a
            // write-back holds the latch from its disk write to here, so
            // none does there). The frame stays dirty — what was written
            // is stale, and cleaning it would lose the newer change —
            // but its logged changes up to the snapshot's last record
            // are home all the same, and every later one was logged
            // after that: it is the oldest record the frame still
            // needs. Left at the old one, a frame busy enough to be
            // re-dirtied under every sweep pins the log tail for ever.
            self.first_lsn = Some(last_lsn);
        }
    }
}

/// A cached block plus its latch.
pub(crate) struct FrameCell {
    /// The disk block number this frame caches.
    pub block: u32,
    /// CLOCK reference bit: set by a cache hit under the cache's read
    /// lock, cleared as the hand passes under its write lock. An atomic,
    /// so concurrent hits may set it without the frame latch.
    pub referenced: AtomicBool,
    /// The latched frame state.
    pub state: OrderedMutex<Frame, { rank::JOURNAL_FRAME }>,
}

impl FrameCell {
    /// A cell for `block` holding `frame`, its reference bit clear.
    pub fn new(block: u32, frame: Frame) -> FrameCell {
        FrameCell { block, referenced: AtomicBool::new(false), state: OrderedMutex::new(frame) }
    }
}

/// A pinned handle to a cached disk block.
///
/// While any `BufHandle` for a block is alive, the block cannot be
/// evicted from the cache. Reads go through [`BufHandle::with_data`] or
/// the typed accessors; *all* modifications must go through
/// [`Journal::update`](crate::Journal::update) so they are logged — the
/// handle deliberately exposes no mutable access.
#[derive(Clone)]
pub struct BufHandle {
    pub(crate) cell: Arc<FrameCell>,
}

impl BufHandle {
    /// Returns the block number this handle pins.
    pub fn block(&self) -> u32 {
        self.cell.block
    }

    /// Runs `f` with a shared view of the block contents.
    pub fn with_data<R>(&self, f: impl FnOnce(&[u8; BLOCK_SIZE]) -> R) -> R {
        let st = self.cell.state.lock();
        f(&st.data)
    }

    /// Copies `len` bytes starting at `offset` out of the block.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds the block size.
    pub fn read_at(&self, offset: usize, len: usize) -> Vec<u8> {
        self.with_data(|d| d[offset..offset + len].to_vec())
    }

    /// Reads a little-endian `u32` at `offset`.
    pub fn u32_at(&self, offset: usize) -> u32 {
        self.with_data(|d| u32::from_le_bytes(d[offset..offset + 4].try_into().unwrap()))
    }

    /// Reads a little-endian `u64` at `offset`.
    pub fn u64_at(&self, offset: usize) -> u64 {
        self.with_data(|d| u64::from_le_bytes(d[offset..offset + 8].try_into().unwrap()))
    }

    /// Reads a little-endian `u16` at `offset`.
    pub fn u16_at(&self, offset: usize) -> u16 {
        self.with_data(|d| u16::from_le_bytes(d[offset..offset + 2].try_into().unwrap()))
    }
}
