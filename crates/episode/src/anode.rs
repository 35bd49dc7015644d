//! The anode layer: open-ended disk containers (§2.4).
//!
//! An anode provides "an open-ended address space of disk storage and
//! nothing more". This module implements:
//!
//! * the anode table (allocation and persistence of descriptors),
//! * block mapping (direct, single- and double-indirect pointers),
//! * the block refcount table — anode 2 — which doubles as the free map
//!   (refcount zero means free) and carries the sharing counts that make
//!   volume cloning copy-on-write (§2.1),
//! * reading, writing (logged for metadata, unlogged for user data), and
//!   chunked truncation ("truncation of a file may be broken up to
//!   truncate only one block or a few blocks at a time", §2.2).

use crate::layout::{
    Anode, AnodeKind, ANODES_PER_BLOCK, ANODE_SIZE, FIRST_FREE_ANODE, NDIRECT, PTRS_PER_BLOCK,
};
use crate::Episode;
use dfs_disk::BLOCK_SIZE;
use dfs_journal::TxnId;
use dfs_types::{DfsError, DfsResult};

/// Maximum blocks freed per transaction during chunked truncation.
pub const TRUNCATE_CHUNK: usize = 64;

/// An anode that has just lost a link ([`Episode::txn_unlinking`]).
pub(crate) struct Unlinked {
    /// Its slot.
    pub(crate) slot: u32,
    /// Its contents with the link dropped, read under its lock.
    pub(crate) anode: Anode,
    /// The (volume header anode, vnode index) naming it, cleared if it
    /// is freed.
    pub(crate) vnode: Option<(u32, u32)>,
}

/// Where a block pointer lives: in the anode or in an indirect block.
enum Slot {
    /// `direct[i]` of the anode itself.
    Direct(usize),
    /// Byte offset within an indirect block.
    Indirect { block: u32, offset: usize },
}

impl Episode {
    // ------------------------------------------------------------------
    // Anode table
    // ------------------------------------------------------------------

    /// Reads anode `idx` from the table.
    pub fn read_anode(&self, idx: u32) -> DfsResult<Anode> {
        if idx == 0 || idx >= self.sb.anode_count() {
            return Err(DfsError::Internal("anode index out of range"));
        }
        let (block, offset) = self.sb.anode_location(idx);
        let buf = self.jn.get(block)?;
        Anode::decode(&buf.read_at(offset, ANODE_SIZE))
    }

    /// Writes anode `idx` back to the table (logged).
    pub(crate) fn write_anode(&self, txn: TxnId, idx: u32, a: &Anode) -> DfsResult<()> {
        let (block, offset) = self.sb.anode_location(idx);
        let buf = self.jn.get(block)?;
        self.jn.update(txn, &buf, offset, &a.encode())
    }

    /// Allocates a fresh anode slot of the given kind, placed next to
    /// the file's directory (DESIGN.md §7 "A file lives next to its
    /// directory"): a directory starts the next anode-table block after
    /// the rotor, and leaves the rest of it to its files; a file or
    /// symlink entered in directory slot `dir` takes the first free slot
    /// of that directory's block; anything else, or a file whose
    /// directory's block is full, takes the rotor's next free slot.
    ///
    /// The slot's uniquifier is incremented so stale fids referring to a
    /// previous use of the slot are detectable.
    pub(crate) fn alloc_anode(
        &self,
        txn: TxnId,
        dir: Option<u32>,
        kind: AnodeKind,
        volume: u64,
        mode: u16,
        owner: u32,
    ) -> DfsResult<(u32, Anode)> {
        let per = ANODES_PER_BLOCK as u32;
        // Hold the allocator lock across the whole scan-and-claim (as
        // alloc_block does): two concurrent allocations must not both
        // observe the same slot as free and clobber each other's anode.
        let mut alloc = self.alloc.lock();
        let is_dir = kind == AnodeKind::Directory;
        let near = match dir {
            Some(d) if !is_dir => {
                let first = d / per * per;
                self.free_slot_in(first.max(FIRST_FREE_ANODE), first + per)?
            }
            _ => None,
        };
        let (idx, uniq) = match near {
            Some(found) => found,
            None => {
                let rotor = alloc.anode_rotor;
                let start = if is_dir { rotor.div_ceil(per) * per } else { rotor };
                let (idx, uniq) = self.free_slot_from(start)?.ok_or(DfsError::NoSpace)?;
                alloc.anode_rotor = if is_dir { (idx / per + 1) * per } else { idx + 1 };
                (idx, uniq)
            }
        };
        let now = self.clock.now().as_micros();
        let a = Anode {
            kind,
            uniq: uniq.wrapping_add(1).max(1),
            mode,
            owner,
            nlink: 1,
            mtime: now,
            ctime: now,
            volume,
            ..Anode::free()
        };
        self.write_anode(txn, idx, &a)?;
        Ok((idx, a))
    }

    /// The first free anode slot at or after `start`, wrapping around
    /// the table once, with its old uniquifier.
    fn free_slot_from(&self, start: u32) -> DfsResult<Option<(u32, u32)>> {
        let count = self.sb.anode_count();
        let start =
            if (FIRST_FREE_ANODE..count).contains(&start) { start } else { FIRST_FREE_ANODE };
        let per = ANODES_PER_BLOCK as u32;
        for (mut from, end) in [(start, count), (FIRST_FREE_ANODE, start)] {
            while from < end {
                let to = ((from / per + 1) * per).min(end);
                if let Some(found) = self.free_slot_in(from, to)? {
                    return Ok(Some(found));
                }
                from = to;
            }
        }
        Ok(None)
    }

    /// The first free slot in `from..to`, all in one anode-table block
    /// (read once), with its old uniquifier.
    fn free_slot_in(&self, from: u32, to: u32) -> DfsResult<Option<(u32, u32)>> {
        let (block, first) = self.sb.anode_location(from);
        self.jn.get(block)?.with_data(|d| {
            for (idx, at) in (from..to).zip((first..).step_by(ANODE_SIZE)) {
                if AnodeKind::from_byte(d[at])? == AnodeKind::Free {
                    let uniq = d[at + 4..at + 8].try_into().expect("four bytes");
                    return Ok(Some((idx, u32::from_le_bytes(uniq))));
                }
            }
            Ok(None)
        })
    }

    /// Marks anode `idx`, whose contents are `old`, free, preserving its
    /// uniquifier.
    pub(crate) fn free_anode_slot(&self, txn: TxnId, idx: u32, old: &Anode) -> DfsResult<()> {
        self.write_anode(txn, idx, &Anode { uniq: old.uniq, ..Anode::free() })
    }

    // ------------------------------------------------------------------
    // Block refcount table (anode 2)
    // ------------------------------------------------------------------

    /// Returns the physical block holding refcount entry for block `b`,
    /// plus the byte offset within it ([`SuperBlock::refcount_location`]).
    ///
    /// [`SuperBlock::refcount_location`]: crate::layout::SuperBlock::refcount_location
    fn rc_location(&self, b: u32) -> DfsResult<(u32, usize)> {
        self.sb
            .refcount_location(b)
            .ok_or(DfsError::Internal("refcount of a block past the aggregate"))
    }

    /// Returns the reference count of block `b` (0 = free).
    pub fn block_refcount(&self, b: u32) -> DfsResult<u16> {
        let (phys, off) = self.rc_location(b)?;
        Ok(self.jn.get(phys)?.u16_at(off))
    }

    fn set_refcount(&self, txn: TxnId, b: u32, v: u16) -> DfsResult<()> {
        let (phys, off) = self.rc_location(b)?;
        let buf = self.jn.get(phys)?;
        self.jn.update(txn, &buf, off, &v.to_le_bytes())
    }

    /// Increments the refcount of `b` (volume cloning shares blocks).
    pub(crate) fn incref_block(&self, txn: TxnId, b: u32) -> DfsResult<u16> {
        let cur = self.block_refcount(b)?;
        let next = cur.checked_add(1).ok_or(DfsError::Internal("refcount overflow"))?;
        self.set_refcount(txn, b, next)?;
        Ok(next)
    }

    /// Decrements the refcount of `b`; at zero the block is free.
    pub(crate) fn decref_block(&self, txn: TxnId, b: u32) -> DfsResult<u16> {
        let cur = self.block_refcount(b)?;
        if cur == 0 {
            return Err(DfsError::Internal("double free of block"));
        }
        self.set_refcount(txn, b, cur - 1)?;
        Ok(cur - 1)
    }

    /// Allocates one free block (refcount 0 → 1).
    pub(crate) fn alloc_block(&self, txn: TxnId) -> DfsResult<u32> {
        let total = self.sb.total_blocks;
        let data_start = self.sb.data_start();
        let span = total - data_start;
        let mut alloc = self.alloc.lock();
        let start = alloc.block_rotor.clamp(data_start, total - 1);
        for step in 0..span {
            let b = data_start + (start - data_start + step) % span;
            if self.block_refcount(b)? == 0 {
                self.set_refcount(txn, b, 1)?;
                alloc.block_rotor = if b + 1 >= total { data_start } else { b + 1 };
                return Ok(b);
            }
        }
        Err(DfsError::NoSpace)
    }

    // ------------------------------------------------------------------
    // Block mapping
    // ------------------------------------------------------------------

    /// Maps file block `fblk` of `a` to a physical block (0 = hole).
    pub fn map_block(&self, a: &Anode, fblk: u64) -> DfsResult<u32> {
        let per = PTRS_PER_BLOCK as u64;
        if fblk < NDIRECT as u64 {
            return Ok(a.direct[fblk as usize]);
        }
        let fblk = fblk - NDIRECT as u64;
        if fblk < per {
            if a.indirect == 0 {
                return Ok(0);
            }
            return Ok(self.jn.get(a.indirect)?.u32_at(4 * fblk as usize));
        }
        let fblk = fblk - per;
        if fblk >= per * per {
            return Err(DfsError::InvalidArgument);
        }
        if a.dindirect == 0 {
            return Ok(0);
        }
        let l1 = self.jn.get(a.dindirect)?.u32_at(4 * (fblk / per) as usize);
        if l1 == 0 {
            return Ok(0);
        }
        Ok(self.jn.get(l1)?.u32_at(4 * (fblk % per) as usize))
    }

    /// Allocates and zeroes a metadata block (logged).
    fn alloc_meta_block(&self, txn: TxnId) -> DfsResult<u32> {
        let b = self.alloc_block(txn)?;
        let buf = self.jn.get(b)?;
        self.jn.update_fill(txn, &buf, 0, BLOCK_SIZE, 0)?;
        Ok(b)
    }

    /// Breaks a clone's sharing of block `b` before a write (§2.1):
    /// copies it to a fresh block and drops this reference to the
    /// original. Returns the writable block (`b` itself if it was not
    /// shared). `logged` says whether the copy goes through the log
    /// (metadata) or not (user data).
    fn cow_block(&self, txn: TxnId, b: u32, logged: bool) -> DfsResult<u32> {
        if self.block_refcount(b)? <= 1 {
            return Ok(b);
        }
        let nb = self.alloc_block(txn)?;
        let old = self.jn.get(b)?.read_at(0, BLOCK_SIZE);
        if logged {
            self.jn.update(txn, &self.jn.get(nb)?, 0, &old)?;
        } else {
            // Every byte of `nb` is replaced: nothing of it is read.
            self.jn.write_block(nb, old.as_slice().try_into().expect("a whole block"))?;
        }
        self.decref_block(txn, b)?;
        Ok(nb)
    }

    /// Resolves (allocating and copy-on-writing indirect blocks as
    /// needed) the pointer slot for file block `fblk` of anode `idx`.
    ///
    /// Any change to `a`'s own pointer fields is made in memory; the
    /// caller must persist `a` with [`Episode::write_anode`].
    fn prepare_slot(&self, txn: TxnId, a: &mut Anode, fblk: u64) -> DfsResult<Slot> {
        let per = PTRS_PER_BLOCK as u64;
        if fblk < NDIRECT as u64 {
            return Ok(Slot::Direct(fblk as usize));
        }
        let rel = fblk - NDIRECT as u64;
        if rel < per {
            if a.indirect == 0 {
                a.indirect = self.alloc_meta_block(txn)?;
            } else {
                a.indirect = self.cow_block(txn, a.indirect, true)?;
            }
            return Ok(Slot::Indirect { block: a.indirect, offset: 4 * rel as usize });
        }
        let rel = rel - per;
        if rel >= per * per {
            return Err(DfsError::InvalidArgument);
        }
        if a.dindirect == 0 {
            a.dindirect = self.alloc_meta_block(txn)?;
        } else {
            a.dindirect = self.cow_block(txn, a.dindirect, true)?;
        }
        let dbuf = self.jn.get(a.dindirect)?;
        let l1_off = 4 * (rel / per) as usize;
        let mut l1 = dbuf.u32_at(l1_off);
        if l1 == 0 {
            l1 = self.alloc_meta_block(txn)?;
            self.jn.update(txn, &dbuf, l1_off, &l1.to_le_bytes())?;
        } else {
            let cowed = self.cow_block(txn, l1, true)?;
            if cowed != l1 {
                self.jn.update(txn, &dbuf, l1_off, &cowed.to_le_bytes())?;
                l1 = cowed;
            }
        }
        Ok(Slot::Indirect { block: l1, offset: 4 * (rel % per) as usize })
    }

    fn read_slot(&self, a: &Anode, slot: &Slot) -> DfsResult<u32> {
        match slot {
            Slot::Direct(i) => Ok(a.direct[*i]),
            Slot::Indirect { block, offset } => Ok(self.jn.get(*block)?.u32_at(*offset)),
        }
    }

    fn write_slot(&self, txn: TxnId, a: &mut Anode, slot: &Slot, ptr: u32) -> DfsResult<()> {
        match slot {
            Slot::Direct(i) => {
                a.direct[*i] = ptr;
                Ok(())
            }
            Slot::Indirect { block, offset } => {
                let buf = self.jn.get(*block)?;
                self.jn.update(txn, &buf, *offset, &ptr.to_le_bytes())
            }
        }
    }

    /// Returns a writable physical block for file block `fblk`,
    /// allocating holes and breaking copy-on-write sharing.
    ///
    /// `logged_copy` controls whether the content copy of a shared block
    /// goes through the log (metadata) or not (user data).
    pub(crate) fn block_for_write(
        &self,
        txn: TxnId,
        a: &mut Anode,
        fblk: u64,
        logged_copy: bool,
    ) -> DfsResult<u32> {
        let slot = self.prepare_slot(txn, a, fblk)?;
        let cur = self.read_slot(a, &slot)?;
        let b = match cur {
            0 => self.alloc_block(txn)?,
            _ => self.cow_block(txn, cur, logged_copy)?,
        };
        if b != cur {
            self.write_slot(txn, a, &slot, b)?;
        }
        Ok(b)
    }

    // ------------------------------------------------------------------
    // Container read/write/truncate
    // ------------------------------------------------------------------

    /// Reads `len` bytes at `offset` from the container, zero-filling
    /// holes and clamping at the container length.
    pub fn anode_read(&self, a: &Anode, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        if offset >= a.length {
            return Ok(Vec::new());
        }
        let len = len.min((a.length - offset) as usize);
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while out.len() < len {
            let fblk = pos / BLOCK_SIZE as u64;
            let within = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - within).min(len - out.len());
            let phys = self.map_block(a, fblk)?;
            if phys == 0 {
                out.extend(std::iter::repeat_n(0, n));
            } else {
                out.extend_from_slice(&self.jn.get(phys)?.read_at(within, n));
            }
            pos += n as u64;
        }
        Ok(out)
    }

    /// Writes `data` at `offset` in the container, extending it and
    /// updating `a.length` in memory (caller persists the anode).
    ///
    /// `logged` must be true for metadata containers (directories, ACLs,
    /// volume headers) and false for user file data (§2.2).
    pub(crate) fn anode_write(
        &self,
        txn: TxnId,
        a: &mut Anode,
        offset: u64,
        data: &[u8],
        logged: bool,
    ) -> DfsResult<()> {
        let mut pos = offset;
        let mut done = 0usize;
        while done < data.len() {
            let fblk = pos / BLOCK_SIZE as u64;
            let within = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - within).min(data.len() - done);
            let phys = self.block_for_write(txn, a, fblk, logged)?;
            let chunk = &data[done..done + n];
            if logged {
                self.jn.update(txn, &self.jn.get(phys)?, within, chunk)?;
            } else if let Ok(page) = chunk.try_into() {
                // A whole block of user data: nothing of the old one
                // survives, so nothing is read.
                self.jn.write_block(phys, page)?;
            } else {
                self.jn.write_data(&self.jn.get(phys)?, within, chunk)?;
            }
            pos += n as u64;
            done += n;
        }
        a.length = a.length.max(offset + data.len() as u64);
        Ok(())
    }

    /// Forces the data blocks backing the byte ranges `(offset, len)` of
    /// `a` home to stable storage. User data is unlogged (metadata-only
    /// journaling), so an ack whose durability contract covers file
    /// *contents* — the store-back path, where the client discards its
    /// dirty pages on the strength of the reply — must write the touched
    /// buffers through; forcing the log alone only hardens the metadata.
    /// Every range's blocks go home together, with one disk flush for all
    /// of them ([`Journal::write_home`]): a 16-page store costs that flush
    /// and the log's, two syncs in all.
    ///
    /// [`Journal::write_home`]: dfs_journal::Journal::write_home
    pub(crate) fn anode_force_home(
        &self,
        a: &Anode,
        ranges: impl IntoIterator<Item = (u64, u64)>,
    ) -> DfsResult<()> {
        let mut bufs = Vec::new();
        for (offset, len) in ranges.into_iter().filter(|&(_, len)| len > 0) {
            let last = (offset + len).div_ceil(BLOCK_SIZE as u64);
            for fblk in offset / BLOCK_SIZE as u64..last {
                let phys = self.map_block(a, fblk)?;
                if phys != 0 {
                    bufs.push(self.jn.get(phys)?);
                }
            }
        }
        self.jn.write_home(&bufs)
    }

    /// Truncates (or extends) container `idx` to `new_len` using a
    /// sequence of short transactions, each leaving the file system
    /// consistent (§2.2).
    ///
    /// Indirect skeleton blocks are freed only when their whole range is
    /// truncated; a partially-truncated file may keep empty indirect
    /// blocks, which the salvager accounts as live.
    pub(crate) fn anode_truncate(&self, idx: u32, new_len: u64) -> DfsResult<()> {
        while !self.txn(|txn| self.truncate_step(txn, idx, new_len))? {}
        Ok(())
    }

    /// One transaction of [`Episode::anode_truncate`].
    fn truncate_step(&self, txn: TxnId, idx: u32, new_len: u64) -> DfsResult<bool> {
        let mut a = self.read_anode(idx)?;
        let done = self.shrink(txn, &mut a, new_len)?;
        self.write_anode(txn, idx, &a)?;
        Ok(done)
    }

    /// Frees up to [`TRUNCATE_CHUNK`] blocks from the end of `a`, toward
    /// `new_len`, and sets its length to match; returns true once it is
    /// `new_len` long. The caller writes `a` back.
    fn shrink(&self, txn: TxnId, a: &mut Anode, new_len: u64) -> DfsResult<bool> {
        if new_len >= a.length {
            a.length = new_len;
            a.mtime = self.clock.now().as_micros();
            a.data_version += 1;
            return Ok(true);
        }
        let keep = new_len.div_ceil(BLOCK_SIZE as u64);
        let old_blocks = a.length.div_ceil(BLOCK_SIZE as u64);
        let first = old_blocks.saturating_sub(TRUNCATE_CHUNK as u64).max(keep);
        for fblk in (first..old_blocks).rev() {
            let phys = self.map_block(a, fblk)?;
            if phys != 0 {
                self.decref_block(txn, phys)?;
                let slot = self.prepare_slot(txn, a, fblk)?;
                self.write_slot(txn, a, &slot, 0)?;
            }
        }
        if first != keep {
            a.length = first * BLOCK_SIZE as u64;
            return Ok(false);
        }
        // POSIX: bytes between the new end and the old end must read as
        // zero if the file is later extended. Zero the kept final
        // block's tail (user data: unlogged).
        let tail = new_len % BLOCK_SIZE as u64;
        if tail != 0 {
            let fblk = new_len / BLOCK_SIZE as u64;
            if self.map_block(a, fblk)? != 0 {
                let phys = self.block_for_write(txn, a, fblk, false)?;
                let buf = self.jn.get(phys)?;
                self.jn.write_data(&buf, tail as usize, &vec![0u8; BLOCK_SIZE - tail as usize])?;
            }
        }
        // Free indirect skeletons whose whole range is gone.
        if keep <= (NDIRECT + PTRS_PER_BLOCK) as u64 && a.dindirect != 0 {
            let dbuf = self.jn.get(a.dindirect)?;
            for i in 0..PTRS_PER_BLOCK {
                let l1 = dbuf.u32_at(4 * i);
                if l1 != 0 {
                    self.decref_block(txn, l1)?;
                }
            }
            self.decref_block(txn, a.dindirect)?;
            a.dindirect = 0;
        }
        if keep <= NDIRECT as u64 && a.indirect != 0 {
            self.decref_block(txn, a.indirect)?;
            a.indirect = 0;
        }
        a.length = new_len;
        a.mtime = self.clock.now().as_micros();
        a.data_version += 1;
        Ok(true)
    }

    /// Runs `body` as one short transaction (§2.2). Given an `unlinked`
    /// anode that still has links, that transaction also writes it back;
    /// with none left, it takes the first step of freeing it
    /// ([`Episode::reclaim_step`]), and short transactions of their own
    /// take the rest: so dropping a file's last link is one transaction,
    /// and only a file of more than [`TRUNCATE_CHUNK`] blocks takes more.
    /// A crash between two steps leaves the file nameless, partly
    /// truncated and still in its vnode map.
    ///
    /// The caller holds the unlinked anode's lock, or is the only user of
    /// its volume, and has read `unlinked.anode` under it.
    pub(crate) fn txn_unlinking(
        &self,
        unlinked: Option<Unlinked>,
        body: impl FnOnce(TxnId) -> DfsResult<()>,
    ) -> DfsResult<()> {
        let Some(Unlinked { slot, anode, vnode }) = unlinked else {
            return self.txn(body);
        };
        if anode.nlink > 0 {
            return self.txn(|txn| {
                body(txn)?;
                self.write_anode(txn, slot, &anode)
            });
        }
        let mut done = self.txn(|txn| {
            body(txn)?;
            self.reclaim_step(txn, slot, anode, vnode)
        })?;
        while !done {
            done = self.txn(|txn| self.reclaim_step(txn, slot, self.read_anode(slot)?, vnode))?;
        }
        Ok(())
    }

    /// Frees anode `slot` and all it holds, whatever its link count, in
    /// transactions of its own ([`Episode::txn_unlinking`]).
    pub(crate) fn reclaim(&self, slot: u32, vnode: Option<(u32, u32)>) -> DfsResult<()> {
        let anode = Anode { nlink: 0, ..self.read_anode(slot)? };
        self.txn_unlinking(Some(Unlinked { slot, anode, vnode }), |_| Ok(()))
    }

    /// One transaction's share of freeing anode `slot`, whose contents
    /// are `a`: up to [`TRUNCATE_CHUNK`] blocks of its ACL container,
    /// then as many of its own. Each container's slot is freed in the
    /// step that empties it, and with the anode's own slot goes `vnode`'s
    /// map entry. Returns true once the anode is free.
    pub(crate) fn reclaim_step(
        &self,
        txn: TxnId,
        slot: u32,
        mut a: Anode,
        vnode: Option<(u32, u32)>,
    ) -> DfsResult<bool> {
        if a.acl_anode != 0 {
            let mut acl = self.read_anode(a.acl_anode)?;
            if !self.shrink(txn, &mut acl, 0)? {
                self.write_anode(txn, a.acl_anode, &acl)?;
                // In the first step `a` is the caller's copy, not yet written.
                self.write_anode(txn, slot, &a)?;
                return Ok(false);
            }
            self.free_anode_slot(txn, a.acl_anode, &acl)?;
            a.acl_anode = 0;
        }
        if !self.shrink(txn, &mut a, 0)? {
            self.write_anode(txn, slot, &a)?;
            return Ok(false);
        }
        self.free_anode_slot(txn, slot, &a)?;
        match vnode {
            Some((header, v)) => self.vnode_set(txn, header, v, 0),
            None => Ok(()),
        }
        .map(|()| true)
    }

    /// Visits every block `a` references, each before the blocks it
    /// points to: data blocks, the indirect block and the
    /// double-indirect tree. Clone and the salvager both walk it here.
    pub(crate) fn for_each_block(
        &self,
        a: &Anode,
        mut visit: impl FnMut(u32) -> DfsResult<()>,
    ) -> DfsResult<()> {
        for &d in &a.direct {
            self.walk_tree(d, 0, &mut visit)?;
        }
        self.walk_tree(a.indirect, 1, &mut visit)?;
        self.walk_tree(a.dindirect, 2, &mut visit)
    }

    /// Visits block `b` (none if 0) and, `depth` levels down, the blocks
    /// its pointers name.
    fn walk_tree(
        &self,
        b: u32,
        depth: u32,
        visit: &mut impl FnMut(u32) -> DfsResult<()>,
    ) -> DfsResult<()> {
        if b == 0 {
            return Ok(());
        }
        visit(b)?;
        if depth > 0 {
            let buf = self.jn.get(b)?;
            for i in 0..PTRS_PER_BLOCK {
                self.walk_tree(buf.u32_at(4 * i), depth - 1, visit)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fresh;

    #[test]
    fn alloc_and_free_anode_bumps_uniq() {
        let ep = fresh(8192);
        let txn = ep.jn.begin();
        let (idx, a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 10).unwrap();
        assert_eq!(a.uniq, 1);
        ep.jn.commit(txn).unwrap();

        let txn = ep.jn.begin();
        ep.free_anode_slot(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        assert_eq!(ep.read_anode(idx).unwrap().kind, AnodeKind::Free);

        // Force the rotor back around to reuse the same slot.
        ep.alloc.lock().anode_rotor = idx;
        let txn = ep.jn.begin();
        let (idx2, a2) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 10).unwrap();
        ep.jn.commit(txn).unwrap();
        assert_eq!(idx2, idx);
        assert_eq!(a2.uniq, 2, "slot reuse must bump the uniquifier");
    }

    #[test]
    fn block_alloc_and_refcounts() {
        let ep = fresh(8192);
        let txn = ep.jn.begin();
        let b = ep.alloc_block(txn).unwrap();
        assert_eq!(ep.block_refcount(b).unwrap(), 1);
        assert_eq!(ep.incref_block(txn, b).unwrap(), 2);
        assert_eq!(ep.decref_block(txn, b).unwrap(), 1);
        assert_eq!(ep.decref_block(txn, b).unwrap(), 0);
        ep.jn.commit(txn).unwrap();
        // Freed block is allocatable again.
        ep.alloc.lock().block_rotor = b;
        let txn = ep.jn.begin();
        assert_eq!(ep.alloc_block(txn).unwrap(), b);
        ep.jn.commit(txn).unwrap();
    }

    #[test]
    fn double_free_is_detected() {
        let ep = fresh(8192);
        let txn = ep.jn.begin();
        let b = ep.alloc_block(txn).unwrap();
        ep.decref_block(txn, b).unwrap();
        assert!(ep.decref_block(txn, b).is_err());
        ep.jn.commit(txn).unwrap();
    }

    #[test]
    fn write_read_small() {
        let ep = fresh(8192);
        let txn = ep.jn.begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        ep.anode_write(txn, &mut a, 0, b"hello world", false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        let a = ep.read_anode(idx).unwrap();
        assert_eq!(a.length, 11);
        assert_eq!(ep.anode_read(&a, 0, 64).unwrap(), b"hello world");
        assert_eq!(ep.anode_read(&a, 6, 5).unwrap(), b"world");
    }

    #[test]
    fn write_read_spanning_indirect_blocks() {
        let ep = fresh(16384);
        let txn = ep.jn.begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        // 60 blocks: crosses direct (8) into single indirect range.
        let data: Vec<u8> = (0..60 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        ep.anode_write(txn, &mut a, 0, &data, false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        let a = ep.read_anode(idx).unwrap();
        assert!(a.indirect != 0);
        let back = ep.anode_read(&a, 0, data.len()).unwrap();
        assert_eq!(back, data);
        // Unaligned read across a block boundary.
        let off = 5 * BLOCK_SIZE as u64 - 100;
        assert_eq!(ep.anode_read(&a, off, 200).unwrap(), data[off as usize..off as usize + 200]);
    }

    #[test]
    fn sparse_holes_read_as_zeros() {
        let ep = fresh(16384);
        let txn = ep.jn.begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        ep.anode_write(txn, &mut a, 20 * BLOCK_SIZE as u64, b"tail", false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        let a = ep.read_anode(idx).unwrap();
        assert_eq!(ep.anode_read(&a, 0, 16).unwrap(), vec![0; 16]);
        assert_eq!(ep.anode_read(&a, 20 * BLOCK_SIZE as u64, 4).unwrap(), b"tail");
        assert_eq!(ep.map_block(&a, 3).unwrap(), 0, "hole has no block");
    }

    #[test]
    fn double_indirect_mapping() {
        let ep = fresh(16384);
        let txn = ep.jn.begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        // Block index beyond 8 + 1024 needs the double-indirect tree.
        let fblk = (NDIRECT + PTRS_PER_BLOCK + 5) as u64;
        ep.anode_write(txn, &mut a, fblk * BLOCK_SIZE as u64, b"deep", false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        let a = ep.read_anode(idx).unwrap();
        assert!(a.dindirect != 0);
        assert_eq!(ep.anode_read(&a, fblk * BLOCK_SIZE as u64, 4).unwrap(), b"deep");
    }

    #[test]
    fn truncate_frees_blocks_in_chunks() {
        let ep = fresh(16384);
        let txn = ep.jn.begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        let data = vec![7u8; 200 * BLOCK_SIZE];
        ep.anode_write(txn, &mut a, 0, &data, false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        let before = ep.jn.stats().txns_begun;
        ep.anode_truncate(idx, 0).unwrap();
        let txns_used = ep.jn.stats().txns_begun - before;
        assert!(txns_used >= 3, "200-block truncate must split transactions, used {txns_used}");
        let a = ep.read_anode(idx).unwrap();
        assert_eq!(a.length, 0);
        assert_eq!(a.indirect, 0);
        // All data blocks are free again.
        let free_again = (0..10u64).all(|f| ep.map_block(&a, f).unwrap() == 0);
        assert!(free_again);
    }

    #[test]
    fn truncate_partial_keeps_prefix() {
        let ep = fresh(16384);
        let txn = ep.jn.begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        let data: Vec<u8> = (0..20 * BLOCK_SIZE).map(|i| (i / BLOCK_SIZE) as u8).collect();
        ep.anode_write(txn, &mut a, 0, &data, false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        ep.anode_truncate(idx, 5 * BLOCK_SIZE as u64 + 10).unwrap();
        let a = ep.read_anode(idx).unwrap();
        assert_eq!(a.length, 5 * BLOCK_SIZE as u64 + 10);
        let back = ep.anode_read(&a, 0, 6 * BLOCK_SIZE).unwrap();
        assert_eq!(back.len(), 5 * BLOCK_SIZE + 10);
        assert_eq!(back[5 * BLOCK_SIZE], 5, "kept data intact");
        assert_eq!(ep.map_block(&a, 10).unwrap(), 0, "tail blocks freed");
    }

    #[test]
    fn extend_via_truncate_grows_length_without_blocks() {
        let ep = fresh(8192);
        let txn = ep.jn.begin();
        let (idx, a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        ep.anode_truncate(idx, 10_000).unwrap();
        let a = ep.read_anode(idx).unwrap();
        assert_eq!(a.length, 10_000);
        assert_eq!(ep.map_block(&a, 0).unwrap(), 0, "extension allocates nothing");
        assert_eq!(ep.anode_read(&a, 0, 16).unwrap(), vec![0; 16]);
    }

    #[test]
    fn destroy_anode_releases_everything() {
        let ep = fresh(16384);
        let txn = ep.jn.begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        ep.anode_write(txn, &mut a, 0, &vec![1u8; 30 * BLOCK_SIZE], false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();
        let b0 = ep.map_block(&ep.read_anode(idx).unwrap(), 0).unwrap();
        ep.reclaim(idx, None).unwrap();
        assert_eq!(ep.read_anode(idx).unwrap().kind, AnodeKind::Free);
        assert_eq!(ep.block_refcount(b0).unwrap(), 0, "data blocks freed");
    }

    #[test]
    fn cow_write_copies_shared_block() {
        let ep = fresh(8192);
        let txn = ep.jn.begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 0).unwrap();
        ep.anode_write(txn, &mut a, 0, b"original", false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        let shared = ep.map_block(&a, 0).unwrap();
        // Simulate a clone: bump the block's refcount.
        ep.incref_block(txn, shared).unwrap();
        ep.jn.commit(txn).unwrap();

        let txn = ep.jn.begin();
        let mut a = ep.read_anode(idx).unwrap();
        ep.anode_write(txn, &mut a, 0, b"MUTATED!", false).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.jn.commit(txn).unwrap();

        let a = ep.read_anode(idx).unwrap();
        let nb = ep.map_block(&a, 0).unwrap();
        assert_ne!(nb, shared, "write must copy the shared block");
        assert_eq!(ep.block_refcount(shared).unwrap(), 1, "snapshot keeps the original");
        assert_eq!(ep.anode_read(&a, 0, 8).unwrap(), b"MUTATED!");
        // The original block still holds the old content.
        assert_eq!(&ep.jn.get(shared).unwrap().read_at(0, 8), b"original");
    }

    /// `SuperBlock::refcount_location` agrees with the refcount anode's own
    /// map for every block, direct-only (8 192 blocks: 4 table blocks)
    /// and through the indirect block (32 768 blocks: 16).
    #[test]
    fn refcount_location_matches_the_refcount_anodes_map() {
        for blocks in [8192, 32768] {
            let ep = fresh(blocks);
            let rc = ep.read_anode(crate::layout::REFCOUNT_ANODE).unwrap();
            assert_eq!(rc.indirect != 0, blocks > 8192, "{blocks} blocks");
            for b in 0..blocks {
                let byte = 2 * b as u64;
                let phys = ep.map_block(&rc, byte / BLOCK_SIZE as u64).unwrap();
                let want = (phys, (byte % BLOCK_SIZE as u64) as usize);
                assert_eq!(ep.rc_location(b).unwrap(), want, "block {b} of {blocks}");
            }
            assert!(ep.rc_location(blocks).is_err());
        }
    }

    #[test]
    fn anode_out_of_range_rejected() {
        let ep = fresh(8192);
        assert!(ep.read_anode(0).is_err());
        assert!(ep.read_anode(u32::MAX).is_err());
    }
}
