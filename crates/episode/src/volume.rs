//! Volumes and the volume/aggregate distinction (§2.1).
//!
//! A *volume* is a mountable subtree; an *aggregate* is the unit of disk
//! storage. "Administration of networks of thousands of users is not
//! practical without this distinction": volumes can be created, deleted,
//! **cloned** (read-only copy-on-write snapshots sharing data blocks with
//! the original), **dumped** (fully or incrementally, for motion between
//! servers and for lazy replication), and **restored**.
//!
//! On disk, the volume table is anode 1; each volume has a header anode
//! whose container holds the volume's identity in its first block and,
//! from its second block on, its vnode map — the per-volume translation
//! from vnode index (the fid component that survives volume moves) to
//! anode slot.
//!
//! A volume's version and uniquifier counters live in memory
//! ([`VolumeCounters`]); the header holds only their logged high-water
//! marks (DESIGN.md §7 "Volume counters off the transaction").

use crate::layout::{Anode, AnodeKind};
use crate::Episode;
use dfs_disk::BLOCK_SIZE;
use dfs_journal::TxnId;
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{DfsError, DfsResult, FileStatus, Fid, VnodeId, VolumeId};
use dfs_vfs::{DirEntry, DumpFile, VolumeDump, VolumeInfo};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Byte size of a volume-table entry: volume id + header anode + flags.
const VT_ENTRY: usize = 16;

/// Volume header layout within the header anode's container: id at 0
/// (u64), flags at 8 (u32), root vnode at 12 (u32), parent volume at 16
/// (u64), base data-version at 24 (u64), uniquifier mark at 32 (u32),
/// then the name.
const VH_NAME: u64 = 36;
/// Version mark: every mutation gets the next per-volume version and
/// stamps it into the changed file's `data_version`, so "changed since
/// version V" is a meaningful per-volume question (used by incremental
/// dumps, §3.8). The header holds the logged high-water mark, not the
/// live value.
const VH_VERSION: u64 = 68;
/// Bytes of the fixed header, at the start of the container's first
/// block.
const VH_FIXED: usize = 76;
/// First byte of the vnode map (each entry a u32 anode index): the
/// container's second block, so that no per-op transaction writes the
/// first, which holds the marks.
const VH_MAP: u64 = BLOCK_SIZE as u64;

/// Vnode-map entries per block of the map.
const MAP_ENTRIES: u32 = (BLOCK_SIZE / 4) as u32;

/// The vnode map's groups: map block `k` is in group `k % VNODE_GROUPS`.
/// A new directory takes its vnode in the next group in turn, and its
/// files theirs in its block ([`Episode::vnode_alloc`]). The map grows
/// past this many blocks only when every entry in it is in use.
pub const VNODE_GROUPS: u32 = 8;

/// How far ahead of the live counters a mark extension logs the marks.
const MARK_STRIDE: u32 = 1024;

/// Read-only flag bit in the header flags word.
const VF_READONLY: u32 = 1;

/// Decoded volume header (fixed part).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VolumeHeader {
    /// The volume's cell-wide id.
    pub id: u64,
    /// Flags word (bit 0: read-only).
    pub flags: u32,
    /// Vnode index of the root directory.
    pub root_vnode: u32,
    /// Parent volume id for clones (0 = none).
    pub parent: u64,
    /// Data-version base recorded at restore time (replica bookkeeping).
    pub base_dv: u64,
    /// Uniquifier mark: at least every fid uniquifier handed out.
    pub next_uniq: u32,
    /// Version mark: at least every mutation version handed out.
    pub version: u64,
    /// Volume name.
    pub name: String,
}

impl VolumeHeader {
    /// A fresh read-write header: root vnode 1, no parent, version 0.
    fn new(id: VolumeId, name: &str) -> VolumeHeader {
        VolumeHeader {
            id: id.0,
            flags: 0,
            root_vnode: 1,
            parent: 0,
            base_dv: 0,
            next_uniq: 1,
            version: 0,
            name: name.to_string(),
        }
    }

    /// Returns true if the volume is a read-only clone or replica.
    pub fn read_only(&self) -> bool {
        self.flags & VF_READONLY != 0
    }

    /// The fixed header's on-disk bytes.
    fn encode(&self) -> [u8; VH_FIXED] {
        let mut fixed = [0u8; VH_FIXED];
        fixed[0..8].copy_from_slice(&self.id.to_le_bytes());
        fixed[8..12].copy_from_slice(&self.flags.to_le_bytes());
        fixed[12..16].copy_from_slice(&self.root_vnode.to_le_bytes());
        fixed[16..24].copy_from_slice(&self.parent.to_le_bytes());
        fixed[24..32].copy_from_slice(&self.base_dv.to_le_bytes());
        fixed[32..36].copy_from_slice(&self.next_uniq.to_le_bytes());
        let name = self.name.as_bytes();
        let n = name.len().min(31);
        fixed[VH_NAME as usize] = n as u8;
        fixed[VH_NAME as usize + 1..VH_NAME as usize + 1 + n].copy_from_slice(&name[..n]);
        fixed[VH_VERSION as usize..VH_VERSION as usize + 8]
            .copy_from_slice(&self.version.to_le_bytes());
        fixed
    }
}

/// A volume's version and uniquifier counters, off the transaction.
///
/// Every mutation draws the next value from an atomic; the header holds
/// only the marks, and a draw past one logs new marks [`MARK_STRIDE`]
/// ahead in a transaction of its own ([`Episode::keep_below_marks`]).
/// After a crash the counters resume at the logged marks, above every
/// value handed out. One per volume, in [`Episode`]'s map keyed by
/// header anode; so it also carries the volume's rename lock.
pub(crate) struct VolumeCounters {
    header: u32,
    /// The last version handed out. `Relaxed`: a draw publishes nothing
    /// but the value, and `fetch_add` hands each value out once.
    version: AtomicU64,
    /// The last uniquifier handed out.
    uniq: AtomicU32,
    /// The published marks: logged, their commit record in the log.
    /// Stored with `Release` after that append; a draw that reads one
    /// with `Acquire` and stays below it appends its own commit record
    /// after the mark's.
    version_mark: AtomicU64,
    uniq_mark: AtomicU32,
    /// Serializes mark extensions and header rewrites.
    marks: OrderedMutex<(), { rank::EPISODE_MARKS }>,
    /// Serializes the volume's renames between two different
    /// directories, so none changes the tree another's ancestry check
    /// walks.
    pub(crate) renames: OrderedMutex<(), { rank::EPISODE_RENAME }>,
    /// The vnode-map group of the next new directory: a hint, in memory
    /// only.
    dir_group: AtomicU32,
}

impl VolumeCounters {
    /// Counters resuming at the marks of header `vh`.
    fn new(header: u32, vh: &VolumeHeader) -> VolumeCounters {
        VolumeCounters {
            header,
            version: AtomicU64::new(vh.version),
            uniq: AtomicU32::new(vh.next_uniq),
            version_mark: AtomicU64::new(vh.version),
            uniq_mark: AtomicU32::new(vh.next_uniq),
            marks: OrderedMutex::new(()),
            renames: OrderedMutex::new(()),
            dir_group: AtomicU32::new(0),
        }
    }

    /// Where the vnode of a new file goes: a directory's in the next
    /// group in turn, anything else's near the vnode of its directory.
    pub(crate) fn vnode_near(&self, kind: AnodeKind, dir: u32) -> VnodeNear {
        if kind == AnodeKind::Directory {
            VnodeNear::Group(self.dir_group.fetch_add(1, Ordering::Relaxed) % VNODE_GROUPS)
        } else {
            VnodeNear::Dir(dir)
        }
    }

    /// The live (version, uniquifier): the last values handed out.
    pub(crate) fn live(&self) -> (u64, u32) {
        (self.version.load(Ordering::Relaxed), self.uniq.load(Ordering::Relaxed))
    }

    /// The published (version, uniquifier) marks.
    pub(crate) fn marks(&self) -> (u64, u32) {
        (self.version_mark.load(Ordering::Acquire), self.uniq_mark.load(Ordering::Acquire))
    }

    /// True if a value was drawn past a published mark.
    fn past_mark(&self) -> bool {
        let ((version, uniq), (vmark, umark)) = (self.live(), self.marks());
        version > vmark || uniq > umark
    }

    /// Publishes the marks of the header `vh` just logged.
    fn publish(&self, vh: &VolumeHeader) {
        self.version_mark.store(vh.version, Ordering::Release);
        self.uniq_mark.store(vh.next_uniq, Ordering::Release);
    }

    /// Raises the live values to the published marks, where a fresh
    /// load starts them: the next draw of either passes its mark.
    pub(crate) fn resume_at_marks(&self) {
        let (version, uniq) = self.marks();
        self.version.fetch_max(version, Ordering::Relaxed);
        self.uniq.fetch_max(uniq, Ordering::Relaxed);
    }
}

/// Where [`Episode::vnode_alloc`] places a new vnode.
#[derive(Clone, Copy, Debug)]
pub(crate) enum VnodeNear {
    /// A new directory's: in this group.
    Group(u32),
    /// A file's: near this vnode, its directory's.
    Dir(u32),
}

/// The first vnode of map block `k` (vnode 0 names nothing).
fn first_entry(k: u32) -> u32 {
    (k * MAP_ENTRIES).max(1)
}

impl Episode {
    // ------------------------------------------------------------------
    // Volume table (anode 1)
    // ------------------------------------------------------------------

    /// Finds a volume's table slot, returning (entry offset, header anode).
    pub(crate) fn voltable_find(&self, vol: VolumeId) -> DfsResult<Option<(u64, u32)>> {
        let vt = self.read_anode(crate::layout::VOLTABLE_ANODE)?;
        let data = self.anode_read(&vt, 0, vt.length as usize)?;
        for (i, chunk) in data.chunks_exact(VT_ENTRY).enumerate() {
            let id = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
            if id == vol.0 {
                let header = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
                return Ok(Some(((i * VT_ENTRY) as u64, header)));
            }
        }
        Ok(None)
    }

    fn voltable_insert(&self, txn: TxnId, vol: VolumeId, header: u32) -> DfsResult<()> {
        let mut vt = self.read_anode(crate::layout::VOLTABLE_ANODE)?;
        let data = self.anode_read(&vt, 0, vt.length as usize)?;
        let mut entry = [0u8; VT_ENTRY];
        entry[0..8].copy_from_slice(&vol.0.to_le_bytes());
        entry[8..12].copy_from_slice(&header.to_le_bytes());
        // Reuse a free slot if one exists, else append.
        let offset = data
            .chunks_exact(VT_ENTRY)
            .position(|c| u64::from_le_bytes(c[0..8].try_into().unwrap()) == 0)
            .map(|i| (i * VT_ENTRY) as u64)
            .unwrap_or(vt.length);
        self.anode_write(txn, &mut vt, offset, &entry, true)?;
        self.write_anode(txn, crate::layout::VOLTABLE_ANODE, &vt)
    }

    fn voltable_clear(&self, txn: TxnId, offset: u64) -> DfsResult<()> {
        let mut vt = self.read_anode(crate::layout::VOLTABLE_ANODE)?;
        self.anode_write(txn, &mut vt, offset, &[0u8; VT_ENTRY], true)?;
        self.write_anode(txn, crate::layout::VOLTABLE_ANODE, &vt)
    }

    /// Allocates a header anode holding `vh` and enters the volume in the
    /// volume table, returning the header anode.
    fn new_volume(&self, txn: TxnId, vh: &VolumeHeader) -> DfsResult<u32> {
        let (header, mut a) = self.alloc_anode(txn, None, AnodeKind::Meta, vh.id, 0, 0)?;
        self.anode_write(txn, &mut a, 0, &vh.encode(), true)?;
        self.write_anode(txn, header, &a)?;
        self.voltable_insert(txn, VolumeId(vh.id), header)?;
        Ok(header)
    }

    /// Lists (volume id, header anode) of every volume on the aggregate.
    pub(crate) fn voltable_list(&self) -> DfsResult<Vec<(VolumeId, u32)>> {
        let vt = self.read_anode(crate::layout::VOLTABLE_ANODE)?;
        let data = self.anode_read(&vt, 0, vt.length as usize)?;
        Ok(data
            .chunks_exact(VT_ENTRY)
            .filter_map(|c| {
                let id = u64::from_le_bytes(c[0..8].try_into().unwrap());
                if id == 0 {
                    return None;
                }
                let header = u32::from_le_bytes(c[8..12].try_into().unwrap());
                Some((VolumeId(id), header))
            })
            .collect())
    }

    // ------------------------------------------------------------------
    // Volume headers and vnode maps
    // ------------------------------------------------------------------

    /// Reads and decodes a volume header.
    pub(crate) fn read_volume_header(&self, header_anode: u32) -> DfsResult<VolumeHeader> {
        let a = self.read_anode(header_anode)?;
        let fixed = self.anode_read(&a, 0, VH_FIXED)?;
        if fixed.len() < VH_FIXED {
            return Err(DfsError::Internal("short volume header"));
        }
        let name_len = fixed[VH_NAME as usize] as usize;
        let name = String::from_utf8_lossy(
            &fixed[VH_NAME as usize + 1..VH_NAME as usize + 1 + name_len.min(31)],
        )
        .into_owned();
        Ok(VolumeHeader {
            id: u64::from_le_bytes(fixed[0..8].try_into().unwrap()),
            flags: u32::from_le_bytes(fixed[8..12].try_into().unwrap()),
            root_vnode: u32::from_le_bytes(fixed[12..16].try_into().unwrap()),
            parent: u64::from_le_bytes(fixed[16..24].try_into().unwrap()),
            base_dv: u64::from_le_bytes(fixed[24..32].try_into().unwrap()),
            next_uniq: u32::from_le_bytes(fixed[32..36].try_into().unwrap()),
            version: u64::from_le_bytes(
                fixed[VH_VERSION as usize..VH_VERSION as usize + 8].try_into().unwrap(),
            ),
            name,
        })
    }

    /// Rewrites an existing volume's fixed header in place: one update
    /// to the container's first block, none to its anode. No per-op
    /// transaction writes that block, so a transaction doing only this
    /// is a class of its own, and its commit record is in the log when
    /// its commit returns.
    fn rewrite_volume_header(
        &self,
        txn: TxnId,
        header_anode: u32,
        vh: &VolumeHeader,
    ) -> DfsResult<()> {
        let a = self.read_anode(header_anode)?;
        match self.map_block(&a, 0)? {
            0 => Err(DfsError::Internal("volume header hole")),
            b => self.jn.update(txn, &self.jn.get(b)?, 0, &vh.encode()),
        }
    }

    /// Returns the anode slot mapped to vnode `v` (0 = free).
    pub(crate) fn vnode_get(&self, header_anode: u32, v: u32) -> DfsResult<u32> {
        let a = self.read_anode(header_anode)?;
        let off = VH_MAP + 4 * v as u64;
        if off + 4 > a.length {
            return Ok(0);
        }
        let bytes = self.anode_read(&a, off, 4)?;
        let slot = u32::from_le_bytes(bytes.try_into().unwrap());
        if slot >= self.sb.anode_count() {
            return Err(DfsError::Internal("vnode maps past the anode table"));
        }
        Ok(slot)
    }

    /// Sets vnode `v`'s anode slot (0 frees the vnode index).
    pub(crate) fn vnode_set(&self, txn: TxnId, header_anode: u32, v: u32, slot: u32) -> DfsResult<()> {
        let _g = self.anode_lock(header_anode).write();
        self.vnode_set_locked(txn, header_anode, v, slot)
    }

    /// [`Episode::vnode_set`] body; caller holds the header anode lock.
    ///
    /// The map grows by whole zeroed blocks, and the header anode is
    /// written only when its bytes change: when a block joins the map.
    /// Skipping the unchanged rewrite keeps the transaction out of the
    /// class of every other that wrote the header's anode-table block. It
    /// is safe: a transaction that writes into a map block another live
    /// transaction added merges with it through that block, which the
    /// other wrote too (DESIGN.md §7 "A file lives next to its
    /// directory").
    fn vnode_set_locked(&self, txn: TxnId, header_anode: u32, v: u32, slot: u32) -> DfsResult<()> {
        let mut a = self.read_anode(header_anode)?;
        let before = a.clone();
        let off = VH_MAP + 4 * u64::from(v);
        let fblk = off / BLOCK_SIZE as u64;
        if self.map_block(&a, fblk)? != 0 {
            self.anode_write(txn, &mut a, off, &slot.to_le_bytes(), true)?;
        } else if slot != 0 {
            // Unmapped, the entry is free already; a block joins the map
            // whole and zeroed, every other entry in it free.
            let mut block = [0u8; BLOCK_SIZE];
            let at = (off % BLOCK_SIZE as u64) as usize;
            block[at..at + 4].copy_from_slice(&slot.to_le_bytes());
            self.anode_write(txn, &mut a, fblk * BLOCK_SIZE as u64, &block, true)?;
        }
        if a != before {
            self.write_anode(txn, header_anode, &a)?;
        }
        Ok(())
    }

    /// Blocks in the vnode map of header `a`.
    fn map_blocks(a: &Anode) -> u32 {
        (a.length.saturating_sub(VH_MAP)).div_ceil(BLOCK_SIZE as u64) as u32
    }

    /// Allocates a free vnode index, placed as `near` says, and maps it
    /// to `slot`, reading one map block at a time. A new directory takes
    /// the lowest free vnode in its group (the group's first block, if
    /// the map has none of it yet), a file the lowest in its directory's
    /// block, then in that group's later blocks; failing those, the
    /// lowest free vnode anywhere, and past the last block only when all
    /// are full.
    pub(crate) fn vnode_alloc(
        &self,
        txn: TxnId,
        header_anode: u32,
        slot: u32,
        near: VnodeNear,
    ) -> DfsResult<u32> {
        let _g = self.anode_lock(header_anode).write();
        let a = self.read_anode(header_anode)?;
        let blocks = Self::map_blocks(&a);
        let group = |first: u32| (first..blocks).step_by(VNODE_GROUPS as usize);
        let placed = match near {
            VnodeNear::Group(g) if g >= blocks => Some(first_entry(g)),
            VnodeNear::Group(g) => self.lowest_free_vnode(&a, group(g))?,
            VnodeNear::Dir(d) => self.lowest_free_vnode(&a, group(d / MAP_ENTRIES))?,
        };
        let v = match placed {
            Some(v) => v,
            None => self.lowest_free_vnode(&a, 0..blocks)?.unwrap_or(first_entry(blocks)),
        };
        self.vnode_set_locked(txn, header_anode, v, slot)?;
        Ok(v)
    }

    /// The lowest free vnode in the first of map blocks `blocks` that
    /// has one; an unmapped block is all free.
    fn lowest_free_vnode(
        &self,
        a: &Anode,
        blocks: impl Iterator<Item = u32>,
    ) -> DfsResult<Option<u32>> {
        for k in blocks {
            let phys = self.map_block(a, VH_MAP / BLOCK_SIZE as u64 + u64::from(k))?;
            if phys == 0 {
                return Ok(Some(first_entry(k)));
            }
            let free = self.jn.get(phys)?.with_data(|d| {
                (first_entry(k)..(k + 1) * MAP_ENTRIES).find(|&v| {
                    let at = 4 * (v % MAP_ENTRIES) as usize;
                    d[at..at + 4] == [0; 4]
                })
            });
            if free.is_some() {
                return Ok(free);
            }
        }
        Ok(None)
    }

    /// Blocks in volume `vol`'s vnode map.
    pub fn vnode_map_blocks(&self, vol: VolumeId) -> DfsResult<u32> {
        let (_, header) = self.voltable_find(vol)?.ok_or(DfsError::NoSuchVolume)?;
        Ok(Self::map_blocks(&self.read_anode(header)?))
    }

    /// Lists every live (vnode index, anode slot) pair of a volume.
    pub(crate) fn vnode_list(&self, header_anode: u32) -> DfsResult<Vec<(u32, u32)>> {
        let a = self.read_anode(header_anode)?;
        if a.length <= VH_MAP {
            return Ok(Vec::new());
        }
        let map = self.anode_read(&a, VH_MAP, (a.length - VH_MAP) as usize)?;
        Ok(map
            .chunks_exact(4)
            .enumerate()
            .skip(1)
            .filter_map(|(i, c)| {
                let slot = u32::from_le_bytes(c.try_into().unwrap());
                (slot != 0).then_some((i as u32, slot))
            })
            .collect())
    }

    // ------------------------------------------------------------------
    // Volume counters
    // ------------------------------------------------------------------

    /// The counters of the volume whose header is `header_anode`, loaded
    /// from its marks on first use.
    pub(crate) fn volume_counters(&self, header_anode: u32) -> DfsResult<Arc<VolumeCounters>> {
        let mut volumes = self.volumes.lock();
        if let Some(c) = volumes.get(&header_anode) {
            return Ok(c.clone());
        }
        let c =
            Arc::new(VolumeCounters::new(header_anode, &self.read_volume_header(header_anode)?));
        volumes.insert(header_anode, c.clone());
        Ok(c)
    }

    /// Allocates the next fid uniquifier for the volume.
    pub(crate) fn next_uniq(&self, c: &VolumeCounters) -> DfsResult<u32> {
        let uniq = c.uniq.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        self.keep_below_marks(c)?;
        Ok(uniq)
    }

    /// Bumps and returns the per-volume mutation version.
    ///
    /// Mutating operations stamp the result into the changed file's
    /// `data_version`, making versions comparable volume-wide.
    pub(crate) fn bump_volume_version(&self, c: &VolumeCounters) -> DfsResult<u64> {
        let version = c.version.fetch_add(1, Ordering::Relaxed) + 1;
        self.keep_below_marks(c)?;
        Ok(version)
    }

    /// After a draw: if it went past a published mark, logs both marks
    /// [`MARK_STRIDE`] ahead of the live values in a transaction of its
    /// own, and publishes them once its commit record is in the log. So
    /// a mutation's commit record never precedes the mark covering its
    /// values: whatever survives a crash, the counters resume above it.
    fn keep_below_marks(&self, c: &VolumeCounters) -> DfsResult<()> {
        if !c.past_mark() {
            return Ok(());
        }
        self.log_marks(c, |vh| {
            // Another draw may have logged them while this one waited.
            let (version, uniq) = c.live();
            c.past_mark().then(|| VolumeHeader {
                version: version + u64::from(MARK_STRIDE),
                next_uniq: uniq.wrapping_add(MARK_STRIDE),
                ..vh
            })
        })
    }

    /// The one read-modify-write of a volume's fixed header: under the
    /// volume's `marks` lock, reads the header, lets `change` make the
    /// new one (`None`: nothing to write), rewrites it in a transaction
    /// of its own and publishes its marks after that commit.
    fn log_marks(
        &self,
        c: &VolumeCounters,
        change: impl FnOnce(VolumeHeader) -> Option<VolumeHeader>,
    ) -> DfsResult<()> {
        let _g = c.marks.lock();
        let Some(vh) = change(self.read_volume_header(c.header)?) else {
            return Ok(());
        };
        self.txn(|txn| self.rewrite_volume_header(txn, c.header, &vh))?;
        c.publish(&vh);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Volume operations
    // ------------------------------------------------------------------

    /// Creates an empty read-write volume with a root directory.
    pub fn create_volume(&self, id: VolumeId, name: &str) -> DfsResult<()> {
        if id.0 == 0 {
            return Err(DfsError::InvalidArgument);
        }
        let _guard = self.vol_lock.lock();
        if self.voltable_find(id)?.is_some() {
            return Err(DfsError::Exists);
        }
        self.txn(|txn| {
            let header = self.new_volume(txn, &VolumeHeader::new(id, name))?;
            // Root directory: vnode 1, uniq 1.
            let (root_slot, mut root) =
                self.alloc_anode(txn, None, AnodeKind::Directory, id.0, 0o755, 0)?;
            root.uniq = 1;
            root.nlink = 2;
            self.write_anode(txn, root_slot, &root)?;
            self.vnode_set(txn, header, 1, root_slot)
        })?;
        // Volume creation is an administrative operation: make it durable.
        self.jn.sync()
    }

    /// Deletes a volume, freeing all of its storage.
    pub fn delete_volume(&self, id: VolumeId) -> DfsResult<()> {
        let _guard = self.vol_lock.lock();
        let (offset, header) = self.voltable_find(id)?.ok_or(DfsError::NoSuchVolume)?;
        for (_, slot) in self.vnode_list(header)? {
            self.reclaim(slot, None)?;
        }
        self.reclaim(header, None)?;
        self.volumes.lock().remove(&header);
        self.txn(|txn| self.voltable_clear(txn, offset))?;
        self.jn.sync()
    }

    /// Clones `src` into a read-only snapshot `clone_id` (§2.1).
    ///
    /// "A copy-on-write duplicate of a file can be created, in which,
    /// instead of data blocks and indirect blocks, there are pointers to
    /// the corresponding blocks of the original." Every block referenced
    /// by the source has its refcount raised; the clone's anodes are
    /// fresh descriptors sharing those blocks. Cost is proportional to
    /// metadata, not data.
    pub fn clone_volume(&self, src: VolumeId, clone_id: VolumeId, name: &str) -> DfsResult<()> {
        if clone_id.0 == 0 || clone_id == src {
            return Err(DfsError::InvalidArgument);
        }
        let _guard = self.vol_lock.lock();
        let (_, src_header) = self.voltable_find(src)?.ok_or(DfsError::NoSuchVolume)?;
        if self.voltable_find(clone_id)?.is_some() {
            return Err(DfsError::Exists);
        }
        // A read-only clone draws nothing: its marks are the source's
        // live values, which its dumps report.
        let (version, next_uniq) = self.volume_counters(src_header)?.live();
        let vh = VolumeHeader {
            id: clone_id.0,
            flags: VF_READONLY,
            parent: src.0,
            base_dv: 0,
            version,
            next_uniq,
            name: name.to_string(),
            ..self.read_volume_header(src_header)?
        };
        let header = self.txn(|txn| self.new_volume(txn, &vh))?;

        // One short transaction per vnode keeps transactions small.
        for (v, src_slot) in self.vnode_list(src_header)? {
            self.txn(|txn| {
                let mut src_anode = self.read_anode(src_slot)?;
                // Clone the ACL container descriptor too, sharing its blocks.
                if src_anode.acl_anode != 0 {
                    let acl_src = self.read_anode(src_anode.acl_anode)?;
                    src_anode.acl_anode = self.share_anode(txn, &acl_src, clone_id)?;
                }
                let slot = self.share_anode(txn, &src_anode, clone_id)?;
                self.vnode_set(txn, header, v, slot)
            })?;
        }
        self.jn.sync()
    }

    /// Copies descriptor `a` into a fresh anode of volume `vol` that
    /// shares every block `a` references (their refcounts go up by one).
    fn share_anode(&self, txn: TxnId, a: &Anode, vol: VolumeId) -> DfsResult<u32> {
        let (slot, _) = self.alloc_anode(txn, None, AnodeKind::Meta, vol.0, 0, 0)?;
        self.write_anode(txn, slot, &Anode { volume: vol.0, ..a.clone() })?;
        self.for_each_block(a, |b| self.incref_block(txn, b).map(drop))?;
        Ok(slot)
    }

    /// Builds a [`VolumeInfo`] for one volume.
    pub fn volume_info_inner(&self, id: VolumeId) -> DfsResult<VolumeInfo> {
        let (_, header) = self.voltable_find(id)?.ok_or(DfsError::NoSuchVolume)?;
        let vh = self.read_volume_header(header)?;
        let vnodes = self.vnode_list(header)?;
        let mut blocks = 0u64;
        let mut max_dv = 0u64;
        for (_, slot) in &vnodes {
            let a = self.read_anode(*slot)?;
            blocks += a.length.div_ceil(dfs_disk::BLOCK_SIZE as u64);
            max_dv = max_dv.max(a.data_version);
        }
        Ok(VolumeInfo {
            id,
            name: vh.name.clone(),
            read_only: vh.read_only(),
            parent: (vh.parent != 0).then_some(VolumeId(vh.parent)),
            files: vnodes.len() as u64,
            blocks_used: blocks,
            max_data_version: max_dv,
        })
    }

    /// Serializes a volume (fully or incrementally) for motion (§3.6)
    /// or replication (§3.8).
    pub fn dump_volume_inner(&self, id: VolumeId, since_version: u64) -> DfsResult<VolumeDump> {
        let _guard = self.vol_lock.lock();
        let (_, header) = self.voltable_find(id)?.ok_or(DfsError::NoSuchVolume)?;
        let vh = self.read_volume_header(header)?;
        let mut files = Vec::new();
        let mut live = Vec::new();
        // The live version, not the mark: a file changed after this dump
        // gets a version above it, so `since = max_dv` finds it.
        let max_dv = self.volume_counters(header)?.live().0;
        for (v, slot) in self.vnode_list(header)? {
            let a = self.read_anode(slot)?;
            let fid = Fid::new(id, VnodeId(v), a.uniq);
            live.push(fid);
            if a.data_version <= since_version && since_version > 0 {
                continue;
            }
            let status = self.status_from_anode(fid, &a);
            let acl =
                if a.acl_anode != 0 { Some(self.read_acl(a.acl_anode)?) } else { None };
            let (data, entries) = match a.kind {
                AnodeKind::Directory => {
                    let entries = self
                        .dir_list(&a)?
                        .into_iter()
                        .map(|e| DirEntry {
                            name: e.name,
                            fid: Fid::new(id, VnodeId(e.vnode), e.uniq),
                        })
                        .collect();
                    (Vec::new(), entries)
                }
                _ => (self.anode_read(&a, 0, a.length as usize)?, Vec::new()),
            };
            files.push(DumpFile { status, acl, data, entries });
        }
        Ok(VolumeDump {
            volume: id,
            name: vh.name.clone(),
            since_version,
            max_data_version: max_dv,
            root: Fid::new(id, VnodeId(vh.root_vnode), 1),
            files,
            live,
        })
    }

    /// Materializes a dump on this aggregate (full or incremental).
    pub fn restore_volume_inner(&self, dump: &VolumeDump, read_only: bool) -> DfsResult<()> {
        let id = dump.volume;
        let flags = if read_only { VF_READONLY } else { 0 };
        let header = match self.voltable_find(id)? {
            Some(_) if dump.since_version == 0 => return Err(DfsError::Exists),
            Some((_, h)) => h,
            None if dump.since_version != 0 => return Err(DfsError::NoSuchVolume),
            None => {
                let _guard = self.vol_lock.lock();
                let vh = VolumeHeader {
                    flags,
                    root_vnode: dump.root.vnode.0,
                    base_dv: dump.max_data_version,
                    version: dump.max_data_version,
                    ..VolumeHeader::new(id, &dump.name)
                };
                self.txn(|txn| self.new_volume(txn, &vh))?
            }
        };

        // Delete vnodes that no longer exist in the source.
        let live: std::collections::HashSet<u32> =
            dump.live.iter().map(|f| f.vnode.0).collect();
        for (v, slot) in self.vnode_list(header)? {
            if !live.contains(&v) {
                self.reclaim(slot, Some((header, v)))?;
            }
        }

        // Apply each dumped file, preserving vnode index and uniquifier.
        for f in &dump.files {
            let v = f.status.fid.vnode.0;
            let existing = self.vnode_get(header, v)?;
            if existing != 0 {
                self.reclaim(existing, None)?;
            }
            self.txn(|txn| {
                let kind = AnodeKind::of_file_type(f.status.ftype);
                let (slot, mut a) =
                    self.alloc_anode(txn, None, kind, id.0, f.status.mode, f.status.owner)?;
                a.group = f.status.group;
                a.uniq = f.status.fid.uniq;
                a.nlink = f.status.nlink as u16;
                a.mtime = f.status.mtime.as_micros();
                a.ctime = f.status.ctime.as_micros();
                a.data_version = f.status.data_version;
                if kind == AnodeKind::Directory {
                    for e in &f.entries {
                        let ekind = dump
                            .files
                            .iter()
                            .find(|g| g.status.fid == e.fid)
                            .map_or(AnodeKind::File, |g| AnodeKind::of_file_type(g.status.ftype));
                        self.dir_insert(
                            txn,
                            &mut a,
                            &crate::dir::RawDirEntry {
                                name: e.name.clone(),
                                vnode: e.fid.vnode.0,
                                uniq: e.fid.uniq,
                                kind: ekind.to_byte(),
                            },
                        )?;
                    }
                } else {
                    self.anode_write(txn, &mut a, 0, &f.data, false)?;
                    a.length = f.status.length;
                }
                if let Some(acl) = &f.acl {
                    self.write_acl(txn, &mut a, acl)?;
                }
                self.write_anode(txn, slot, &a)?;
                self.vnode_set(txn, header, v, slot)
            })?;
        }

        // Record the restore point and keep the marks ahead of
        // everything, then resume the counters there.
        let max_uniq = dump.live.iter().map(|f| f.uniq).max().unwrap_or(0);
        let c = self.volume_counters(header)?;
        self.log_marks(&c, |vh| {
            Some(VolumeHeader {
                base_dv: dump.max_data_version,
                version: vh.version.max(dump.max_data_version),
                flags,
                next_uniq: vh.next_uniq.max(max_uniq + 1),
                ..vh
            })
        })?;
        c.resume_at_marks();
        self.jn.sync()
    }

    /// Builds a [`FileStatus`] from an anode.
    pub(crate) fn status_from_anode(&self, fid: Fid, a: &Anode) -> FileStatus {
        FileStatus {
            fid,
            ftype: a.kind.file_type(),
            length: a.length,
            owner: a.owner,
            group: a.group,
            mode: a.mode,
            nlink: a.nlink as u32,
            mtime: dfs_types::Timestamp(a.mtime),
            ctime: dfs_types::Timestamp(a.ctime),
            data_version: a.data_version,
            stamp: dfs_types::SerializationStamp(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fresh;

    #[test]
    fn create_and_list_volumes() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(10), "user.jane").unwrap();
        ep.create_volume(VolumeId(11), "user.bob").unwrap();
        let vols = ep.voltable_list().unwrap();
        assert_eq!(vols.len(), 2);
        let info = ep.volume_info_inner(VolumeId(10)).unwrap();
        assert_eq!(info.name, "user.jane");
        assert!(!info.read_only);
        assert_eq!(info.files, 1, "fresh volume has just the root dir");
    }

    #[test]
    fn duplicate_volume_id_rejected() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(10), "a").unwrap();
        assert_eq!(ep.create_volume(VolumeId(10), "b").unwrap_err(), DfsError::Exists);
        assert_eq!(ep.create_volume(VolumeId(0), "z").unwrap_err(), DfsError::InvalidArgument);
    }

    #[test]
    fn delete_volume_frees_slots() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(10), "v").unwrap();
        ep.delete_volume(VolumeId(10)).unwrap();
        assert_eq!(ep.voltable_list().unwrap().len(), 0);
        assert_eq!(
            ep.volume_info_inner(VolumeId(10)).unwrap_err(),
            DfsError::NoSuchVolume
        );
        // Id is reusable afterwards.
        ep.create_volume(VolumeId(10), "v2").unwrap();
    }

    #[test]
    fn vnode_alloc_reuses_holes() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(5), "v").unwrap();
        let (_, header) = ep.voltable_find(VolumeId(5)).unwrap().unwrap();
        let txn = ep.jn.begin();
        let v2 = ep.vnode_alloc(txn, header, 100, VnodeNear::Dir(1)).unwrap();
        let v3 = ep.vnode_alloc(txn, header, 101, VnodeNear::Dir(1)).unwrap();
        ep.vnode_set(txn, header, v2, 0).unwrap();
        let v4 = ep.vnode_alloc(txn, header, 102, VnodeNear::Dir(1)).unwrap();
        ep.jn.commit(txn).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(v3, 3);
        assert_eq!(v4, 2, "freed vnode index is reused");
    }

    #[test]
    fn header_round_trip() {
        let ep = fresh(8192);
        ep.create_volume(VolumeId(77), "home.volume").unwrap();
        let (_, header) = ep.voltable_find(VolumeId(77)).unwrap().unwrap();
        let vh = ep.read_volume_header(header).unwrap();
        assert_eq!(vh.id, 77);
        assert_eq!(vh.name, "home.volume");
        assert_eq!(vh.root_vnode, 1);
        assert!(!vh.read_only());
    }
}
