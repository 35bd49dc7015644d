//! A Berkeley-FFS-style baseline file system.
//!
//! This is the comparator the paper argues against in §2.2: a vendor
//! file system that "schedules large numbers of writes to file system
//! meta-data as soon as the meta-data are modified" — inodes, directory
//! blocks, and the allocation bitmap are written **synchronously, in
//! place** on every operation, "to ensure that certain information is
//! written before other information, to simplify the job of fsck". After
//! a crash it needs [`Ffs::fsck`]: a scan of the *whole* file system,
//! cost proportional to its size, not to the work in flight.
//!
//! It also embodies the interoperability target of §1: it implements the
//! same [`dfs_vfs::Vfs`] interface as Episode, so the DEcorum protocol
//! exporter can export it — a native file system "already in use on that
//! host" — to remote clients. The volume-level VFS+ extensions are
//! mostly unsupported (one volume per partition, no clones), which is
//! exactly the partial-functionality situation §3.3 anticipates.

use dfs_disk::{SimDisk, BLOCK_SIZE};
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{
    Acl, DfsError, DfsResult, FileStatus, FileType, Fid, SerializationStamp, SimClock, Timestamp,
    VnodeId, VolumeId,
};
use dfs_vfs::{
    Credentials, DirEntry, PhysicalFs, SalvageReport, SetAttrs, Vfs, VfsPlus, VolumeDump,
    VolumeInfo,
};
use std::sync::{Arc, Weak};

const FFS_MAGIC: u32 = 0xFF50_B5D0;
const INODE_SIZE: usize = 128;
const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;
const NDIRECT: usize = 10;
const PTRS: usize = BLOCK_SIZE / 4;

/// One on-disk inode.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Inode {
    kind: u8, // 0 free, 1 file, 2 dir, 3 symlink
    mode: u16,
    uniq: u32,
    length: u64,
    owner: u32,
    group: u32,
    nlink: u16,
    mtime: u64,
    direct: [u32; NDIRECT],
    indirect: u32,
}

impl Inode {
    fn free() -> Inode {
        Inode {
            kind: 0,
            mode: 0,
            uniq: 0,
            length: 0,
            owner: 0,
            group: 0,
            nlink: 0,
            mtime: 0,
            direct: [0; NDIRECT],
            indirect: 0,
        }
    }

    fn encode(&self) -> [u8; INODE_SIZE] {
        let mut b = [0u8; INODE_SIZE];
        b[0] = self.kind;
        b[2..4].copy_from_slice(&self.mode.to_le_bytes());
        b[4..8].copy_from_slice(&self.uniq.to_le_bytes());
        b[8..16].copy_from_slice(&self.length.to_le_bytes());
        b[16..20].copy_from_slice(&self.owner.to_le_bytes());
        b[20..24].copy_from_slice(&self.group.to_le_bytes());
        b[24..26].copy_from_slice(&self.nlink.to_le_bytes());
        b[32..40].copy_from_slice(&self.mtime.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            b[40 + 4 * i..44 + 4 * i].copy_from_slice(&d.to_le_bytes());
        }
        b[80..84].copy_from_slice(&self.indirect.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Inode {
        let mut direct = [0u32; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u32::from_le_bytes(b[40 + 4 * i..44 + 4 * i].try_into().unwrap());
        }
        Inode {
            kind: b[0],
            mode: u16::from_le_bytes(b[2..4].try_into().unwrap()),
            uniq: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            length: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            owner: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            group: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            nlink: u16::from_le_bytes(b[24..26].try_into().unwrap()),
            mtime: u64::from_le_bytes(b[32..40].try_into().unwrap()),
            direct,
            indirect: u32::from_le_bytes(b[80..84].try_into().unwrap()),
        }
    }
}

/// What a completed fsck did (experiment T2's FFS side).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Inodes examined (every slot, free or not).
    pub inodes_scanned: u64,
    /// Blocks read during the scan.
    pub blocks_scanned: u64,
    /// Bitmap discrepancies repaired.
    pub bitmap_fixes: u64,
    /// Simulated disk time the check consumed, in microseconds.
    pub disk_busy_us: u64,
}

struct Geometry {
    total: u32,
    inode_start: u32,
    inode_blocks: u32,
    bitmap_start: u32,
    bitmap_blocks: u32,
    data_start: u32,
}

impl Geometry {
    fn for_disk(total: u32) -> Geometry {
        let inode_count = (total / 8).max(64);
        let inode_blocks = inode_count.div_ceil(INODES_PER_BLOCK as u32);
        let bitmap_blocks = total.div_ceil((BLOCK_SIZE * 8) as u32);
        Geometry {
            total,
            inode_start: 1,
            inode_blocks,
            bitmap_start: 1 + inode_blocks,
            bitmap_blocks,
            data_start: 1 + inode_blocks + bitmap_blocks,
        }
    }

    fn inode_count(&self) -> u32 {
        self.inode_blocks * INODES_PER_BLOCK as u32
    }

    fn inode_loc(&self, ino: u32) -> (u32, usize) {
        (self.inode_start + ino / INODES_PER_BLOCK as u32,
         (ino as usize % INODES_PER_BLOCK) * INODE_SIZE)
    }
}

/// The FFS-style file system over a [`SimDisk`].
///
/// One volume per partition (the identification the paper's §2.1 calls
/// out as the limitation Episode removes). A single lock serializes all
/// operations — also period-accurate for a vendor UNIX file system.
pub struct Ffs {
    disk: SimDisk,
    clock: SimClock,
    geo: Geometry,
    volume: VolumeId,
    lock: OrderedMutex<(), { rank::FFS }>,
    /// Weak self-reference so `mount` can hand out `Arc<dyn VfsPlus>`.
    me: Weak<Ffs>,
}

impl Ffs {
    /// Formats the disk and returns the file system (root inode 1).
    pub fn format(disk: SimDisk, clock: SimClock, volume: VolumeId) -> DfsResult<Arc<Ffs>> {
        let geo = Geometry::for_disk(disk.blocks());
        if geo.data_start + 8 > geo.total {
            return Err(DfsError::NoSpace);
        }
        let mut sb = [0u8; BLOCK_SIZE];
        sb[0..4].copy_from_slice(&FFS_MAGIC.to_le_bytes());
        sb[4..8].copy_from_slice(&geo.total.to_le_bytes());
        disk.write(0, &sb)?;
        // Zero bitmap; mark reserved region used.
        for b in 0..geo.bitmap_blocks {
            disk.write(geo.bitmap_start + b, &[0u8; BLOCK_SIZE])?;
        }
        let fs = Arc::new_cyclic(|me| Ffs {
            disk,
            clock,
            geo,
            volume,
            lock: OrderedMutex::new(()),
            me: me.clone(),
        });
        for b in 0..fs.geo.data_start {
            fs.bitmap_set(b, true)?;
        }
        // Root directory: inode 1.
        let now = fs.clock.now().as_micros();
        let mut root = Inode::free();
        root.kind = 2;
        root.mode = 0o755;
        root.uniq = 1;
        root.nlink = 2;
        root.mtime = now;
        fs.write_inode(1, &root)?;
        fs.disk.flush()?;
        Ok(fs)
    }

    /// Opens an existing FFS, running the mandatory full fsck first.
    ///
    /// This is the availability cost the paper's logging design removes:
    /// "a lengthy file system salvage process after a crash".
    pub fn open(disk: SimDisk, clock: SimClock, volume: VolumeId) -> DfsResult<(Arc<Ffs>, FsckReport)> {
        let sb = disk.read(0)?;
        if u32::from_le_bytes(sb[0..4].try_into().unwrap()) != FFS_MAGIC {
            return Err(DfsError::Internal("not an FFS partition"));
        }
        let geo = Geometry::for_disk(disk.blocks());
        let fs = Arc::new_cyclic(|me| Ffs {
            disk,
            clock,
            geo,
            volume,
            lock: OrderedMutex::new(()),
            me: me.clone(),
        });
        let report = fs.fsck()?;
        Ok((fs, report))
    }

    /// Returns the underlying disk handle.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    // --------------------------------------------------------------
    // Low-level helpers (all metadata writes are synchronous).
    // --------------------------------------------------------------

    fn read_inode(&self, ino: u32) -> DfsResult<Inode> {
        if ino == 0 || ino >= self.geo.inode_count() {
            return Err(DfsError::StaleFid);
        }
        let (blk, off) = self.geo.inode_loc(ino);
        let b = self.disk.read(blk)?;
        Ok(Inode::decode(&b[off..off + INODE_SIZE]))
    }

    fn write_inode(&self, ino: u32, inode: &Inode) -> DfsResult<()> {
        let (blk, off) = self.geo.inode_loc(ino);
        let mut b = self.disk.read(blk)?;
        b[off..off + INODE_SIZE].copy_from_slice(&inode.encode());
        self.disk.write_sync(blk, &b)
    }

    fn bitmap_get(&self, block: u32) -> DfsResult<bool> {
        let blk = self.geo.bitmap_start + block / (BLOCK_SIZE as u32 * 8);
        let bit = block as usize % (BLOCK_SIZE * 8);
        let b = self.disk.read(blk)?;
        Ok(b[bit / 8] & (1 << (bit % 8)) != 0)
    }

    fn bitmap_set(&self, block: u32, used: bool) -> DfsResult<()> {
        let blk = self.geo.bitmap_start + block / (BLOCK_SIZE as u32 * 8);
        let bit = block as usize % (BLOCK_SIZE * 8);
        let mut b = self.disk.read(blk)?;
        if used {
            b[bit / 8] |= 1 << (bit % 8);
        } else {
            b[bit / 8] &= !(1 << (bit % 8));
        }
        self.disk.write_sync(blk, &b)
    }

    fn alloc_block(&self) -> DfsResult<u32> {
        for b in self.geo.data_start..self.geo.total {
            if !self.bitmap_get(b)? {
                self.bitmap_set(b, true)?;
                return Ok(b);
            }
        }
        Err(DfsError::NoSpace)
    }

    fn alloc_inode(&self) -> DfsResult<(u32, Inode)> {
        for ino in 2..self.geo.inode_count() {
            let old = self.read_inode(ino)?;
            if old.kind == 0 {
                let mut inode = Inode::free();
                inode.uniq = old.uniq + 1;
                return Ok((ino, inode));
            }
        }
        Err(DfsError::NoSpace)
    }

    fn map_block(&self, inode: &Inode, fblk: u64) -> DfsResult<u32> {
        if fblk < NDIRECT as u64 {
            return Ok(inode.direct[fblk as usize]);
        }
        let rel = fblk - NDIRECT as u64;
        if rel >= PTRS as u64 {
            return Err(DfsError::InvalidArgument);
        }
        if inode.indirect == 0 {
            return Ok(0);
        }
        let b = self.disk.read(inode.indirect)?;
        Ok(u32::from_le_bytes(b[4 * rel as usize..4 * rel as usize + 4].try_into().unwrap()))
    }

    fn map_block_alloc(&self, inode: &mut Inode, fblk: u64) -> DfsResult<u32> {
        if fblk < NDIRECT as u64 {
            if inode.direct[fblk as usize] == 0 {
                inode.direct[fblk as usize] = self.alloc_block()?;
            }
            return Ok(inode.direct[fblk as usize]);
        }
        let rel = (fblk - NDIRECT as u64) as usize;
        if rel >= PTRS {
            return Err(DfsError::InvalidArgument);
        }
        if inode.indirect == 0 {
            inode.indirect = self.alloc_block()?;
            // Zero the new indirect block synchronously (metadata).
            self.disk.write_sync(inode.indirect, &[0u8; BLOCK_SIZE])?;
        }
        let mut b = self.disk.read(inode.indirect)?;
        let cur = u32::from_le_bytes(b[4 * rel..4 * rel + 4].try_into().unwrap());
        if cur != 0 {
            return Ok(cur);
        }
        let nb = self.alloc_block()?;
        b[4 * rel..4 * rel + 4].copy_from_slice(&nb.to_le_bytes());
        // Indirect blocks are metadata: synchronous write (§2.2).
        self.disk.write_sync(inode.indirect, &b)?;
        Ok(nb)
    }

    fn read_range(&self, inode: &Inode, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        if offset >= inode.length {
            return Ok(Vec::new());
        }
        let len = len.min((inode.length - offset) as usize);
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while out.len() < len {
            let fblk = pos / BLOCK_SIZE as u64;
            let within = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - within).min(len - out.len());
            let phys = self.map_block(inode, fblk)?;
            if phys == 0 {
                out.extend(std::iter::repeat_n(0, n));
            } else {
                let b = self.disk.read(phys)?;
                out.extend_from_slice(&b[within..within + n]);
            }
            pos += n as u64;
        }
        Ok(out)
    }

    /// Writes user data. Data blocks go to the write cache (FFS writes
    /// data asynchronously); metadata (inode, bitmap, indirect blocks)
    /// has already been written synchronously by the allocators.
    fn write_range(&self, inode: &mut Inode, offset: u64, data: &[u8], sync_data: bool) -> DfsResult<()> {
        let mut pos = offset;
        let mut done = 0usize;
        while done < data.len() {
            let fblk = pos / BLOCK_SIZE as u64;
            let within = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - within).min(data.len() - done);
            let phys = self.map_block_alloc(inode, fblk)?;
            let mut b = self.disk.read(phys)?;
            b[within..within + n].copy_from_slice(&data[done..done + n]);
            if sync_data {
                self.disk.write_sync(phys, &b)?;
            } else {
                self.disk.write(phys, &b)?;
            }
            pos += n as u64;
            done += n;
        }
        inode.length = inode.length.max(offset + data.len() as u64);
        Ok(())
    }

    fn free_inode_blocks(&self, inode: &Inode) -> DfsResult<()> {
        for &d in &inode.direct {
            if d != 0 {
                self.bitmap_set(d, false)?;
            }
        }
        if inode.indirect != 0 {
            let b = self.disk.read(inode.indirect)?;
            for i in 0..PTRS {
                let p = u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().unwrap());
                if p != 0 {
                    self.bitmap_set(p, false)?;
                }
            }
            self.bitmap_set(inode.indirect, false)?;
        }
        Ok(())
    }

    // --------------------------------------------------------------
    // Directories: same entry format idea as Episode, written in place
    // with synchronous metadata writes.
    // --------------------------------------------------------------

    fn dir_entries(&self, inode: &Inode) -> DfsResult<Vec<(String, u32, u32, u8)>> {
        let data = self.read_range(inode, 0, inode.length as usize)?;
        let mut out = Vec::new();
        for chunk in data.chunks(BLOCK_SIZE) {
            let mut off = 0;
            while off + 12 <= chunk.len() {
                let reclen =
                    u16::from_le_bytes(chunk[off..off + 2].try_into().unwrap()) as usize;
                if reclen < 12 || off + reclen > chunk.len() {
                    break;
                }
                let namelen = chunk[off + 2] as usize;
                let kind = chunk[off + 3];
                let ino = u32::from_le_bytes(chunk[off + 4..off + 8].try_into().unwrap());
                let uniq = u32::from_le_bytes(chunk[off + 8..off + 12].try_into().unwrap());
                if ino != 0 && off + 12 + namelen <= chunk.len() {
                    let name =
                        String::from_utf8_lossy(&chunk[off + 12..off + 12 + namelen]).into_owned();
                    out.push((name, ino, uniq, kind));
                }
                off += reclen;
            }
        }
        Ok(out)
    }

    fn dir_find(&self, inode: &Inode, name: &str) -> DfsResult<Option<(u32, u32, u8)>> {
        Ok(self
            .dir_entries(inode)?
            .into_iter()
            .find(|(n, _, _, _)| n == name)
            .map(|(_, i, u, k)| (i, u, k)))
    }

    fn dir_insert(&self, dino: u32, dir: &mut Inode, name: &str, ino: u32, uniq: u32, kind: u8) -> DfsResult<()> {
        let need = (12 + name.len() + 3) & !3;
        let blocks = dir.length.div_ceil(BLOCK_SIZE as u64);
        for fblk in 0..blocks {
            let phys = self.map_block(dir, fblk)?;
            if phys == 0 {
                continue;
            }
            let mut b = self.disk.read(phys)?;
            let mut off = 0;
            while off + 12 <= BLOCK_SIZE {
                let reclen = u16::from_le_bytes(b[off..off + 2].try_into().unwrap()) as usize;
                if reclen < 12 || off + reclen > BLOCK_SIZE {
                    break;
                }
                let cur_ino = u32::from_le_bytes(b[off + 4..off + 8].try_into().unwrap());
                if cur_ino == 0 && reclen >= need {
                    let rest = reclen - need;
                    let write_len = if rest >= 12 { need } else { reclen };
                    b[off..off + 2].copy_from_slice(&(write_len as u16).to_le_bytes());
                    b[off + 2] = name.len() as u8;
                    b[off + 3] = kind;
                    b[off + 4..off + 8].copy_from_slice(&ino.to_le_bytes());
                    b[off + 8..off + 12].copy_from_slice(&uniq.to_le_bytes());
                    b[off + 12..off + 12 + name.len()].copy_from_slice(name.as_bytes());
                    if rest >= 12 {
                        b[off + need..off + need + 2]
                            .copy_from_slice(&(rest as u16).to_le_bytes());
                        b[off + need + 2] = 0;
                        b[off + need + 4..off + need + 8].copy_from_slice(&0u32.to_le_bytes());
                    }
                    // Directory blocks are metadata: synchronous write.
                    self.disk.write_sync(phys, &b)?;
                    return Ok(());
                }
                off += reclen;
            }
        }
        // Extend the directory by one block.
        let base_blk = blocks;
        let phys = self.map_block_alloc(dir, base_blk)?;
        let mut b = [0u8; BLOCK_SIZE];
        b[0..2].copy_from_slice(&(need as u16).to_le_bytes());
        b[2] = name.len() as u8;
        b[3] = kind;
        b[4..8].copy_from_slice(&ino.to_le_bytes());
        b[8..12].copy_from_slice(&uniq.to_le_bytes());
        b[12..12 + name.len()].copy_from_slice(name.as_bytes());
        b[need..need + 2].copy_from_slice(&((BLOCK_SIZE - need) as u16).to_le_bytes());
        self.disk.write_sync(phys, &b)?;
        dir.length = dir.length.max((base_blk + 1) * BLOCK_SIZE as u64);
        self.write_inode(dino, dir)?;
        Ok(())
    }

    fn dir_remove(&self, dir: &Inode, name: &str) -> DfsResult<(u32, u32, u8)> {
        let blocks = dir.length.div_ceil(BLOCK_SIZE as u64);
        for fblk in 0..blocks {
            let phys = self.map_block(dir, fblk)?;
            if phys == 0 {
                continue;
            }
            let mut b = self.disk.read(phys)?;
            let mut off = 0;
            while off + 12 <= BLOCK_SIZE {
                let reclen = u16::from_le_bytes(b[off..off + 2].try_into().unwrap()) as usize;
                if reclen < 12 || off + reclen > BLOCK_SIZE {
                    break;
                }
                let ino = u32::from_le_bytes(b[off + 4..off + 8].try_into().unwrap());
                let namelen = b[off + 2] as usize;
                if ino != 0
                    && namelen == name.len()
                    && &b[off + 12..off + 12 + namelen] == name.as_bytes()
                {
                    let uniq = u32::from_le_bytes(b[off + 8..off + 12].try_into().unwrap());
                    let kind = b[off + 3];
                    b[off + 4..off + 8].copy_from_slice(&0u32.to_le_bytes());
                    self.disk.write_sync(phys, &b)?;
                    return Ok((ino, uniq, kind));
                }
                off += reclen;
            }
        }
        Err(DfsError::NotFound)
    }

    fn status(&self, ino: u32, inode: &Inode) -> FileStatus {
        FileStatus {
            fid: Fid::new(self.volume, VnodeId(ino), inode.uniq),
            ftype: match inode.kind {
                2 => FileType::Directory,
                3 => FileType::Symlink,
                _ => FileType::Regular,
            },
            length: inode.length,
            owner: inode.owner,
            group: inode.group,
            mode: inode.mode,
            nlink: inode.nlink as u32,
            mtime: Timestamp(inode.mtime),
            ctime: Timestamp(inode.mtime),
            data_version: inode.mtime, // FFS has no version; mtime approximates.
            stamp: SerializationStamp(0),
        }
    }

    fn resolve(&self, fid: Fid) -> DfsResult<(u32, Inode)> {
        if fid.volume != self.volume {
            return Err(DfsError::NoSuchVolume);
        }
        let inode = self.read_inode(fid.vnode.0)?;
        if inode.kind == 0 || inode.uniq != fid.uniq {
            return Err(DfsError::StaleFid);
        }
        Ok((fid.vnode.0, inode))
    }

    // --------------------------------------------------------------
    // fsck
    // --------------------------------------------------------------

    /// Scans the entire file system, rebuilding the allocation bitmap.
    ///
    /// Cost is proportional to the file-system size — the paper's
    /// "notorious fsck" (§2.2). The scan reads every inode block, every
    /// indirect block of every live inode, and every bitmap block.
    pub fn fsck(&self) -> DfsResult<FsckReport> {
        let _g = self.lock.lock();
        let before = self.disk.stats().busy_us;
        let mut report = FsckReport::default();
        let mut used = vec![false; self.geo.total as usize];
        for b in 0..self.geo.data_start {
            used[b as usize] = true;
        }
        // Phase 1: every inode.
        for ino in 1..self.geo.inode_count() {
            report.inodes_scanned += 1;
            let inode = self.read_inode(ino)?;
            if ino % INODES_PER_BLOCK as u32 == 0 || ino == 1 {
                report.blocks_scanned += 1;
            }
            if inode.kind == 0 {
                continue;
            }
            for &d in &inode.direct {
                if d != 0 {
                    used[d as usize] = true;
                }
            }
            if inode.indirect != 0 {
                used[inode.indirect as usize] = true;
                report.blocks_scanned += 1;
                let b = self.disk.read(inode.indirect)?;
                for i in 0..PTRS {
                    let p = u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().unwrap());
                    if p != 0 {
                        used[p as usize] = true;
                    }
                }
            }
        }
        // Phase 5: compare and repair the bitmap, block by block.
        for b in self.geo.data_start..self.geo.total {
            if b % (BLOCK_SIZE as u32 * 8) == 0 {
                report.blocks_scanned += 1;
            }
            let stored = self.bitmap_get(b)?;
            if stored != used[b as usize] {
                self.bitmap_set(b, used[b as usize])?;
                report.bitmap_fixes += 1;
            }
        }
        report.disk_busy_us = self.disk.stats().busy_us - before;
        Ok(report)
    }
}

impl Vfs for Ffs {
    fn volume_id(&self) -> VolumeId {
        self.volume
    }

    fn root(&self) -> DfsResult<Fid> {
        let inode = self.read_inode(1)?;
        Ok(Fid::new(self.volume, VnodeId(1), inode.uniq))
    }

    fn lookup(&self, _cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        let _g = self.lock.lock();
        let (_, d) = self.resolve(dir)?;
        if d.kind != 2 {
            return Err(DfsError::NotDirectory);
        }
        let (ino, _, _) = self.dir_find(&d, name)?.ok_or(DfsError::NotFound)?;
        let inode = self.read_inode(ino)?;
        Ok(self.status(ino, &inode))
    }

    fn create(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.make_node(cred, dir, name, 1, mode, None)
    }

    fn mkdir(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        self.make_node(cred, dir, name, 2, mode, None)
    }

    fn symlink(
        &self,
        cred: &Credentials,
        dir: Fid,
        name: &str,
        target: &str,
    ) -> DfsResult<FileStatus> {
        self.make_node(cred, dir, name, 3, 0o777, Some(target))
    }

    fn link(&self, _cred: &Credentials, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus> {
        let _g = self.lock.lock();
        let (dino, mut d) = self.resolve(dir)?;
        let (tino, mut t) = self.resolve(target)?;
        if t.kind == 2 {
            return Err(DfsError::IsDirectory);
        }
        if self.dir_find(&d, name)?.is_some() {
            return Err(DfsError::Exists);
        }
        t.nlink += 1;
        self.write_inode(tino, &t)?;
        self.dir_insert(dino, &mut d, name, tino, t.uniq, t.kind)?;
        self.write_inode(dino, &d)?;
        Ok(self.status(tino, &t))
    }

    fn remove(&self, _cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        let _g = self.lock.lock();
        let (dino, d) = self.resolve(dir)?;
        let (ino, uniq, kind) = self.dir_find(&d, name)?.ok_or(DfsError::NotFound)?;
        if kind == 2 {
            return Err(DfsError::IsDirectory);
        }
        self.dir_remove(&d, name)?;
        let mut t = self.read_inode(ino)?;
        t.nlink = t.nlink.saturating_sub(1);
        let status = {
            let mut st = self.status(ino, &t);
            st.fid.uniq = uniq;
            st
        };
        if t.nlink == 0 {
            self.free_inode_blocks(&t)?;
            let mut freed = Inode::free();
            freed.uniq = t.uniq;
            self.write_inode(ino, &freed)?;
        } else {
            self.write_inode(ino, &t)?;
        }
        let mut d2 = self.read_inode(dino)?;
        d2.mtime = self.clock.now().as_micros();
        self.write_inode(dino, &d2)?;
        Ok(status)
    }

    fn rmdir(&self, _cred: &Credentials, dir: Fid, name: &str) -> DfsResult<()> {
        let _g = self.lock.lock();
        let (dino, mut d) = self.resolve(dir)?;
        let (ino, _, kind) = self.dir_find(&d, name)?.ok_or(DfsError::NotFound)?;
        if kind != 2 {
            return Err(DfsError::NotDirectory);
        }
        let t = self.read_inode(ino)?;
        if !self.dir_entries(&t)?.is_empty() {
            return Err(DfsError::NotEmpty);
        }
        self.dir_remove(&d, name)?;
        self.free_inode_blocks(&t)?;
        let mut freed = Inode::free();
        freed.uniq = t.uniq;
        self.write_inode(ino, &freed)?;
        d.nlink = d.nlink.saturating_sub(1);
        d.mtime = self.clock.now().as_micros();
        self.write_inode(dino, &d)?;
        Ok(())
    }

    fn rename(
        &self,
        cred: &Credentials,
        src_dir: Fid,
        src_name: &str,
        dst_dir: Fid,
        dst_name: &str,
    ) -> DfsResult<()> {
        {
            let _g = self.lock.lock();
            let (_, sd) = self.resolve(src_dir)?;
            let (_, dd) = self.resolve(dst_dir)?;
            let (ino, uniq, kind) = self.dir_find(&sd, src_name)?.ok_or(DfsError::NotFound)?;
            if let Some((old_ino, _, old_kind)) = self.dir_find(&dd, dst_name)? {
                if old_kind == 2 {
                    return Err(DfsError::NotEmpty);
                }
                drop(_g);
                self.remove(cred, dst_dir, dst_name)?;
                let _g = self.lock.lock();
                let (dino2, mut dd2) = self.resolve(dst_dir)?;
                let (_, sd2) = self.resolve(src_dir)?;
                self.dir_remove(&sd2, src_name)?;
                self.dir_insert(dino2, &mut dd2, dst_name, ino, uniq, kind)?;
                self.write_inode(dino2, &dd2)?;
                let _ = old_ino;
                return Ok(());
            }
            let (dino, mut dd) = self.resolve(dst_dir)?;
            self.dir_remove(&sd, src_name)?;
            self.dir_insert(dino, &mut dd, dst_name, ino, uniq, kind)?;
            self.write_inode(dino, &dd)?;
        }
        Ok(())
    }

    fn readdir(&self, _cred: &Credentials, dir: Fid) -> DfsResult<Vec<DirEntry>> {
        let _g = self.lock.lock();
        let (_, d) = self.resolve(dir)?;
        if d.kind != 2 {
            return Err(DfsError::NotDirectory);
        }
        Ok(self
            .dir_entries(&d)?
            .into_iter()
            .map(|(name, ino, uniq, _)| DirEntry {
                name,
                fid: Fid::new(self.volume, VnodeId(ino), uniq),
            })
            .collect())
    }

    fn read(&self, _cred: &Credentials, file: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        let _g = self.lock.lock();
        let (_, inode) = self.resolve(file)?;
        self.read_range(&inode, offset, len)
    }

    fn write(
        &self,
        _cred: &Credentials,
        file: Fid,
        offset: u64,
        data: &[u8],
    ) -> DfsResult<FileStatus> {
        let _g = self.lock.lock();
        let (ino, mut inode) = self.resolve(file)?;
        if inode.kind == 2 {
            return Err(DfsError::IsDirectory);
        }
        self.write_range(&mut inode, offset, data, false)?;
        inode.mtime = self.clock.now().as_micros();
        // The inode itself is metadata: synchronous update.
        self.write_inode(ino, &inode)?;
        Ok(self.status(ino, &inode))
    }

    fn getattr(&self, _cred: &Credentials, file: Fid) -> DfsResult<FileStatus> {
        let (ino, inode) = self.resolve(file)?;
        Ok(self.status(ino, &inode))
    }

    fn setattr(&self, _cred: &Credentials, file: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus> {
        let _g = self.lock.lock();
        let (ino, mut inode) = self.resolve(file)?;
        if let Some(len) = attrs.length {
            if len < inode.length {
                // Free whole blocks past the new end, synchronously.
                let keep = len.div_ceil(BLOCK_SIZE as u64);
                let old = inode.length.div_ceil(BLOCK_SIZE as u64);
                for fblk in keep..old {
                    let phys = self.map_block(&inode, fblk)?;
                    if phys != 0 {
                        self.bitmap_set(phys, false)?;
                        if fblk < NDIRECT as u64 {
                            inode.direct[fblk as usize] = 0;
                        } else if inode.indirect != 0 {
                            let rel = (fblk - NDIRECT as u64) as usize;
                            let mut b = self.disk.read(inode.indirect)?;
                            b[4 * rel..4 * rel + 4].copy_from_slice(&0u32.to_le_bytes());
                            self.disk.write_sync(inode.indirect, &b)?;
                        }
                    }
                }
                if keep <= NDIRECT as u64 && inode.indirect != 0 {
                    self.bitmap_set(inode.indirect, false)?;
                    inode.indirect = 0;
                }
            }
            inode.length = len;
        }
        if let Some(m) = attrs.mode {
            inode.mode = m;
        }
        if let Some(o) = attrs.owner {
            inode.owner = o;
        }
        if let Some(g) = attrs.group {
            inode.group = g;
        }
        inode.mtime = self.clock.now().as_micros();
        self.write_inode(ino, &inode)?;
        Ok(self.status(ino, &inode))
    }

    fn readlink(&self, _cred: &Credentials, file: Fid) -> DfsResult<String> {
        let _g = self.lock.lock();
        let (_, inode) = self.resolve(file)?;
        if inode.kind != 3 {
            return Err(DfsError::InvalidArgument);
        }
        let bytes = self.read_range(&inode, 0, inode.length as usize)?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    fn fsync(&self, _cred: &Credentials, file: Fid) -> DfsResult<()> {
        self.resolve(file)?;
        self.disk.flush()
    }

    fn sync(&self) -> DfsResult<()> {
        self.disk.flush()
    }
}

impl Ffs {
    fn make_node(
        &self,
        cred: &Credentials,
        dir: Fid,
        name: &str,
        kind: u8,
        mode: u16,
        symlink_target: Option<&str>,
    ) -> DfsResult<FileStatus> {
        if name.is_empty() || name.len() > 255 || name.contains('/') {
            return Err(DfsError::InvalidName);
        }
        let _g = self.lock.lock();
        let (dino, mut d) = self.resolve(dir)?;
        if d.kind != 2 {
            return Err(DfsError::NotDirectory);
        }
        if self.dir_find(&d, name)?.is_some() {
            return Err(DfsError::Exists);
        }
        let (ino, mut inode) = self.alloc_inode()?;
        inode.kind = kind;
        inode.mode = mode;
        inode.owner = cred.user;
        inode.nlink = if kind == 2 { 2 } else { 1 };
        inode.mtime = self.clock.now().as_micros();
        if let Some(target) = symlink_target {
            self.write_range(&mut inode, 0, target.as_bytes(), true)?;
        }
        self.write_inode(ino, &inode)?;
        self.dir_insert(dino, &mut d, name, ino, inode.uniq, kind)?;
        if kind == 2 {
            d.nlink += 1;
        }
        d.mtime = self.clock.now().as_micros();
        self.write_inode(dino, &d)?;
        Ok(self.status(ino, &inode))
    }
}

impl VfsPlus for Ffs {
    fn get_acl(&self, _cred: &Credentials, file: Fid) -> DfsResult<Acl> {
        self.resolve(file)?;
        // A vendor FFS has no ACLs; report the empty list so the glue
        // layer falls back to mode bits (§3.3 partial functionality).
        Ok(Acl::new())
    }

    fn set_acl(&self, _cred: &Credentials, _file: Fid, _acl: &Acl) -> DfsResult<()> {
        Err(DfsError::InvalidArgument)
    }
}

impl PhysicalFs for Ffs {
    fn aggregate_id(&self) -> dfs_types::AggregateId {
        dfs_types::AggregateId(0)
    }

    fn list_volumes(&self) -> DfsResult<Vec<VolumeInfo>> {
        Ok(vec![self.volume_info(self.volume)?])
    }

    fn volume_info(&self, vol: VolumeId) -> DfsResult<VolumeInfo> {
        if vol != self.volume {
            return Err(DfsError::NoSuchVolume);
        }
        Ok(VolumeInfo {
            id: vol,
            name: "ffs".into(),
            read_only: false,
            parent: None,
            files: 0,
            blocks_used: 0,
            max_data_version: 0,
        })
    }

    fn create_volume(&self, _id: VolumeId, _name: &str) -> DfsResult<()> {
        // One volume per partition: the very limitation §2.1 describes.
        Err(DfsError::InvalidArgument)
    }

    fn delete_volume(&self, _vol: VolumeId) -> DfsResult<()> {
        Err(DfsError::InvalidArgument)
    }

    fn clone_volume(&self, _src: VolumeId, _clone: VolumeId, _name: &str) -> DfsResult<()> {
        Err(DfsError::InvalidArgument)
    }

    fn mount(&self, vol: VolumeId) -> DfsResult<Arc<dyn VfsPlus>> {
        if vol != self.volume {
            return Err(DfsError::NoSuchVolume);
        }
        let me = self.me.upgrade().ok_or(DfsError::Internal("Ffs dropped"))?;
        Ok(me)
    }

    fn dump_volume(&self, _vol: VolumeId, _since: u64) -> DfsResult<VolumeDump> {
        Err(DfsError::InvalidArgument)
    }

    fn restore_volume(&self, _dump: &VolumeDump, _ro: bool) -> DfsResult<()> {
        Err(DfsError::InvalidArgument)
    }

    fn salvage(&self) -> DfsResult<SalvageReport> {
        let fsck = self.fsck()?;
        Ok(SalvageReport {
            files_checked: fsck.inodes_scanned,
            blocks_checked: fsck.blocks_scanned,
            problems: Vec::new(),
        })
    }

    fn sync_aggregate(&self) -> DfsResult<()> {
        self.disk.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_disk::DiskConfig;

    fn fresh(blocks: u32) -> (SimDisk, Arc<Ffs>) {
        let disk = SimDisk::new(DiskConfig::with_blocks(blocks));
        let fs = Ffs::format(disk.clone(), SimClock::new(), VolumeId(1)).unwrap();
        (disk, fs)
    }

    fn cred() -> Credentials {
        Credentials::system()
    }

    #[test]
    fn create_write_read_cycle() {
        let (_, fs) = fresh(4096);
        let root = fs.root().unwrap();
        let f = fs.create(&cred(), root, "file", 0o644).unwrap();
        fs.write(&cred(), f.fid, 0, b"ffs data").unwrap();
        assert_eq!(fs.read(&cred(), f.fid, 0, 16).unwrap(), b"ffs data");
        assert_eq!(fs.lookup(&cred(), root, "file").unwrap().fid, f.fid);
    }

    #[test]
    fn metadata_ops_are_synchronous() {
        let (disk, fs) = fresh(4096);
        let root = fs.root().unwrap();
        let before = disk.stats();
        fs.create(&cred(), root, "x", 0o644).unwrap();
        let d = disk.stats().since(&before);
        // Inode write + dir block write + dir inode write, each sync.
        assert!(d.syncs >= 3, "create must issue several sync writes, saw {}", d.syncs);
    }

    #[test]
    fn data_writes_are_asynchronous() {
        let (disk, fs) = fresh(4096);
        let root = fs.root().unwrap();
        let f = fs.create(&cred(), root, "x", 0o644).unwrap();
        let before = disk.stats();
        fs.write(&cred(), f.fid, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
        let d = disk.stats().since(&before);
        // Block allocation (bitmap) and the inode are sync; data is not.
        assert!(d.syncs <= 3, "data path should not sync every block, saw {}", d.syncs);
    }

    #[test]
    fn crash_then_fsck_repairs_bitmap() {
        let (disk, fs) = fresh(4096);
        let root = fs.root().unwrap();
        let f = fs.create(&cred(), root, "x", 0o644).unwrap();
        fs.write(&cred(), f.fid, 0, &vec![2u8; 10 * BLOCK_SIZE]).unwrap();
        // Remove the file but crash before... simulate a mid-operation
        // crash by corrupting: allocate a block in the bitmap that no
        // inode references (as a crash between bitmap and inode writes
        // would leave).
        let orphan = fs.alloc_block().unwrap();
        disk.crash(None);
        disk.power_on();
        let (fs2, report) = Ffs::open(disk, SimClock::new(), VolumeId(1)).unwrap();
        assert!(report.bitmap_fixes >= 1, "fsck must reclaim the orphan block");
        assert!(!fs2.bitmap_get(orphan).unwrap(), "orphan block freed");
        // Data written (but never flushed) may be lost; metadata intact.
        let st = fs2.lookup(&cred(), fs2.root().unwrap(), "x").unwrap();
        assert_eq!(st.length, 10 * BLOCK_SIZE as u64);
    }

    #[test]
    fn fsck_cost_scales_with_size_not_activity() {
        // The core of experiment T2, in miniature.
        let (disk_small, fs_small) = fresh(2048);
        let (disk_big, fs_big) = fresh(32768);
        for (fs, _disk) in [(&fs_small, &disk_small), (&fs_big, &disk_big)] {
            let root = fs.root().unwrap();
            let f = fs.create(&cred(), root, "f", 0o644).unwrap();
            fs.write(&cred(), f.fid, 0, b"tiny").unwrap();
        }
        let small = fs_small.fsck().unwrap();
        let big = fs_big.fsck().unwrap();
        assert!(
            big.inodes_scanned >= 8 * small.inodes_scanned,
            "fsck work must grow with file-system size: {} vs {}",
            big.inodes_scanned,
            small.inodes_scanned
        );
    }

    #[test]
    fn directories_and_links() {
        let (_, fs) = fresh(4096);
        let root = fs.root().unwrap();
        let d = fs.mkdir(&cred(), root, "d", 0o755).unwrap();
        let f = fs.create(&cred(), d.fid, "f", 0o644).unwrap();
        fs.link(&cred(), root, "hard", f.fid).unwrap();
        assert_eq!(fs.getattr(&cred(), f.fid).unwrap().nlink, 2);
        fs.remove(&cred(), d.fid, "f").unwrap();
        assert_eq!(fs.getattr(&cred(), f.fid).unwrap().nlink, 1);
        let names: Vec<String> =
            fs.readdir(&cred(), root).unwrap().into_iter().map(|e| e.name).collect();
        assert!(names.contains(&"hard".to_string()));
        assert_eq!(fs.read(&cred(), f.fid, 0, 4).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rename_and_truncate() {
        let (_, fs) = fresh(8192);
        let root = fs.root().unwrap();
        let f = fs.create(&cred(), root, "a", 0o644).unwrap();
        fs.write(&cred(), f.fid, 0, &vec![9u8; 3 * BLOCK_SIZE]).unwrap();
        fs.rename(&cred(), root, "a", root, "b").unwrap();
        assert!(fs.lookup(&cred(), root, "a").is_err());
        let st = fs.setattr(&cred(), f.fid, &SetAttrs::truncate(100)).unwrap();
        assert_eq!(st.length, 100);
        assert_eq!(fs.read(&cred(), f.fid, 0, 200).unwrap().len(), 100);
    }

    #[test]
    fn stale_fids_detected() {
        let (_, fs) = fresh(4096);
        let root = fs.root().unwrap();
        let f = fs.create(&cred(), root, "x", 0o644).unwrap();
        fs.remove(&cred(), root, "x").unwrap();
        assert_eq!(fs.getattr(&cred(), f.fid).unwrap_err(), DfsError::StaleFid);
    }

    #[test]
    fn volume_operations_unsupported() {
        let (_, fs) = fresh(4096);
        assert!(PhysicalFs::create_volume(&*fs, VolumeId(9), "x").is_err());
        assert!(PhysicalFs::clone_volume(&*fs, VolumeId(1), VolumeId(2), "c").is_err());
        assert!(fs.dump_volume(VolumeId(1), 0).is_err());
    }

    #[test]
    fn symlink_round_trip() {
        let (_, fs) = fresh(4096);
        let root = fs.root().unwrap();
        let s = fs.symlink(&cred(), root, "ln", "/etc/passwd").unwrap();
        assert_eq!(fs.readlink(&cred(), s.fid).unwrap(), "/etc/passwd");
    }
}
