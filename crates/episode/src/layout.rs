//! On-disk layout of an Episode aggregate.
//!
//! ```text
//! block 0                  aggregate superblock (static after format)
//! blocks 1 .. 1+L          transaction log (owned by dfs-journal)
//! blocks 1+L .. 1+L+A      anode table (128-byte anodes, 32 per block)
//! remaining blocks         data region, managed by the refcount table
//! ```
//!
//! Everything that uses storage — files, directories, ACLs, volume
//! headers, the volume table, and the block refcount table itself — is an
//! anode (§2.4): "anything that uses storage on disk is implemented as an
//! anode". Two anode slots are reserved at format time: anode 1 is the
//! volume table and anode 2 is the block refcount table (which doubles
//! as the allocation bitmap: a block with refcount zero is free).

use dfs_disk::BLOCK_SIZE;
use dfs_types::{DfsError, DfsResult, FileType};

/// Magic number of an Episode aggregate superblock.
pub const AGG_MAGIC: u32 = 0xE215_0DE0;

/// Size of an on-disk anode descriptor in bytes.
pub const ANODE_SIZE: usize = 128;

/// Anodes stored per anode-table block.
pub const ANODES_PER_BLOCK: usize = BLOCK_SIZE / ANODE_SIZE;

/// Number of direct block pointers in an anode.
pub const NDIRECT: usize = 8;

/// Block pointers per indirect block.
pub const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 4;

/// Reserved anode index: the volume table.
pub const VOLTABLE_ANODE: u32 = 1;

/// Reserved anode index: the block refcount table.
pub const REFCOUNT_ANODE: u32 = 2;

/// First allocatable anode index.
pub const FIRST_FREE_ANODE: u32 = 3;

/// Maximum file name length in a directory entry.
pub const MAX_NAME: usize = 255;

/// What an anode describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnodeKind {
    /// Unallocated slot.
    Free,
    /// A regular file.
    File,
    /// A directory.
    Directory,
    /// A symbolic link (data is the target path).
    Symlink,
    /// Internal metadata: volume headers, the volume table, refcount
    /// table, ACL containers, vnode maps.
    Meta,
}

impl AnodeKind {
    /// Encodes the kind as its on-disk byte.
    pub fn to_byte(self) -> u8 {
        match self {
            AnodeKind::Free => 0,
            AnodeKind::File => 1,
            AnodeKind::Directory => 2,
            AnodeKind::Symlink => 3,
            AnodeKind::Meta => 4,
        }
    }

    /// Decodes an on-disk byte.
    pub fn from_byte(b: u8) -> DfsResult<AnodeKind> {
        Ok(match b {
            0 => AnodeKind::Free,
            1 => AnodeKind::File,
            2 => AnodeKind::Directory,
            3 => AnodeKind::Symlink,
            4 => AnodeKind::Meta,
            _ => return Err(DfsError::Internal("bad anode kind byte")),
        })
    }

    /// The VFS type of a file-system object of this kind.
    pub(crate) fn file_type(self) -> FileType {
        FILE_KINDS.iter().find(|(k, _)| *k == self).map_or(FileType::Regular, |&(_, t)| t)
    }

    /// The kind of anode that stores a file-system object of type `t`.
    pub(crate) fn of_file_type(t: FileType) -> AnodeKind {
        FILE_KINDS.iter().find(|(_, f)| *f == t).map_or(AnodeKind::File, |&(k, _)| k)
    }
}

/// The anode kinds that are file-system objects, with their VFS types:
/// the one `AnodeKind` ↔ `FileType` mapping.
const FILE_KINDS: [(AnodeKind, FileType); 3] = [
    (AnodeKind::File, FileType::Regular),
    (AnodeKind::Directory, FileType::Directory),
    (AnodeKind::Symlink, FileType::Symlink),
];

/// In-memory image of one on-disk anode descriptor.
///
/// The anode is "the small set of bytes that serves as a descriptor" for
/// an open-ended container of disk storage (§2.4). File-specific fields
/// (mode, owner, times, ACL pointer) are the "additional bells and
/// whistles" layered on the plain container.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Anode {
    /// What this anode is.
    pub kind: AnodeKind,
    /// UNIX mode bits (advisory; the ACL is authoritative).
    pub mode: u16,
    /// Slot generation number, part of the fid.
    pub uniq: u32,
    /// Container length in bytes.
    pub length: u64,
    /// Owning user.
    pub owner: u32,
    /// Owning group.
    pub group: u32,
    /// Hard link count.
    pub nlink: u16,
    /// Anode index of this file's ACL container (0 = none).
    pub acl_anode: u32,
    /// Modification time (microseconds of simulated time).
    pub mtime: u64,
    /// Status-change time.
    pub ctime: u64,
    /// Monotone data version, bumped on every data modification.
    pub data_version: u64,
    /// Direct block pointers (0 = hole).
    pub direct: [u32; NDIRECT],
    /// Single-indirect block pointer (0 = none).
    pub indirect: u32,
    /// Double-indirect block pointer (0 = none).
    pub dindirect: u32,
    /// Volume id this anode belongs to (0 for aggregate metadata).
    pub volume: u64,
}

impl Anode {
    /// Returns a zeroed free anode.
    pub fn free() -> Anode {
        Anode {
            kind: AnodeKind::Free,
            mode: 0,
            uniq: 0,
            length: 0,
            owner: 0,
            group: 0,
            nlink: 0,
            acl_anode: 0,
            mtime: 0,
            ctime: 0,
            data_version: 0,
            direct: [0; NDIRECT],
            indirect: 0,
            dindirect: 0,
            volume: 0,
        }
    }

    /// Serializes the anode to its 128-byte on-disk form.
    pub fn encode(&self) -> [u8; ANODE_SIZE] {
        let mut b = [0u8; ANODE_SIZE];
        b[0] = self.kind.to_byte();
        b[2..4].copy_from_slice(&self.mode.to_le_bytes());
        b[4..8].copy_from_slice(&self.uniq.to_le_bytes());
        b[8..16].copy_from_slice(&self.length.to_le_bytes());
        b[16..20].copy_from_slice(&self.owner.to_le_bytes());
        b[20..24].copy_from_slice(&self.group.to_le_bytes());
        b[24..26].copy_from_slice(&self.nlink.to_le_bytes());
        b[28..32].copy_from_slice(&self.acl_anode.to_le_bytes());
        b[32..40].copy_from_slice(&self.mtime.to_le_bytes());
        b[40..48].copy_from_slice(&self.ctime.to_le_bytes());
        b[48..56].copy_from_slice(&self.data_version.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            b[56 + i * 4..60 + i * 4].copy_from_slice(&d.to_le_bytes());
        }
        b[88..92].copy_from_slice(&self.indirect.to_le_bytes());
        b[92..96].copy_from_slice(&self.dindirect.to_le_bytes());
        b[96..104].copy_from_slice(&self.volume.to_le_bytes());
        b
    }

    /// Deserializes a 128-byte on-disk anode.
    pub fn decode(b: &[u8]) -> DfsResult<Anode> {
        if b.len() < ANODE_SIZE {
            return Err(DfsError::Internal("short anode"));
        }
        let mut direct = [0u32; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u32::from_le_bytes(b[56 + i * 4..60 + i * 4].try_into().unwrap());
        }
        Ok(Anode {
            kind: AnodeKind::from_byte(b[0])?,
            mode: u16::from_le_bytes(b[2..4].try_into().unwrap()),
            uniq: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            length: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            owner: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            group: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            nlink: u16::from_le_bytes(b[24..26].try_into().unwrap()),
            acl_anode: u32::from_le_bytes(b[28..32].try_into().unwrap()),
            mtime: u64::from_le_bytes(b[32..40].try_into().unwrap()),
            ctime: u64::from_le_bytes(b[40..48].try_into().unwrap()),
            data_version: u64::from_le_bytes(b[48..56].try_into().unwrap()),
            direct,
            indirect: u32::from_le_bytes(b[88..92].try_into().unwrap()),
            dindirect: u32::from_le_bytes(b[92..96].try_into().unwrap()),
            volume: u64::from_le_bytes(b[96..104].try_into().unwrap()),
        })
    }
}

/// The aggregate superblock: static geometry written at format time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SuperBlock {
    /// Aggregate id.
    pub aggregate: u32,
    /// Total blocks in the aggregate.
    pub total_blocks: u32,
    /// First block of the log region.
    pub log_first: u32,
    /// Blocks in the log region (including the log superblock).
    pub log_blocks: u32,
    /// First block of the anode table.
    pub anode_table_start: u32,
    /// Blocks in the anode table.
    pub anode_table_blocks: u32,
    /// Blocks of the host journal ring (just after the anode table);
    /// zero on aggregates formatted before the ring existed, which
    /// decodes as "no host journal" and leaves the layout unchanged.
    pub host_log_blocks: u32,
}

impl SuperBlock {
    /// Number of anode slots in the table.
    pub fn anode_count(&self) -> u32 {
        self.anode_table_blocks * ANODES_PER_BLOCK as u32
    }

    /// First block of the host journal ring (zero-sized when absent).
    pub fn host_log_start(&self) -> u32 {
        self.anode_table_start + self.anode_table_blocks
    }

    /// First block of the data region.
    pub fn data_start(&self) -> u32 {
        self.host_log_start() + self.host_log_blocks
    }

    /// Returns (block, byte offset) of anode `idx` in the table.
    pub fn anode_location(&self, idx: u32) -> (u32, usize) {
        let block = self.anode_table_start + idx / ANODES_PER_BLOCK as u32;
        let offset = (idx as usize % ANODES_PER_BLOCK) * ANODE_SIZE;
        (block, offset)
    }

    /// Blocks of the refcount table: 2 bytes per aggregate block.
    pub fn refcount_blocks(&self) -> u32 {
        (2 * self.total_blocks as usize).div_ceil(BLOCK_SIZE) as u32
    }

    /// The refcount anode's indirect block, just past the table, if the
    /// table has more blocks than the anode has direct pointers.
    pub fn refcount_indirect(&self) -> Option<u32> {
        let blocks = self.refcount_blocks();
        (blocks > NDIRECT as u32).then(|| self.data_start() + blocks)
    }

    /// Returns (block, byte offset) of block `b`'s refcount entry, or
    /// `None` past the aggregate: the table lies contiguously from the
    /// data region's start.
    pub fn refcount_location(&self, b: u32) -> Option<(u32, usize)> {
        if b >= self.total_blocks {
            return None;
        }
        let byte = 2 * b as usize;
        Some((self.data_start() + (byte / BLOCK_SIZE) as u32, byte % BLOCK_SIZE))
    }

    /// Serializes the superblock into a disk block.
    pub fn encode(&self) -> [u8; BLOCK_SIZE] {
        let mut b = [0u8; BLOCK_SIZE];
        b[0..4].copy_from_slice(&AGG_MAGIC.to_le_bytes());
        b[4..8].copy_from_slice(&self.aggregate.to_le_bytes());
        b[8..12].copy_from_slice(&self.total_blocks.to_le_bytes());
        b[12..16].copy_from_slice(&self.log_first.to_le_bytes());
        b[16..20].copy_from_slice(&self.log_blocks.to_le_bytes());
        b[20..24].copy_from_slice(&self.anode_table_start.to_le_bytes());
        b[24..28].copy_from_slice(&self.anode_table_blocks.to_le_bytes());
        b[28..32].copy_from_slice(&self.host_log_blocks.to_le_bytes());
        b
    }

    /// Deserializes a superblock, checking the magic number.
    pub fn decode(b: &[u8; BLOCK_SIZE]) -> DfsResult<SuperBlock> {
        let magic = u32::from_le_bytes(b[0..4].try_into().unwrap());
        if magic != AGG_MAGIC {
            return Err(DfsError::Internal("not an Episode aggregate"));
        }
        Ok(SuperBlock {
            aggregate: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            total_blocks: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            log_first: u32::from_le_bytes(b[12..16].try_into().unwrap()),
            log_blocks: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            anode_table_start: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            anode_table_blocks: u32::from_le_bytes(b[24..28].try_into().unwrap()),
            host_log_blocks: u32::from_le_bytes(b[28..32].try_into().unwrap()),
        })
    }
}

/// Validates a file name: non-empty, bounded, no `/` or NUL.
pub fn check_name(name: &str) -> DfsResult<()> {
    if name.is_empty()
        || name.len() > MAX_NAME
        || name == "."
        || name == ".."
        || name.bytes().any(|b| b == b'/' || b == 0)
    {
        return Err(DfsError::InvalidName);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anode_round_trip() {
        let mut a = Anode::free();
        a.kind = AnodeKind::File;
        a.mode = 0o644;
        a.uniq = 9;
        a.length = 123456;
        a.owner = 7;
        a.group = 8;
        a.nlink = 2;
        a.acl_anode = 55;
        a.mtime = 111;
        a.ctime = 222;
        a.data_version = 42;
        a.direct = [1, 2, 3, 4, 5, 6, 7, 8];
        a.indirect = 99;
        a.dindirect = 100;
        a.volume = 0xDEAD;
        let enc = a.encode();
        assert_eq!(Anode::decode(&enc).unwrap(), a);
    }

    #[test]
    fn free_anode_encodes_to_zero_kind() {
        let enc = Anode::free().encode();
        assert_eq!(enc[0], 0);
        assert_eq!(Anode::decode(&enc).unwrap().kind, AnodeKind::Free);
    }

    #[test]
    fn kind_round_trip_and_rejects_garbage() {
        for k in [
            AnodeKind::Free,
            AnodeKind::File,
            AnodeKind::Directory,
            AnodeKind::Symlink,
            AnodeKind::Meta,
        ] {
            assert_eq!(AnodeKind::from_byte(k.to_byte()).unwrap(), k);
        }
        assert!(AnodeKind::from_byte(200).is_err());
    }

    #[test]
    fn superblock_round_trip() {
        let sb = SuperBlock {
            aggregate: 3,
            total_blocks: 100_000,
            log_first: 1,
            log_blocks: 256,
            anode_table_start: 257,
            anode_table_blocks: 100,
            host_log_blocks: 64,
        };
        let enc = sb.encode();
        assert_eq!(SuperBlock::decode(&enc).unwrap(), sb);
        assert_eq!(sb.anode_count(), 3200);
        assert_eq!(sb.host_log_start(), 357);
        assert_eq!(sb.data_start(), 421);
    }

    #[test]
    fn superblock_without_host_log_keeps_the_old_layout() {
        // A pre-host-journal superblock has zeros at bytes 28..32; it
        // must decode to host_log_blocks == 0 and an unshifted data
        // region.
        let sb = SuperBlock {
            aggregate: 3,
            total_blocks: 100_000,
            log_first: 1,
            log_blocks: 256,
            anode_table_start: 257,
            anode_table_blocks: 100,
            host_log_blocks: 0,
        };
        let dec = SuperBlock::decode(&sb.encode()).unwrap();
        assert_eq!(dec.host_log_blocks, 0);
        assert_eq!(dec.data_start(), 357);
    }

    #[test]
    fn superblock_rejects_wrong_magic() {
        let b = [0u8; BLOCK_SIZE];
        assert!(SuperBlock::decode(&b).is_err());
    }

    #[test]
    fn anode_location_math() {
        let sb = SuperBlock {
            aggregate: 0,
            total_blocks: 1000,
            log_first: 1,
            log_blocks: 10,
            anode_table_start: 11,
            anode_table_blocks: 4,
            host_log_blocks: 0,
        };
        assert_eq!(sb.anode_location(0), (11, 0));
        assert_eq!(sb.anode_location(31), (11, 31 * 128));
        assert_eq!(sb.anode_location(32), (12, 0));
        assert_eq!(sb.anode_location(65), (13, 128));
    }

    #[test]
    fn name_validation() {
        assert!(check_name("hello.txt").is_ok());
        assert!(check_name("").is_err());
        assert!(check_name(".").is_err());
        assert!(check_name("..").is_err());
        assert!(check_name("a/b").is_err());
        assert!(check_name("nul\0byte").is_err());
        assert!(check_name(&"x".repeat(256)).is_err());
        assert!(check_name(&"x".repeat(255)).is_ok());
    }
}
