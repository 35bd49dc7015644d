//! Directory objects stored in anode containers.
//!
//! A directory is an anode whose data is a sequence of whole blocks, each
//! fully covered by variable-length entries. Free space is represented by
//! entries with `vnode == 0`. Entries never span blocks. All directory
//! modifications are metadata and therefore logged (§2.2).
//!
//! Entry layout (12-byte header, name padded to 4 bytes):
//!
//! ```text
//! u16 reclen   total bytes covered by this entry
//! u8  namelen
//! u8  kind     AnodeKind byte of the target (cached for readdir)
//! u32 vnode    per-volume vnode index (0 = free entry)
//! u32 uniq     target uniquifier (cached for fid construction)
//! [name bytes] [padding]
//! ```

use crate::layout::{check_name, Anode};
use crate::Episode;
use dfs_disk::BLOCK_SIZE;
use dfs_journal::TxnId;
use dfs_types::{DfsError, DfsResult};

/// Byte size of an entry header.
const HDR: usize = 12;

/// A parsed directory entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawDirEntry {
    /// Name of the entry.
    pub name: String,
    /// Per-volume vnode index of the target.
    pub vnode: u32,
    /// Uniquifier of the target.
    pub uniq: u32,
    /// Anode kind byte of the target.
    pub kind: u8,
}

fn entry_size(name_len: usize) -> usize {
    (HDR + name_len + 3) & !3
}

fn parse_entry(block: &[u8], off: usize) -> Option<(usize, Option<RawDirEntry>)> {
    if off + HDR > block.len() {
        return None;
    }
    let reclen = u16::from_le_bytes(block[off..off + 2].try_into().unwrap()) as usize;
    if reclen < HDR || off + reclen > block.len() {
        return None;
    }
    let namelen = block[off + 2] as usize;
    let kind = block[off + 3];
    let vnode = u32::from_le_bytes(block[off + 4..off + 8].try_into().unwrap());
    let uniq = u32::from_le_bytes(block[off + 8..off + 12].try_into().unwrap());
    if vnode == 0 {
        return Some((reclen, None));
    }
    if off + HDR + namelen > block.len() {
        return None;
    }
    let name = String::from_utf8_lossy(&block[off + HDR..off + HDR + namelen]).into_owned();
    Some((reclen, Some(RawDirEntry { name, vnode, uniq, kind })))
}

fn encode_entry(reclen: usize, e: &RawDirEntry) -> Vec<u8> {
    let mut out = vec![0u8; reclen];
    out[0..2].copy_from_slice(&(reclen as u16).to_le_bytes());
    out[2] = e.name.len() as u8;
    out[3] = e.kind;
    out[4..8].copy_from_slice(&e.vnode.to_le_bytes());
    out[8..12].copy_from_slice(&e.uniq.to_le_bytes());
    out[HDR..HDR + e.name.len()].copy_from_slice(e.name.as_bytes());
    out
}

/// Header of a free entry covering `reclen` bytes; the body of a free
/// entry is never read, so only the 12-byte header needs writing (and
/// logging).
fn encode_free_header(reclen: usize) -> Vec<u8> {
    let mut out = vec![0u8; HDR];
    out[0..2].copy_from_slice(&(reclen as u16).to_le_bytes());
    out
}

impl Episode {
    /// Visits the directory's entries in order as (byte offset, reclen,
    /// entry; `None` for free space) and stops at the first visit that
    /// returns a value. This is the one loop over directory entries.
    fn dir_walk<T>(
        &self,
        a: &Anode,
        mut visit: impl FnMut(u64, usize, Option<RawDirEntry>) -> Option<T>,
    ) -> DfsResult<Option<T>> {
        for fblk in 0..a.length.div_ceil(BLOCK_SIZE as u64) {
            let base = fblk * BLOCK_SIZE as u64;
            let data = self.anode_read(a, base, BLOCK_SIZE)?;
            let mut off = 0;
            while let Some((reclen, e)) = parse_entry(&data, off) {
                if let Some(found) = visit(base + off as u64, reclen, e) {
                    return Ok(Some(found));
                }
                off += reclen;
            }
        }
        Ok(None)
    }

    /// Looks up `name` in the directory whose anode is `a`.
    pub(crate) fn dir_lookup(&self, a: &Anode, name: &str) -> DfsResult<Option<RawDirEntry>> {
        check_name(name)?;
        self.dir_walk(a, |_, _, e| e.filter(|e| e.name == name))
    }

    /// Inserts an entry, extending the directory by a block if needed.
    ///
    /// The caller must have verified the name is absent; duplicate names
    /// are the caller's error. `a` is updated in memory (length may
    /// grow); the caller persists the anode.
    pub(crate) fn dir_insert(
        &self,
        txn: TxnId,
        a: &mut Anode,
        entry: &RawDirEntry,
    ) -> DfsResult<()> {
        check_name(&entry.name)?;
        if entry.vnode == 0 {
            return Err(DfsError::Internal("dir entry with vnode 0"));
        }
        let need = entry_size(entry.name.len());
        let free = self.dir_walk(a, |off, reclen, e| {
            (e.is_none() && reclen >= need).then_some((off, reclen))
        })?;
        let (off, reclen) = match free {
            Some(free) => free,
            // No room: append a fresh block, all of it free space.
            None => {
                let end = a.length.div_ceil(BLOCK_SIZE as u64) * BLOCK_SIZE as u64;
                a.length = end + BLOCK_SIZE as u64;
                (end, BLOCK_SIZE)
            }
        };
        // Split the free entry: our record plus the remainder, unless the
        // remainder is too small to split and the entry absorbs it.
        let bytes = if reclen - need >= HDR {
            let mut bytes = encode_entry(need, entry);
            bytes.extend_from_slice(&encode_free_header(reclen - need));
            bytes
        } else {
            encode_entry(reclen, entry)
        };
        self.anode_write(txn, a, off, &bytes, true)
    }

    /// Removes the entry `name`, returning it.
    pub(crate) fn dir_remove(
        &self,
        txn: TxnId,
        a: &mut Anode,
        name: &str,
    ) -> DfsResult<RawDirEntry> {
        check_name(name)?;
        let found = self.dir_walk(a, |off, reclen, e| {
            e.filter(|e| e.name == name).map(|e| (off, reclen, e))
        })?;
        let (off, reclen, e) = found.ok_or(DfsError::NotFound)?;
        self.anode_write(txn, a, off, &encode_free_header(reclen), true)?;
        Ok(e)
    }

    /// Lists every live entry of the directory.
    pub(crate) fn dir_list(&self, a: &Anode) -> DfsResult<Vec<RawDirEntry>> {
        let mut out = Vec::new();
        self.dir_walk(a, |_, _, e| {
            out.extend(e);
            None::<()>
        })?;
        Ok(out)
    }

    /// Returns true if the directory has no live entries.
    pub(crate) fn dir_is_empty(&self, a: &Anode) -> DfsResult<bool> {
        Ok(self.dir_walk(a, |_, _, e| e.map(drop))?.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AnodeKind;
    use crate::tests::fresh;

    fn mkdir(ep: &crate::Episode) -> u32 {
        let txn = ep.journal().begin();
        let (idx, a) = ep.alloc_anode(txn, None, AnodeKind::Directory, 1, 0o755, 0).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        idx
    }

    fn entry(name: &str, vnode: u32) -> RawDirEntry {
        RawDirEntry { name: name.into(), vnode, uniq: vnode * 10, kind: 1 }
    }

    #[test]
    fn insert_lookup_remove_cycle() {
        let ep = fresh(8192);
        let dir = mkdir(&ep);
        let txn = ep.journal().begin();
        let mut a = ep.read_anode(dir).unwrap();
        ep.dir_insert(txn, &mut a, &entry("alpha", 5)).unwrap();
        ep.dir_insert(txn, &mut a, &entry("beta", 6)).unwrap();
        ep.write_anode(txn, dir, &a).unwrap();
        ep.journal().commit(txn).unwrap();

        let a = ep.read_anode(dir).unwrap();
        let hit = ep.dir_lookup(&a, "alpha").unwrap().unwrap();
        assert_eq!(hit.vnode, 5);
        assert_eq!(hit.uniq, 50);
        assert!(ep.dir_lookup(&a, "gamma").unwrap().is_none());

        let txn = ep.journal().begin();
        let mut a = ep.read_anode(dir).unwrap();
        let removed = ep.dir_remove(txn, &mut a, "alpha").unwrap();
        assert_eq!(removed.vnode, 5);
        ep.write_anode(txn, dir, &a).unwrap();
        ep.journal().commit(txn).unwrap();

        let a = ep.read_anode(dir).unwrap();
        assert!(ep.dir_lookup(&a, "alpha").unwrap().is_none());
        assert!(ep.dir_lookup(&a, "beta").unwrap().is_some());
    }

    #[test]
    fn remove_missing_is_not_found() {
        let ep = fresh(8192);
        let dir = mkdir(&ep);
        let txn = ep.journal().begin();
        let mut a = ep.read_anode(dir).unwrap();
        assert_eq!(ep.dir_remove(txn, &mut a, "nope").unwrap_err(), DfsError::NotFound);
        ep.journal().commit(txn).unwrap();
    }

    #[test]
    fn freed_slots_are_reused() {
        let ep = fresh(8192);
        let dir = mkdir(&ep);
        let txn = ep.journal().begin();
        let mut a = ep.read_anode(dir).unwrap();
        ep.dir_insert(txn, &mut a, &entry("one", 1)).unwrap();
        ep.dir_insert(txn, &mut a, &entry("two", 2)).unwrap();
        ep.dir_remove(txn, &mut a, "one").unwrap();
        ep.dir_insert(txn, &mut a, &entry("uno", 3)).unwrap();
        ep.write_anode(txn, dir, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        let a = ep.read_anode(dir).unwrap();
        assert_eq!(a.length as usize, BLOCK_SIZE, "reuse must not grow the dir");
        let names: Vec<String> = ep.dir_list(&a).unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"uno".to_string()));
    }

    #[test]
    fn directory_grows_beyond_one_block() {
        let ep = fresh(8192);
        let dir = mkdir(&ep);
        let txn = ep.journal().begin();
        let mut a = ep.read_anode(dir).unwrap();
        for i in 0..300u32 {
            ep.dir_insert(txn, &mut a, &entry(&format!("file-number-{i:04}"), i + 1)).unwrap();
        }
        ep.write_anode(txn, dir, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        let a = ep.read_anode(dir).unwrap();
        assert!(a.length as usize > BLOCK_SIZE, "300 entries exceed one block");
        let list = ep.dir_list(&a).unwrap();
        assert_eq!(list.len(), 300);
        let hit = ep.dir_lookup(&a, "file-number-0299").unwrap().unwrap();
        assert_eq!(hit.vnode, 300);
    }

    #[test]
    fn empty_detection() {
        let ep = fresh(8192);
        let dir = mkdir(&ep);
        let a = ep.read_anode(dir).unwrap();
        assert!(ep.dir_is_empty(&a).unwrap());
        let txn = ep.journal().begin();
        let mut a = ep.read_anode(dir).unwrap();
        ep.dir_insert(txn, &mut a, &entry("x", 1)).unwrap();
        ep.write_anode(txn, dir, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        let a = ep.read_anode(dir).unwrap();
        assert!(!ep.dir_is_empty(&a).unwrap());
    }

    #[test]
    fn long_names_round_trip() {
        let ep = fresh(8192);
        let dir = mkdir(&ep);
        let long = "n".repeat(255);
        let txn = ep.journal().begin();
        let mut a = ep.read_anode(dir).unwrap();
        ep.dir_insert(txn, &mut a, &entry(&long, 7)).unwrap();
        ep.write_anode(txn, dir, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        let a = ep.read_anode(dir).unwrap();
        assert_eq!(ep.dir_lookup(&a, &long).unwrap().unwrap().vnode, 7);
    }

    #[test]
    fn invalid_names_rejected() {
        let ep = fresh(8192);
        let dir = mkdir(&ep);
        let a = ep.read_anode(dir).unwrap();
        assert_eq!(ep.dir_lookup(&a, "a/b").unwrap_err(), DfsError::InvalidName);
        assert_eq!(ep.dir_lookup(&a, "").unwrap_err(), DfsError::InvalidName);
    }
}
