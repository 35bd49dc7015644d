//! ACL storage in anode containers (§2.3).
//!
//! In AFS, ACLs had a fixed size limit precisely because they were *not*
//! open-ended; the paper uses that as the motivating example for anodes
//! (§2.4). Here an ACL is serialized into its own Meta anode, referenced
//! from the owning file's `acl_anode` field — so any file or directory
//! may carry an ACL of any size.

use crate::layout::AnodeKind;
use crate::Episode;
use dfs_journal::TxnId;
use dfs_types::{Acl, AclEntry, DfsError, DfsResult, Principal, Rights};

fn encode_principal(p: Principal) -> (u8, u32) {
    match p {
        Principal::User(u) => (0, u),
        Principal::Group(g) => (1, g),
        Principal::Authenticated => (2, 0),
        Principal::Anyone => (3, 0),
    }
}

fn decode_principal(tag: u8, id: u32) -> DfsResult<Principal> {
    Ok(match tag {
        0 => Principal::User(id),
        1 => Principal::Group(id),
        2 => Principal::Authenticated,
        3 => Principal::Anyone,
        _ => return Err(DfsError::Internal("bad ACL principal tag")),
    })
}

/// Serializes an ACL to its on-disk form.
pub fn encode_acl(acl: &Acl) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 7 * acl.entries.len());
    out.extend_from_slice(&(acl.entries.len() as u16).to_le_bytes());
    for e in &acl.entries {
        let (tag, id) = encode_principal(e.who);
        out.push(tag);
        out.extend_from_slice(&id.to_le_bytes());
        out.push(e.allow.0);
        out.push(e.deny.0);
    }
    out
}

/// Deserializes an on-disk ACL.
pub fn decode_acl(bytes: &[u8]) -> DfsResult<Acl> {
    if bytes.len() < 2 {
        return Err(DfsError::Internal("short ACL"));
    }
    let n = u16::from_le_bytes(bytes[0..2].try_into().unwrap()) as usize;
    let mut entries = Vec::with_capacity(n);
    let mut pos = 2;
    for _ in 0..n {
        if pos + 7 > bytes.len() {
            return Err(DfsError::Internal("truncated ACL"));
        }
        let tag = bytes[pos];
        let id = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
        let allow = Rights(bytes[pos + 5]);
        let deny = Rights(bytes[pos + 6]);
        entries.push(AclEntry { who: decode_principal(tag, id)?, allow, deny });
        pos += 7;
    }
    Ok(Acl { entries })
}

impl Episode {
    /// Reads the ACL stored in container `acl_anode`.
    pub(crate) fn read_acl(&self, acl_anode: u32) -> DfsResult<Acl> {
        let a = self.read_anode(acl_anode)?;
        let bytes = self.anode_read(&a, 0, a.length as usize)?;
        decode_acl(&bytes)
    }

    /// Writes `acl` for the file whose anode is (`idx`, `a`), allocating
    /// an ACL container on first use. Updates `a.acl_anode` in memory;
    /// the caller persists the file anode.
    pub(crate) fn write_acl(
        &self,
        txn: TxnId,
        a: &mut crate::layout::Anode,
        acl: &Acl,
    ) -> DfsResult<()> {
        let bytes = encode_acl(acl);
        if a.acl_anode == 0 {
            let (slot, _) = self.alloc_anode(txn, None, AnodeKind::Meta, a.volume, 0, a.owner)?;
            a.acl_anode = slot;
        }
        let mut holder = self.read_anode(a.acl_anode)?;
        // Overwrite in place; shrink the container if the ACL shrank.
        holder.length = 0;
        self.anode_write(txn, &mut holder, 0, &bytes, true)?;
        holder.length = bytes.len() as u64;
        self.write_anode(txn, a.acl_anode, &holder)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::fresh;

    fn sample_acl() -> Acl {
        let mut acl = Acl::unix_default(42);
        acl.push(AclEntry::allow(Principal::Group(7), Rights::WRITE | Rights::INSERT));
        acl.push(AclEntry::deny(Principal::User(13), Rights::READ));
        acl
    }

    #[test]
    fn encode_decode_round_trip() {
        let acl = sample_acl();
        assert_eq!(decode_acl(&encode_acl(&acl)).unwrap(), acl);
    }

    #[test]
    fn empty_acl_round_trip() {
        let acl = Acl::new();
        assert_eq!(decode_acl(&encode_acl(&acl)).unwrap(), acl);
    }

    #[test]
    fn truncated_acl_rejected() {
        let enc = encode_acl(&sample_acl());
        assert!(decode_acl(&enc[..enc.len() - 1]).is_err());
        assert!(decode_acl(&[]).is_err());
    }

    #[test]
    fn store_and_load_via_anode() {
        let ep = fresh(8192);
        let txn = ep.journal().begin();
        let (idx, mut a) =
            ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 42).unwrap();
        let acl = sample_acl();
        ep.write_acl(txn, &mut a, &acl).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.journal().commit(txn).unwrap();

        let a = ep.read_anode(idx).unwrap();
        assert_ne!(a.acl_anode, 0);
        assert_eq!(ep.read_acl(a.acl_anode).unwrap(), acl);
    }

    #[test]
    fn rewrite_replaces_acl() {
        let ep = fresh(8192);
        let txn = ep.journal().begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 1).unwrap();
        ep.write_acl(txn, &mut a, &sample_acl()).unwrap();
        let first_holder = a.acl_anode;
        let small = Acl::unix_default(1);
        ep.write_acl(txn, &mut a, &small).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        let a = ep.read_anode(idx).unwrap();
        assert_eq!(a.acl_anode, first_holder, "holder anode is reused");
        assert_eq!(ep.read_acl(a.acl_anode).unwrap(), small);
    }

    #[test]
    fn large_acl_is_open_ended() {
        // The AFS weakness the paper cites: fixed-size ACLs. Ours grows.
        let ep = fresh(8192);
        let mut acl = Acl::new();
        for u in 0..2000 {
            acl.push(AclEntry::allow(Principal::User(u), Rights::READ));
        }
        let txn = ep.journal().begin();
        let (idx, mut a) = ep.alloc_anode(txn, None, AnodeKind::File, 1, 0o644, 1).unwrap();
        ep.write_acl(txn, &mut a, &acl).unwrap();
        ep.write_anode(txn, idx, &a).unwrap();
        ep.journal().commit(txn).unwrap();
        let a = ep.read_anode(idx).unwrap();
        let loaded = ep.read_acl(a.acl_anode).unwrap();
        assert_eq!(loaded.len(), 2000);
        assert_eq!(loaded, acl);
    }
}
