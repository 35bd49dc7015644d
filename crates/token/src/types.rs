//! Token types and the compatibility relation (§5.2, Figure 3).
//!
//! "Tokens of any type are compatible with tokens of any other type, as
//! they refer to separate components of files. Tokens of the same type
//! may be incompatible with each other."

use dfs_types::{ByteRange, Fid};
use std::fmt;

/// A bit set of token types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TokenTypes(pub u32);

impl TokenTypes {
    /// Right to read (cache and use) a byte range of file data.
    pub const DATA_READ: TokenTypes = TokenTypes(1 << 0);
    /// Right to update a byte range of cached data without notifying
    /// the server.
    pub const DATA_WRITE: TokenTypes = TokenTypes(1 << 1);
    /// Right to use a cached copy of the file's status.
    pub const STATUS_READ: TokenTypes = TokenTypes(1 << 2);
    /// Right to update the cached status without notifying the server.
    pub const STATUS_WRITE: TokenTypes = TokenTypes(1 << 3);
    /// Right to set read file locks in a byte range locally.
    pub const LOCK_READ: TokenTypes = TokenTypes(1 << 4);
    /// Right to set write file locks in a byte range locally.
    pub const LOCK_WRITE: TokenTypes = TokenTypes(1 << 5);
    /// Open for normal reading.
    pub const OPEN_READ: TokenTypes = TokenTypes(1 << 6);
    /// Open for normal writing.
    pub const OPEN_WRITE: TokenTypes = TokenTypes(1 << 7);
    /// Open for executing.
    pub const OPEN_EXECUTE: TokenTypes = TokenTypes(1 << 8);
    /// Open for shared reading (denies writers).
    pub const OPEN_SHARED_READ: TokenTypes = TokenTypes(1 << 9);
    /// Open for exclusive writing (denies all other opens).
    pub const OPEN_EXCLUSIVE_WRITE: TokenTypes = TokenTypes(1 << 10);

    /// All open-token bits.
    pub const OPEN_MASK: TokenTypes = TokenTypes(0b11111 << 6);
    /// No types.
    pub const NONE: TokenTypes = TokenTypes(0);

    /// Returns true if `self` contains every bit of `other`.
    pub fn contains(self, other: TokenTypes) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns true if the two sets share any bit.
    pub fn intersects(self, other: TokenTypes) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns the union of the two sets.
    pub fn union(self, other: TokenTypes) -> TokenTypes {
        TokenTypes(self.0 | other.0)
    }

    /// Returns `self` without the bits of `other`.
    pub fn minus(self, other: TokenTypes) -> TokenTypes {
        TokenTypes(self.0 & !other.0)
    }

    /// Returns true if no bits are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The five open subtypes, in Figure 3 order.
    pub fn open_subtypes() -> [(TokenTypes, &'static str); 5] {
        [
            (TokenTypes::OPEN_READ, "read"),
            (TokenTypes::OPEN_WRITE, "write"),
            (TokenTypes::OPEN_EXECUTE, "execute"),
            (TokenTypes::OPEN_SHARED_READ, "shared-read"),
            (TokenTypes::OPEN_EXCLUSIVE_WRITE, "excl-write"),
        ]
    }
}

impl std::ops::BitOr for TokenTypes {
    type Output = TokenTypes;
    fn bitor(self, rhs: TokenTypes) -> TokenTypes {
        self.union(rhs)
    }
}

impl fmt::Debug for TokenTypes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (TokenTypes::DATA_READ, "Dr"),
            (TokenTypes::DATA_WRITE, "Dw"),
            (TokenTypes::STATUS_READ, "Sr"),
            (TokenTypes::STATUS_WRITE, "Sw"),
            (TokenTypes::LOCK_READ, "Lr"),
            (TokenTypes::LOCK_WRITE, "Lw"),
            (TokenTypes::OPEN_READ, "Or"),
            (TokenTypes::OPEN_WRITE, "Ow"),
            (TokenTypes::OPEN_EXECUTE, "Ox"),
            (TokenTypes::OPEN_SHARED_READ, "Os"),
            (TokenTypes::OPEN_EXCLUSIVE_WRITE, "Oe"),
        ];
        let mut first = true;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// A unique token identifier, used by revocation messages (§6.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct TokenId(pub u64);

/// A granted token: a guarantee from a file server to a host.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// Unique id of this grant.
    pub id: TokenId,
    /// The file the guarantee covers. A `vnode` of 0 denotes a
    /// whole-volume token (used by the replication server, §3.8).
    pub fid: Fid,
    /// The granted types.
    pub types: TokenTypes,
    /// Byte range for data and lock types ([`ByteRange::WHOLE`] for
    /// status and open types, which cover the whole file).
    pub range: ByteRange,
}

impl Token {
    /// Returns true if this is a whole-volume token.
    pub fn is_volume_token(&self) -> bool {
        self.fid.vnode.0 == 0
    }
}

/// Returns true if the union of `tokens` carrying any of `types` covers
/// every byte of `range`. The one coverage test: the client's cache-hit
/// checks (locked and lock-free) and the server's store admission rule
/// all judge "does this host hold the guarantee over these bytes" here.
pub fn tokens_cover<'a>(
    tokens: impl IntoIterator<Item = &'a Token>,
    types: TokenTypes,
    range: &ByteRange,
) -> bool {
    if range.is_empty() {
        return true;
    }
    let mut spans: Vec<ByteRange> = tokens
        .into_iter()
        .filter(|t| t.types.intersects(types))
        .map(|t| t.range)
        .collect();
    spans.sort_by_key(|r| r.start);
    let mut pos = range.start;
    for s in spans {
        if s.start > pos {
            break;
        }
        pos = pos.max(s.end.min(range.end));
        if pos >= range.end {
            return true;
        }
    }
    pos >= range.end
}

/// Returns true if the two open-token subtype bits may coexist on
/// different hosts — Figure 3 of the paper.
///
/// The matrix implements UNIX sharing plus the "exotic" modes §5.4
/// motivates: executing excludes writers (the ETXTBSY rule), shared
/// reading denies writers, and exclusive writing denies everyone.
pub fn open_compatible(a: TokenTypes, b: TokenTypes) -> bool {
    use TokenTypes as T;
    let row = |x: TokenTypes, y: TokenTypes| -> bool {
        if x == T::OPEN_READ {
            y != T::OPEN_EXCLUSIVE_WRITE
        } else if x == T::OPEN_WRITE {
            y == T::OPEN_READ || y == T::OPEN_WRITE
        } else if x == T::OPEN_EXECUTE || x == T::OPEN_SHARED_READ {
            // Executing and shared reading both admit readers and each
            // other, and both deny writers (§5.4).
            y == T::OPEN_READ || y == T::OPEN_EXECUTE || y == T::OPEN_SHARED_READ
        } else {
            // Exclusive write denies everyone; non-open bits are inert.
            x != T::OPEN_EXCLUSIVE_WRITE
        }
    };
    row(a, b)
}

/// Computes which of `held`'s type bits conflict with `wanted` (§5.2).
///
/// Revocation is *typed*: only the conflicting bits need to be given up,
/// so a whole-file status conflict does not cost a byte-range data
/// token. Returns the subset of `held.types` that must be revoked for
/// `wanted` to be granted to a different host.
pub fn conflict_bits(held: &Token, wanted: &Token) -> TokenTypes {
    use TokenTypes as T;
    // Different volumes never interact.
    if held.fid.volume != wanted.fid.volume {
        return T::NONE;
    }
    let same_file =
        held.is_volume_token() || wanted.is_volume_token() || held.fid == wanted.fid;
    if !same_file {
        return T::NONE;
    }
    let ranges_overlap = if held.is_volume_token() || wanted.is_volume_token() {
        true
    } else {
        held.range.overlaps(&wanted.range)
    };

    let mut out = T::NONE;
    // Data: a writer excludes readers and writers over the same bytes.
    if ranges_overlap {
        if wanted.types.contains(T::DATA_WRITE) {
            out = out.union(TokenTypes(held.types.0 & (T::DATA_READ.0 | T::DATA_WRITE.0)));
        } else if wanted.types.contains(T::DATA_READ) {
            out = out.union(TokenTypes(held.types.0 & T::DATA_WRITE.0));
        }
        if wanted.types.contains(T::LOCK_WRITE) {
            out = out.union(TokenTypes(held.types.0 & (T::LOCK_READ.0 | T::LOCK_WRITE.0)));
        } else if wanted.types.contains(T::LOCK_READ) {
            out = out.union(TokenTypes(held.types.0 & T::LOCK_WRITE.0));
        }
    }
    // Status: whole-file.
    if wanted.types.contains(T::STATUS_WRITE) {
        out = out.union(TokenTypes(held.types.0 & (T::STATUS_READ.0 | T::STATUS_WRITE.0)));
    } else if wanted.types.contains(T::STATUS_READ) {
        out = out.union(TokenTypes(held.types.0 & T::STATUS_WRITE.0));
    }
    // Opens: Figure 3, pairwise.
    for (x, _) in TokenTypes::open_subtypes() {
        if !wanted.types.contains(x) {
            continue;
        }
        for (y, _) in TokenTypes::open_subtypes() {
            if held.types.contains(y) && !open_compatible(x, y) {
                out = out.union(y);
            }
        }
    }
    out
}

/// Returns true if two tokens held by *different* hosts are compatible
/// (§5.2). Tokens held by the same host never conflict.
pub fn compatible(a: &Token, b: &Token) -> bool {
    conflict_bits(a, b).is_empty() && conflict_bits(b, a).is_empty()
}

/// Renders Figure 3 — the open-token compatibility matrix — from the
/// same predicate the token manager uses.
pub fn render_open_matrix() -> String {
    let subs = TokenTypes::open_subtypes();
    let mut out = String::from("Figure 3: open-token compatibility matrix\n");
    out.push_str(&format!("{:>12}", ""));
    for (_, name) in subs {
        out.push_str(&format!("{name:>12}"));
    }
    out.push('\n');
    for (x, xname) in subs {
        out.push_str(&format!("{xname:>12}"));
        for (y, _) in subs {
            out.push_str(&format!("{:>12}", if open_compatible(x, y) { "yes" } else { "-" }));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_types::{VnodeId, VolumeId};

    fn tok(fid: Fid, types: TokenTypes, range: ByteRange) -> Token {
        Token { id: TokenId(0), fid, types, range }
    }

    fn fid(v: u64, n: u32) -> Fid {
        Fid::new(VolumeId(v), VnodeId(n), 1)
    }

    #[test]
    fn different_files_never_conflict() {
        let a = tok(fid(1, 1), TokenTypes::DATA_WRITE, ByteRange::WHOLE);
        let b = tok(fid(1, 2), TokenTypes::DATA_WRITE, ByteRange::WHOLE);
        assert!(compatible(&a, &b));
    }

    #[test]
    fn data_read_write_conflict_only_on_overlap() {
        let r = tok(fid(1, 1), TokenTypes::DATA_READ, ByteRange::new(0, 100));
        let w_far = tok(fid(1, 1), TokenTypes::DATA_WRITE, ByteRange::new(100, 200));
        let w_near = tok(fid(1, 1), TokenTypes::DATA_WRITE, ByteRange::new(50, 150));
        assert!(compatible(&r, &w_far), "disjoint ranges coexist (§5.4)");
        assert!(!compatible(&r, &w_near));
        assert!(!compatible(&w_near, &r), "compatibility is symmetric");
    }

    #[test]
    fn two_writers_conflict() {
        let a = tok(fid(1, 1), TokenTypes::DATA_WRITE, ByteRange::new(0, 10));
        let b = tok(fid(1, 1), TokenTypes::DATA_WRITE, ByteRange::new(5, 15));
        assert!(!compatible(&a, &b));
    }

    #[test]
    fn two_readers_coexist() {
        let a = tok(fid(1, 1), TokenTypes::DATA_READ, ByteRange::WHOLE);
        let b = tok(fid(1, 1), TokenTypes::DATA_READ, ByteRange::WHOLE);
        assert!(compatible(&a, &b));
    }

    #[test]
    fn status_tokens() {
        let r = tok(fid(1, 1), TokenTypes::STATUS_READ, ByteRange::WHOLE);
        let w = tok(fid(1, 1), TokenTypes::STATUS_WRITE, ByteRange::WHOLE);
        assert!(compatible(&r, &r));
        assert!(!compatible(&r, &w));
        assert!(!compatible(&w, &w));
    }

    #[test]
    fn lock_tokens_respect_ranges() {
        let lr = tok(fid(1, 1), TokenTypes::LOCK_READ, ByteRange::new(0, 10));
        let lw1 = tok(fid(1, 1), TokenTypes::LOCK_WRITE, ByteRange::new(20, 30));
        let lw2 = tok(fid(1, 1), TokenTypes::LOCK_WRITE, ByteRange::new(5, 8));
        assert!(compatible(&lr, &lw1));
        assert!(!compatible(&lr, &lw2));
    }

    #[test]
    fn cross_type_tokens_always_compatible() {
        // "Tokens of any type are compatible with tokens of any other
        // type" (§5.2).
        let d = tok(fid(1, 1), TokenTypes::DATA_WRITE, ByteRange::WHOLE);
        let l = tok(fid(1, 1), TokenTypes::LOCK_WRITE, ByteRange::WHOLE);
        let o = tok(fid(1, 1), TokenTypes::OPEN_READ, ByteRange::WHOLE);
        assert!(compatible(&d, &l));
        assert!(compatible(&d, &o));
        assert!(compatible(&l, &o));
    }

    #[test]
    fn open_matrix_figure3() {
        use TokenTypes as T;
        // Row by row per the matrix in types.rs docs.
        assert!(open_compatible(T::OPEN_READ, T::OPEN_WRITE));
        assert!(open_compatible(T::OPEN_READ, T::OPEN_EXECUTE));
        assert!(!open_compatible(T::OPEN_READ, T::OPEN_EXCLUSIVE_WRITE));
        // The UNIX write-vs-execute restriction (§5.4: a file open for
        // execution cannot be opened for writing).
        assert!(!open_compatible(T::OPEN_WRITE, T::OPEN_EXECUTE));
        assert!(!open_compatible(T::OPEN_EXECUTE, T::OPEN_WRITE));
        assert!(open_compatible(T::OPEN_WRITE, T::OPEN_WRITE));
        assert!(!open_compatible(T::OPEN_SHARED_READ, T::OPEN_WRITE));
        assert!(open_compatible(T::OPEN_SHARED_READ, T::OPEN_SHARED_READ));
        for (t, _) in T::open_subtypes() {
            assert!(!open_compatible(T::OPEN_EXCLUSIVE_WRITE, t));
            assert!(!open_compatible(t, T::OPEN_EXCLUSIVE_WRITE));
        }
    }

    #[test]
    fn open_matrix_is_symmetric() {
        for (x, _) in TokenTypes::open_subtypes() {
            for (y, _) in TokenTypes::open_subtypes() {
                assert_eq!(
                    open_compatible(x, y),
                    open_compatible(y, x),
                    "{x:?} vs {y:?} must be symmetric"
                );
            }
        }
    }

    #[test]
    fn volume_token_conflicts_with_file_tokens() {
        let vol_tok = tok(
            Fid::new(VolumeId(1), VnodeId(0), 0),
            TokenTypes::DATA_READ | TokenTypes::STATUS_READ,
            ByteRange::WHOLE,
        );
        let w = tok(fid(1, 5), TokenTypes::DATA_WRITE, ByteRange::WHOLE);
        assert!(!compatible(&vol_tok, &w), "replica token vs writer");
        let other_vol = tok(fid(2, 5), TokenTypes::DATA_WRITE, ByteRange::WHOLE);
        assert!(compatible(&vol_tok, &other_vol));
        let r = tok(fid(1, 5), TokenTypes::DATA_READ, ByteRange::WHOLE);
        assert!(compatible(&vol_tok, &r), "readers coexist with replica");
    }

    #[test]
    fn render_matrix_mentions_all_subtypes() {
        let s = render_open_matrix();
        for (_, name) in TokenTypes::open_subtypes() {
            assert!(s.contains(name), "matrix missing {name}");
        }
    }

    #[test]
    fn types_bit_operations() {
        let t = TokenTypes::DATA_READ | TokenTypes::STATUS_READ;
        assert!(t.contains(TokenTypes::DATA_READ));
        assert!(!t.contains(TokenTypes::DATA_WRITE));
        assert!(t.intersects(TokenTypes::STATUS_READ | TokenTypes::LOCK_READ));
        assert_eq!(t.minus(TokenTypes::DATA_READ), TokenTypes::STATUS_READ);
        assert_eq!(format!("{t:?}"), "Dr+Sr");
        assert_eq!(format!("{:?}", TokenTypes::NONE), "-");
    }
}
