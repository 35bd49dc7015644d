//! Property-based tests for the token compatibility relation (§5.2) and
//! for shard-count transparency: sharding the manager's state by fid
//! hash is a pure performance change, so any operation script must
//! produce identical observable results at 1 shard and at N.

use dfs_token::{
    compatible, conflict_bits, RevokeResult, Token, TokenHost, TokenId, TokenManager, TokenTypes,
};
use dfs_types::{ByteRange, ClientId, Fid, HostId, SerializationStamp, VnodeId, VolumeId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn types_strategy() -> impl Strategy<Value = TokenTypes> {
    (0u32..(1 << 11)).prop_map(TokenTypes)
}

fn range_strategy() -> impl Strategy<Value = ByteRange> {
    prop_oneof![
        3 => (0u64..1000, 1u64..1000).prop_map(|(s, l)| ByteRange::new(s, s + l)),
        1 => Just(ByteRange::WHOLE),
    ]
}

fn token_strategy() -> impl Strategy<Value = Token> {
    (1u64..3, 0u32..3, types_strategy(), range_strategy()).prop_map(|(vol, vn, types, range)| {
        Token {
            id: TokenId(1),
            fid: Fid::new(VolumeId(vol), VnodeId(vn), 1),
            types,
            range,
        }
    })
}

proptest! {
    #[test]
    fn compatibility_is_symmetric(a in token_strategy(), b in token_strategy()) {
        prop_assert_eq!(compatible(&a, &b), compatible(&b, &a));
    }

    #[test]
    fn conflict_bits_subset_of_held(a in token_strategy(), b in token_strategy()) {
        let bits = conflict_bits(&a, &b);
        prop_assert!(a.types.contains(bits), "conflict bits must come from the held token");
    }

    #[test]
    fn stripping_conflicts_restores_compatibility(a in token_strategy(), b in token_strategy()) {
        // The partial-revocation invariant: after removing exactly the
        // conflicting bits from each side, the tokens coexist.
        let mut a2 = a.clone();
        a2.types = a2.types.minus(conflict_bits(&a, &b));
        let mut b2 = b.clone();
        b2.types = b2.types.minus(conflict_bits(&b, &a2));
        prop_assert!(
            compatible(&a2, &b2),
            "a2={:?} b2={:?} still conflict",
            a2.types,
            b2.types
        );
    }

    #[test]
    fn different_files_never_conflict(a in token_strategy(), b in token_strategy()) {
        if a.fid != b.fid
            && a.fid.vnode.0 != 0
            && b.fid.vnode.0 != 0
        {
            prop_assert!(compatible(&a, &b));
        }
    }

    #[test]
    fn disjoint_ranges_never_conflict_on_data_or_locks(
        base in 0u64..1000,
        la in 1u64..100,
        lb in 1u64..100,
        ta in types_strategy(),
        tb in types_strategy(),
    ) {
        // Strip status and open bits (those ignore ranges).
        let rangey = TokenTypes(
            TokenTypes::DATA_READ.0
                | TokenTypes::DATA_WRITE.0
                | TokenTypes::LOCK_READ.0
                | TokenTypes::LOCK_WRITE.0,
        );
        let fid = Fid::new(VolumeId(1), VnodeId(1), 1);
        let a = Token {
            id: TokenId(1),
            fid,
            types: TokenTypes(ta.0 & rangey.0),
            range: ByteRange::new(base, base + la),
        };
        let b = Token {
            id: TokenId(2),
            fid,
            types: TokenTypes(tb.0 & rangey.0),
            range: ByteRange::new(base + la, base + la + lb),
        };
        prop_assert!(compatible(&a, &b), "disjoint byte ranges must coexist (§5.4)");
    }

    #[test]
    fn pure_readers_never_conflict(ra in range_strategy(), rb in range_strategy()) {
        let readers = TokenTypes(
            TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0 | TokenTypes::LOCK_READ.0,
        );
        let fid = Fid::new(VolumeId(1), VnodeId(1), 1);
        let a = Token { id: TokenId(1), fid, types: readers, range: ra };
        let b = Token { id: TokenId(2), fid, types: readers, range: rb };
        prop_assert!(compatible(&a, &b));
    }

    #[test]
    fn volume_token_conflicts_dominate_file_tokens(t in token_strategy()) {
        // A whole-volume writer conflicts with any same-volume token
        // that a whole-file writer would conflict with.
        let writer_types = TokenTypes(TokenTypes::DATA_WRITE.0 | TokenTypes::STATUS_WRITE.0);
        let vol_tok = Token {
            id: TokenId(9),
            fid: Fid::new(t.fid.volume, VnodeId(0), 0),
            types: writer_types,
            range: ByteRange::WHOLE,
        };
        let file_tok = Token {
            id: TokenId(10),
            fid: t.fid,
            types: writer_types,
            range: ByteRange::WHOLE,
        };
        if t.fid.vnode.0 != 0 && !compatible(&file_tok, &t) {
            prop_assert!(
                !compatible(&vol_tok, &t),
                "volume token must conflict at least as much as a file token"
            );
        }
    }
}

/// Host that answers Retained for lock-write tokens (modelling a client
/// with live file locks, §5.3) and Returned for everything else, so a
/// script exercises both grant-success and grant-failure paths.
struct ScriptHost {
    id: HostId,
    revoked: AtomicUsize,
}

impl ScriptHost {
    fn new(n: u32) -> Arc<ScriptHost> {
        Arc::new(ScriptHost { id: HostId::Client(ClientId(n)), revoked: AtomicUsize::new(0) })
    }
}

impl TokenHost for ScriptHost {
    fn host_id(&self) -> HostId {
        self.id
    }

    fn revoke(
        &self,
        token: &Token,
        _types: TokenTypes,
        _stamp: SerializationStamp,
    ) -> RevokeResult {
        self.revoked.fetch_add(1, Ordering::SeqCst);
        if token.types.contains(TokenTypes::LOCK_WRITE) {
            RevokeResult::Retained
        } else {
            RevokeResult::Returned
        }
    }
}

/// One scripted op: `(host, vnode, kind, range)`. kind 0..4 grants one
/// of four type mixes; kind 4 releases the host's grants on the fid;
/// kind 5 retires the fid (the file was destroyed).
type Op = (u32, u32, usize, usize);

const OP_TYPES: [TokenTypes; 4] = [
    TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0),
    TokenTypes(TokenTypes::DATA_WRITE.0 | TokenTypes::STATUS_WRITE.0),
    TokenTypes(TokenTypes::LOCK_WRITE.0),
    TokenTypes(TokenTypes::DATA_READ.0),
];

fn script_fid(vnode: u32) -> Fid {
    Fid::new(VolumeId(1), VnodeId(vnode), if vnode == 0 { 0 } else { 1 })
}

/// Every observable of a script run: per-op grant outcomes, per-host
/// revocation counts, and the final (host, types, range) token set per
/// fid.
type Observed = (Vec<bool>, Vec<usize>, Vec<Vec<(HostId, u32, ByteRange)>>);

/// Runs `ops` against a manager with `shards` shards and returns every
/// observable.
fn run_script(shards: usize, ops: &[Op]) -> Observed {
    let tm = TokenManager::with_shards(shards);
    let hosts: Vec<Arc<ScriptHost>> = (0..3).map(ScriptHost::new).collect();
    for h in &hosts {
        tm.register_host(h.clone());
    }
    let ranges = [ByteRange::WHOLE, ByteRange::new(0, 4096), ByteRange::new(4096, 8192)];
    let mut outcomes = Vec::with_capacity(ops.len());
    for &(host, vnode, kind, range) in ops {
        let id = hosts[host as usize % hosts.len()].id;
        let fid = script_fid(vnode % 6);
        outcomes.push(match kind {
            4 => {
                tm.release_fid(id, fid);
                true
            }
            5 => {
                tm.retire_fid(fid);
                true
            }
            _ => tm.grant(id, fid, OP_TYPES[kind], ranges[range % ranges.len()]).is_ok(),
        });
    }
    let revoked = hosts.iter().map(|h| h.revoked.load(Ordering::SeqCst)).collect();
    let state = (0..6)
        .map(|v| {
            let mut on: Vec<_> = tm
                .tokens_on(script_fid(v))
                .into_iter()
                .map(|(h, t)| (h, t.types.0, t.range))
                .collect();
            on.sort_by_key(|(h, ty, r)| (format!("{h:?}"), *ty, r.start, r.end));
            on
        })
        .collect();
    (outcomes, revoked, state)
}

proptest! {
    #[test]
    fn sharding_is_observationally_transparent(
        ops in proptest::collection::vec((0u32..3, 0u32..6, 0usize..6, 0usize..3), 1..40),
        shards in 2usize..9,
    ) {
        // Volume tokens (vnode 0), colliding fids, retained locks,
        // releases, retired files — whatever the script does, shard
        // count must not change a grant outcome or the final token state.
        let (flat_out, flat_rev, flat_state) = run_script(1, &ops);
        let (shard_out, shard_rev, shard_state) = run_script(shards, &ops);
        prop_assert_eq!(flat_out, shard_out);
        prop_assert_eq!(flat_state, shard_state);
        // Per-host revocation-callback counts are only pinned when no
        // host can retain: a Retained answer aborts the remaining
        // revocations (§5.3), and *which* victims were already revoked
        // before the abort follows conflict-scan order, which sharding
        // legitimately permutes.
        if ops.iter().all(|&(_, _, kind, _)| kind != 2) {
            prop_assert_eq!(
                flat_rev,
                shard_rev,
                "without retained locks every conflict is revoked exactly once"
            );
        }
    }
}
