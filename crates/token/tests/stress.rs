//! Multithreaded stress test for the token manager's locking discipline.
//!
//! Four client hosts and a replicator hammer concurrent grants (forcing
//! constant cross-host revocation), voluntary releases, and host
//! churn, at shard counts 1 and 4, all with the debug-build rank
//! enforcer active. The test
//! asserts the §5.1 invariant directly: every revocation callback must
//! run with an empty held-rank stack — the token manager may not hold
//! any of its own locks while calling out to a host.

use dfs_token::{RevokeResult, Token, TokenHost, TokenManager, TokenTypes};
use dfs_types::lock::held_ranks;
use dfs_types::{ByteRange, ClientId, Fid, HostId, SerializationStamp, VnodeId, VolumeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct StressHost {
    id: HostId,
    revocations: AtomicUsize,
    /// Rank stacks observed non-empty inside a revocation callback,
    /// with the offending stack (must stay empty).
    violations: Mutex<Vec<Vec<u16>>>,
}

impl StressHost {
    fn new(n: u32) -> Arc<StressHost> {
        Arc::new(StressHost {
            id: HostId::Client(ClientId(n)),
            revocations: AtomicUsize::new(0),
            violations: Mutex::new(Vec::new()),
        })
    }
}

impl TokenHost for StressHost {
    fn host_id(&self) -> HostId {
        self.id
    }

    fn revoke(
        &self,
        _token: &Token,
        _types: TokenTypes,
        _stamp: SerializationStamp,
    ) -> RevokeResult {
        // §5.1/§6.4: the manager calls revoke outside its own locks, so
        // the calling thread must hold no ranked lock here.
        let held = held_ranks();
        if !held.is_empty() {
            self.violations.lock().unwrap().push(held);
        }
        self.revocations.fetch_add(1, Ordering::SeqCst);
        RevokeResult::Returned
    }
}

fn fid(n: u32) -> Fid {
    Fid::new(VolumeId(1), VnodeId(n), 1)
}

#[test]
fn concurrent_grant_revoke_respects_lock_hierarchy() {
    [1, 4].into_iter().for_each(grant_revoke_storm);
}

fn grant_revoke_storm(shards: usize) {
    const HOSTS: u32 = 4;
    const ROUNDS: u32 = 200;
    const FILES: u32 = 3;

    let tm = Arc::new(TokenManager::with_shards(shards));
    let hosts: Vec<Arc<StressHost>> = (0..HOSTS).map(StressHost::new).collect();
    for h in &hosts {
        tm.register_host(h.clone());
    }

    let threads: Vec<_> = hosts
        .iter()
        .map(|h| {
            let tm = tm.clone();
            let id = h.id;
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    // Alternate write grants (conflict with everyone) and
                    // ranged grants (conflict with overlapping writers).
                    let f = fid(i % FILES);
                    let result = if i % 2 == 0 {
                        tm.grant(id, f, TokenTypes::DATA_WRITE, ByteRange::WHOLE)
                    } else {
                        tm.grant(
                            id,
                            f,
                            TokenTypes::DATA_READ | TokenTypes::STATUS_READ,
                            ByteRange::new(u64::from(i) * 64, u64::from(i) * 64 + 128),
                        )
                    };
                    if let Ok((token, _stamp)) = result {
                        if i % 5 == 0 {
                            tm.release(id, token.id);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no stress thread may panic (rank enforcer is live)");
    }

    let total: usize = hosts.iter().map(|h| h.revocations.load(Ordering::SeqCst)).sum();
    assert!(total > 0, "conflicting write grants must have forced revocations");
    for h in &hosts {
        let violations = h.violations.lock().unwrap();
        assert!(
            violations.is_empty(),
            "revocation callback for {:?} observed held ranks: {violations:?}",
            h.id
        );
    }
    assert!(tm.stats().grants >= u64::from(HOSTS * ROUNDS) / 2);
    assert_eq!(tm.stats().revocations, total as u64);
}

#[test]
fn host_churn_under_load_does_not_deadlock() {
    [1, 4].into_iter().for_each(host_churn);
}

fn host_churn(shards: usize) {
    let tm = Arc::new(TokenManager::with_shards(shards));
    let stable: Vec<Arc<StressHost>> = (0..4).map(StressHost::new).collect();
    for h in &stable {
        tm.register_host(h.clone());
    }

    let granters: Vec<_> = stable
        .iter()
        .map(|h| {
            let tm = tm.clone();
            let id = h.id;
            std::thread::spawn(move || {
                for i in 0..100u32 {
                    let _ = tm.grant(id, fid(i % 2), TokenTypes::DATA_WRITE, ByteRange::WHOLE);
                }
            })
        })
        .collect();
    // A churner repeatedly registers and removes a fifth host, so grant
    // loops race against host-table mutation.
    let churner = {
        std::thread::spawn(move || {
            for _ in 0..50 {
                let extra = StressHost::new(99);
                tm.register_host(extra.clone());
                let _ = tm.grant(extra.id, fid(0), TokenTypes::DATA_READ, ByteRange::WHOLE);
                tm.unregister_host(extra.id);
            }
        })
    };
    for t in granters {
        t.join().unwrap();
    }
    churner.join().unwrap();
    for h in &stable {
        assert!(h.violations.lock().unwrap().is_empty());
    }
}

/// A whole-volume (vnode-0) write token conflicts with file tokens in
/// every shard, so granting it drives the cross-shard lock_all path and
/// batched per-host revocations while readers keep re-granting.
#[test]
fn whole_volume_revocation_spans_shards_under_load() {
    [1, 4].into_iter().for_each(whole_volume_revocation);
}

fn whole_volume_revocation(shards: usize) {
    let tm = Arc::new(TokenManager::with_shards(shards));
    let hosts: Vec<Arc<StressHost>> = (0..4).map(StressHost::new).collect();
    for h in &hosts {
        tm.register_host(h.clone());
    }
    if tm.shard_count() > 1 {
        let shards_hit: std::collections::BTreeSet<usize> =
            (1..64).map(|v| tm.shard_of(fid(v))).collect();
        assert!(shards_hit.len() >= 3, "file fids must spread across shards");
    }

    // One reader already holds a file token when the storms start, so
    // "the volume writes revoked someone" below does not depend on which
    // thread the scheduler runs first.
    tm.grant(hosts[1].id, fid(1), TokenTypes::DATA_READ | TokenTypes::STATUS_READ, ByteRange::WHOLE)
        .unwrap();
    let readers: Vec<_> = hosts[1..]
        .iter()
        .map(|h| {
            let tm = tm.clone();
            let id = h.id;
            std::thread::spawn(move || {
                for i in 0..150u32 {
                    let _ = tm.grant(
                        id,
                        fid(1 + i % 48),
                        TokenTypes::DATA_READ | TokenTypes::STATUS_READ,
                        ByteRange::WHOLE,
                    );
                }
            })
        })
        .collect();
    let writer = {
        let tm = tm.clone();
        let id = hosts[0].id;
        std::thread::spawn(move || {
            let vol = Fid::new(VolumeId(1), VnodeId(0), 0);
            for _ in 0..40 {
                if let Ok((t, _)) = tm.grant(
                    id,
                    vol,
                    TokenTypes::DATA_WRITE | TokenTypes::STATUS_WRITE,
                    ByteRange::WHOLE,
                ) {
                    tm.release(id, t.id);
                }
            }
        })
    };
    for t in readers {
        t.join().expect("reader threads must survive the volume-token storms");
    }
    writer.join().expect("volume-token writer must not deadlock across shards");

    for h in &hosts {
        assert!(
            h.violations.lock().unwrap().is_empty(),
            "batched volume revocations must run with no manager locks held"
        );
    }
    let total: usize = hosts.iter().map(|h| h.revocations.load(Ordering::SeqCst)).sum();
    assert!(total > 0, "whole-volume writes must have revoked file readers");

    // Quiesced: one more volume write grant must strip every
    // conflicting read bit from the other hosts, in every shard.
    let vol = Fid::new(VolumeId(1), VnodeId(0), 0);
    tm.grant(
        hosts[0].id,
        vol,
        TokenTypes::DATA_WRITE | TokenTypes::STATUS_WRITE,
        ByteRange::WHOLE,
    )
    .expect("final volume grant must succeed (all revocations returned)");
    let readers_mask = TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0);
    for v in 1..49 {
        for (h, t) in tm.tokens_on(fid(v)) {
            assert!(
                h == hosts[0].id || !t.types.intersects(readers_mask),
                "shard {} kept a stale read grant for {h:?}: {t:?}",
                tm.shard_of(fid(v))
            );
        }
    }
}

/// Exactly-once revocation whether the conflicting fids collide into
/// one shard or spread across several: each held token is revoked once,
/// and the per-fid state ends identical either way.
#[test]
fn colliding_and_distinct_fids_revoke_exactly_once() {
    let tm = TokenManager::with_shards(4);
    let holder = StressHost::new(1);
    let writer = StressHost::new(2);
    tm.register_host(holder.clone());
    tm.register_host(writer.clone());

    // One pair of fids that hash to the same shard, plus one that
    // lands elsewhere.
    let s0 = tm.shard_of(fid(1));
    let colliding = (2..200)
        .find(|&v| tm.shard_of(fid(v)) == s0)
        .expect("some fid must collide with shard of fid(1)");
    let distinct = (2..200)
        .find(|&v| tm.shard_of(fid(v)) != s0)
        .expect("some fid must land on another shard");
    let files = [1, colliding, distinct];

    for v in files {
        tm.grant(holder.id, fid(v), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
    }
    for v in files {
        tm.grant(writer.id, fid(v), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
    }

    assert_eq!(
        holder.revocations.load(Ordering::SeqCst),
        files.len(),
        "each read token must be revoked exactly once, colliding or not"
    );
    assert_eq!(tm.stats().revocations, files.len() as u64);
    for v in files {
        let on = tm.tokens_on(fid(v));
        assert_eq!(on.len(), 1, "only the writer's token may remain on fid({v})");
        assert_eq!(on[0].0, writer.id);
    }
    assert!(holder.violations.lock().unwrap().is_empty());
}
