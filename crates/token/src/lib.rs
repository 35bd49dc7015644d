//! The token manager (§3.1, §5): typed guarantees with revocation.
//!
//! "Each server includes a token manager, which keeps track of who is
//! referencing files, what they are doing to the files, and what
//! guarantees they require about what others may do to the files."
//!
//! Hosts (remote cache managers, the local glue layer, replication
//! servers) register with a *virtual revoke procedure* (§5.1): when a
//! new grant conflicts with tokens held by other hosts, the manager
//! calls each conflicting host's [`TokenHost::revoke_batch`] — outside
//! its own locks, because a revocation may trigger RPCs that call back
//! into the server (§6.4) — and waits for the tokens to be returned.
//! All of one host's revocations arising from a single conflict check
//! travel in one batched callback, mirroring the write-behind
//! `StoreDataVec` pattern in the revoke direction.
//!
//! The manager also issues the per-file **serialization stamps** of
//! §6.2: every reference to a file gets a stamp, strictly increasing in
//! the server's serialization order, which clients use to merge
//! concurrently-returned status information correctly.
//!
//! # Shard topology
//!
//! The grant and stamp tables are split into N fid-hash shards (default
//! [`DEFAULT_TOKEN_SHARDS`]), each behind its own mutex at rank
//! [`rank::TOKEN_SHARD`], so grants and revocations on files that hash
//! to different shards never contend.
//! A file's grants, its stamps, and its volume's whole-volume (vnode-0)
//! grants each live in exactly one shard, determined by
//! [`shard_index`] over `(volume, vnode)` — `uniq` is excluded so every
//! incarnation of a vnode shares a shard with its grant table entry.
//!
//! Single-file operations take at most two shards: the file's own and
//! the one holding its volume's vnode-0 grants (whole-volume tokens
//! conflict with every file token, §3.8). Whole-volume operations —
//! volume-token grants, `export_volume`, `drop_volume` — take every
//! shard. Whenever more than one shard is held, shards are acquired in
//! ascending index order; the rank enforcer checks this in debug builds
//! (same-rank nesting is legal only with strictly increasing shard
//! indices). The host registry sits below the shards at rank
//! [`rank::TOKEN_MANAGER`] and is never held across a shard
//! acquisition or a revocation callback.

pub mod types;

pub use types::{
    compatible, conflict_bits, open_compatible, render_open_matrix, tokens_cover, Token, TokenId,
    TokenTypes,
};

use dfs_types::lock::{rank, OrderedCondvar, OrderedMutex, OrderedShardGuard, OrderedShardedMutex};
use dfs_types::{
    ByteRange, ClientId, DfsError, DfsResult, Fid, HostId, SerializationStamp, VolumeId,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of fid-hash shards for the token table.
pub const DEFAULT_TOKEN_SHARDS: usize = 8;

/// Maps `(volume, vnode)` to a shard index: a multiplicative hash on
/// each component so consecutive vnodes of one volume spread across
/// shards. `uniq` is deliberately excluded — grants are keyed by vnode
/// and all of a file's coherence state must live in one shard.
pub fn shard_index(volume: VolumeId, vnode: u32, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let h = volume.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(vnode).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    ((h >> 32) as usize) % shards
}

/// The answer a host gives to a revocation request (§5.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RevokeResult {
    /// The token was returned (dirty data/status stored back first).
    Returned,
    /// The host elected to keep the token — the normal action for lock
    /// and open tokens covering files it still has locked or open.
    Retained,
}

/// One token's worth of a batched revocation: the token, the type bits
/// to give up, and the serialization stamp ordering the revocation
/// against other references to the file (§6.2).
#[derive(Clone, Debug)]
pub struct RevokeItem {
    /// The token being revoked.
    pub token: Token,
    /// The conflicting type bits to give up (typed partial revocation).
    pub types: TokenTypes,
    /// Serialization stamp of the revocation.
    pub stamp: SerializationStamp,
}

/// A consumer of tokens, registered with the token manager (§5.1).
///
/// "It passes in an object of type afs_host, having a virtual revoke
/// procedure. The revoke procedure is called whenever the token manager
/// needs to revoke the token."
pub trait TokenHost: Send + Sync {
    /// This host's identity.
    fn host_id(&self) -> HostId;

    /// Asks the host to give up the `types` bits of `token` (typed
    /// partial revocation). The host must first store back any data or
    /// status those bits let it dirty (which may involve calls back to
    /// the file server, §6.4). `stamp` serializes the revocation against
    /// other references to the file (§6.2).
    fn revoke(&self, token: &Token, types: TokenTypes, stamp: SerializationStamp)
        -> RevokeResult;

    /// Revokes several tokens in one callback, answering each exactly
    /// once, in order. One conflict check produces at most one batch
    /// per host; a remote host ships every batch, one token or many, as
    /// a single `RevokeVec` RPC. The default simply loops
    /// [`revoke`](Self::revoke).
    fn revoke_batch(&self, items: &[RevokeItem]) -> Vec<RevokeResult> {
        items
            .iter()
            .map(|i| self.revoke(&i.token, i.types, i.stamp))
            .collect()
    }
}

/// One host's share of a conflict set: the resolved host object plus
/// the (token, conflicting-bits) pairs it must give up in one batch.
type RevokeGroup = (Arc<dyn TokenHost>, Vec<(Token, TokenTypes)>);

dfs_types::counters! {
    /// Statistics kept by a [`TokenManager`].
    pub struct TokenStats live TokenCounters {
        /// Tokens granted.
        pub grants: u64,
        /// Grants satisfied without revoking anything.
        pub quiet_grants: u64,
        /// Revocation callbacks issued (counted per token, not per batch).
        pub revocations: u64,
        /// Revocations where the host retained the token.
        pub retained: u64,
        /// Grants refused because a retained token conflicted, and
        /// reestablishment claims refused: conflicting, or on a file this
        /// server no longer has.
        pub refused: u64,
        /// Grants returned voluntarily or retired with their file, counted
        /// as removed: a return that finds nothing counts nothing.
        pub releases: u64,
        /// Tokens re-granted through the post-restart reestablish path.
        pub reestablished: u64,
        /// Grants installed verbatim by a live volume move (§2.1).
        pub imported: u64,
        /// Waits of a grant for another host's conflicting claim, one per
        /// claim waited for ([`TokenManager::grant`]).
        pub claim_waits: u64,
    }
}

struct Grant {
    host: HostId,
    token: Token,
}

/// One fid-hash shard of the grant and stamp tables. A `(volume,
/// vnode)` pair's grants and every `uniq` incarnation of its stamps
/// live wholly inside the shard [`shard_index`] names.
#[derive(Default)]
struct TokenShard {
    /// Live grants in this shard, keyed by volume then vnode (vnode 0
    /// holds whole-volume tokens).
    grants: HashMap<VolumeId, HashMap<u32, Vec<Grant>>>,
    /// Per-file serialization counters (§6.2).
    stamps: HashMap<Fid, SerializationStamp>,
    /// Claims of grants under way: what each grant that had to revoke
    /// wants, filed in its fid's shard until it returns. A grant that
    /// conflicts with another host's claim waits for it instead of
    /// taking back what that claim is revoking ([`TokenManager::grant`]).
    claims: Vec<Grant>,
}

impl TokenShard {
    /// The one add-to-list routine: files `host`'s `token` on its fid's
    /// `(volume, vnode)` list.
    fn insert(&mut self, host: HostId, token: Token) {
        let fid = token.fid;
        let by_vnode = self.grants.entry(fid.volume).or_default();
        by_vnode.entry(fid.vnode.0).or_default().push(Grant { host, token });
    }

    /// Issues `fid`'s next serialization stamp (§6.2).
    fn next_stamp(&mut self, fid: Fid) -> SerializationStamp {
        let s = self.stamps.entry(fid).or_default();
        *s = s.next();
        *s
    }

    /// The one remove-from-list routine: keeps the grants on `fid`'s
    /// `(volume, vnode)` list that `keep` accepts (it may edit them) and
    /// returns how many went. A list left empty leaves its map.
    fn retain_on(&mut self, fid: Fid, keep: impl FnMut(&mut Grant) -> bool) -> u64 {
        let Some(by_vnode) = self.grants.get_mut(&fid.volume) else { return 0 };
        let Some(grants) = by_vnode.get_mut(&fid.vnode.0) else { return 0 };
        let before = grants.len();
        grants.retain_mut(keep);
        let removed = (before - grants.len()) as u64;
        if grants.is_empty() {
            by_vnode.remove(&fid.vnode.0);
        }
        removed
    }

    /// Strips `bits` from `host`'s grant `id` on `fid`; the grant goes
    /// entirely when no bits remain. Returns how many grants went.
    fn downgrade(&mut self, host: HostId, fid: Fid, id: TokenId, bits: TokenTypes) -> u64 {
        self.retain_on(fid, |g| {
            if g.host != host || g.token.id != id {
                return true;
            }
            g.token.types = g.token.types.minus(bits);
            !g.token.types.is_empty()
        })
    }
}

type ShardGuard<'a> = OrderedShardGuard<'a, TokenShard, { rank::TOKEN_SHARD }>;

/// Snapshot of a volume's token state for a live move: every grant
/// with its holding host, plus the per-file serialization counters.
pub type VolumeExport = (Vec<(HostId, Token)>, Vec<(Fid, SerializationStamp)>);

/// The token manager of one file server.
///
/// Grant/stamp state is fid-hash sharded at rank [`rank::TOKEN_SHARD`]
/// (see the module docs for the topology and cross-shard acquisition
/// order); the host registry sits at rank [`rank::TOKEN_MANAGER`].
/// Revocation callbacks run with every manager lock released (§5.1),
/// which the rank enforcer verifies in debug builds.
pub struct TokenManager {
    shards: OrderedShardedMutex<TokenShard, { rank::TOKEN_SHARD }>,
    hosts: OrderedMutex<HashMap<HostId, Arc<dyn TokenHost>>, { rank::TOKEN_MANAGER }>,
    /// Token id allocator; atomic so grants on different shards never
    /// serialize on id allocation.
    next_id: AtomicU64,
    /// How many claims have ended; bumped under this lock, with
    /// `claim_ended` notified, each time a grant drops its claim.
    claims_ended: OrderedMutex<u64, { rank::TOKEN_CLAIMS }>,
    claim_ended: OrderedCondvar,
    stats: TokenCounters,
}

impl Default for TokenManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TokenManager {
    /// Creates an empty token manager with [`DEFAULT_TOKEN_SHARDS`]
    /// shards.
    pub fn new() -> TokenManager {
        Self::with_shards(DEFAULT_TOKEN_SHARDS)
    }

    /// Creates an empty token manager with exactly `n` shards
    /// (`n = 1` reproduces the old single-lock behavior).
    pub fn with_shards(n: usize) -> TokenManager {
        TokenManager {
            shards: OrderedShardedMutex::new(n, TokenShard::default),
            hosts: OrderedMutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            claims_ended: OrderedMutex::new(0),
            claim_ended: OrderedCondvar::new(),
            stats: TokenCounters::default(),
        }
    }

    /// Number of fid-hash shards.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// The shard holding `fid`'s grants and stamps.
    pub fn shard_of(&self, fid: Fid) -> usize {
        shard_index(fid.volume, fid.vnode.0, self.shards.shard_count())
    }

    fn fresh_id(&self) -> TokenId {
        TokenId(self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Locks every shard the conflict check for a token on `fid` must
    /// consult, in ascending index order (the cross-shard discipline
    /// the rank enforcer verifies). File tokens touch at most two
    /// shards — the file's own and the one holding the volume's
    /// whole-volume (vnode-0) grants; volume tokens conflict with every
    /// file of the volume, so they take all shards. Returns the guards
    /// plus the position among them of `fid`'s own shard.
    fn lock_covering(&self, fid: Fid, volume_token: bool) -> (Vec<ShardGuard<'_>>, usize) {
        if volume_token || self.shards.shard_count() == 1 {
            return (self.shards.lock_all(), self.shard_of(fid));
        }
        let s_file = self.shard_of(fid);
        let s_vol = shard_index(fid.volume, 0, self.shards.shard_count());
        if s_file == s_vol {
            (vec![self.shards.lock(s_file)], 0)
        } else {
            let lo = s_file.min(s_vol);
            let hi = s_file.max(s_vol);
            let guards = vec![self.shards.lock(lo), self.shards.lock(hi)];
            (guards, if s_file == lo { 0 } else { 1 })
        }
    }

    /// Registers a host and its revoke procedure (§5.1).
    pub fn register_host(&self, host: Arc<dyn TokenHost>) {
        self.hosts.lock().insert(host.host_id(), host);
    }

    /// Removes a host, dropping all its grants (client death/eviction).
    pub fn unregister_host(&self, host: HostId) {
        self.hosts.lock().remove(&host);
        for i in 0..self.shards.shard_count() {
            let mut shard = self.shards.lock(i);
            for by_vnode in shard.grants.values_mut() {
                by_vnode.retain(|_, grants| {
                    grants.retain(|g| g.host != host);
                    !grants.is_empty()
                });
            }
        }
    }

    /// Issues the next serialization stamp for `fid` (§6.2).
    ///
    /// Every reference to a file — grants, revocations, status reads —
    /// is stamped, and stamps are strictly increasing in serialization
    /// order.
    pub fn stamp(&self, fid: Fid) -> SerializationStamp {
        self.shards.lock(self.shard_of(fid)).next_stamp(fid)
    }

    /// Returns the current (last-issued) stamp for `fid`.
    pub fn current_stamp(&self, fid: Fid) -> SerializationStamp {
        self.shards
            .lock(self.shard_of(fid))
            .stamps
            .get(&fid)
            .copied()
            .unwrap_or_default()
    }

    /// Grants `types` over `range` of `fid` to `host`, revoking
    /// incompatible tokens held by other hosts first.
    ///
    /// A grant that has to revoke first files a *claim* on what it
    /// wants, and a grant for another host that conflicts with the
    /// claim waits until it is gone. Without it a reader that asks
    /// again as soon as its token is revoked is granted anew between
    /// the revocation and the writer's next check, every round, and the
    /// writer runs out of rounds (`Timeout`). Conflicting claims never
    /// coexist and a claimant never waits on a claim, so the waits form
    /// no cycle. Each claim waited for costs the waiter one of its 64
    /// rounds, and a claim lasts only as long as its own grant's rounds,
    /// so every grant is still bounded.
    ///
    /// Returns the new token and the serialization stamp of the grant.
    /// Fails with [`DfsError::LockConflict`]/[`DfsError::OpenConflict`]
    /// if a conflicting host retained a lock/open token (§5.3).
    pub fn grant(
        &self,
        host: HostId,
        fid: Fid,
        types: TokenTypes,
        range: ByteRange,
    ) -> DfsResult<(Token, SerializationStamp)> {
        if fid.volume.0 == 0 {
            return Err(DfsError::InvalidArgument);
        }
        let wanted = Token { id: TokenId(0), fid, types, range };
        let (mut quiet, mut rounds) = (true, 0);
        // This grant's claim once filed, and the other host's claim it
        // last waited for, by their ids: each claim gets a fresh one.
        let (mut claim, mut waited_for): (Option<TokenId>, Option<TokenId>) = (None, None);
        let granted = loop {
            // Conflict-check (and, when clean, grant) under the
            // covering shard locks.
            let conflicts: Vec<(HostId, Token, TokenTypes)> = {
                let (mut guards, fid_pos) = self.lock_covering(fid, wanted.is_volume_token());
                let blocking = guards
                    .iter()
                    .flat_map(|g| &g.claims)
                    .find(|c| c.host != host && !types::compatible(&c.token, &wanted))
                    .map(|c| c.token.id);
                if let Some(blocker) = blocking {
                    // Its claim ends under its shard lock, then bumps
                    // the count: read the count before letting go.
                    let mut ended = self.claims_ended.lock();
                    let seen = *ended;
                    drop(guards);
                    if waited_for != Some(blocker) {
                        // A claim not waited for yet costs a round; a
                        // wake-up for another claim's end does not.
                        rounds += 1;
                        if rounds > 64 {
                            break Err(DfsError::Timeout);
                        }
                        self.stats.claim_waits.add(1);
                        waited_for = Some(blocker);
                    }
                    while *ended == seen {
                        self.claim_ended.wait(&mut ended);
                    }
                    continue;
                }
                let conflicts =
                    Self::conflicting(guards.iter().map(|g| &**g), host, &wanted);
                let shard = &mut *guards[fid_pos];
                if conflicts.is_empty() {
                    // Grant immediately while still holding the shard.
                    let token = Token { id: self.fresh_id(), fid, types, range };
                    shard.insert(host, token.clone());
                    let stamp = shard.next_stamp(fid);
                    drop(guards);
                    self.stats.grants.add(1);
                    if quiet {
                        self.stats.quiet_grants.add(1);
                    }
                    break Ok((token, stamp));
                }
                if claim.is_none() {
                    let id = self.fresh_id();
                    shard.claims.push(Grant { host, token: Token { id, ..wanted.clone() } });
                    claim = Some(id);
                }
                quiet = false;
                conflicts
            };
            rounds += 1;
            if rounds > 64 {
                break Err(DfsError::Timeout);
            }
            // Revoke outside every manager lock: the hosts' revoke
            // procedures may call back into the file server (§6.4).
            // Only the conflicting type bits are revoked.
            if let Err(e) = self.revoke_conflicts(conflicts) {
                break Err(e);
            }
        };
        if let Some(id) = claim {
            let mut shard = self.shards.lock(self.shard_of(fid));
            let mine = shard.claims.iter().position(|c| c.token.id == id);
            shard.claims.remove(mine.expect("a claim stays until its grant drops it"));
            drop(shard);
            *self.claims_ended.lock() += 1;
            self.claim_ended.notify_all();
        }
        granted
    }

    /// Revokes `conflicts` with every manager lock released, batching
    /// all of one host's tokens into a single callback. Returns `Err`
    /// as soon as a host retains a token (lock/open retention refuses
    /// the triggering grant, §5.3); `Ok` means every token was
    /// returned and the caller should re-run its conflict check.
    fn revoke_conflicts(&self, conflicts: Vec<(HostId, Token, TokenTypes)>) -> DfsResult<()> {
        // Resolve host objects and group per host, preserving
        // first-conflict order. Unregistered hosts are skipped: their
        // grants die with them.
        let groups: Vec<RevokeGroup> = {
            let hosts = self.hosts.lock();
            let mut groups: Vec<RevokeGroup> = Vec::new();
            for (host, token, bits) in conflicts {
                let Some(h) = hosts.get(&host) else { continue };
                match groups.iter_mut().find(|(g, _)| g.host_id() == host) {
                    Some((_, items)) => items.push((token, bits)),
                    None => groups.push((h.clone(), vec![(token, bits)])),
                }
            }
            groups
        };
        for (h, tokens) in groups {
            let items: Vec<RevokeItem> = tokens
                .into_iter()
                .map(|(token, types)| {
                    let stamp = self.stamp(token.fid);
                    RevokeItem { token, types, stamp }
                })
                .collect();
            // The batched callback runs with no manager lock held.
            let results = h.revoke_batch(&items);
            self.stats.revocations.add(items.len() as u64);
            for (i, item) in items.iter().enumerate() {
                // A short answer vector counts the tail as returned:
                // the caller re-runs its conflict check anyway, so a
                // token the host silently kept is simply re-revoked.
                let result = results.get(i).copied().unwrap_or(RevokeResult::Returned);
                match result {
                    RevokeResult::Returned => {
                        let Token { fid, id, .. } = item.token;
                        let mut shard = self.shards.lock(self.shard_of(fid));
                        shard.downgrade(h.host_id(), fid, id, item.types);
                    }
                    RevokeResult::Retained => {
                        self.stats.retained.add(1);
                        self.stats.refused.add(1);
                        // Lock/open retention refuses the new request.
                        return Err(if item
                            .types
                            .intersects(TokenTypes::LOCK_READ | TokenTypes::LOCK_WRITE)
                        {
                            DfsError::LockConflict
                        } else {
                            DfsError::OpenConflict
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Refuses a reestablishment claim its caller found dead (on a file
    /// that no longer resolves): counted in `refused`, as a conflicting
    /// claim is.
    pub fn refuse_claim(&self) {
        self.stats.refused.add(1);
    }

    /// Re-grants a token `host` claims to have held before this server
    /// instance started (the crash-recovery reestablish path).
    ///
    /// Unlike [`grant`](Self::grant) this never revokes anyone: the
    /// pre-crash grant set was mutually compatible, so honest surviving
    /// claims cannot conflict with each other. A claim that *does*
    /// conflict with tokens already in the table (another host
    /// reestablished an overlapping guarantee first, or new grants were
    /// issued after the grace window closed) is refused — the caller
    /// falls back to the normal grant path for that file.
    pub fn reestablish(
        &self,
        host: HostId,
        fid: Fid,
        types: TokenTypes,
        range: ByteRange,
    ) -> Option<(Token, SerializationStamp)> {
        if fid.volume.0 == 0 || types.is_empty() {
            return None;
        }
        let wanted = Token { id: TokenId(0), fid, types, range };
        let (mut guards, fid_pos) = self.lock_covering(fid, wanted.is_volume_token());
        if !Self::conflicting(guards.iter().map(|g| &**g), host, &wanted).is_empty() {
            drop(guards);
            self.stats.refused.add(1);
            return None;
        }
        let token = Token { id: self.fresh_id(), fid, types, range };
        let shard = &mut *guards[fid_pos];
        shard.insert(host, token.clone());
        let stamp = shard.next_stamp(fid);
        drop(guards);
        self.stats.grants.add(1);
        self.stats.reestablished.add(1);
        Some((token, stamp))
    }

    /// Scans the locked shard states for grants conflicting with
    /// `wanted`. Each grant lives in exactly one shard, so iterating
    /// the covering shards visits every candidate exactly once.
    fn conflicting<'a>(
        shards: impl Iterator<Item = &'a TokenShard>,
        host: HostId,
        wanted: &Token,
    ) -> Vec<(HostId, Token, TokenTypes)> {
        let mut out = Vec::new();
        for state in shards {
            if let Some(by_vnode) = state.grants.get(&wanted.fid.volume) {
                let candidates: Box<dyn Iterator<Item = &Grant>> = if wanted.is_volume_token() {
                    Box::new(by_vnode.values().flatten())
                } else {
                    let file = by_vnode.get(&wanted.fid.vnode.0).into_iter().flatten();
                    let vol = by_vnode.get(&0).into_iter().flatten();
                    Box::new(file.chain(vol))
                };
                for g in candidates {
                    if g.host == host {
                        continue;
                    }
                    let bits = types::conflict_bits(&g.token, wanted);
                    if !bits.is_empty() {
                        out.push((g.host, g.token.clone(), bits));
                    }
                }
            }
        }
        out
    }

    /// Returns a token voluntarily (client cache eviction, op done),
    /// reached through its fid: one shard, one `(volume, vnode)` list.
    pub fn release_on(&self, host: HostId, fid: Fid, id: TokenId) {
        let all = TokenTypes(u32::MAX);
        let removed = self.shards.lock(self.shard_of(fid)).downgrade(host, fid, id, all);
        self.stats.releases.add(removed);
    }

    /// [`release_on`](Self::release_on) for a caller that knows the
    /// token by id alone: walks the shards for the grant's fid first.
    pub fn release(&self, host: HostId, id: TokenId) {
        let fid = (0..self.shards.shard_count()).find_map(|i| {
            let shard = self.shards.lock(i);
            let lists = shard.grants.values().flat_map(|m| m.values());
            lists.flatten().find(|g| g.host == host && g.token.id == id).map(|g| g.token.fid)
        });
        if let Some(fid) = fid {
            self.release_on(host, fid, id);
        }
    }

    /// Returns all of `host`'s tokens on `fid`.
    pub fn release_fid(&self, host: HostId, fid: Fid) {
        let removed = self.shards.lock(self.shard_of(fid)).retain_on(fid, |g| g.host != host);
        self.stats.releases.add(removed);
    }

    /// Ends the token lifetime of a destroyed file: drops its stamp
    /// counter and every grant on exactly this incarnation — the full
    /// fid, `uniq` included: a racing create may already hold grants on
    /// the reused vnode slot, on the same list. The caller holds the
    /// write tokens a delete takes (§5.4), which revoked every other
    /// host's conflicting token already.
    pub fn retire_fid(&self, fid: Fid) {
        let mut shard = self.shards.lock(self.shard_of(fid));
        let removed = shard.retain_on(fid, |g| g.token.fid != fid);
        shard.stamps.remove(&fid);
        drop(shard);
        self.stats.releases.add(removed);
    }

    /// Snapshots every live grant on `volume` plus the per-file
    /// serialization counters, for shipping to a volume-move target.
    /// Takes every shard (ascending) so the export is one consistent
    /// cut of the volume's coherence state.
    ///
    /// The grants keep their token ids: a live move (§2.1) must leave
    /// the clients' cached tokens valid, and a client matches
    /// revocations by token id, so the target has to keep serving the
    /// exact ids the source issued.
    pub fn export_volume(&self, volume: VolumeId) -> VolumeExport {
        let guards = self.shards.lock_all();
        let mut grants: Vec<(HostId, Token)> = Vec::new();
        let mut stamps: Vec<(Fid, SerializationStamp)> = Vec::new();
        for shard in &guards {
            if let Some(by_vnode) = shard.grants.get(&volume) {
                grants.extend(
                    by_vnode
                        .values()
                        .flatten()
                        .map(|g| (g.host, g.token.clone())),
                );
            }
            stamps.extend(
                shard
                    .stamps
                    .iter()
                    .filter(|(f, _)| f.volume == volume)
                    .map(|(f, s)| (*f, *s)),
            );
        }
        (grants, stamps)
    }

    /// Installs a grant verbatim — same token id, types, and range — at
    /// a volume-move target. `next_id` is raised past the imported id so
    /// future grants can never collide with a shipped token.
    pub fn install_grant(&self, host: HostId, token: Token) {
        self.next_id.fetch_max(token.id.0 + 1, Ordering::SeqCst);
        self.shards.lock(self.shard_of(token.fid)).insert(host, token);
        self.stats.grants.add(1);
        self.stats.imported.add(1);
    }

    /// Raises `fid`'s serialization counter to at least `floor`, so
    /// stamps issued by a move target continue the source's order
    /// (§6.2: clients merge status by stamp and would discard updates
    /// stamped below what they have already seen).
    pub fn raise_stamp_floor(&self, fid: Fid, floor: SerializationStamp) {
        let mut shard = self.shards.lock(self.shard_of(fid));
        let s = shard.stamps.entry(fid).or_default();
        if floor > *s {
            *s = floor;
        }
    }

    /// Drops every grant and stamp counter for `volume` (the source side
    /// of a completed move: the volume is gone, the target now owns the
    /// coherence state).
    pub fn drop_volume(&self, volume: VolumeId) {
        for i in 0..self.shards.shard_count() {
            let mut shard = self.shards.lock(i);
            shard.grants.remove(&volume);
            shard.stamps.retain(|f, _| f.volume != volume);
        }
    }

    /// Lists the tokens currently granted on `fid` (diagnostics).
    pub fn tokens_on(&self, fid: Fid) -> Vec<(HostId, Token)> {
        self.with_grants(fid, |grants| grants.iter().map(|g| (g.host, g.token.clone())).collect())
    }

    /// Lists every grant in the table (diagnostics, leak audits).
    pub fn live_grants(&self) -> Vec<(HostId, Token)> {
        let shards = self.shards.lock_all();
        let lists = shards.iter().flat_map(|s| s.grants.values()).flat_map(|m| m.values());
        lists.flatten().map(|g| (g.host, g.token.clone())).collect()
    }

    /// Runs `f` on the tokens `host` holds on `fid` right now, with the
    /// file's shard locked until `f` returns: no token on the file can
    /// be granted, downgraded or dropped meanwhile. The file server's
    /// store admission rule — a store is let in on a token its sender
    /// already holds, and is never granted one — checks and writes
    /// inside one such call, so a store can never land after its token
    /// has been taken away and handed on. `f` must not call back into
    /// the manager.
    pub fn with_held<R>(&self, host: HostId, fid: Fid, f: impl FnOnce(&[Token]) -> R) -> R {
        self.with_grants(fid, |grants| {
            let held: Vec<Token> =
                grants.iter().filter(|g| g.host == host).map(|g| g.token.clone()).collect();
            f(&held)
        })
    }

    fn with_grants<R>(&self, fid: Fid, f: impl FnOnce(&[Grant]) -> R) -> R {
        let shard = self.shards.lock(self.shard_of(fid));
        f(shard.grants.get(&fid.volume).and_then(|m| m.get(&fid.vnode.0)).map_or(&[], |v| &v[..]))
    }

    /// Lists the remote client hosts currently holding at least one
    /// grant. A restarting server's grace window waits only for these:
    /// a host that held no tokens has nothing to reestablish, and
    /// waiting for it (e.g. an admin caller that only ever created
    /// volumes) would pin the window until lease expiry.
    pub fn token_holders(&self) -> Vec<ClientId> {
        let mut out: Vec<ClientId> = Vec::new();
        for i in 0..self.shards.shard_count() {
            let shard = self.shards.lock(i);
            for by_vnode in shard.grants.values() {
                for grants in by_vnode.values() {
                    for g in grants {
                        if let HostId::Client(c) = g.host {
                            if !out.contains(&c) {
                                out.push(c);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Returns a snapshot of the statistics.
    pub fn stats(&self) -> TokenStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_types::{ClientId, VnodeId};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct RecordingHost {
        id: HostId,
        revoked: Mutex<Vec<Token>>,
        retain: bool,
        calls: AtomicUsize,
    }

    impl RecordingHost {
        fn new(n: u32, retain: bool) -> Arc<RecordingHost> {
            Arc::new(RecordingHost {
                id: HostId::Client(ClientId(n)),
                revoked: Mutex::new(Vec::new()),
                retain,
                calls: AtomicUsize::new(0),
            })
        }
    }

    impl TokenHost for RecordingHost {
        fn host_id(&self) -> HostId {
            self.id
        }
        fn revoke(
            &self,
            token: &Token,
            _types: TokenTypes,
            _stamp: SerializationStamp,
        ) -> RevokeResult {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.revoked.lock().push(token.clone());
            if self.retain {
                RevokeResult::Retained
            } else {
                RevokeResult::Returned
            }
        }
    }

    /// Host that answers batches directly, recording every batch, so
    /// tests can pin "one conflict check → one callback per host" and
    /// per-token answer ordering (including mixed return/retain).
    struct BatchHost {
        id: HostId,
        /// Token ids of each batch, in callback order.
        batches: Mutex<Vec<Vec<TokenId>>>,
        /// Scripted per-call answers (front popped each batch); absent
        /// entries answer `Returned` for the whole batch.
        script: Mutex<Vec<Vec<RevokeResult>>>,
    }

    impl BatchHost {
        fn new(n: u32) -> Arc<BatchHost> {
            Arc::new(BatchHost {
                id: HostId::Client(ClientId(n)),
                batches: Mutex::new(Vec::new()),
                script: Mutex::new(Vec::new()),
            })
        }
        fn total_acks(&self) -> usize {
            self.batches.lock().iter().map(|b| b.len()).sum()
        }
    }

    impl TokenHost for BatchHost {
        fn host_id(&self) -> HostId {
            self.id
        }
        fn revoke(
            &self,
            token: &Token,
            _types: TokenTypes,
            _stamp: SerializationStamp,
        ) -> RevokeResult {
            // Single-token path: treat as a batch of one.
            self.revoke_batch(&[RevokeItem {
                token: token.clone(),
                types: _types,
                stamp: _stamp,
            }])[0]
        }
        fn revoke_batch(&self, items: &[RevokeItem]) -> Vec<RevokeResult> {
            self.batches
                .lock()
                .push(items.iter().map(|i| i.token.id).collect());
            let scripted = self.script.lock().pop();
            match scripted {
                Some(answers) => answers,
                None => vec![RevokeResult::Returned; items.len()],
            }
        }
    }

    fn fid(n: u32) -> Fid {
        Fid::new(VolumeId(1), VnodeId(n), 1)
    }

    #[test]
    fn grant_and_quiet_regrant() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        tm.register_host(h1.clone());
        let (t, s1) = tm
            .grant(h1.id, fid(1), TokenTypes::DATA_READ | TokenTypes::STATUS_READ, ByteRange::WHOLE)
            .unwrap();
        assert!(t.id.0 > 0);
        let (_, s2) = tm.grant(h1.id, fid(1), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        assert!(s2 > s1, "stamps strictly increase per file");
        assert_eq!(tm.stats().revocations, 0);
        assert_eq!(tm.stats().quiet_grants, 2);
    }

    #[test]
    fn conflicting_grant_revokes_other_host() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        tm.grant(h2.id, fid(1), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        assert_eq!(h1.calls.load(Ordering::SeqCst), 1, "h1's write token revoked");
        assert_eq!(tm.tokens_on(fid(1)).len(), 1);
        assert_eq!(tm.stats().revocations, 1);
    }

    /// A reader that asks for its token again, on a thread of its own,
    /// the moment it is revoked — as a client whose reads spin on a file
    /// does — and gives that request a while to land before it answers.
    struct EagerReader {
        id: HostId,
        tm: std::sync::OnceLock<std::sync::Weak<TokenManager>>,
        calls: AtomicUsize,
        /// One thread per request; each ends with whether it was granted.
        asks: Mutex<Vec<std::thread::JoinHandle<bool>>>,
    }

    impl TokenHost for EagerReader {
        fn host_id(&self) -> HostId {
            self.id
        }
        fn revoke(&self, _: &Token, _: TokenTypes, _: SerializationStamp) -> RevokeResult {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let tm = self.tm.get().and_then(|w| w.upgrade()).expect("manager alive");
            let (id, (tx, rx)) = (self.id, std::sync::mpsc::channel());
            self.asks.lock().push(std::thread::spawn(move || {
                let _ = tx.send(());
                tm.grant(id, fid(1), TokenTypes::DATA_READ, ByteRange::WHOLE).is_ok()
            }));
            rx.recv().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            RevokeResult::Returned
        }
    }

    #[test]
    fn a_reader_that_asks_again_at_once_waits_for_the_writers_grant() {
        let tm = Arc::new(TokenManager::new());
        let writer = RecordingHost::new(1, false);
        let reader = Arc::new(EagerReader {
            id: HostId::Client(ClientId(2)),
            tm: std::sync::OnceLock::new(),
            calls: AtomicUsize::new(0),
            asks: Mutex::new(Vec::new()),
        });
        reader.tm.set(Arc::downgrade(&tm)).unwrap();
        tm.register_host(writer.clone());
        tm.register_host(reader.clone());
        tm.grant(reader.id, fid(1), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        // Without the claim the reader is granted again before every
        // re-check, and the writer times out after 64 revocations.
        tm.grant(writer.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        assert_eq!(reader.calls.load(Ordering::SeqCst), 1, "one revocation won the file");
        // The reader's request went through once the writer had its token.
        let asks = std::mem::take(&mut *reader.asks.lock());
        assert_eq!(asks.len(), 1);
        for ask in asks {
            assert!(ask.join().unwrap(), "the reader's request was refused");
        }
        assert_eq!(writer.calls.load(Ordering::SeqCst), 1, "the writer's token revoked in turn");
        let holders: Vec<HostId> = tm.tokens_on(fid(1)).into_iter().map(|(h, _)| h).collect();
        assert_eq!(holders, vec![reader.id]);
        assert_eq!(tm.stats().claim_waits, 1, "the reader waited out the writer's claim once");
    }

    #[test]
    fn same_host_tokens_never_conflict() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        tm.register_host(h1.clone());
        tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        assert_eq!(h1.calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn disjoint_ranges_no_revocation() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(0, 100)).unwrap();
        tm.grant(h2.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(100, 200)).unwrap();
        assert_eq!(h1.calls.load(Ordering::SeqCst), 0, "byte ranges partition the file");
    }

    #[test]
    fn retained_open_token_refuses_grant() {
        let tm = TokenManager::new();
        let holder = RecordingHost::new(1, true);
        let wanter = RecordingHost::new(2, false);
        tm.register_host(holder.clone());
        tm.register_host(wanter.clone());
        tm.grant(holder.id, fid(1), TokenTypes::OPEN_EXECUTE, ByteRange::WHOLE).unwrap();
        let err = tm
            .grant(wanter.id, fid(1), TokenTypes::OPEN_WRITE, ByteRange::WHOLE)
            .unwrap_err();
        assert_eq!(err, DfsError::OpenConflict, "ETXTBSY via open tokens");
        assert_eq!(tm.stats().refused, 1);
    }

    #[test]
    fn retained_lock_token_refuses_with_lock_conflict() {
        let tm = TokenManager::new();
        let holder = RecordingHost::new(1, true);
        let wanter = RecordingHost::new(2, false);
        tm.register_host(holder.clone());
        tm.register_host(wanter.clone());
        tm.grant(holder.id, fid(1), TokenTypes::LOCK_WRITE, ByteRange::new(0, 10)).unwrap();
        let err = tm
            .grant(wanter.id, fid(1), TokenTypes::LOCK_WRITE, ByteRange::new(0, 10))
            .unwrap_err();
        assert_eq!(err, DfsError::LockConflict);
    }

    #[test]
    fn release_allows_later_grants_quietly() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        let (t, _) = tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        tm.release(h1.id, t.id);
        tm.grant(h2.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        assert_eq!(h1.calls.load(Ordering::SeqCst), 0, "released token needs no revoke");
    }

    /// `(volume, vnode)` lists the table holds, empty ones included.
    fn lists(tm: &TokenManager) -> usize {
        let all = tm.shards.lock_all();
        all.iter().map(|s| s.grants.values().map(|by_vnode| by_vnode.len()).sum::<usize>()).sum()
    }

    #[test]
    fn releases_count_grants_removed_not_calls() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        tm.register_host(h1.clone());
        let (t, _) = tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        tm.release(h1.id, t.id);
        // A double return, by either entry, and a return of nothing at
        // all remove nothing: counting them would hide a leak of as many
        // grants in `grants - releases - revocations`.
        tm.release(h1.id, t.id);
        tm.release_on(h1.id, fid(1), t.id);
        tm.release_fid(h1.id, fid(1));
        tm.retire_fid(fid(1));
        assert_eq!(tm.stats().releases, 1);
        assert_eq!((tm.live_grants().len(), lists(&tm)), (0, 0), "no empty list left behind");
    }

    #[test]
    fn every_way_back_leaves_the_same_table() {
        // The same grant returned by fid, returned by id alone, and
        // revoked: three tables, one content.
        let tables: Vec<_> = (0..3)
            .map(|way| {
                let tm = TokenManager::new();
                let h1 = RecordingHost::new(1, false);
                let h2 = RecordingHost::new(2, false);
                tm.register_host(h1.clone());
                tm.register_host(h2.clone());
                let write = TokenTypes::DATA_WRITE;
                let (t, _) = tm.grant(h1.id, fid(1), write, ByteRange::new(0, 10)).unwrap();
                tm.grant(h1.id, fid(1), write, ByteRange::new(10, 20)).unwrap();
                tm.grant(h1.id, fid(2), write, ByteRange::WHOLE).unwrap();
                match way {
                    0 => tm.release_on(h1.id, fid(1), t.id),
                    1 => tm.release(h1.id, t.id),
                    _ => {
                        let (rival, _) = tm.grant(h2.id, fid(1), write, t.range).unwrap();
                        assert_eq!(h1.calls.load(Ordering::SeqCst), 1, "revoked, and returned");
                        tm.release_on(h2.id, fid(1), rival.id);
                    }
                }
                let mut left = tm.live_grants();
                left.sort_by_key(|(_, t)| t.id);
                (left, lists(&tm))
            })
            .collect();
        assert_eq!(tables[0].0.len(), 2);
        assert!(tables.iter().all(|t| *t == tables[0]), "{tables:?}");
    }

    #[test]
    fn retire_drops_the_dead_incarnation_and_nothing_else() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        let dead = Fid::new(VolumeId(1), VnodeId(5), 1);
        // The physical file system reuses a vnode slot at once: a racing
        // create may hold grants on the next incarnation, on the same
        // list, before the remove has retired the last one.
        let reborn = Fid::new(VolumeId(1), VnodeId(5), 2);
        let reads = TokenTypes::STATUS_READ | TokenTypes::DATA_READ;
        tm.grant(h1.id, dead, reads, ByteRange::WHOLE).unwrap();
        tm.grant(h2.id, dead, TokenTypes::LOCK_READ, ByteRange::new(0, 10)).unwrap();
        let (kept, _) = tm.grant(h2.id, reborn, reads, ByteRange::WHOLE).unwrap();
        tm.grant(h1.id, fid(6), reads, ByteRange::WHOLE).unwrap();
        assert!(tm.current_stamp(dead) > SerializationStamp::default());
        let reborn_stamp = tm.current_stamp(reborn);

        tm.retire_fid(dead);
        let on_slot: Vec<TokenId> = tm.tokens_on(dead).iter().map(|(_, t)| t.id).collect();
        assert_eq!(on_slot, [kept.id], "only the next incarnation's grant is on the list");
        assert_eq!(tm.live_grants().len(), 2);
        assert_eq!(tm.current_stamp(dead), SerializationStamp::default(), "stamp counter gone");
        assert_eq!(tm.current_stamp(reborn), reborn_stamp);
        assert_eq!(tm.stats().releases, 2, "both hosts' grants counted, once");
        assert_eq!((h1.calls.load(Ordering::SeqCst), h2.calls.load(Ordering::SeqCst)), (0, 0));
    }

    #[test]
    fn unregister_drops_grants() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        tm.unregister_host(h1.id);
        tm.grant(h2.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        assert_eq!(h1.calls.load(Ordering::SeqCst), 0, "dead host is not called");
    }

    #[test]
    fn with_held_keeps_the_files_grants_still() {
        let tm = Arc::new(TokenManager::new());
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(0, 10)).unwrap();
        tm.grant(h2.id, fid(1), TokenTypes::DATA_READ, ByteRange::new(10, 20)).unwrap();
        tm.grant(h1.id, fid(2), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        // The caller's tokens on this file, nobody else's, no other file's.
        let seen = tm.with_held(h1.id, fid(1), |held| held.to_vec());
        assert_eq!(seen.len(), 1);
        assert_eq!((seen[0].fid, seen[0].range), (fid(1), ByteRange::new(0, 10)));
        // While the call runs nothing on the file moves: a conflicting
        // grant — which would take h1's token away — waits it out.
        let done = Arc::new(AtomicUsize::new(0));
        let (tm2, h2id, done2) = (tm.clone(), h2.id, done.clone());
        let rival = tm.with_held(h1.id, fid(1), |held| {
            let rival = std::thread::spawn(move || {
                tm2.grant(h2id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(0, 10)).unwrap();
                done2.store(1, Ordering::SeqCst);
            });
            for _ in 0..1000 {
                std::thread::yield_now();
            }
            assert_eq!(done.load(Ordering::SeqCst), 0, "granted under a held shard");
            assert_eq!(held.len(), 1);
            rival
        });
        rival.join().unwrap();
        assert_eq!(h1.calls.load(Ordering::SeqCst), 1, "revoked once the call was over");
        assert!(tm.with_held(h1.id, fid(1), |held| held.is_empty()));
    }

    #[test]
    fn volume_token_revoked_by_file_write() {
        let tm = TokenManager::new();
        let repl = RecordingHost::new(9, false);
        let writer = RecordingHost::new(2, false);
        tm.register_host(repl.clone());
        tm.register_host(writer.clone());
        // Whole-volume token, as the replication server requests (§3.8).
        let vol_fid = Fid::new(VolumeId(1), VnodeId(0), 0);
        tm.grant(repl.id, vol_fid, TokenTypes::DATA_READ | TokenTypes::STATUS_READ, ByteRange::WHOLE)
            .unwrap();
        tm.grant(writer.id, fid(3), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        assert_eq!(repl.calls.load(Ordering::SeqCst), 1, "volume token revoked");
    }

    #[test]
    fn stamps_are_per_file() {
        let tm = TokenManager::new();
        let s1 = tm.stamp(fid(1));
        let s2 = tm.stamp(fid(2));
        let s3 = tm.stamp(fid(1));
        assert_eq!(s1, SerializationStamp(1));
        assert_eq!(s2, SerializationStamp(1), "counters are per file");
        assert_eq!(s3, SerializationStamp(2));
        assert_eq!(tm.current_stamp(fid(1)), SerializationStamp(2));
    }

    #[test]
    fn reestablish_regrants_without_revocation() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        // Two disjoint pre-crash write claims both survive a restart.
        let (t1, _) = tm
            .reestablish(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(0, 100))
            .unwrap();
        let (t2, _) = tm
            .reestablish(h2.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(100, 200))
            .unwrap();
        assert_ne!(t1.id, t2.id, "fresh token ids");
        assert_eq!(h1.calls.load(Ordering::SeqCst), 0, "reestablish never revokes");
        assert_eq!(h2.calls.load(Ordering::SeqCst), 0);
        assert_eq!(tm.stats().reestablished, 2);
        assert_eq!(tm.tokens_on(fid(1)).len(), 2);
    }

    #[test]
    fn reestablish_conflicting_claim_refused() {
        let tm = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        tm.reestablish(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        // An overlapping claim (inconsistent with the first) is dropped
        // rather than revoking the grant that got in first.
        assert!(tm
            .reestablish(h2.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE)
            .is_none());
        assert_eq!(h1.calls.load(Ordering::SeqCst), 0);
        assert_eq!(tm.stats().refused, 1);
        assert_eq!(tm.tokens_on(fid(1)).len(), 1);
    }

    #[test]
    fn export_install_preserves_ids_and_stamp_order() {
        let src = TokenManager::new();
        let dst = TokenManager::new();
        let h1 = RecordingHost::new(1, false);
        src.register_host(h1.clone());
        dst.register_host(h1.clone());
        let (t, s) = src.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        // Ship the volume's coherence state to `dst`, as a live move does.
        let (grants, stamps) = src.export_volume(VolumeId(1));
        assert_eq!(grants.len(), 1);
        for (host, token) in grants {
            dst.install_grant(host, token);
        }
        for (f, floor) in stamps {
            dst.raise_stamp_floor(f, floor);
        }
        src.drop_volume(VolumeId(1));
        assert!(src.tokens_on(fid(1)).is_empty());
        // Same id at the target, and stamps continue past the floor.
        let at_dst = dst.tokens_on(fid(1));
        assert_eq!(at_dst.len(), 1);
        assert_eq!(at_dst[0].1.id, t.id);
        assert!(dst.stamp(fid(1)) > s, "stamps stay monotone across the move");
        // Fresh grants at the target never reuse a shipped id.
        let (t2, _) = dst.grant(h1.id, fid(2), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        assert!(t2.id.0 > t.id.0);
        assert_eq!(dst.stats().imported, 1);
    }

    #[test]
    fn concurrent_grants_do_not_deadlock() {
        let tm = Arc::new(TokenManager::new());
        let hosts: Vec<_> = (0..4).map(|i| RecordingHost::new(i, false)).collect();
        for h in &hosts {
            tm.register_host(h.clone());
        }
        let threads: Vec<_> = hosts
            .iter()
            .map(|h| {
                let tm = tm.clone();
                let id = h.id;
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        let _ = tm.grant(
                            id,
                            fid(i % 3),
                            TokenTypes::DATA_WRITE,
                            ByteRange::WHOLE,
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(tm.stats().grants >= 100);
    }

    #[test]
    fn one_conflict_check_batches_same_host_revocations() {
        let tm = TokenManager::with_shards(4);
        let holder = BatchHost::new(1);
        let wanter = RecordingHost::new(2, false);
        tm.register_host(holder.clone());
        tm.register_host(wanter.clone());
        // Two disjoint write grants to the same host on one file; a
        // whole-file reader conflicts with both at once.
        let (t1, _) = tm.grant(holder.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(0, 100)).unwrap();
        let (t2, _) = tm.grant(holder.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(100, 200)).unwrap();
        tm.grant(wanter.id, fid(1), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        let batches = holder.batches.lock().clone();
        assert_eq!(batches.len(), 1, "one callback for one conflict check");
        assert_eq!(batches[0], vec![t1.id, t2.id], "both tokens in the batch, in order");
        assert_eq!(tm.stats().revocations, 2, "revocations count per token");
        assert_eq!(holder.total_acks(), 2, "every token acked exactly once");
    }

    #[test]
    fn batched_revoke_acks_every_token_once_with_mixed_results() {
        let tm = TokenManager::with_shards(4);
        let holder = BatchHost::new(1);
        let wanter = RecordingHost::new(2, false);
        tm.register_host(holder.clone());
        tm.register_host(wanter.clone());
        // Two execute opens (same host, so mutually compatible); both
        // conflict with a foreign open-for-write (ETXTBSY).
        let (t1, _) = tm.grant(holder.id, fid(1), TokenTypes::OPEN_EXECUTE, ByteRange::new(0, 10)).unwrap();
        let (t2, _) = tm.grant(holder.id, fid(1), TokenTypes::OPEN_EXECUTE, ByteRange::new(10, 20)).unwrap();
        // First token returned, second retained: the grant must fail
        // (open retention) yet both answers must be consumed exactly
        // once and the returned token really downgraded.
        holder
            .script
            .lock()
            .push(vec![RevokeResult::Returned, RevokeResult::Retained]);
        let err = tm
            .grant(wanter.id, fid(1), TokenTypes::OPEN_WRITE, ByteRange::WHOLE)
            .unwrap_err();
        assert_eq!(err, DfsError::OpenConflict);
        let batches = holder.batches.lock().clone();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0], vec![t1.id, t2.id]);
        assert_eq!(holder.total_acks(), 2, "mixed results still ack each token once");
        let left: Vec<TokenId> = tm.tokens_on(fid(1)).iter().map(|(_, t)| t.id).collect();
        assert!(!left.contains(&t1.id), "returned token downgraded away");
        assert!(left.contains(&t2.id), "retained token survives");
        assert_eq!(tm.stats().retained, 1);
        assert_eq!(tm.stats().refused, 1);
    }

    #[test]
    fn batch_items_carry_fresh_per_file_stamps() {
        let tm = TokenManager::with_shards(4);
        let holder = RecordingHost::new(1, false);
        let wanter = RecordingHost::new(2, false);
        tm.register_host(holder.clone());
        tm.register_host(wanter.clone());
        tm.grant(holder.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        let before = tm.current_stamp(fid(1));
        tm.grant(wanter.id, fid(1), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        // Revocation stamp, then the grant's own stamp: two advances.
        assert!(tm.current_stamp(fid(1)) > before.next(), "revoke and grant each stamped");
    }

    #[test]
    fn short_batch_answer_counts_as_returned() {
        let tm = TokenManager::with_shards(2);
        let holder = BatchHost::new(1);
        let wanter = RecordingHost::new(2, false);
        tm.register_host(holder.clone());
        tm.register_host(wanter.clone());
        let (t1, _) = tm.grant(holder.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(0, 100)).unwrap();
        tm.grant(holder.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::new(100, 200)).unwrap();
        // Host answers only the first token; the manager treats the
        // missing tail as returned and the retry round cleans it up.
        holder.script.lock().push(vec![RevokeResult::Returned]);
        tm.grant(wanter.id, fid(1), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        let left: Vec<TokenId> = tm.tokens_on(fid(1)).iter().map(|(_, t)| t.id).collect();
        assert!(!left.contains(&t1.id));
        assert!(tm.stats().grants >= 3);
    }

    #[test]
    fn whole_volume_grant_spans_all_shards() {
        let tm = TokenManager::with_shards(4);
        let readers: Vec<_> = (1..=8).map(|i| RecordingHost::new(i, false)).collect();
        let repl = RecordingHost::new(99, false);
        for h in &readers {
            tm.register_host(h.clone());
        }
        tm.register_host(repl.clone());
        // Writers on 8 distinct vnodes land in several shards.
        let mut shards_hit = std::collections::HashSet::new();
        for (i, h) in readers.iter().enumerate() {
            let f = fid(i as u32 + 1);
            shards_hit.insert(tm.shard_of(f));
            tm.grant(h.id, f, TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        }
        assert!(shards_hit.len() > 1, "test needs fids spread over shards");
        // A whole-volume read token must see and revoke every one.
        let vol_fid = Fid::new(VolumeId(1), VnodeId(0), 0);
        tm.grant(repl.id, vol_fid, TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        let revoked: usize = readers.iter().map(|h| h.calls.load(Ordering::SeqCst)).sum();
        assert_eq!(revoked, 8, "every shard's conflicting grant revoked");
        assert_eq!(tm.tokens_on(vol_fid).len(), 1);
    }

    #[test]
    fn shard_count_one_matches_old_single_lock_layout() {
        let tm = TokenManager::with_shards(1);
        assert_eq!(tm.shard_count(), 1);
        let h1 = RecordingHost::new(1, false);
        let h2 = RecordingHost::new(2, false);
        tm.register_host(h1.clone());
        tm.register_host(h2.clone());
        for i in 0..16 {
            assert_eq!(tm.shard_of(fid(i)), 0, "everything in the single shard");
        }
        tm.grant(h1.id, fid(1), TokenTypes::DATA_WRITE, ByteRange::WHOLE).unwrap();
        tm.grant(h2.id, fid(1), TokenTypes::DATA_READ, ByteRange::WHOLE).unwrap();
        assert_eq!(h1.calls.load(Ordering::SeqCst), 1);
        assert_eq!(tm.stats().revocations, 1);
    }

    #[test]
    fn cross_shard_concurrent_grants_do_not_deadlock() {
        let tm = Arc::new(TokenManager::with_shards(4));
        let hosts: Vec<_> = (0..4).map(|i| RecordingHost::new(i, false)).collect();
        for h in &hosts {
            tm.register_host(h.clone());
        }
        let vol_fid = Fid::new(VolumeId(1), VnodeId(0), 0);
        let threads: Vec<_> = hosts
            .iter()
            .enumerate()
            .map(|(n, h)| {
                let tm = tm.clone();
                let id = h.id;
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        // Mix file grants (1–2 shards) with volume
                        // grants (all shards) to exercise the ascending
                        // acquisition order under contention.
                        if n == 0 && i % 10 == 0 {
                            let _ = tm.grant(id, vol_fid, TokenTypes::DATA_READ, ByteRange::WHOLE);
                        } else {
                            let _ = tm.grant(id, fid(i % 7 + 1), TokenTypes::DATA_WRITE, ByteRange::WHOLE);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(tm.stats().grants >= 100);
    }
}
