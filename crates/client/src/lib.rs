//! The DEcorum client cache manager (§4, §6).
//!
//! A [`CacheManager`] implements the four layers of Figure 2:
//!
//! * **resource layer** (§4.1): authenticated connections (tickets from
//!   the KDC) and a volume-location cache over the VLDB, with
//!   re-lookup on `NoSuchVolume` so volume moves are transparent;
//! * **cache layer** (§4.2): status and data caching guarded by typed
//!   tokens; the data store is pluggable ([`DiskCache`] or the diskless
//!   [`MemCache`]);
//! * **directory layer** (§4.3): cached results of individual lookups,
//!   valid while the directory's status/data tokens are held;
//! * **vnode layer** (§4.4): the file-system API.
//!
//! Deadlock avoidance follows §6 exactly: each cached vnode carries
//! **two locks** — a high-level lock held for the duration of a client
//! operation, and a low-level lock that is *released across RPCs* and
//! re-taken to merge results. Revocations from the server take only the
//! low-level lock. Server responses and revocations are merged in
//! serialization-stamp order (§6.2–6.4): newer status always wins and
//! old status is never written over new. Revocations for tokens not yet
//! known (the race of §6.3) are queued and processed when the in-flight
//! RPC completes.
//!
//! The write-behind pipeline — the dirty set, the flusher, and the one
//! gate every store-back passes — is the `writeback` module.

pub mod cache;
mod writeback;

pub use cache::{DataCache, DiskCache, MemCache, PAGE_SIZE};
pub use writeback::{WritebackConfig, STORE_EXTENT_PAGES};

use dfs_rpc::{
    Addr, CallClass, CallContext, Network, PoolConfig, Request, Response, RpcService, Ticket,
    TokenRequest,
};
use dfs_server::VldbHandle;
use dfs_token::{tokens_cover, Token, TokenTypes};
use dfs_types::lock::{rank, OrderedCondvar, OrderedMutex, OrderedMutexGuard};
use dfs_types::{
    Acl, ByteRange, ClientId, DfsError, DfsResult, FileStatus, FileType, Fid, SerializationStamp,
    ServerId, VolumeId,
};
use dfs_vfs::{DirEntry, SetAttrs};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Weak};
use writeback::Store;
use std::time::Duration;

/// Pages fetched per miss (read-ahead granularity).
const FETCH_PAGES: u64 = 16;

/// Rounds the retry ladder spends (across redirects, busy waits, grace
/// waits and transport retries) before giving up with an honest
/// `Unavailable`; at the 2 ms backoff cap a give-up costs at most
/// 100 ms.
const RPC_RETRY_BUDGET: u32 = 50;

/// What a writer asks for in one combined grant, so nearby reads and
/// writes stay local; typed partial revocation means a later status
/// conflict will not take the byte-range data bits with it (§5.2, §5.4).
const WRITE_GRANT: TokenTypes = TokenTypes(
    TokenTypes::DATA_WRITE.0
        | TokenTypes::STATUS_WRITE.0
        | TokenTypes::DATA_READ.0
        | TokenTypes::STATUS_READ.0,
);

/// Any reply whose shape does not fit the request that was sent.
const BAD_REPLY: DfsError = DfsError::Internal("bad response");

thread_local! {
    /// The client whose crash-recovery pipeline this thread is running,
    /// so epoch observations made by recovery's own RPCs do not recurse
    /// into it. Keyed by client, not just set: an RPC runs the callee on
    /// the caller's thread, so another client's revocation handler may
    /// run here, further down the stack, while ours recovers.
    static IN_RECOVERY: std::cell::Cell<Option<ClientId>> = const { std::cell::Cell::new(None) };
}

/// Marks this thread as running one client's recovery; dropping it puts
/// back whoever was recovering here before.
struct Recovering(Option<ClientId>);

impl Recovering {
    fn enter(id: ClientId) -> Recovering {
        Recovering(IN_RECOVERY.replace(Some(id)))
    }
}

impl Drop for Recovering {
    fn drop(&mut self) {
        IN_RECOVERY.set(self.0);
    }
}

/// An open mode, mapped onto the open-token subtypes of Figure 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpenMode {
    /// Normal reading.
    Read,
    /// Normal writing.
    Write,
    /// Executing (excludes writers — ETXTBSY).
    Execute,
    /// Shared reading (excludes writers).
    SharedRead,
    /// Exclusive writing (excludes everyone).
    ExclusiveWrite,
}

impl OpenMode {
    fn token(self) -> TokenTypes {
        match self {
            OpenMode::Read => TokenTypes::OPEN_READ,
            OpenMode::Write => TokenTypes::OPEN_WRITE,
            OpenMode::Execute => TokenTypes::OPEN_EXECUTE,
            OpenMode::SharedRead => TokenTypes::OPEN_SHARED_READ,
            OpenMode::ExclusiveWrite => TokenTypes::OPEN_EXCLUSIVE_WRITE,
        }
    }
}

dfs_types::counters! {
    /// Client-side statistics.
    pub struct ClientStats live ClientCounters {
        /// Reads served entirely from the cache under a data token.
        pub local_reads: u64,
        /// Always 0: the lock-free read path it counted was measured not
        /// to pay and deleted. The field stays because `benchmark/` reads
        /// it for `client.lockfree_read_share`.
        pub lockfree_reads: u64,
        /// Reads that needed a FetchData RPC.
        pub remote_reads: u64,
        /// Writes absorbed locally under a write token (no RPC at all).
        pub local_writes: u64,
        /// Writes that needed a token-acquisition RPC first.
        pub write_token_fetches: u64,
        /// Lookups served from the directory-layer cache.
        pub lookup_hits: u64,
        /// Lookups that went to the server.
        pub lookup_misses: u64,
        /// Revocations received.
        pub revocations: u64,
        /// Revocations answered "retained" (held locks/opens).
        pub retained: u64,
        /// Revocations queued for a not-yet-known token (§6.3 race).
        pub queued_revocations: u64,
        /// Dirty pages stored back from revocation handlers.
        pub revocation_stores: u64,
        /// Revocations whose store-back failed: the token went back anyway
        /// (the server is waiting on the handler), and what the revoked
        /// bits had let us dirty was lost with it.
        pub revocation_store_failures: u64,
        /// Status merges ignored because the stamp was stale (§6.3).
        pub stale_status_dropped: u64,
        /// Retries while a volume was busy moving.
        pub busy_retries: u64,
        /// Token-contention backoff rounds slept in `read`/`write`.
        pub backoff_rounds: u64,
        /// Store-back RPCs sent (`StoreDataVec`).
        pub storeback_rpcs: u64,
        /// Extents carried by those RPCs.
        pub storeback_extents: u64,
        /// Pages carried by those RPCs.
        pub storeback_pages: u64,
        /// Background-flusher passes that found dirty data.
        pub flusher_passes: u64,
        /// Writes that flushed synchronously because the dirty-page budget
        /// was exceeded twice over (backpressure).
        pub backpressure_flushes: u64,
        /// Transport-level retries: the server was crashed, unreachable or
        /// timed out and the RPC was re-sent after a backoff.
        pub transport_retries: u64,
        /// RPCs refused with `GraceWait` (server in its post-restart grace
        /// window) and retried.
        pub grace_waits: u64,
        /// Recovery passes run after observing a server epoch change.
        pub recoveries: u64,
        /// Tokens re-granted through `ReestablishTokens` during recovery.
        pub tokens_reestablished: u64,
        /// Dirty write-behind pages replayed by the recovery pipeline.
        pub recovery_replayed_pages: u64,
        /// `WrongServer` redirects followed after a volume moved (§2.1).
        pub wrong_server_redirects: u64,
        /// RPCs abandoned with `Unavailable` after the retry budget was
        /// exhausted.
        pub unavailable_giveups: u64,
        /// Read-class RPCs answered by a §3.8 read-only replica while the
        /// volume's primary was unreachable.
        pub replica_failovers: u64,
        /// Reads served with bounded-stale replica data (never cached as
        /// token-backed state).
        pub stale_reads: u64,
        max {
            /// Largest staleness bound (µs) stamped on any replica-served
            /// response observed by this client.
            pub max_stale_us: u64,
        }
    }
}

#[derive(Clone, Debug)]
struct HeldLock {
    range: ByteRange,
    write: bool,
    local: bool,
}

/// Low-level (per-vnode) state, guarded by the vnode's low lock.
#[derive(Default)]
struct VnState {
    status: Option<FileStatus>,
    /// Highest serialization stamp merged so far (§6.2).
    stamp: SerializationStamp,
    tokens: Vec<Token>,
    /// Pages present in the data cache and covered by a token.
    valid: BTreeSet<u64>,
    /// Pages modified locally and not yet stored back, each tagged with
    /// the `write_seq` of its last local write. A store snapshots
    /// (page, seq) pairs and on its reply cleans a page only if its seq
    /// is unchanged — a page re-dirtied mid-flight stays dirty (no lost
    /// update).
    dirty: BTreeMap<u64, u64>,
    /// The store slot (DESIGN.md §9): set while a store of this vnode
    /// is on the wire. Taken before the snapshot, released after the
    /// reply is merged; waiters sleep on [`CVnode::store_cv`].
    storing: bool,
    /// Revocation handlers waiting for the slot. While there is one, no
    /// store but a handler's takes it: a handler waits for at most the
    /// one store already out, not for every batch a flusher pass has
    /// left to send.
    revoking: u32,
    /// Monotone counter stamped onto dirty pages, bumped per write.
    write_seq: u64,
    /// Directory layer: name → status of individual lookups (§4.3).
    names: HashMap<String, FileStatus>,
    /// Cached full listing.
    listing: Option<Vec<DirEntry>>,
    /// Revocations that arrived for tokens we do not know yet (§6.3).
    queued: Vec<(Token, TokenTypes, SerializationStamp)>,
    /// Number of client-initiated RPCs in flight for this vnode.
    in_flight: u32,
    /// True when the cached status was updated locally under a
    /// status-write token and not yet pushed back.
    status_dirty: bool,
    /// Local byte-range locks (token-backed or server-backed).
    locks: Vec<HeldLock>,
    /// Open modes currently held.
    opens: Vec<TokenTypes>,
}

impl VnState {
    fn find_token(&self, types: TokenTypes, range: &ByteRange) -> Option<&Token> {
        self.tokens
            .iter()
            .find(|t| t.types.contains(types) && t.range.contains_range(range))
    }

    /// Returns true if the union of held tokens carrying any of `types`
    /// covers every byte of `range`.
    fn covered(&self, types: TokenTypes, range: &ByteRange) -> bool {
        tokens_cover(&self.tokens, types, range)
    }

    fn has_types(&self, types: TokenTypes) -> bool {
        self.tokens.iter().any(|t| t.types.contains(types))
    }

    fn merge_status(&mut self, status: FileStatus, stamp: SerializationStamp) -> bool {
        if stamp > self.stamp || self.status.is_none() {
            self.stamp = self.stamp.max(stamp);
            self.status = Some(status);
            true
        } else {
            false
        }
    }

    /// The cached status, if a token carrying a status guarantee (read
    /// or write) vouches for it — the condition under which it may be
    /// believed.
    fn trusted_status(&self) -> Option<&FileStatus> {
        let vouches = TokenTypes::STATUS_READ | TokenTypes::STATUS_WRITE;
        self.status.as_ref().filter(|_| self.tokens.iter().any(|t| t.types.intersects(vouches)))
    }

    /// The one cache-hit test (§5.2): serves `len` bytes at `offset` from
    /// the data cache when a status token vouches for the length, data
    /// tokens cover the range, and every page is marked valid and still
    /// present. `None` is a miss. `valid` is only ever set after a
    /// `write_page`, so a valid page the cache no longer holds was
    /// evicted: a miss, never a hole to zero-fill.
    fn cached_read(
        &self,
        data: &dyn DataCache,
        fid: Fid,
        offset: u64,
        len: usize,
    ) -> Option<Vec<u8>> {
        let end = self.trusted_status()?.length.min(offset + len as u64);
        if offset >= end {
            return Some(Vec::new());
        }
        let readable = TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::DATA_WRITE.0);
        if !self.covered(readable, &ByteRange::new(offset, end)) {
            return None;
        }
        let first = offset / PAGE_SIZE as u64;
        let last = (end - 1) / PAGE_SIZE as u64;
        if !(first..=last).all(|p| self.valid.contains(&p)) {
            return None;
        }
        let mut out = Vec::with_capacity((end - offset) as usize);
        for p in first..=last {
            let ps = p * PAGE_SIZE as u64;
            let s = offset.max(ps) - ps;
            let e = (end - ps).min(PAGE_SIZE as u64);
            if !data.read_into(fid, p, s as usize, e as usize, &mut out) {
                return None;
            }
        }
        Some(out)
    }

    fn dir_trusted(&self) -> bool {
        self.has_types(TokenTypes::STATUS_READ | TokenTypes::DATA_READ)
    }

    /// Forgets the directory layer's cached lookups and listing.
    fn forget_names(&mut self) {
        self.names.clear();
        self.listing = None;
    }
}

#[derive(Default)]
struct CVnode {
    fid: Fid,
    /// High-level lock: serializes client operations on the file (§6.1).
    /// Held across RPCs *by design*: revocation handlers only ever take
    /// `lo`, so a server calling back into us can never need `hi`.
    // dfs-lint: allow(guard-across-rpc)
    hi: OrderedMutex<(), { rank::CLIENT_VNODE_HI }>,
    /// Low-level lock: guards the cached state; released across RPCs.
    /// Acquired through [`CVnode::lock_lo`], whose guard carries the
    /// §6.1 step ([`LoGuard::unlocked`]).
    lo: OrderedMutex<VnState, { rank::CLIENT_VNODE_LO }>,
    /// Wakes those waiting for the store slot ([`VnState::storing`]).
    store_cv: OrderedCondvar,
}

impl CVnode {
    /// Acquires the low-level lock behind the guard that can let it go
    /// for the span of an RPC or a condvar wait and take it back.
    fn lock_lo(&self) -> LoGuard<'_> {
        LoGuard { inner: Some(self.lo.lock()), vn: self }
    }
}

/// Guard for [`CVnode::lo`]. It exists for the two ways `lo` is let go
/// and re-taken inside one operation — [`unlocked`] (across an RPC,
/// §6.1) and [`wait`] (on the store slot) — so that each is written
/// once and dfs-lint can follow the guard through `&mut` loans.
///
/// [`wait`]: LoGuard::wait
/// [`unlocked`]: LoGuard::unlocked
struct LoGuard<'a> {
    /// `None` only inside [`LoGuard::unlocked`].
    inner: Option<OrderedMutexGuard<'a, VnState, { rank::CLIENT_VNODE_LO }>>,
    vn: &'a CVnode,
}

impl LoGuard<'_> {
    /// Sleeps on `cv` with `lo` released; holds it again on return.
    fn wait(&mut self, cv: &OrderedCondvar) {
        cv.wait(self.inner.as_mut().expect("lo held"));
    }

    /// The client half of §6.1, written once (contract in DESIGN.md
    /// §10): runs `f` — an RPC about this vnode — with `lo` released,
    /// because the server may revoke one of our tokens before it
    /// answers and revocation handlers take `lo`. The call is counted
    /// in `in_flight` for its whole span: `in_flight > 0` tells such a
    /// handler that a token it does not know may be riding on a reply
    /// still in the air (§6.3), so it queues the revocation instead of
    /// dropping it. No path out of here leaves the count raised; the
    /// caller merges the reply and drains the queue
    /// ([`CacheManager::absorb`]) before it lets the guard go.
    fn unlocked<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.in_flight += 1;
        self.inner = None;
        let out = f();
        self.inner = Some(self.vn.lo.lock());
        self.in_flight -= 1;
        out
    }
}

impl std::ops::Deref for LoGuard<'_> {
    type Target = VnState;
    fn deref(&self) -> &VnState {
        self.inner.as_ref().expect("lo held")
    }
}

impl std::ops::DerefMut for LoGuard<'_> {
    fn deref_mut(&mut self) -> &mut VnState {
        self.inner.as_mut().expect("lo held")
    }
}

/// What the retry ladder ([`CacheManager::ladder`]) does with one
/// attempt's outcome (table in DESIGN.md §10). `Done` hands the outcome
/// to the caller; `Moved` retries at once; the rest back off first.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// A reply, or an error no retry cures.
    Done,
    /// The volume moved (§2.1): a live hint costs one extra hop.
    Moved { hint: ServerId, generation: u64 },
    /// The server does not know the volume: the cached location is
    /// stale, ask the VLDB again.
    Unplaced,
    /// The volume is briefly busy (being moved or cloned).
    Busy,
    /// The server restarted and admits only token reestablishment:
    /// learn its new epoch, recover, retry once the gate admits us.
    Grace,
    /// The primary (or the VLDB that places the volume) did not answer,
    /// or its disk is down: re-resolve; counts towards replica failover.
    PrimaryDown,
}

/// Maps one attempt's outcome — the call's result, or the VLDB's error
/// when it could not place the volume — to the ladder's next move.
fn classify(outcome: &DfsResult<Response>) -> Verdict {
    match outcome {
        Ok(Response::WrongServer { hint, generation }) => {
            Verdict::Moved { hint: *hint, generation: *generation }
        }
        Ok(Response::Err(DfsError::NoSuchVolume)) => Verdict::Unplaced,
        Ok(Response::Err(DfsError::VolumeBusy)) => Verdict::Busy,
        Ok(Response::Err(DfsError::GraceWait)) => Verdict::Grace,
        Ok(Response::Err(DfsError::Crashed))
        | Err(DfsError::Unreachable | DfsError::Crashed | DfsError::Timeout) => {
            Verdict::PrimaryDown
        }
        _ => Verdict::Done,
    }
}

/// One attempt's placement and raw outcome, as the retry ladder reads
/// them.
type Sent = (DfsResult<ServerId>, DfsResult<Response>);

/// Takes a `Status` reply apart; any other shape is a protocol bug.
fn status_reply(
    resp: Response,
) -> DfsResult<(FileStatus, Vec<Token>, SerializationStamp, u64)> {
    match resp {
        Response::Status { status, tokens, stamp, stale_us, .. } => {
            Ok((status, tokens, stamp, stale_us))
        }
        _ => Err(BAD_REPLY),
    }
}

/// The cache manager: the DEcorum client (§4).
pub struct CacheManager {
    id: ClientId,
    addr: Addr,
    net: Network,
    vldb: VldbHandle,
    data: Arc<dyn DataCache>,
    /// The write-behind pipeline's client-wide state (`writeback.rs`).
    wb: writeback::Writeback,
    ticket: OrderedMutex<Option<Ticket>, { rank::CLIENT_RESOURCE }>,
    /// Serializes the crash-recovery pipeline. Ranked between the vnode
    /// high locks and the vnode table: the operation that *detects* an
    /// epoch change holds at most one vnode's `hi`, and recovery itself
    /// takes only `lo` locks underneath.
    // dfs-lint: allow(guard-across-rpc) — held across the reestablish /
    // replay sends by design: the server serves reestablishment
    // without issuing revocations back to us, and revocation handlers
    // here take only vnode `lo` locks, never this gate.
    recovery_gate: OrderedMutex<(), { rank::CLIENT_RECOVERY }>,
    /// Last epoch observed from each file server (resource layer).
    known_epochs: OrderedMutex<HashMap<ServerId, u64>, { rank::CLIENT_RESOURCE }>,
    vnodes: OrderedMutex<HashMap<Fid, Arc<CVnode>>, { rank::CLIENT_VNODE_TABLE }>,
    /// Volume → (server, VLDB generation) location cache (§4.1). Entries
    /// come only from VLDB answers and `WrongServer` hints, so it holds
    /// at most one per volume that exists. Installs are
    /// generation-monotone: a stale hint arriving after a fresh VLDB
    /// lookup can never roll an entry back to the old owner.
    locations: OrderedMutex<HashMap<VolumeId, (ServerId, u64)>, { rank::CLIENT_RESOURCE }>,
    roots: OrderedMutex<HashMap<VolumeId, Fid>, { rank::CLIENT_RESOURCE }>,
    stats: ClientCounters,
}

impl CacheManager {
    /// Starts a cache manager, binding its callback service at
    /// `Client(id)`.
    ///
    /// `data` chooses disk-backed or diskless caching (§4.2).
    pub fn start(
        net: Network,
        id: ClientId,
        vldb_replicas: Vec<Addr>,
        data: Arc<dyn DataCache>,
    ) -> Arc<CacheManager> {
        Self::start_with_config(net, id, vldb_replicas, data, WritebackConfig::default())
    }

    /// Starts a cache manager with explicit write-behind tuning.
    pub fn start_with_config(
        net: Network,
        id: ClientId,
        vldb_replicas: Vec<Addr>,
        data: Arc<dyn DataCache>,
        wb: WritebackConfig,
    ) -> Arc<CacheManager> {
        let addr = Addr::Client(id);
        let cm = Arc::new(CacheManager {
            id,
            addr,
            net: net.clone(),
            vldb: VldbHandle::new(net.clone(), addr, vldb_replicas),
            data,
            wb: writeback::Writeback { cfg: wb, ..Default::default() },
            ticket: OrderedMutex::new(None),
            recovery_gate: OrderedMutex::new(()),
            known_epochs: OrderedMutex::new(HashMap::new()),
            vnodes: OrderedMutex::new(HashMap::new()),
            locations: OrderedMutex::new(HashMap::new()),
            roots: OrderedMutex::new(HashMap::new()),
            stats: ClientCounters::default(),
        });
        net.register(
            addr,
            cm.clone(),
            PoolConfig { workers: 2, revocation_workers: 2, require_auth: false },
        );
        Self::spawn_flusher(&cm);
        cm
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Client statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats.snapshot()
    }

    /// Authenticates as `user` via the KDC (§3.7, §4.1).
    pub fn login(&self, user: u32, secret: u64) -> DfsResult<()> {
        let req = Request::Login { user, secret };
        let resp = self.net.call(self.addr, Addr::Kdc, None, CallClass::Normal, req)?;
        let Response::TicketGranted(t) = resp.into_result()? else {
            return Err(BAD_REPLY);
        };
        *self.ticket.lock() = Some(t);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Resource layer (§4.1)
    // ------------------------------------------------------------------

    fn server_for(&self, volume: VolumeId) -> DfsResult<ServerId> {
        if let Some((s, _)) = self.locations.lock().get(&volume).copied() {
            return Ok(s);
        }
        let (s, g) = self.vldb.lookup_gen(volume)?;
        self.loc_install(volume, s, g);
        Ok(s)
    }

    /// Installs a location entry if it is strictly newer than what is
    /// cached (by VLDB generation). Returns whether it was installed.
    fn loc_install(&self, volume: VolumeId, server: ServerId, generation: u64) -> bool {
        let mut loc = self.locations.lock();
        if loc.get(&volume).is_some_and(|&(_, g)| generation <= g) {
            return false;
        }
        loc.insert(volume, (server, generation));
        true
    }

    /// Drops a cached location (the next use re-resolves via the VLDB).
    fn loc_invalidate(&self, volume: VolumeId) {
        self.locations.lock().remove(&volume);
    }

    /// Follows a `WrongServer` redirect: install the hint when newer;
    /// when it is not (a stale hint), distrust the cache entirely so the
    /// next attempt re-resolves through the VLDB.
    fn follow_redirect(&self, volume: VolumeId, hint: ServerId, generation: u64) {
        self.stats.wrong_server_redirects.add(1);
        if !self.loc_install(volume, hint, generation) {
            self.loc_invalidate(volume);
        }
    }

    /// One attempt: places `volume` and sends `req` to the server found,
    /// under the current ticket — no retry, no redirect chasing. An
    /// `Err` placement means even the VLDB cannot place the volume right
    /// now; the ladder classifies it like any other outcome.
    fn send(&self, volume: VolumeId, class: CallClass, req: Request) -> Sent {
        let placed = self.server_for(volume);
        let outcome = placed.clone().and_then(|server| self.server_call(server, class, req));
        (placed, outcome)
    }

    /// One send to a known file server under the current ticket.
    fn server_call(&self, server: ServerId, class: CallClass, req: Request) -> DfsResult<Response> {
        let ticket = *self.ticket.lock();
        self.net.call(self.addr, Addr::Server(server), ticket, class, req)
    }

    /// **The retry ladder**, written once for every file RPC and every
    /// store: runs `attempt` until its outcome is one no retry cures,
    /// transparently across volume moves (re-consulting the VLDB), brief
    /// volume-busy windows (§2.1), crashed or unreachable servers, and
    /// post-restart grace windows. [`classify`] says what an outcome
    /// means; the match below performs that verdict's side effects
    /// (table in DESIGN.md §10) and then returns, retries at once, or
    /// backs off. Every `Status`/`Data` response carries the server's
    /// epoch; a change from the last one seen runs the recovery pipeline
    /// here, before the caller looks at the response.
    ///
    /// `attempt` answering `None` — it found nothing to send — ends the
    /// ladder with `Ok(None)`. `fallback` is the request a §3.8 replica
    /// may answer once the primary has been down for several attempts
    /// (one dropped packet is not an outage).
    fn ladder(
        &self,
        volume: VolumeId,
        fallback: Option<&Request>,
        mut attempt: impl FnMut() -> Option<Sent>,
    ) -> DfsResult<Option<Response>> {
        const FAILOVER_AFTER: u32 = 2;
        let mut down = 0u32;
        for round in 1..=RPC_RETRY_BUDGET {
            let Some((placed, outcome)) = attempt() else { return Ok(None) };
            let verdict = classify(&outcome);
            down = if verdict == Verdict::PrimaryDown { down + 1 } else { 0 };
            match verdict {
                Verdict::Done => {
                    if let (
                        Ok(server),
                        Ok(Response::Status { epoch, .. } | Response::Data { epoch, .. }),
                    ) = (placed, &outcome)
                    {
                        self.note_epoch(server, *epoch);
                    }
                    return outcome.map(Some);
                }
                Verdict::Moved { hint, generation } => {
                    self.follow_redirect(volume, hint, generation);
                    continue;
                }
                Verdict::Unplaced => self.loc_invalidate(volume),
                Verdict::Busy => self.stats.busy_retries.add(1),
                Verdict::Grace => {
                    self.stats.grace_waits.add(1);
                    if let Ok(server) = placed {
                        self.probe_epoch(server);
                    }
                }
                Verdict::PrimaryDown => {
                    if placed.is_ok() {
                        // Invalidate only this volume's entry: other
                        // volumes stay warm, and this one re-resolves
                        // through the VLDB (which reflects a move or a
                        // restarted replacement).
                        self.stats.transport_retries.add(1);
                        self.loc_invalidate(volume);
                    }
                    let replica = fallback.filter(|_| down >= FAILOVER_AFTER);
                    if let Some(resp) = replica.and_then(|req| self.replica_fallback(volume, req)) {
                        return Ok(Some(resp));
                    }
                }
            }
            self.backoff(volume.0, round);
        }
        // The budget is spent: report honest unavailability rather than
        // a timeout the caller would be tempted to retry forever.
        self.stats.unavailable_giveups.add(1);
        Err(DfsError::Unavailable)
    }

    /// Sends a file RPC through the [`ladder`](CacheManager::ladder).
    fn file_rpc(&self, volume: VolumeId, req: Request) -> DfsResult<Response> {
        let attempt = || Some(self.send(volume, CallClass::Normal, req.clone()));
        Ok(self.ladder(volume, Some(&req), attempt)?.expect("an attempt was made"))
    }

    /// Attempts a bounded-stale read from a §3.8 read-only replica after
    /// the primary has been unreachable for several attempts. Only
    /// requests a replica can answer with an explicit staleness stamp
    /// are eligible, and token wants are stripped: a replica's grants
    /// mean nothing at the primary and must never install as
    /// token-backed cache state.
    fn replica_fallback(&self, volume: VolumeId, req: &Request) -> Option<Response> {
        let stripped = match req {
            Request::FetchStatus { fid, .. } => Request::FetchStatus { fid: *fid, want: None },
            Request::FetchData { fid, offset, len, .. } => {
                Request::FetchData { fid: *fid, offset: *offset, len: *len, want: None }
            }
            _ => return None,
        };
        for r in self.vldb.replicas_of(volume).ok()? {
            let Ok(resp) = self.server_call(r, CallClass::Normal, stripped.clone()) else {
                continue;
            };
            // A zero stamp means this server is not serving the volume
            // as a replica after all; only stamped (bounded-stale)
            // answers may flow back through this path.
            let (Response::Status { stale_us, .. } | Response::Data { stale_us, .. }) = resp else {
                continue;
            };
            if stale_us > 0 {
                self.stats.replica_failovers.add(1);
                self.stats.max_stale_us.max(stale_us);
                return Some(resp);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Vnode table
    // ------------------------------------------------------------------

    fn vnode(&self, fid: Fid) -> Arc<CVnode> {
        let mut vnodes = self.vnodes.lock();
        vnodes.entry(fid).or_insert_with(|| Arc::new(CVnode { fid, ..CVnode::default() })).clone()
    }

    /// Number of vnodes in the table: files cached, not files ever seen.
    pub fn cached_vnodes(&self) -> usize {
        self.vnodes.lock().len()
    }

    /// Forgets a file the server has just destroyed — and retired every
    /// grant on, ours included — if `dead` confirms it from the vnode's
    /// state: tokens, status and pages go, then the vnode, the table
    /// locked only once `lo` is free (it ranks below the vnode locks). A
    /// thread still holding the vnode works on an orphan: `StaleFid`.
    fn forget(&self, fid: Fid, dead: impl FnOnce(&VnState) -> bool) {
        let Some(vn) = self.vnodes.lock().get(&fid).cloned() else { return };
        let mut lo = vn.lock_lo();
        if !dead(&lo) {
            return;
        }
        lo.tokens.clear();
        lo.queued.clear();
        self.invalidate(fid, &mut lo);
        drop(lo);
        self.vnodes.lock().remove(&fid);
    }

    // ------------------------------------------------------------------
    // The client RPC spine (§6.1–§6.3)
    // ------------------------------------------------------------------

    /// A file RPC about `lo`'s vnode, `lo` released across it
    /// ([`LoGuard::unlocked`]). The caller holds the vnode's `hi` lock
    /// (daemons hold none).
    fn rpc_unlocked(&self, lo: &mut LoGuard<'_>, req: Request) -> DfsResult<Response> {
        let volume = lo.vn.fid.volume;
        lo.unlocked(|| self.file_rpc(volume, req).and_then(Response::into_result))
    }

    /// [`rpc_unlocked`] for the common reply, a `Status`: absorbs its
    /// tokens (always this vnode's) and its status (when it describes
    /// this vnode, not a directory op's child), and hands back status,
    /// stamp and staleness bound. A replica-served reply
    /// (`stale_us > 0`) comes back unabsorbed: a replica's tokens and
    /// stamps mean nothing at the primary and must not poison the
    /// vnode's stamp ordering for when the primary returns.
    ///
    /// [`rpc_unlocked`]: CacheManager::rpc_unlocked
    fn status_rpc(
        &self,
        lo: &mut LoGuard<'_>,
        req: Request,
    ) -> DfsResult<(FileStatus, SerializationStamp, u64)> {
        let (status, tokens, stamp, stale_us) = status_reply(self.rpc_unlocked(lo, req)?)?;
        if stale_us == 0 {
            let own = (status.fid == lo.vn.fid).then(|| (status.clone(), stamp));
            self.absorb(lo, own, tokens);
        }
        Ok((status, stamp, stale_us))
    }

    /// Obtains `types` over `range` on the guard's vnode.
    fn get_token(&self, lo: &mut LoGuard<'_>, types: TokenTypes, range: ByteRange) -> DfsResult<()> {
        let req = Request::GetToken { fid: lo.vn.fid, want: TokenRequest { types, range } };
        self.status_rpc(lo, req).map(drop)
    }

    /// Merges `status` by stamp (§6.3), counting a stale one. The length
    /// stays as long as the pages still dirty need it: they are updates
    /// the server has yet to see, and its status — even a newer one —
    /// reflects only what has been stored so far. Letting a shorter
    /// length stand would EOF-discard them on the next store (and shrink
    /// what a concurrent local getattr observes).
    fn merge_status(&self, lo: &mut VnState, status: FileStatus, stamp: SerializationStamp) {
        let unstored = lo
            .dirty
            .keys()
            .next_back()
            .zip(lo.status.as_ref())
            .map(|(&p, st)| st.length.min((p + 1) * PAGE_SIZE as u64));
        if !lo.merge_status(status, stamp) {
            self.stats.stale_status_dropped.add(1);
        }
        if let (Some(len), Some(st)) = (unstored, lo.status.as_mut()) {
            st.length = st.length.max(len);
        }
    }

    /// Merges an RPC response's tokens/status into the vnode and then
    /// applies any queued revocations, all in stamp order (§6.3).
    fn absorb(
        &self,
        lo: &mut LoGuard<'_>,
        status: Option<(FileStatus, SerializationStamp)>,
        tokens: Vec<Token>,
    ) {
        if let Some((status, stamp)) = status {
            self.merge_status(lo, status, stamp);
        }
        lo.tokens.extend(tokens);
        let queued = std::mem::take(&mut lo.queued);
        for (token, types, stamp) in queued {
            // A queued revocation may target a token granted by a reply
            // that is *still* in flight — e.g. the flusher's store-back
            // lands (and absorbs) before the FetchData that carries the
            // token. Applying it now would discard it as "already gone"
            // and the token would later install unrevoked, serving stale
            // data forever. Keep it queued until the token shows up or
            // every in-flight reply has been merged.
            if lo.in_flight > 0 && !lo.tokens.iter().any(|t| t.id == token.id) {
                lo.queued.push((token, types, stamp));
                continue;
            }
            self.apply_revocation(lo, &token, types, stamp);
        }
    }

    /// Processes one typed revocation against the low-level state:
    /// gives up the `types` bits of `token`; remaining bits stay held.
    /// Dirty pages (for data-write bits) or local status (for
    /// status-write bits) are stored back first (§5.3). Returns false if
    /// the bits are retained (held locks/opens, §5.3).
    ///
    /// It takes its turn at the vnode's store slot (DESIGN.md §9): a
    /// store of this vnode already on the wire was sent under the
    /// guarantees we hold now, so it must land and be merged before any
    /// of them is given up. `lo` is free while we wait, which is why the
    /// token is looked up only afterwards; from there on `lo` is held to
    /// the end, so no other store can start — and none but that one
    /// starts while we wait (`revoking`), so the wait is one send long.
    fn apply_revocation(
        &self,
        lo: &mut LoGuard<'_>,
        token: &Token,
        types: TokenTypes,
        stamp: SerializationStamp,
    ) -> bool {
        let vn = lo.vn;
        lo.revoking += 1;
        while lo.storing {
            lo.wait(&vn.store_cv);
        }
        lo.revoking -= 1;
        vn.store_cv.notify_all();
        let Some(pos) = lo.tokens.iter().position(|t| t.id == token.id) else {
            return true; // Already gone (returned voluntarily).
        };
        let to_drop = TokenTypes(lo.tokens[pos].types.0 & types.0);
        if to_drop.is_empty() {
            return true;
        }
        let held_range = lo.tokens[pos].range;
        // Lock and open tokens may be kept if still in use (§5.3).
        let locked = to_drop.intersects(TokenTypes::LOCK_READ | TokenTypes::LOCK_WRITE)
            && lo.locks.iter().any(|l| l.local && l.range.overlaps(&held_range));
        if locked || (to_drop.intersects(TokenTypes::OPEN_MASK) && !lo.opens.is_empty()) {
            self.stats.retained.add(1);
            return false;
        }
        // Store back what the revoked bits let us dirty (§5.3, §6.4):
        // data-write bits flush dirty pages in the range; status-write
        // bits push the locally-updated status (length and mtime — the
        // data itself stays cached under the data token we still hold).
        // The server is waiting on this handler, so a failed store-back
        // cannot hold the token: it goes back regardless.
        let stored = if to_drop.contains(TokenTypes::DATA_WRITE) {
            self.store_held(lo, Store::Pages(Some(held_range)))
        } else if to_drop.contains(TokenTypes::STATUS_WRITE) {
            self.store_held(lo, Store::DirtyStatus)
        } else {
            Ok(())
        };
        let lost = match stored {
            // Refused: the server already has this token down as
            // returned — the revocation was acknowledged when it was
            // queued (§6.3), for a token taken to store pages that were
            // dirty before it. Nothing is lost: the pages stay dirty,
            // and the next store is refused in its turn and takes the
            // token again.
            Ok(()) | Err(DfsError::TokenRevoked) => false,
            Err(_) => {
                self.stats.revocation_store_failures.add(1);
                to_drop.contains(TokenTypes::DATA_WRITE)
            }
        };
        // Strip the bits; drop the token entirely when nothing is left.
        lo.tokens[pos].types = lo.tokens[pos].types.minus(to_drop);
        if lo.tokens[pos].types.is_empty() {
            lo.tokens.remove(pos);
        }
        let data_bits = TokenTypes::DATA_READ | TokenTypes::DATA_WRITE;
        if to_drop.intersects(data_bits) {
            self.drop_uncovered(vn.fid, lo, Some(held_range), lost);
        }
        // Directory-content caches ride on the data and status tokens.
        if to_drop.intersects(data_bits | TokenTypes::STATUS_READ | TokenTypes::STATUS_WRITE) {
            lo.forget_names();
        }
        lo.stamp = lo.stamp.max(stamp);
        true
    }

    /// **The client's one validity rule** (DESIGN.md §10): a clean page
    /// stays in `valid` only while a `DATA_READ`/`DATA_WRITE` token
    /// covers it. Drops the uncovered clean pages in `range` (`None`:
    /// the whole file). A page still dirty keeps its bytes — they are
    /// all there is of an update yet to be stored — unless `lost`: its
    /// store-back just failed, so it holds bytes no one else will ever
    /// see, and we must not go on reading them. Runs wherever tokens go:
    /// a revocation, recovery, a refused store's retake.
    fn drop_uncovered(&self, fid: Fid, lo: &mut VnState, range: Option<ByteRange>, lost: bool) {
        let data_bits = TokenTypes::DATA_READ | TokenTypes::DATA_WRITE;
        let dropped: Vec<u64> = lo
            .valid
            .range(writeback::pages_of(range))
            .copied()
            .filter(|p| {
                let r = ByteRange::at(p * PAGE_SIZE as u64, PAGE_SIZE as u64);
                if lo.dirty.contains_key(p) { lost } else { !lo.covered(data_bits, &r) }
            })
            .collect();
        for p in dropped {
            self.note_clean(lo, p);
            lo.valid.remove(&p);
            self.data.drop_page(fid, p);
        }
    }

    /// Jittered, capped backoff for retry loops: linear ramp capped at
    /// 2 ms, with a deterministic per-(client, key, round) jitter in the
    /// upper half so colliding clients desynchronize. `key` names what
    /// is contended: a volume for the ladder, a vnode for the token
    /// contention `read` and `write` wait out.
    fn backoff(&self, key: u64, round: u32) {
        const BASE_US: u64 = 100;
        const CAP_US: u64 = 2_000;
        let step = (BASE_US * u64::from(round)).min(CAP_US);
        let seed = (u64::from(self.id.0) << 40) ^ key.wrapping_mul(0x9E37_79B9) ^ u64::from(round);
        let jitter = StdRng::seed_from_u64(seed).gen_range_u64(step / 2 + 1);
        self.stats.backoff_rounds.add(1);
        std::thread::sleep(Duration::from_micros(step / 2 + jitter));
    }

    // ------------------------------------------------------------------
    // Crash recovery: epoch tracking, reestablishment, replay (§3.2)
    // ------------------------------------------------------------------

    /// Asks a server for its current epoch (a refusal carries none) and
    /// runs recovery if it changed.
    fn probe_epoch(&self, server: ServerId) {
        let resp = self.server_call(server, CallClass::Normal, Request::GetEpoch);
        if let Ok(Response::EpochIs { epoch, .. }) = resp {
            self.note_epoch(server, epoch);
        }
    }

    /// Records an observed server epoch. A change from a previously
    /// known epoch means the server crashed and restarted, losing all
    /// token state: run the recovery pipeline before proceeding.
    fn note_epoch(&self, server: ServerId, epoch: u64) {
        if IN_RECOVERY.get() == Some(self.id) {
            return; // Recovery's own RPCs must not recurse.
        }
        // On first contact nothing is cached under an older epoch.
        let prev = *self.known_epochs.lock().entry(server).or_insert(epoch);
        if prev != epoch {
            self.recover(server, epoch);
        }
    }

    /// The client half of the crash-restart pipeline, serialized by the
    /// recovery gate and idempotent (the epoch is re-checked under it):
    ///
    /// 1. hold the recovery gate: no flusher pass starts meanwhile
    ///    (`flush_pass` waits there);
    /// 2. drop every token held from the dead epoch (gone server-side)
    ///    and reset per-vnode stamp floors — the restarted server's
    ///    serialization stamps start over;
    /// 3. re-register the dropped set through one `ReestablishTokens`
    ///    RPC (granted without conflict during the server's grace
    ///    window; claims not returned fall back to the normal grant
    ///    path on demand);
    /// 4. apply the one validity rule ([`drop_uncovered`]) to every
    ///    cached file: a clean page no reestablished data token covers
    ///    goes, since nothing vouches for it in the new epoch; a page
    ///    a claim came back over is kept, so a file no one else touched
    ///    stays warm without a round trip;
    /// 5. replay still-dirty write-behind pages through the store gate
    ///    — an acked store survived in the journal, an unacked (or
    ///    refused: the restarted server knew none of our tokens) one is
    ///    still dirty here, so no update is lost.
    ///
    /// [`drop_uncovered`]: CacheManager::drop_uncovered
    fn recover(&self, server: ServerId, epoch: u64) {
        let _gate = self.recovery_gate.lock();
        if self.known_epochs.lock().insert(server, epoch) == Some(epoch) {
            return; // Another thread already recovered this epoch.
        }
        self.stats.recoveries.add(1);
        let _recovering = Recovering::enter(self.id);
        self.recover_inner(server, epoch);
    }

    fn recover_inner(&self, server: ServerId, epoch: u64) {
        // Cached vnodes living on the restarted server.
        let all: Vec<Arc<CVnode>> = self.vnodes.lock().values().cloned().collect();
        let mine: Vec<Arc<CVnode>> = all
            .into_iter()
            .filter(|vn| self.server_for(vn.fid.volume).ok() == Some(server))
            .collect();
        // Drop dead-epoch tokens, remembering what we held so it can be
        // claimed back; reset stamp floors so the restarted server's
        // stamps are accepted.
        let mut claims: Vec<Token> = Vec::new();
        for vn in &mine {
            let mut lo = vn.lock_lo();
            claims.append(&mut lo.tokens);
            lo.queued.clear(); // Revocations of dead tokens are moot.
            lo.stamp = SerializationStamp::default();
        }
        // One batched reestablish call re-registers the whole set. It is
        // sent even with nothing to claim: it is also how this client
        // checks in, and a server that journaled it as a holder keeps
        // its grace window open until it does.
        let req = Request::ReestablishTokens { epoch, tokens: claims };
        let granted = match self.server_call(server, CallClass::Normal, req) {
            Ok(Response::Reestablished { tokens, .. }) => tokens,
            // Grace already over, or the server bounced again: fall
            // back to the normal grant path on demand.
            _ => Vec::new(),
        };
        self.stats.tokens_reestablished.add(granted.len() as u64);
        for t in granted {
            let vn = self.vnode(t.fid);
            vn.lock_lo().tokens.push(t);
        }
        // Keep only what a reestablished token vouches for, then replay
        // the dirty pages: locally-modified data is newer than anything
        // the server recovered. Pages whose stores were acked pre-crash
        // are clean here and durable there; everything else is still
        // dirty.
        for vn in &mine {
            let mut lo = vn.lock_lo();
            self.drop_uncovered(vn.fid, &mut lo, None, false);
            // A directory's names and listing ride on its tokens the
            // same way (`apply_revocation` forgets them with the bits).
            if !lo.dir_trusted() {
                lo.forget_names();
            }
            let dirty = lo.dirty.len() as u64;
            drop(lo);
            if dirty > 0 && self.store_vnode(vn, Store::Pages(None)).is_ok() {
                self.stats.recovery_replayed_pages.add(dirty);
            }
        }
    }

    // ------------------------------------------------------------------
    // Vnode layer: the file API (§4.4)
    // ------------------------------------------------------------------

    /// Returns the root fid of a volume.
    pub fn root(&self, volume: VolumeId) -> DfsResult<Fid> {
        if let Some(f) = self.roots.lock().get(&volume) {
            return Ok(*f);
        }
        let Response::FidIs(f) = self.file_rpc(volume, Request::GetRoot { volume })?.into_result()?
        else {
            return Err(BAD_REPLY);
        };
        self.roots.lock().insert(volume, f);
        Ok(f)
    }

    /// Reads up to `len` bytes at `offset`.
    pub fn read(&self, fid: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        let vn = self.vnode(fid);
        let data = &*self.data;
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        for round in 0..256u32 {
            // Hit check first, while the low-level lock is still held
            // from the previous round's merge: a freshly-granted token
            // cannot be revoked between absorb and this check.
            if let Some(out) = lo.cached_read(data, fid, offset, len) {
                self.stats.local_reads.add(1);
                return Ok(out);
            }

            if round > 4 {
                // Contended token: back off outside the locks so another
                // client can finish its handoff, then re-acquire.
                drop(lo);
                self.backoff(u64::from(fid.vnode.0), round);
                lo = vn.lock_lo();
            }
            // Miss: fetch a chunk with read tokens through the spine,
            // then merge and retry.
            let first = offset / PAGE_SIZE as u64;
            let pages = (len as u64).div_ceil(PAGE_SIZE as u64).max(1).max(FETCH_PAGES);
            let fetch_off = first * PAGE_SIZE as u64;
            let fetch_len = (pages * PAGE_SIZE as u64) as u32;
            // Pages marked valid that the cache has since evicted are
            // part of the miss: forget them so they are fetched again.
            let last = (offset + (len as u64).max(1) - 1) / PAGE_SIZE as u64;
            let span = first..=last;
            lo.valid.retain(|p| !span.contains(p) || data.read_page(fid, *p).is_some());
            let req = Request::FetchData {
                fid,
                offset: fetch_off,
                len: fetch_len,
                want: TokenRequest::ranged(
                    TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0),
                    ByteRange::at(fetch_off, fetch_len as u64),
                ),
            };
            let Response::Data { bytes, status, tokens, stamp, stale_us, .. } =
                self.rpc_unlocked(&mut lo, req)?
            else {
                return Err(BAD_REPLY);
            };
            if stale_us > 0 {
                // A §3.8 replica answered while the primary was down:
                // hand the bytes straight to the caller. Nothing
                // installs — the replica's tokens and stamps mean
                // nothing at the primary, and a bounded-stale page must
                // never masquerade as token-backed cache state.
                self.stats.stale_reads.add(1);
                let end = status.length.min(offset + len as u64);
                let s = (offset - fetch_off) as usize;
                let e = (end.saturating_sub(fetch_off) as usize).min(bytes.len());
                // (An empty or inverted range — a read at or past EOF —
                // reads as nothing.)
                return Ok(bytes.get(s..e).unwrap_or(&[]).to_vec());
            }
            // Install fetched pages; locally-dirty pages are newer than
            // anything the server returned (we hold the write token).
            let whole_pages = bytes.len() / PAGE_SIZE;
            for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
                let p = first + i as u64;
                if !lo.dirty.contains_key(&p) {
                    data.write_page(fid, p, chunk)?;
                    if i < whole_pages || status.length <= fetch_off + bytes.len() as u64 {
                        lo.valid.insert(p);
                    }
                }
            }
            self.absorb(&mut lo, Some((status, stamp)), tokens);
            self.stats.remote_reads.add(1);
        }
        Err(DfsError::Timeout)
    }

    /// Writes `data` at `offset`; absorbed locally when a write token is
    /// held ("update the data ... without storing the data back to the
    /// server or even notifying the server", §5.2).
    pub fn write(&self, fid: Fid, offset: u64, data: &[u8]) -> DfsResult<FileStatus> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        let want = ByteRange::at(offset, data.len() as u64);
        for round in 0..256u32 {
            if lo.covered(TokenTypes::DATA_WRITE, &want)
                && lo.has_types(TokenTypes::STATUS_WRITE)
                && lo.status.is_some()
            {
                // Partial first/last pages need their old contents.
                let first = offset / PAGE_SIZE as u64;
                let end = offset + data.len() as u64;
                let last = (end - 1) / PAGE_SIZE as u64;
                let eof = lo.status.as_ref().map(|s| s.length).unwrap_or(0);
                let partial = [first, last].into_iter().find(|&p| {
                    let ps = p * PAGE_SIZE as u64;
                    let full = offset <= ps && end >= ps + PAGE_SIZE as u64;
                    !full && !lo.valid.contains(&p) && ps < eof
                });
                if let Some(p) = partial {
                    let req = Request::FetchData {
                        fid,
                        offset: p * PAGE_SIZE as u64,
                        len: PAGE_SIZE as u32,
                        want: None,
                    };
                    // A page is valid only once its bytes are in the
                    // cache. A failed fetch fails the write, and so does
                    // a replica's bounded-stale page: merged under a
                    // write token, its unmodified part would store back
                    // stale bytes (a lost update).
                    let bytes = match self.rpc_unlocked(&mut lo, req)? {
                        Response::Data { bytes, stale_us: 0, .. } => bytes,
                        Response::Data { .. } => return Err(DfsError::Unavailable),
                        _ => return Err(BAD_REPLY),
                    };
                    // The fetch carried no token of its own: if the write
                    // token went while `lo` was released, the bytes may
                    // already be stale. Leave the page invalid and let
                    // the next round start over.
                    if lo.covered(TokenTypes::DATA_WRITE, &want) {
                        self.data.write_page(fid, p, &bytes)?;
                        lo.valid.insert(p);
                    }
                    // Tokens may have been revoked while fetching (§6.3):
                    // drain the queue, then re-check coverage (and the
                    // other end of the write).
                    self.absorb(&mut lo, None, Vec::new());
                    continue;
                }
                // Apply the write to cached pages, stamping each dirty
                // page with a fresh write sequence (lost-update guard
                // for store-backs that release `lo` mid-flight).
                lo.write_seq += 1;
                let seq = lo.write_seq;
                let mut done = 0usize;
                let mut pos = offset;
                while done < data.len() {
                    let p = pos / PAGE_SIZE as u64;
                    let within = (pos % PAGE_SIZE as u64) as usize;
                    let n = (PAGE_SIZE - within).min(data.len() - done);
                    let mut page =
                        self.data.read_page(fid, p).unwrap_or_else(|| vec![0; PAGE_SIZE]);
                    page[within..within + n].copy_from_slice(&data[done..done + n]);
                    self.data.write_page(fid, p, &page)?;
                    lo.valid.insert(p);
                    self.note_dirty(&mut lo, p, seq);
                    pos += n as u64;
                    done += n;
                }
                let st = lo.status.as_mut().expect("checked above");
                st.length = st.length.max(offset + data.len() as u64);
                st.mtime = self.net.clock().now();
                st.data_version += 1;
                let out = st.clone();
                lo.status_dirty = true;
                self.stats.local_writes.add(1);
                if self.over_budget() {
                    // This writer pays for the flush itself.
                    drop(lo);
                    self.store_vnode(&vn, Store::Pages(None))?;
                }
                return Ok(out);
            }

            if round > 4 {
                drop(lo);
                self.backoff(u64::from(fid.vnode.0), round);
                lo = vn.lock_lo();
            }
            // Acquire data and status tokens in one combined grant over
            // a page-aligned hull.
            let hull = ByteRange::new(
                (offset / PAGE_SIZE as u64) * PAGE_SIZE as u64,
                (offset + data.len() as u64).div_ceil(PAGE_SIZE as u64).max(FETCH_PAGES)
                    * PAGE_SIZE as u64,
            );
            self.get_token(&mut lo, WRITE_GRANT, hull)?;
            self.stats.write_token_fetches.add(1);
        }
        Err(DfsError::Timeout)
    }

    /// Prefetches data tokens over `range` so subsequent reads (and
    /// writes, with `write = true`) in that range are served locally —
    /// how a partitioned workload claims its byte range (§5.4).
    pub fn acquire_data_token(&self, fid: Fid, range: ByteRange, write: bool) -> DfsResult<()> {
        let reads = TokenTypes::DATA_READ | TokenTypes::STATUS_READ;
        let types = if write { WRITE_GRANT } else { reads };
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        self.get_token(&mut vn.lock_lo(), types, range)?;
        Ok(())
    }

    /// Flushes dirty data and returns when it is durable at the server.
    pub fn fsync(&self, fid: Fid) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        // `hi` keeps the pages from changing under us, and the store
        // slot orders our snapshot after any the flusher already sent.
        if self.store_vnode(&vn, Store::Pages(None))?.is_none() {
            // Nothing shipped, so no store-back forced the server's
            // log. The caller still asked for durability — a freshly
            // created (or renamed, chmod'ed, ...) file must survive a
            // crash — so force the log explicitly.
            self.file_rpc(fid.volume, Request::Fsync { fid })?.into_result()?;
        }
        Ok(())
    }

    /// Seeds the status of the child a directory op's reply describes.
    fn seed_status(&self, status: &FileStatus, stamp: SerializationStamp) {
        let child = self.vnode(status.fid);
        self.merge_status(&mut child.lock_lo(), status.clone(), stamp);
    }

    /// Looks up `name` in `dir`, consulting the directory layer first
    /// (§4.3: "the client must in general cache the results of
    /// individual lookups").
    pub fn lookup(&self, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        let vn = self.vnode(dir);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        if lo.dir_trusted() {
            if let Some(st) = lo.names.get(name) {
                self.stats.lookup_hits.add(1);
                return Ok(st.clone());
            }
            if lo.listing.as_ref().is_some_and(|l| !l.iter().any(|e| e.name == name)) {
                self.stats.lookup_hits.add(1);
                return Err(DfsError::NotFound);
            }
        }
        self.stats.lookup_misses.add(1);
        let req = Request::Lookup {
            dir,
            name: name.to_string(),
            want: TokenRequest::whole(TokenTypes::STATUS_READ | TokenTypes::DATA_READ),
        };
        let (status, stamp, _) = self.status_rpc(&mut lo, req)?;
        lo.names.insert(name.to_string(), status.clone());
        drop(lo);
        self.seed_status(&status, stamp);
        Ok(status)
    }

    /// Lists a directory, cached under the directory's data token.
    pub fn readdir(&self, dir: Fid) -> DfsResult<Vec<DirEntry>> {
        let vn = self.vnode(dir);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        if lo.dir_trusted() {
            if let Some(l) = &lo.listing {
                self.stats.lookup_hits.add(1);
                return Ok(l.clone());
            }
        }
        let Response::Entries(entries) = self.rpc_unlocked(&mut lo, Request::Readdir { dir })?
        else {
            return Err(BAD_REPLY);
        };
        if lo.dir_trusted() {
            lo.listing = Some(entries.clone());
        }
        Ok(entries)
    }

    fn namespace_rpc(&self, dir: Fid, req: Request) -> DfsResult<FileStatus> {
        let vn = self.vnode(dir);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        let (status, stamp, _) = self.status_rpc(&mut lo, req)?;
        // We made this change ourselves: our directory caches can be
        // updated in place (the server did not revoke our own tokens,
        // §5.2 same-host compatibility).
        lo.listing = None;
        drop(lo);
        self.seed_status(&status, stamp);
        Ok(status)
    }

    /// Creates a regular file.
    pub fn create(&self, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        let st = self.namespace_rpc(dir, Request::Create { dir, name: name.into(), mode })?;
        self.vnode(dir).lock_lo().names.insert(name.to_string(), st.clone());
        Ok(st)
    }

    /// Creates a directory.
    pub fn mkdir(&self, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        let st = self.namespace_rpc(dir, Request::Mkdir { dir, name: name.into(), mode })?;
        self.vnode(dir).lock_lo().names.insert(name.to_string(), st.clone());
        Ok(st)
    }

    /// Creates a symlink.
    pub fn symlink(&self, dir: Fid, name: &str, target: &str) -> DfsResult<FileStatus> {
        self.namespace_rpc(
            dir,
            Request::Symlink { dir, name: name.into(), target: target.into() },
        )
    }

    /// Reads a symlink target.
    pub fn readlink(&self, fid: Fid) -> DfsResult<String> {
        match self.file_rpc(fid.volume, Request::Readlink { fid })?.into_result()? {
            Response::Target(t) => Ok(t),
            _ => Err(BAD_REPLY),
        }
    }

    /// Adds a hard link.
    pub fn link(&self, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus> {
        self.namespace_rpc(dir, Request::Link { dir, name: name.into(), target })
    }

    /// Removes a file. One that had another link lives on, cached as
    /// before under the status the reply carried.
    pub fn remove(&self, dir: Fid, name: &str) -> DfsResult<()> {
        let st = self.namespace_rpc(dir, Request::Remove { dir, name: name.into() })?;
        self.vnode(dir).lock_lo().names.remove(name);
        if st.nlink == 0 {
            self.forget(st.fid, |_| true);
        }
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, dir: Fid, name: &str) -> DfsResult<()> {
        let vn = self.vnode(dir);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        self.rpc_unlocked(&mut lo, Request::Rmdir { dir, name: name.into() })?;
        let victim = lo.names.remove(name);
        lo.listing = None;
        drop(lo);
        if let Some(st) = victim {
            self.forget(st.fid, |_| true);
        }
        Ok(())
    }

    /// Renames an entry.
    pub fn rename(
        &self,
        src_dir: Fid,
        src_name: &str,
        dst_dir: Fid,
        dst_name: &str,
    ) -> DfsResult<()> {
        self.file_rpc(
            src_dir.volume,
            Request::Rename {
                src_dir,
                src_name: src_name.into(),
                dst_dir,
                dst_name: dst_name.into(),
            },
        )?
        .into_result()?;
        let mut replaced = None;
        for (d, n) in [(src_dir, src_name), (dst_dir, dst_name)] {
            let vn = self.vnode(d);
            let mut lo = vn.lock_lo();
            // Last, what the destination held: an entry still trusted
            // after the call was true when the server ran it.
            replaced = lo.names.remove(n).filter(|_| lo.dir_trusted());
            lo.listing = None;
        }
        if let Some(st) = replaced {
            // It died if that was its last link, which only a status
            // token of ours on it can vouch for.
            self.forget(st.fid, |lo| {
                lo.trusted_status()
                    .is_some_and(|st| st.nlink == 1 || st.ftype == FileType::Directory)
            });
        }
        Ok(())
    }

    /// Returns the file's status, from cache when the token allows.
    pub fn getattr(&self, fid: Fid) -> DfsResult<FileStatus> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        if let Some(st) = lo.trusted_status() {
            self.stats.local_reads.add(1);
            return Ok(st.clone());
        }
        let req =
            Request::FetchStatus { fid, want: TokenRequest::whole(TokenTypes::STATUS_READ) };
        let (status, _, stale_us) = self.status_rpc(&mut lo, req)?;
        if stale_us > 0 {
            // Replica-served while the primary is down: the bounded-
            // stale status is reported, not cached.
            self.stats.stale_reads.add(1);
            return Ok(status);
        }
        Ok(lo.status.clone().unwrap_or(status))
    }

    /// Changes attributes (truncation goes to the server).
    pub fn setattr(&self, fid: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        // Dirty data first, so truncation happens after our writes; the
        // store slot keeps that order on the wire.
        self.store_vnode(&vn, Store::Pages(None))?;
        // A store is admitted on a token already held, never granted
        // one. Any change is made under the whole-file status write
        // token; a change of length invalidates every page another
        // client has cached past the new end, so it takes the data write
        // token over the whole file too.
        let types = if attrs.length.is_some() { WRITE_GRANT } else { TokenTypes::STATUS_WRITE };
        let mut lo = vn.lock_lo();
        if lo.find_token(types, &ByteRange::WHOLE).is_none() {
            self.get_token(&mut lo, types, ByteRange::WHOLE)?;
        }
        drop(lo);
        let status = self.store_vnode(&vn, Store::Attrs(attrs))?;
        let mut lo = vn.lock_lo();
        if let Some(len) = attrs.length {
            // Truncation invalidates cached pages past the end.
            let keep = len.div_ceil(PAGE_SIZE as u64);
            for p in lo.valid.split_off(&keep) {
                self.note_clean(&mut lo, p);
                self.data.drop_page(fid, p);
            }
        }
        lo.status.clone().or(status).ok_or(BAD_REPLY)
    }

    /// Reads a file's ACL.
    pub fn get_acl(&self, fid: Fid) -> DfsResult<Acl> {
        match self.file_rpc(fid.volume, Request::GetAcl { fid })?.into_result()? {
            Response::AclIs(a) => Ok(a),
            _ => Err(BAD_REPLY),
        }
    }

    /// Replaces a file's ACL.
    pub fn set_acl(&self, fid: Fid, acl: &Acl) -> DfsResult<()> {
        self.file_rpc(fid.volume, Request::SetAcl { fid, acl: acl.clone() })?
            .into_result()?;
        Ok(())
    }

    /// Opens the file in `mode`, obtaining the matching open token.
    pub fn open(&self, fid: Fid, mode: OpenMode) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        let tok = mode.token();
        if !lo.has_types(tok) {
            self.get_token(&mut lo, tok, ByteRange::WHOLE)?;
        }
        lo.opens.push(tok);
        Ok(())
    }

    /// Closes one open handle, storing dirty data back (AFS-compatible
    /// behaviour; with tokens this is not required for consistency).
    pub fn close(&self, fid: Fid, mode: OpenMode) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        if let Some(i) = lo.opens.iter().position(|t| *t == mode.token()) {
            lo.opens.remove(i);
        }
        drop(lo);
        self.store_vnode(&vn, Store::Pages(None)).map(drop)
    }

    /// Sets a byte-range lock, locally when a lock token is held (§5.2).
    pub fn lock(&self, fid: Fid, range: ByteRange, write: bool) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        let needed = if write { TokenTypes::LOCK_WRITE } else { TokenTypes::LOCK_READ };
        if lo.find_token(needed, &range).is_some() {
            // Local conflict check among our own lockers.
            if lo.locks.iter().any(|l| l.range.overlaps(&range) && (l.write || write)) {
                return Err(DfsError::LockConflict);
            }
            lo.locks.push(HeldLock { range, write, local: true });
            return Ok(());
        }
        self.rpc_unlocked(&mut lo, Request::SetLock { fid, range, write })?;
        lo.locks.push(HeldLock { range, write, local: false });
        Ok(())
    }

    /// Tries to obtain a lock *token* so subsequent locks are local.
    pub fn acquire_lock_token(&self, fid: Fid, range: ByteRange, write: bool) -> DfsResult<()> {
        let types = if write { TokenTypes::LOCK_WRITE } else { TokenTypes::LOCK_READ };
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        self.get_token(&mut vn.lock_lo(), types, range)?;
        Ok(())
    }

    /// Releases a byte-range lock.
    pub fn unlock(&self, fid: Fid, range: ByteRange) -> DfsResult<()> {
        let vn = self.vnode(fid);
        let _hi = vn.hi.lock();
        let mut lo = vn.lock_lo();
        let was_remote = lo.locks.iter().any(|l| !l.local && l.range.overlaps(&range));
        lo.locks.retain(|l| !l.range.overlaps(&range));
        if was_remote {
            self.rpc_unlocked(&mut lo, Request::ReleaseLock { fid, range })?;
        }
        Ok(())
    }

    /// Returns tokens currently held on a fid (diagnostics/tests).
    pub fn held_tokens(&self, fid: Fid) -> Vec<Token> {
        self.vnode(fid).lock_lo().tokens.clone()
    }

    /// Handles one item of an incoming `RevokeVec`. Returns whether the
    /// token was returned.
    fn handle_revocation(&self, token: Token, types: TokenTypes, stamp: SerializationStamp) -> bool {
        self.stats.revocations.add(1);
        let Some(vn) = self.vnodes.lock().get(&token.fid).cloned() else {
            return true;
        };
        // Revocations take ONLY the low-level lock (§6.1): the
        // high-level lock may be held by one of our own
        // operations blocked on this very server.
        let mut lo = vn.lock_lo();
        if lo.in_flight > 0 && !lo.tokens.iter().any(|t| t.id == token.id) {
            // §6.3: the call that returns this token is still in
            // flight; queue the revocation for processing when the
            // reply arrives.
            lo.queued.push((token, types, stamp));
            self.stats.queued_revocations.add(1);
            return true;
        }
        self.apply_revocation(&mut lo, &token, types, stamp)
    }
}

impl Drop for CacheManager {
    /// Stops the flusher thread. Nothing is stored back — `shutdown`
    /// does that — and nothing is unbound: the network's node table
    /// holds a handle to every bound manager, so by the time the last
    /// one drops the binding is already gone.
    fn drop(&mut self) {
        self.stop_flusher();
    }
}

impl RpcService for CacheManager {
    fn dispatch(&self, _ctx: CallContext, req: Request) -> Response {
        match req {
            Request::RevokeVec { items } => {
                // Fan a batched revocation out to the per-fid handler;
                // the single ack answers every item, in order. Each
                // item takes (and releases) its own vnode's lo lock —
                // a batch may span many files.
                let returned = items
                    .into_iter()
                    .map(|(token, types, stamp)| self.handle_revocation(token, types, stamp))
                    .collect();
                Response::RevokeVecAck { returned }
            }
            Request::Ping => Response::Ok,
            _ => Response::Err(DfsError::InvalidArgument),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dfs_token::TokenId;
    use dfs_types::{VnodeId, VolumeId};
    use std::collections::VecDeque;

    fn tok(id: u64, types: TokenTypes, range: ByteRange) -> Token {
        Token {
            id: TokenId(id),
            fid: Fid::new(VolumeId(1), VnodeId(1), 1),
            types,
            range,
        }
    }

    #[test]
    fn coverage_union_of_tokens() {
        let mut st = VnState::default();
        st.tokens.push(tok(1, TokenTypes::DATA_READ, ByteRange::new(0, 100)));
        st.tokens.push(tok(2, TokenTypes::DATA_READ, ByteRange::new(100, 200)));
        assert!(st.covered(TokenTypes::DATA_READ, &ByteRange::new(0, 200)));
        assert!(st.covered(TokenTypes::DATA_READ, &ByteRange::new(50, 150)));
        assert!(!st.covered(TokenTypes::DATA_READ, &ByteRange::new(150, 250)));
        assert!(!st.covered(TokenTypes::DATA_WRITE, &ByteRange::new(0, 10)));
        assert!(st.covered(TokenTypes::DATA_READ, &ByteRange::new(5, 5)), "empty range");
    }

    #[test]
    fn coverage_with_gap_fails() {
        let mut st = VnState::default();
        st.tokens.push(tok(1, TokenTypes::DATA_WRITE, ByteRange::new(0, 100)));
        st.tokens.push(tok(2, TokenTypes::DATA_WRITE, ByteRange::new(150, 300)));
        assert!(!st.covered(TokenTypes::DATA_WRITE, &ByteRange::new(0, 300)));
        assert!(st.covered(TokenTypes::DATA_WRITE, &ByteRange::new(160, 290)));
    }

    #[test]
    fn merge_status_is_monotone_in_stamps() {
        let mut st = VnState::default();
        let s5 = FileStatus { length: 5, ..Default::default() };
        assert!(st.merge_status(s5, SerializationStamp(5)));
        let s3 = FileStatus { length: 3, ..Default::default() };
        assert!(!st.merge_status(s3, SerializationStamp(3)), "older stamp rejected (§6.3)");
        assert_eq!(st.status.as_ref().unwrap().length, 5);
        let s9 = FileStatus { length: 9, ..Default::default() };
        assert!(st.merge_status(s9, SerializationStamp(9)));
        assert_eq!(st.status.as_ref().unwrap().length, 9);
        assert_eq!(st.stamp, SerializationStamp(9));
    }

    #[test]
    fn status_trust_requires_token() {
        let mut st = VnState::default();
        st.merge_status(FileStatus::default(), SerializationStamp(1));
        assert!(st.trusted_status().is_none(), "status without a token is untrusted");
        st.tokens.push(tok(1, TokenTypes::STATUS_READ, ByteRange::WHOLE));
        assert!(st.trusted_status().is_some());
        assert!(!st.dir_trusted(), "dir trust needs data+status read");
        st.tokens.push(tok(2, TokenTypes(TokenTypes::STATUS_READ.0 | TokenTypes::DATA_READ.0), ByteRange::WHOLE));
        assert!(st.dir_trusted());
    }

    #[test]
    fn a_hint_no_newer_than_the_cache_invalidates_the_entry() {
        use crate::cache::MemCache;
        use dfs_types::{ClientId, ServerId, SimClock};

        let net = Network::new(SimClock::new(), 0);
        let cm = CacheManager::start(net, ClientId(1), Vec::new(), Arc::new(MemCache::new()));
        let cached = |cm: &CacheManager| cm.locations.lock().get(&VolumeId(7)).copied();
        assert!(cm.loc_install(VolumeId(7), ServerId(2), 5));
        // Same or older generation: not installed, the entry stands.
        assert!(!cm.loc_install(VolumeId(7), ServerId(1), 5));
        assert!(!cm.loc_install(VolumeId(7), ServerId(1), 4));
        assert_eq!(cached(&cm), Some((ServerId(2), 5)));
        // A newer one replaces it.
        assert!(cm.loc_install(VolumeId(7), ServerId(3), 6));
        assert_eq!(cached(&cm), Some((ServerId(3), 6)));
        // A stale redirect leaves nothing to trust: the next use asks the VLDB.
        cm.follow_redirect(VolumeId(7), ServerId(1), 6);
        assert_eq!(cached(&cm), None);
        assert_eq!(cm.stats().wrong_server_redirects, 1);
        let _ = cm.shutdown();
    }

    #[test]
    fn the_recovery_mark_is_per_client_and_nests_on_one_thread() {
        use crate::cache::MemCache;
        use dfs_types::{ClientId, ServerId, SimClock};

        // An RPC runs the callee on the caller's thread, so client B's
        // code can run under client A's recovery, on A's stack.
        let net = Network::new(SimClock::new(), 0);
        let start = |id| CacheManager::start(net.clone(), ClientId(id), Vec::new(), Arc::new(MemCache::new()));
        let (a, b) = (start(1), start(2));
        let s = ServerId(1);
        a.note_epoch(s, 1);
        b.note_epoch(s, 1);
        {
            let _a_recovering = Recovering::enter(a.id);
            // A's own observations are recovery's: no recursion.
            a.note_epoch(s, 2);
            assert_eq!(a.stats().recoveries, 0);
            // B's are not: B still sees the restart and recovers …
            b.note_epoch(s, 2);
            assert_eq!(b.stats().recoveries, 1);
            // … and B leaving its recovery did not end A's.
            assert_eq!(IN_RECOVERY.get(), Some(a.id));
            a.note_epoch(s, 3);
            assert_eq!(a.stats().recoveries, 0);
        }
        assert_eq!(IN_RECOVERY.get(), None);
        a.note_epoch(s, 3);
        assert_eq!(a.stats().recoveries, 1);
    }

    #[test]
    fn queued_revocation_survives_unrelated_absorb_while_reply_in_flight() {
        use crate::cache::MemCache;
        use dfs_types::{ClientId, SimClock};

        let net = Network::new(SimClock::new(), 0);
        let cm = CacheManager::start(net, ClientId(1), Vec::new(), Arc::new(MemCache::new()));
        let fid = Fid::new(VolumeId(1), VnodeId(1), 1);
        let vn = cm.vnode(fid);
        let t = tok(
            42,
            TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0),
            ByteRange::WHOLE,
        );

        // A revocation arrives for a token whose granting reply is still
        // in flight (§6.3): it parks in the queue. Two RPCs are out —
        // say a FetchData and a flusher store-back.
        {
            let mut lo = vn.lock_lo();
            lo.in_flight = 2;
            lo.queued.push((t.clone(), t.types, SerializationStamp(7)));
        }
        // The unrelated reply (no tokens) merges first: the queued
        // revocation must survive this drain — its token is airborne.
        {
            let mut lo = vn.lock_lo();
            lo.in_flight -= 1;
            cm.absorb(&mut lo, None, Vec::new());
            assert_eq!(lo.queued.len(), 1, "revocation of an in-flight token must stay queued");
        }
        // The granting reply lands: the token installs and the parked
        // revocation strips it in the same merge.
        {
            let mut lo = vn.lock_lo();
            lo.in_flight -= 1;
            cm.absorb(&mut lo, None, vec![t]);
            assert!(lo.queued.is_empty());
            assert!(lo.tokens.is_empty(), "token must not survive its queued revocation");
        }
        // A revocation whose token never arrives is dropped once nothing
        // is in flight any more (returned voluntarily — genuinely moot).
        {
            let mut lo = vn.lock_lo();
            lo.queued.push((
                tok(43, TokenTypes::DATA_READ, ByteRange::WHOLE),
                TokenTypes::DATA_READ,
                SerializationStamp(9),
            ));
            cm.absorb(&mut lo, None, Vec::new());
            assert!(lo.queued.is_empty(), "moot revocation dropped when nothing is in flight");
        }
        let _ = cm.shutdown();
    }

    #[test]
    fn open_mode_token_mapping() {
        assert_eq!(OpenMode::Read.token(), TokenTypes::OPEN_READ);
        assert_eq!(OpenMode::Write.token(), TokenTypes::OPEN_WRITE);
        assert_eq!(OpenMode::Execute.token(), TokenTypes::OPEN_EXECUTE);
        assert_eq!(OpenMode::SharedRead.token(), TokenTypes::OPEN_SHARED_READ);
        assert_eq!(OpenMode::ExclusiveWrite.token(), TokenTypes::OPEN_EXCLUSIVE_WRITE);
    }

    #[test]
    fn find_token_requires_full_containment() {
        let mut st = VnState::default();
        st.tokens.push(tok(1, TokenTypes::LOCK_WRITE, ByteRange::new(10, 20)));
        assert!(st.find_token(TokenTypes::LOCK_WRITE, &ByteRange::new(12, 18)).is_some());
        assert!(st.find_token(TokenTypes::LOCK_WRITE, &ByteRange::new(5, 18)).is_none());
        assert!(st.find_token(TokenTypes::LOCK_READ, &ByteRange::new(12, 18)).is_none());
        assert!(st.has_types(TokenTypes::LOCK_WRITE));
        assert!(!st.has_types(TokenTypes::OPEN_READ));
    }

    // ------------------------------------------------------------------
    // The RPC spine, against a live server and against scripted peers
    // ------------------------------------------------------------------

    use crate::cache::MemCache;
    use dfs_disk::{DiskConfig, SimDisk};
    use dfs_episode::{Episode, FormatParams};
    use dfs_rpc::{FaultAction, FaultRule, FaultSchedule};
    use dfs_server::{FileServer, VldbReplica};
    use dfs_types::SimClock;

    pub(crate) const VOL: VolumeId = VolumeId(1);
    pub(crate) const S1: ServerId = ServerId(1);

    /// A flusher-less client, so the test body sends every RPC itself.
    pub(crate) fn client(
        net: &Network,
        id: u32,
        data: Arc<dyn DataCache>,
    ) -> Arc<CacheManager> {
        let wb = WritebackConfig { flusher: false, ..WritebackConfig::default() };
        CacheManager::start_with_config(net.clone(), ClientId(id), vec![Addr::Vldb(0)], data, wb)
    }

    /// A cell — one VLDB replica, one file server exporting `VOL` from
    /// Episode — with a durable one-page file in the volume's root.
    /// Returns the network, the root and the file.
    pub(crate) fn cell_with_file() -> (Network, Fid, Fid) {
        let (net, _, root, fid) = served_cell_with_file();
        (net, root, fid)
    }

    /// [`cell_with_file`], handing out the file server too — for tests
    /// that rebind its address to a tap in front of it.
    pub(crate) fn served_cell_with_file() -> (Network, Arc<FileServer>, Fid, Fid) {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 0);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
        ep.create_volume(VOL, "v").unwrap();
        let vldb = vec![Addr::Vldb(0)];
        let server =
            FileServer::start(net.clone(), S1, ep, vldb, PoolConfig::default()).unwrap();
        let owner = client(&net, 1, Arc::new(MemCache::new()));
        let root = owner.root(VOL).unwrap();
        let fid = owner.create(root, "f", 0o644).unwrap().fid;
        owner.write(fid, 0, &[7u8; PAGE_SIZE]).unwrap();
        owner.fsync(fid).unwrap();
        (net, server, root, fid)
    }

    /// No vnode counts an RPC in flight, holds its store slot, or has a
    /// revocation handler at it.
    fn assert_nothing_in_flight(cm: &CacheManager, when: &str) {
        let vnodes: Vec<Arc<CVnode>> = cm.vnodes.lock().values().cloned().collect();
        for vn in vnodes {
            let lo = vn.lock_lo();
            assert_eq!(lo.in_flight, 0, "{when}: {:?} still counts an RPC", vn.fid);
            assert!(!lo.storing && lo.revoking == 0, "{when}: {:?} slot not free", vn.fid);
        }
    }

    #[test]
    fn failed_page_install_leaves_no_rpc_counted_in_flight() {
        let (net, _, fid) = cell_with_file();
        // A disk cache with no blocks: every `write_page` is `NoSpace`.
        let full = DiskCache::new(SimDisk::new(DiskConfig::with_blocks(0)));
        let cm = client(&net, 2, Arc::new(full));
        // The write token without the page: a 2-byte write must first
        // fetch the page, and installing it is what fails.
        cm.acquire_data_token(fid, ByteRange::WHOLE, true).unwrap();
        assert_eq!(cm.write(fid, 10, b"xy"), Err(DfsError::NoSpace));
        assert_nothing_in_flight(&cm, "after the failed install");
        // With nothing in flight, a revocation for a token this client
        // never saw is moot — not parked to be re-queued forever.
        let stranger = Token { id: TokenId(u64::MAX), fid, ..tok(0, TokenTypes::DATA_READ, ByteRange::WHOLE) };
        assert!(cm.handle_revocation(stranger, TokenTypes::DATA_READ, SerializationStamp(99)));
        assert!(cm.vnode(fid).lock_lo().queued.is_empty());
    }

    /// A peer that answers from a script, then `Response::Ok` forever.
    struct Scripted(parking_lot::Mutex<VecDeque<Response>>);

    impl RpcService for Scripted {
        fn dispatch(&self, _ctx: CallContext, _req: Request) -> Response {
            self.0.lock().pop_front().unwrap_or(Response::Ok)
        }
    }

    /// What the first attempt of a `file_rpc` meets on the wire.
    enum First {
        Reply(Response),
        /// The fault plane drops the request once.
        Dropped,
        /// Nothing listens at the server's address.
        NoServer,
        /// Nothing listens at the VLDB's address either.
        NoVldb,
    }

    #[test]
    fn retry_ladder_classifies_every_outcome_and_moves_only_its_counters() {
        use Verdict::*;
        let status = Response::Status {
            status: FileStatus::default(),
            tokens: Vec::new(),
            stamp: SerializationStamp(1),
            epoch: 7,
            stale_us: 0,
        };
        let err = |e| First::Reply(Response::Err(e));
        let retried = || Ok(Response::Ok);
        let none = ClientStats::default;
        let backoff = || ClientStats { backoff_rounds: 1, ..none() };
        let budget = u64::from(RPC_RETRY_BUDGET);
        let spent = || ClientStats { backoff_rounds: budget, unavailable_giveups: 1, ..none() };
        let moved = First::Reply(Response::WrongServer { hint: S1, generation: 9 });
        // The one arm the simulated network cannot produce on the wire.
        assert_eq!(classify(&Err(DfsError::Crashed)), PrimaryDown, "transport Crashed");
        // (arm, first attempt, verdict, file_rpc's result, counters moved)
        #[rustfmt::skip]
        let table: Vec<(&str, First, Verdict, DfsResult<Response>, ClientStats)> = vec![
            ("WrongServer", moved, Moved { hint: S1, generation: 9 }, retried(),
                ClientStats { wrong_server_redirects: 1, ..none() }),
            ("NoSuchVolume", err(DfsError::NoSuchVolume), Unplaced, retried(), backoff()),
            ("VolumeBusy", err(DfsError::VolumeBusy), Busy, retried(),
                ClientStats { busy_retries: 1, ..backoff() }),
            ("GraceWait", err(DfsError::GraceWait), Grace, retried(),
                ClientStats { grace_waits: 1, ..backoff() }),
            ("Response::Err(Crashed)", err(DfsError::Crashed), PrimaryDown, retried(),
                ClientStats { transport_retries: 1, ..backoff() }),
            ("transport Timeout", First::Dropped, PrimaryDown, retried(),
                ClientStats { transport_retries: 1, ..backoff() }),
            ("transport Unreachable", First::NoServer, PrimaryDown, Err(DfsError::Unavailable),
                ClientStats { transport_retries: budget, ..spent() }),
            ("VLDB cannot place the volume", First::NoVldb, PrimaryDown,
                Err(DfsError::Unavailable), spent()),
            ("non-retryable error", err(DfsError::PermissionDenied), Done,
                Ok(Response::Err(DfsError::PermissionDenied)), none()),
            ("success carrying an epoch", First::Reply(status.clone()), Done, Ok(status), none()),
        ];
        for (arm, first, verdict, result, moved) in table {
            let outcome = match &first {
                First::Reply(r) => Ok(r.clone()),
                First::Dropped => Err(DfsError::Timeout),
                First::NoServer | First::NoVldb => Err(DfsError::Unreachable),
            };
            assert_eq!(classify(&outcome), verdict, "{arm}: verdict");
            let net = Network::new(SimClock::new(), 0);
            let cm = client(&net, 1, Arc::new(MemCache::new()));
            if !matches!(first, First::NoVldb) {
                net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
                cm.vldb.register(VOL, S1).unwrap();
            }
            let script = Arc::new(Scripted(parking_lot::Mutex::new(VecDeque::new())));
            if !matches!(first, First::NoServer) {
                net.register(Addr::Server(S1), script.clone(), PoolConfig::default());
            }
            match first {
                First::Reply(r) => script.0.lock().push_back(r),
                First::Dropped => net.set_fault_schedule(
                    FaultSchedule::seeded(1)
                        .rule(FaultRule::on(FaultAction::Drop).label("Ping").limit(1)),
                ),
                _ => {}
            }
            assert_eq!(cm.file_rpc(VOL, Request::Ping), result, "{arm}: result");
            assert_eq!(format!("{:?}", cm.stats()), format!("{moved:?}"), "{arm}: counters");
            if arm == "success carrying an epoch" {
                assert_eq!(cm.known_epochs.lock().get(&S1), Some(&7), "{arm}: epoch noted");
            }
        }
    }

    #[test]
    fn every_vnode_op_leaves_in_flight_at_zero_on_success_and_on_a_dropped_rpc() {
        type Step = fn(&CacheManager, Fid, Fid) -> DfsResult<()>;
        let nothing: Step = |_, _, _| Ok(());
        let dirty: Step = |c, _, f| c.write(f, 0, &[6u8; PAGE_SIZE]).map(drop);
        const SPAN: ByteRange = ByteRange { start: 0, end: 8 };
        // (op, set-up on the same client, the op); both get the root
        // directory and a one-page file in it.
        #[rustfmt::skip]
        let ops: Vec<(&str, Step, Step)> = vec![
            ("read", nothing, |c, _, f| c.read(f, 0, 8).map(drop)),
            ("write (token)", nothing, |c, _, f| c.write(f, 0, &[6u8; PAGE_SIZE]).map(drop)),
            ("write (partial page)", nothing, |c, _, f| c.write(f, 3, b"ab").map(drop)),
            ("fsync", dirty, |c, _, f| c.fsync(f)),
            ("close", dirty, |c, _, f| c.close(f, OpenMode::Write)),
            ("acquire_data_token", nothing, |c, _, f| c.acquire_data_token(f, ByteRange::WHOLE, false)),
            ("acquire_lock_token", nothing, |c, _, f| c.acquire_lock_token(f, SPAN, true)),
            ("open", nothing, |c, _, f| c.open(f, OpenMode::Read)),
            ("lookup", nothing, |c, d, _| c.lookup(d, "f").map(drop)),
            ("readdir", nothing, |c, d, _| c.readdir(d).map(drop)),
            ("create", nothing, |c, d, _| c.create(d, "made", 0o644).map(drop)),
            ("mkdir", nothing, |c, d, _| c.mkdir(d, "dir", 0o755).map(drop)),
            ("symlink", nothing, |c, d, _| c.symlink(d, "sym", "f").map(drop)),
            ("link", nothing, |c, d, f| c.link(d, "hard", f).map(drop)),
            ("remove", |c, d, _| c.create(d, "victim", 0o644).map(drop), |c, d, _| c.remove(d, "victim")),
            ("rmdir", |c, d, _| c.mkdir(d, "victims", 0o755).map(drop), |c, d, _| c.rmdir(d, "victims")),
            ("getattr", nothing, |c, _, f| c.getattr(f).map(drop)),
            ("setattr", nothing, |c, _, f| {
                c.setattr(f, &SetAttrs { mode: Some(0o600), ..SetAttrs::default() }).map(drop)
            }),
            ("lock", nothing, |c, _, f| c.lock(f, SPAN, true)),
            ("unlock", |c, _, f| c.lock(f, SPAN, true), |c, _, f| c.unlock(f, SPAN)),
        ];
        // Every op runs on a fresh client (nothing cached, so it must
        // send) in a fresh cell (so set-up never finds leftovers).
        for (op, setup, run) in ops {
            for dropped in [false, true] {
                let (net, root, fid) = cell_with_file();
                let cm = client(&net, 2, Arc::new(MemCache::new()));
                setup(&cm, root, fid).unwrap();
                if dropped {
                    let (from, to) = (Addr::Client(cm.id()), Addr::Server(S1));
                    net.set_fault_schedule(
                        FaultSchedule::seeded(1)
                            .rule(FaultRule::on(FaultAction::Drop).from(from).to(to)),
                    );
                }
                let sent = net.stats().calls;
                let result = run(&cm, root, fid);
                assert_eq!(result.is_err(), dropped, "{op}, dropped: {dropped}: {result:?}");
                // (A dropped request is seen by its error, not counted.)
                assert!(dropped || net.stats().calls > sent, "{op} must send an RPC");
                assert_nothing_in_flight(&cm, &format!("{op}, dropped: {dropped}"));
                if !dropped && matches!(op, "read" | "getattr") {
                    // The same call again is a hot hit: served under
                    // `hi` + `lo` from the cache, counted once, no RPC.
                    let (before, sent) = (cm.stats(), net.stats().calls);
                    run(&cm, root, fid).unwrap();
                    let hot = cm.stats().since(&before);
                    assert_eq!((hot.local_reads, hot.lockfree_reads), (1, 0), "hot {op}");
                    assert_eq!(net.stats().calls, sent, "hot {op} sent an RPC");
                }
            }
        }
    }

    /// A cached read copies each page's bytes once, straight out of the
    /// cache (`DataCache::read_into`): a part of one page, a span across
    /// two, and a range clipped at the end of the file, each served
    /// locally with no RPC, from either built-in cache.
    #[test]
    fn cached_reads_of_partial_two_page_and_eof_clipped_ranges() {
        let disk = SimDisk::new(DiskConfig::with_blocks(64));
        let caches: [Arc<dyn DataCache>; 2] =
            [Arc::new(MemCache::new()), Arc::new(crate::cache::DiskCache::new(disk))];
        for cache in caches {
            let (net, _, fid) = cell_with_file();
            let cm = client(&net, 2, cache);
            let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
            cm.write(fid, 0, &data).unwrap();
            assert_eq!(cm.read(fid, 0, 2 * PAGE_SIZE).unwrap(), data);
            let p = PAGE_SIZE;
            let ranges = [(10, 20, &data[10..30]), (p - 5, 10, &data[p - 5..p + 5])];
            for (offset, len, want) in ranges.into_iter().chain([(p + 50, 200, &data[p + 50..])]) {
                let (before, sent) = (cm.stats(), net.stats().calls);
                assert_eq!(cm.read(fid, offset as u64, len).unwrap(), want, "at {offset}");
                assert_eq!(cm.stats().since(&before).local_reads, 1, "at {offset}");
                assert_eq!(net.stats().calls, sent, "at {offset}");
            }
        }
    }

    #[test]
    fn link_reply_is_merged_under_the_targets_own_status_token() {
        let (net, root, fid) = cell_with_file();
        let cm = client(&net, 2, Arc::new(MemCache::new()));
        // Run the file's stamp counter ahead of the directory's, as any
        // file with more traffic than its directory has: each change of
        // mode is one stamped store on the file alone.
        for mode in [0o600, 0o640, 0o644, 0o600, 0o640, 0o644] {
            cm.setattr(fid, &SetAttrs { mode: Some(mode), ..SetAttrs::default() }).unwrap();
        }
        assert_eq!(cm.getattr(fid).unwrap().nlink, 1);
        assert_eq!(cm.link(root, "again", fid).unwrap().nlink, 2);
        let (sent, dropped) = (net.stats().calls, cm.stats().stale_status_dropped);
        assert_eq!(cm.getattr(fid).unwrap().nlink, 2, "the reply's status was dropped as stale");
        assert_eq!(net.stats().calls, sent, "served from the cache");
        assert_eq!(cm.stats().stale_status_dropped, dropped);
    }

    #[test]
    fn two_threads_on_one_cache_manager_read_whole_acknowledged_writes() {
        use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

        const WRITES: u32 = 300;
        let (net, _, fid) = cell_with_file();
        let a = client(&net, 2, Arc::new(MemCache::new()));
        let b = client(&net, 3, Arc::new(MemCache::new()));
        let page = |tag: u32| tag.to_le_bytes().repeat(PAGE_SIZE / 4);
        a.write(fid, 0, &page(0)).unwrap();
        a.fsync(fid).unwrap();
        // `started` moves before a write is called, `acked` after it
        // returns: a read that began after `acked == n` and ended before
        // `started == m` must see one whole tag in n..=m (§5).
        let (started, acked, done) = (AtomicU32::new(0), AtomicU32::new(0), AtomicBool::new(false));
        let read_checked = |cm: &CacheManager, who: &str| {
            let floor = acked.load(Ordering::SeqCst);
            let bytes = cm.read(fid, 0, PAGE_SIZE).unwrap();
            let ceiling = started.load(Ordering::SeqCst);
            assert_eq!(bytes.len(), PAGE_SIZE, "{who}: short read");
            let tag = u32::from_le_bytes(bytes[..4].try_into().unwrap());
            assert_eq!(bytes, page(tag), "{who}: torn page");
            assert!((floor..=ceiling).contains(&tag), "{who}: read {tag}, want {floor}..={ceiling}");
        };
        // Set when the writer ends, by panic too: a failed write must
        // fail the test, not leave the readers spinning for ever.
        struct Done<'a>(&'a AtomicBool);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let go = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _done = Done(&done);
                go.wait();
                for tag in 1..=WRITES {
                    started.store(tag, Ordering::SeqCst);
                    a.write(fid, 0, &page(tag)).unwrap();
                    acked.store(tag, Ordering::SeqCst);
                    a.fsync(fid).unwrap();
                }
            });
            // The second application thread on the same cache manager.
            s.spawn(|| {
                go.wait();
                while !done.load(Ordering::SeqCst) {
                    read_checked(&a, "same client");
                    assert_eq!(a.getattr(fid).unwrap().length, PAGE_SIZE as u64);
                }
            });
            // Another client reading the file back pulls the write token
            // away: the handler's store-back runs beside both threads.
            s.spawn(|| {
                go.wait();
                while !done.load(Ordering::SeqCst) {
                    read_checked(&b, "other client");
                }
            });
        });
        read_checked(&a, "same client, at rest");
        read_checked(&b, "other client, at rest");
        for cm in [&a, &b] {
            assert_nothing_in_flight(cm, "at rest");
            assert_eq!((cm.dirty_pages(fid), cm.total_dirty_pages()), (0, 0));
        }
    }
}
