//! Ranked locks: the workspace-wide lock hierarchy and its runtime
//! enforcement.
//!
//! Every long-lived lock in the workspace carries a static [`LockRank`]
//! (one kind excepted, below). A thread may only acquire a lock whose
//! rank is **strictly greater** than every rank it already holds; debug builds
//! keep a thread-local stack of held ranks and panic on the first
//! violation, turning a potential deadlock into a deterministic test
//! failure at the exact acquisition site. Release builds compile the
//! bookkeeping away — an [`OrderedMutex`] is exactly a `parking_lot`
//! mutex.
//!
//! # The global hierarchy
//!
//! Ranks ascend in the order locks may be nested (acquired-later ⇒
//! higher rank). The tiers, lowest first:
//!
//! | rank constant          | value | guards |
//! |------------------------|-------|--------|
//! | `SCENARIO_CONTROL`     |   5   | the bench scenario engine's timeline and sampling control (held across cell admin ops) |
//! | `CLIENT_VNODE_HI`      |  10   | per-vnode high-level operation lock (§6.1) |
//! | `CLIENT_RECOVERY`      |  15   | client crash-recovery serialization (one epoch transition at a time) |
//! | `CLIENT_VNODE_TABLE`   |  20   | cache manager's fid → vnode map |
//! | `CLIENT_VNODE_LO`      |  30   | per-vnode low-level state lock (§6.1) |
//! | `CLIENT_RESOURCE`      |  40   | ticket, volume-location and root caches (§4.1) |
//! | `CLIENT_DATA_CACHE`    |  50   | client page stores (§4.2) |
//! | `BASELINE_CLIENT`      |  55   | the NFS baseline client's attribute and page caches, the AFS baseline client's file cache |
//! | `CLIENT_FLUSHER`       |  60   | background-store daemon control block (wake/stop flags, the daemon's join handle) |
//! | `CELL_SERVERS`         |  80   | one of the cell's server slots (instance, Episode, disk) |
//! | `CELL_ADMIN`           |  85   | the cell's administrative ticket |
//! | `CELL_LOAD`            |  90   | the cell's load baseline: per-volume op counts at the last `Cell::load` |
//! | `VOLUME_REGISTRY`      | 100   | the file server's volume table (`dfs-server`'s `volumes.rs`: one entry per volume — state, mount, in-flight and op counts, replication job); the VLDB replica's map (§3.4) |
//! | `SERVER_ROUTES`        | 105   | the VLDB replica's replica-site lists (§3.8; a file server's route notes for moved-away volumes are in its volume table) |
//! | `SERVER_HOSTS`         | 110   | the file server's host table (§3.2): every host registered with its token manager, leases and the post-restart grace window |
//! | `TOKEN_MANAGER`        | 120   | the token manager's host registry (§5; the grant table itself is sharded at `TOKEN_SHARD`) |
//! | `TOKEN_SHARD`          | 122   | one fid-hash shard of the token manager's grant/stamp tables (§5); same-rank nesting allowed only in ascending shard-index order |
//! | `TOKEN_CLAIMS`         | 124   | the token manager's count of ended grant claims, which a grant waiting out another host's claim sleeps on (§5) |
//! | `HOST_TABLE`           | 130   | local-host activity counts in the glue layer (§3.2) |
//! | `BASELINE_SERVER`      | 135   | the AFS baseline server's callback promises |
//! | `LOCK_TABLE`           | 140   | server byte-range lock table (§3.6) |
//! | `EPISODE_RENAME`       | 141   | one volume's renames between two different directories |
//! | `EPISODE_VOLUME_OPS`   | 142   | Episode's volume-table operations (create, delete, clone, dump, restore) |
//! | `EPISODE_COUNTERS`     | 144   | Episode's map of per-volume counters |
//! | `EPISODE_MARKS`        | 146   | one volume's counter-mark extensions and header rewrites |
//! | `EPISODE_ALLOC`        | 148   | Episode's anode and block allocator |
//! | `FFS`                  | 149   | the FFS baseline's one lock over every operation |
//! | `JOURNAL_CACHE`        | 150   | journal buffer-cache map (hits read, misses write) |
//! | `JOURNAL_FRAME`        | 160   | individual buffer-frame latches |
//! | `JOURNAL_TXNS`         | 170   | journal transaction table (§2.2) |
//! | `JOURNAL_LOG`          | 180   | the log tail |
//! | `HOST_LOG`             | 190   | the host journal's ring tail (§3.5 recovery facts) |
//! | `DISK`                 | 200   | simulated device state |
//! | `NET_NODES`            | 210   | the network's node table and its statistics |
//! | `NET_FAULTS`           | 220   | the network's fault plane |
//! | `NET_AUTH`             | 230   | the authentication registry's users and sessions (§3.7) |
//! | `NET_GATE`             | 240   | one node's admission gate for one call class (§6.4) |
//!
//! Two rules follow from the paper and are checked by both this module
//! (dynamically) and `dfs-lint` (statically):
//!
//! * `TokenHost::revoke` must be entered with **no** ranked lock held —
//!   the token manager calls revocation methods "while not holding any
//!   token manager locks" (§5.1), and revocation RPCs must be
//!   processable no matter what the busy peer is doing (§6.4).
//! * A guard must never be live across a `dfs-rpc` send: the reply may
//!   be blocked behind a revocation aimed back at the caller.
//!
//! The network's locks rank above everything else: a call takes each
//! one briefly and lets it go before the callee's `dispatch` runs, so a
//! service (and a revocation it sends back) starts with none of them
//! held.
//!
//! Every long-lived lock in the workspace is one of these wrappers but
//! Episode's per-anode locks: those follow a rule of their own, which a
//! rank cannot state (directories in slot order, any other anode only
//! if free at once; DESIGN.md §8 "Episode's anode locks").
//! Statistics take no lock at all: they are relaxed atomic counters
//! ([`crate::counters`]).

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Rank constants of the global hierarchy (see the module docs).
pub mod rank {
    /// The bench scenario engine's timeline and sampling control. The
    /// lowest rank: a worker fires timeline events (crash, restart, move)
    /// under it, and those take the cell's and the servers' locks.
    pub const SCENARIO_CONTROL: u16 = 5;
    /// Per-vnode high-level operation lock (§6.1).
    pub const CLIENT_VNODE_HI: u16 = 10;
    /// Client crash-recovery serialization. Ranked between the per-vnode
    /// high lock and the vnode table: an operation discovering an epoch
    /// change holds at most one vnode's high lock, and the recovery
    /// procedure itself only takes low locks (rank 30) underneath.
    pub const CLIENT_RECOVERY: u16 = 15;
    /// Cache manager's fid → vnode map. Ranked *above* the high-level
    /// lock because operations consult the map while already serialized
    /// on a vnode (seeding a child's status after a lookup or namespace
    /// RPC); the map guard itself is never held across any other
    /// acquisition.
    pub const CLIENT_VNODE_TABLE: u16 = 20;
    /// Per-vnode low-level state lock (§6.1).
    pub const CLIENT_VNODE_LO: u16 = 30;
    /// Client resource layer: ticket, location and root caches (§4.1).
    pub const CLIENT_RESOURCE: u16 = 40;
    /// Client page stores (§4.2).
    pub const CLIENT_DATA_CACHE: u16 = 50;
    /// The baseline clients' caches: the NFS client's attribute and page
    /// caches and the AFS client's whole-file cache. Leaves: none is held
    /// across an RPC or while another is taken.
    pub const BASELINE_CLIENT: u16 = 55;
    /// Background-store daemon control block (its wake and stop flags
    /// and its join handle). Ranked above the vnode locks so writers may
    /// kick the flusher while holding `lo`; the flusher itself drops this
    /// lock before touching any vnode.
    pub const CLIENT_FLUSHER: u16 = 60;
    /// One of the cell's server slots: the running instance, its Episode
    /// and its disk. Held while a slot crashes (the network and the
    /// disk rank above), never across an RPC: a restart builds the new
    /// instance with no slot held and installs it under the lock.
    pub const CELL_SERVERS: u16 = 80;
    /// The cell's administrative ticket: read for each admin call, set
    /// by `Cell::admin_login` (a later login renews an expiring ticket).
    /// A leaf.
    pub const CELL_ADMIN: u16 = 85;
    /// The cell's load baseline (per-volume op counts at the last
    /// `Cell::load`). Ranked below every server-side lock: a load
    /// observation reads servers (which take VOLUME_REGISTRY and above).
    pub const CELL_LOAD: u16 = 90;
    /// *The* file-server volume table — one lock over every volume's
    /// state, mount, in-flight count, op count, route note and
    /// replication job — and the VLDB replica's map (§3.4).
    pub const VOLUME_REGISTRY: u16 = 100;
    /// The VLDB replica's replica-site lists (§3.8), ranked just above
    /// its `VOLUME_REGISTRY` location map. (The route notes for
    /// moved-away volumes the name recalls live in the volume table.)
    pub const SERVER_ROUTES: u16 = 105;
    /// The file server's host table (§3.2): every host registered with
    /// its token manager, their last-seen times and the post-restart
    /// grace window. Ranked below the token manager: entering a host
    /// registers its proxy under this lock.
    pub const SERVER_HOSTS: u16 = 110;
    /// The token manager's host registry (§5). Since the grant tables
    /// were sharded (`TOKEN_SHARD`), this rank guards only the
    /// host-id → callback-interface map; it sits just below the shards
    /// so resolving a host while planning a cross-shard operation is
    /// legal in either order (the registry guard is never actually held
    /// across a shard acquisition today).
    pub const TOKEN_MANAGER: u16 = 120;
    /// One fid-hash shard of the token manager's grant/stamp tables
    /// (§5). Same-rank nesting is allowed **only in strictly ascending
    /// shard-index order** — cross-shard operations (whole-volume
    /// revocation, volume export) walk the shards 0..N.
    pub const TOKEN_SHARD: u16 = 122;
    /// The token manager's count of ended grant claims, which a grant
    /// that must wait for another host's claim sleeps on. Taken under a
    /// shard (the waiter reads the count before it lets its shards go)
    /// or alone; never held across a revocation.
    pub const TOKEN_CLAIMS: u16 = 124;
    /// Local-host activity tracking in the glue layer (§3.2).
    pub const HOST_TABLE: u16 = 130;
    /// The AFS baseline server's callback promises. A leaf: callbacks are
    /// broken with it released.
    pub const BASELINE_SERVER: u16 = 135;
    /// Server byte-range lock table (§3.6).
    pub const LOCK_TABLE: u16 = 140;
    /// One volume's renames between two different directories, one at
    /// a time (Linux's `s_vfs_rename_mutex`), so the check that a
    /// directory is not moved into its own subtree walks a tree no other
    /// move changes. Taken before any anode lock; never nests with the
    /// volume-table lock.
    pub const EPISODE_RENAME: u16 = 141;
    /// Episode's volume-table operations (create, delete, clone, dump,
    /// restore): the outermost Episode lock, held across the others.
    pub const EPISODE_VOLUME_OPS: u16 = 142;
    /// Episode's map of per-volume counters, by header anode: held while
    /// a volume's counters load from its header.
    pub const EPISODE_COUNTERS: u16 = 144;
    /// One volume's counter-mark extensions and header rewrites: held
    /// across the transaction that logs new marks.
    pub const EPISODE_MARKS: u16 = 146;
    /// Episode's anode and block allocator, held across a scan-and-claim
    /// and so across the journal updates that claim.
    pub const EPISODE_ALLOC: u16 = 148;
    /// The FFS baseline's one lock over every operation: where Episode's
    /// locks stand, with only the disk under it.
    pub const FFS: u16 = 149;
    /// Journal buffer-cache map: a hit takes it for reading, a miss for
    /// writing.
    pub const JOURNAL_CACHE: u16 = 150;
    /// Individual buffer-frame latches. An update holds its frame's
    /// latch while it merges classes and appends its record.
    pub const JOURNAL_FRAME: u16 = 160;
    /// Journal transaction table (§2.2): taken under a frame latch for
    /// the class merge, and held across the record's append.
    pub const JOURNAL_TXNS: u16 = 170;
    /// The log tail.
    pub const JOURNAL_LOG: u16 = 180;
    /// The host journal's ring tail (§3.5): held across the synchronous
    /// write of its block, so only the disk ranks above it.
    pub const HOST_LOG: u16 = 190;
    /// Simulated device state: a leaf under the journal's and the host
    /// journal's locks.
    pub const DISK: u16 = 200;
    /// The network's node table and its statistics. Like every network
    /// lock, a leaf taken and released inside `Network::call` before the
    /// callee's `dispatch` runs, so ranked above every lock a caller may
    /// hold across a send.
    pub const NET_NODES: u16 = 210;
    /// The network's fault plane (the armed schedule's rules and RNG).
    pub const NET_FAULTS: u16 = 220;
    /// The authentication registry's users and sessions (§3.7).
    pub const NET_AUTH: u16 = 230;
    /// One node's admission gate for one call class (§6.4): the free
    /// slot count, waited on by callers with no slot. A held slot is no
    /// lock; the gate's lock is let go before `dispatch` runs.
    pub const NET_GATE: u16 = 240;

    /// Human-readable name of a rank, for panic messages.
    pub fn name(r: u16) -> &'static str {
        match r {
            SCENARIO_CONTROL => "SCENARIO_CONTROL",
            CLIENT_VNODE_TABLE => "CLIENT_VNODE_TABLE",
            CLIENT_VNODE_HI => "CLIENT_VNODE_HI",
            CLIENT_RECOVERY => "CLIENT_RECOVERY",
            CLIENT_VNODE_LO => "CLIENT_VNODE_LO",
            CLIENT_RESOURCE => "CLIENT_RESOURCE",
            CLIENT_DATA_CACHE => "CLIENT_DATA_CACHE",
            BASELINE_CLIENT => "BASELINE_CLIENT",
            CLIENT_FLUSHER => "CLIENT_FLUSHER",
            CELL_SERVERS => "CELL_SERVERS",
            CELL_ADMIN => "CELL_ADMIN",
            CELL_LOAD => "CELL_LOAD",
            VOLUME_REGISTRY => "VOLUME_REGISTRY",
            SERVER_ROUTES => "SERVER_ROUTES",
            SERVER_HOSTS => "SERVER_HOSTS",
            TOKEN_MANAGER => "TOKEN_MANAGER",
            TOKEN_SHARD => "TOKEN_SHARD",
            TOKEN_CLAIMS => "TOKEN_CLAIMS",
            HOST_TABLE => "HOST_TABLE",
            BASELINE_SERVER => "BASELINE_SERVER",
            LOCK_TABLE => "LOCK_TABLE",
            EPISODE_RENAME => "EPISODE_RENAME",
            EPISODE_VOLUME_OPS => "EPISODE_VOLUME_OPS",
            EPISODE_COUNTERS => "EPISODE_COUNTERS",
            EPISODE_MARKS => "EPISODE_MARKS",
            EPISODE_ALLOC => "EPISODE_ALLOC",
            FFS => "FFS",
            JOURNAL_TXNS => "JOURNAL_TXNS",
            JOURNAL_CACHE => "JOURNAL_CACHE",
            JOURNAL_FRAME => "JOURNAL_FRAME",
            JOURNAL_LOG => "JOURNAL_LOG",
            HOST_LOG => "HOST_LOG",
            DISK => "DISK",
            NET_NODES => "NET_NODES",
            NET_FAULTS => "NET_FAULTS",
            NET_AUTH => "NET_AUTH",
            NET_GATE => "NET_GATE",
            _ => "UNKNOWN",
        }
    }
}

/// A lock's position in the global hierarchy.
pub type LockRank = u16;

#[cfg(debug_assertions)]
mod enforce {
    use std::cell::RefCell;

    thread_local! {
        /// `(rank, shard index)` of every held lock, innermost last.
        /// Plain (unsharded) locks record `None` for the index.
        static HELD: RefCell<Vec<(u16, Option<u32>)>> = const { RefCell::new(Vec::new()) };
    }

    /// Records acquisition of `rank` (a plain, unsharded lock),
    /// panicking on a hierarchy violation.
    pub fn acquire(rank: u16) {
        acquire_at(rank, None);
    }

    /// Records acquisition of shard `index` of a sharded lock at
    /// `rank`. Same-rank nesting is legal only when both locks are
    /// shards and the indices strictly ascend.
    pub fn acquire_indexed(rank: u16, index: u32) {
        acquire_at(rank, Some(index));
    }

    fn acquire_at(rank: u16, index: Option<u32>) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(&(top, top_idx)) = held.last() {
                if rank == top {
                    match (top_idx, index) {
                        (Some(a), Some(b)) => assert!(
                            b > a,
                            "lock hierarchy violation: acquiring shard {b} of rank \
                             {rank} ({}) while holding shard {a} of the same rank — \
                             same rank — shards must be acquired in ascending index \
                             order and same-rank locks must never nest otherwise",
                            super::rank::name(rank),
                        ),
                        _ => panic!(
                            "lock hierarchy violation: acquiring rank {rank} ({}) while \
                             already holding the same rank — same-rank locks must never \
                             nest",
                            super::rank::name(rank),
                        ),
                    }
                } else {
                    assert!(
                        rank > top,
                        "lock hierarchy violation: acquiring rank {rank} ({}) while holding \
                         rank {top} ({}); held stack: {held:?}",
                        super::rank::name(rank),
                        super::rank::name(top),
                    );
                }
            }
            held.push((rank, index));
        });
    }

    /// Records release of `rank` (the most recent acquisition of it).
    pub fn release(rank: u16) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            let pos = held
                .iter()
                .rposition(|&(r, _)| r == rank)
                .expect("released a rank that was never recorded as held");
            held.remove(pos);
        });
    }

    pub fn held() -> Vec<u16> {
        HELD.with(|h| h.borrow().iter().map(|&(r, _)| r).collect())
    }
}

/// Ranks currently held by this thread, innermost last.
///
/// Debug builds report the live stack; release builds always return an
/// empty vector (enforcement is compiled out).
pub fn held_ranks() -> Vec<u16> {
    #[cfg(debug_assertions)]
    {
        enforce::held()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

#[cfg(debug_assertions)]
fn rank_acquire(rank: u16) {
    enforce::acquire(rank);
}
#[cfg(debug_assertions)]
fn rank_acquire_indexed(rank: u16, index: u32) {
    enforce::acquire_indexed(rank, index);
}
#[cfg(debug_assertions)]
fn rank_release(rank: u16) {
    enforce::release(rank);
}
#[cfg(not(debug_assertions))]
fn rank_acquire(_rank: u16) {}
#[cfg(not(debug_assertions))]
fn rank_acquire_indexed(_rank: u16, _index: u32) {}
#[cfg(not(debug_assertions))]
fn rank_release(_rank: u16) {}

/// A mutex that participates in the global lock hierarchy at rank
/// `RANK` (one of the [`rank`] constants).
pub struct OrderedMutex<T, const RANK: u16> {
    inner: parking_lot::Mutex<T>,
}

impl<T, const RANK: u16> OrderedMutex<T, RANK> {
    /// Creates a ranked mutex.
    pub const fn new(value: T) -> Self {
        OrderedMutex { inner: parking_lot::Mutex::new(value) }
    }

    /// Acquires the mutex, checking the hierarchy in debug builds.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T, RANK> {
        rank_acquire(RANK);
        OrderedMutexGuard { inner: self.inner.lock() }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default, const RANK: u16> Default for OrderedMutex<T, RANK> {
    fn default() -> Self {
        OrderedMutex::new(T::default())
    }
}

impl<T, const RANK: u16> fmt::Debug for OrderedMutex<T, RANK> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex").field("rank", &RANK).finish_non_exhaustive()
    }
}

/// RAII guard for [`OrderedMutex`]; pops the rank on drop.
pub struct OrderedMutexGuard<'a, T, const RANK: u16> {
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T, const RANK: u16> Deref for OrderedMutexGuard<'_, T, RANK> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T, const RANK: u16> DerefMut for OrderedMutexGuard<'_, T, RANK> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T, const RANK: u16> Drop for OrderedMutexGuard<'_, T, RANK> {
    fn drop(&mut self) {
        rank_release(RANK);
    }
}

/// A fixed array of same-rank mutexes — one hash shard each — that
/// participates in the hierarchy at rank `RANK`.
///
/// Unlike two independent [`OrderedMutex`]es of equal rank (which must
/// never nest), shards of one `OrderedShardedMutex` *may* nest, but
/// only in strictly ascending index order. Debug builds enforce the
/// index order exactly as they enforce rank order; [`Self::lock_all`]
/// is the sanctioned way to hold every shard at once.
pub struct OrderedShardedMutex<T, const RANK: u16> {
    shards: Box<[parking_lot::Mutex<T>]>,
}

impl<T, const RANK: u16> OrderedShardedMutex<T, RANK> {
    /// Creates `n` shards (at least one), each initialized by `init`.
    pub fn new(n: usize, mut init: impl FnMut() -> T) -> Self {
        let n = n.max(1);
        let shards: Vec<parking_lot::Mutex<T>> =
            (0..n).map(|_| parking_lot::Mutex::new(init())).collect();
        OrderedShardedMutex { shards: shards.into_boxed_slice() }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Acquires shard `i`, checking rank *and* index order in debug
    /// builds: a same-rank guard may already be held only if it is a
    /// lower-indexed shard.
    pub fn lock(&self, i: usize) -> OrderedShardGuard<'_, T, RANK> {
        rank_acquire_indexed(RANK, i as u32);
        OrderedShardGuard { inner: self.shards[i].lock() }
    }

    /// Acquires every shard in ascending index order, for operations
    /// that need a consistent cross-shard view (whole-volume
    /// revocation, volume export).
    pub fn lock_all(&self) -> Vec<OrderedShardGuard<'_, T, RANK>> {
        (0..self.shards.len()).map(|i| self.lock(i)).collect()
    }

    /// Mutable access to every shard without locking (requires
    /// exclusive ownership).
    pub fn get_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.shards.iter_mut().map(|m| m.get_mut())
    }
}

impl<T, const RANK: u16> fmt::Debug for OrderedShardedMutex<T, RANK> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedShardedMutex")
            .field("rank", &RANK)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// RAII guard for one shard of an [`OrderedShardedMutex`].
pub struct OrderedShardGuard<'a, T, const RANK: u16> {
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T, const RANK: u16> Deref for OrderedShardGuard<'_, T, RANK> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T, const RANK: u16> DerefMut for OrderedShardGuard<'_, T, RANK> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T, const RANK: u16> Drop for OrderedShardGuard<'_, T, RANK> {
    fn drop(&mut self) {
        rank_release(RANK);
    }
}

/// A condition variable for [`OrderedMutex`].
///
/// While a thread waits, the mutex is released but the rank stays on the
/// waiter's held stack: conceptually the thread still owns its place in
/// the hierarchy, and on wake-up the mutex is re-acquired at the same
/// position without re-checking (the stack never changed).
pub struct OrderedCondvar {
    inner: parking_lot::Condvar,
}

impl OrderedCondvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        OrderedCondvar { inner: parking_lot::Condvar::new() }
    }

    /// Atomically releases the guarded mutex and blocks until notified.
    pub fn wait<T, const RANK: u16>(&self, guard: &mut OrderedMutexGuard<'_, T, RANK>) {
        self.inner.wait(&mut guard.inner);
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout`. Returns
    /// `true` if the wait timed out. The rank stays on the held stack
    /// for the duration, exactly as for an untimed wait.
    pub fn wait_for<T, const RANK: u16>(
        &self,
        guard: &mut OrderedMutexGuard<'_, T, RANK>,
        timeout: std::time::Duration,
    ) -> bool {
        self.inner.wait_for(&mut guard.inner, timeout)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for OrderedCondvar {
    fn default() -> Self {
        OrderedCondvar::new()
    }
}

/// A reader-writer lock that participates in the hierarchy at rank
/// `RANK`. Readers and writers are both treated as acquisitions: the
/// rank check does not distinguish shared from exclusive mode (a
/// read-lock held across a lower-ranked acquisition is just as much an
/// ordering bug).
pub struct OrderedRwLock<T, const RANK: u16> {
    inner: parking_lot::RwLock<T>,
}

impl<T, const RANK: u16> OrderedRwLock<T, RANK> {
    /// Creates a ranked reader-writer lock.
    pub const fn new(value: T) -> Self {
        OrderedRwLock { inner: parking_lot::RwLock::new(value) }
    }

    /// Acquires shared access.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T, RANK> {
        rank_acquire(RANK);
        OrderedRwLockReadGuard { inner: self.inner.read() }
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T, RANK> {
        rank_acquire(RANK);
        OrderedRwLockWriteGuard { inner: self.inner.write() }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default, const RANK: u16> Default for OrderedRwLock<T, RANK> {
    fn default() -> Self {
        OrderedRwLock::new(T::default())
    }
}

impl<T, const RANK: u16> fmt::Debug for OrderedRwLock<T, RANK> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock").field("rank", &RANK).finish_non_exhaustive()
    }
}

/// Shared-access RAII guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T, const RANK: u16> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T, const RANK: u16> Deref for OrderedRwLockReadGuard<'_, T, RANK> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T, const RANK: u16> Drop for OrderedRwLockReadGuard<'_, T, RANK> {
    fn drop(&mut self) {
        rank_release(RANK);
    }
}

/// Exclusive-access RAII guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T, const RANK: u16> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T, const RANK: u16> Deref for OrderedRwLockWriteGuard<'_, T, RANK> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T, const RANK: u16> DerefMut for OrderedRwLockWriteGuard<'_, T, RANK> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T, const RANK: u16> Drop for OrderedRwLockWriteGuard<'_, T, RANK> {
    fn drop(&mut self) {
        rank_release(RANK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ascending_acquisition_is_fine() {
        let a: OrderedMutex<u32, { rank::TOKEN_MANAGER }> = OrderedMutex::new(1);
        let b: OrderedMutex<u32, { rank::LOCK_TABLE }> = OrderedMutex::new(2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        if cfg!(debug_assertions) {
            assert_eq!(held_ranks(), vec![rank::TOKEN_MANAGER, rank::LOCK_TABLE]);
        }
        drop(gb);
        drop(ga);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn out_of_order_release_is_fine() {
        let a: OrderedMutex<u32, { rank::JOURNAL_TXNS }> = OrderedMutex::new(0);
        let b: OrderedMutex<u32, { rank::JOURNAL_LOG }> = OrderedMutex::new(0);
        let ga = a.lock();
        let gb = b.lock();
        // Dropping the outer guard first must still unwind the stack
        // correctly (append paths hand guards around like this).
        drop(ga);
        if cfg!(debug_assertions) {
            assert_eq!(held_ranks(), vec![rank::JOURNAL_LOG]);
        }
        drop(gb);
        assert!(held_ranks().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "enforcement is debug-only")]
    fn descending_acquisition_panics() {
        let err = std::thread::spawn(|| {
            let hi: OrderedMutex<(), { rank::JOURNAL_LOG }> = OrderedMutex::new(());
            let lo: OrderedMutex<(), { rank::TOKEN_MANAGER }> = OrderedMutex::new(());
            let _g = hi.lock();
            let _g2 = lo.lock(); // inversion
        })
        .join()
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("lock hierarchy violation"), "got: {msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "enforcement is debug-only")]
    fn same_rank_nesting_panics() {
        let err = std::thread::spawn(|| {
            let a: OrderedMutex<(), { rank::HOST_TABLE }> = OrderedMutex::new(());
            let b: OrderedMutex<(), { rank::HOST_TABLE }> = OrderedMutex::new(());
            let _ga = a.lock();
            let _gb = b.lock(); // order between equals is undefined
        })
        .join()
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("same rank"), "got: {msg}");
    }

    #[test]
    fn rwlock_participates_in_hierarchy() {
        let l: OrderedRwLock<Vec<u32>, { rank::VOLUME_REGISTRY }> =
            OrderedRwLock::new(vec![1, 2]);
        {
            let r1 = l.read();
            assert_eq!(r1.len(), 2);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn condvar_keeps_rank_across_wait() {
        let pair = Arc::new((
            OrderedMutex::<bool, { rank::HOST_TABLE }>::new(false),
            OrderedCondvar::new(),
        ));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
            held_ranks()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        let ranks_in_wait = t.join().unwrap();
        if cfg!(debug_assertions) {
            assert_eq!(ranks_in_wait, vec![rank::HOST_TABLE]);
        }
    }

    #[test]
    fn ascending_shard_acquisition_is_fine() {
        let s: OrderedShardedMutex<u32, { rank::TOKEN_SHARD }> =
            OrderedShardedMutex::new(4, || 0);
        let g0 = s.lock(0);
        let g2 = s.lock(2);
        let g3 = s.lock(3);
        assert_eq!(*g0 + *g2 + *g3, 0);
        if cfg!(debug_assertions) {
            assert_eq!(held_ranks(), vec![rank::TOKEN_SHARD; 3]);
        }
        drop(g0);
        drop(g3);
        drop(g2);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn lock_all_holds_every_shard() {
        let s: OrderedShardedMutex<u32, { rank::TOKEN_SHARD }> =
            OrderedShardedMutex::new(3, || 7);
        let all = s.lock_all();
        assert_eq!(all.iter().map(|g| **g).sum::<u32>(), 21);
        if cfg!(debug_assertions) {
            assert_eq!(held_ranks(), vec![rank::TOKEN_SHARD; 3]);
        }
        drop(all);
        assert!(held_ranks().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "enforcement is debug-only")]
    fn descending_shard_acquisition_panics() {
        let err = std::thread::spawn(|| {
            let s: OrderedShardedMutex<(), { rank::TOKEN_SHARD }> =
                OrderedShardedMutex::new(4, || ());
            let _g2 = s.lock(2);
            let _g1 = s.lock(1); // out of index order
        })
        .join()
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("ascending index"), "got: {msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "enforcement is debug-only")]
    fn same_shard_reacquisition_panics() {
        let err = std::thread::spawn(|| {
            let s: OrderedShardedMutex<(), { rank::TOKEN_SHARD }> =
                OrderedShardedMutex::new(4, || ());
            let _g = s.lock(2);
            let _g2 = s.lock(2); // self-deadlock
        })
        .join()
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("ascending index"), "got: {msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "enforcement is debug-only")]
    fn shard_under_plain_same_rank_panics() {
        let err = std::thread::spawn(|| {
            let plain: OrderedMutex<(), { rank::TOKEN_SHARD }> = OrderedMutex::new(());
            let s: OrderedShardedMutex<(), { rank::TOKEN_SHARD }> =
                OrderedShardedMutex::new(2, || ());
            let _g = plain.lock();
            let _g2 = s.lock(1); // indexed under unindexed: still same-rank nesting
        })
        .join()
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("same-rank locks must never nest"), "got: {msg}");
    }

    #[test]
    fn shards_compose_with_higher_ranks() {
        let s: OrderedShardedMutex<u32, { rank::TOKEN_SHARD }> =
            OrderedShardedMutex::new(2, || 0);
        let table: OrderedMutex<u64, { rank::LOCK_TABLE }> = OrderedMutex::new(0);
        let _g0 = s.lock(0);
        let _g1 = s.lock(1);
        *table.lock() += 1; // a higher rank over shard guards
        drop(_g1);
        drop(_g0);
        assert!(held_ranks().is_empty());
    }
}
