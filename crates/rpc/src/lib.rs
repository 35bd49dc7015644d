//! Simulated NCS-2.0-style RPC substrate (§1, §3.7 and footnote 2).
//!
//! The paper's DCE file system rides on Hewlett-Packard's NCS 2.0 RPC
//! with authentication and connection-oriented transport. This crate
//! provides the equivalent substrate for the reproduction:
//!
//! * an in-process [`Network`] connecting named nodes;
//! * **two-way** calls: clients call servers, and servers call clients
//!   to revoke tokens (§5.3);
//! * **caller-runs dispatch behind bounded admission**: a call runs the
//!   callee's service on the calling thread (the plane owns none), once
//!   it holds one of the node's slots for its call class — with slots
//!   reserved for calls issued from token-revocation code, exactly the
//!   capacity §6.4 says must be set aside (ablated in T10);
//! * **per-message accounting** (count and bytes by label) for the
//!   network-load experiments;
//! * **Kerberos-style authentication** (§3.7): a registry issues
//!   tickets, and every authenticated RPC is verified before dispatch.

pub mod auth;
pub mod faults;
pub mod proto;

pub use auth::{AuthRegistry, KdcService};
pub use faults::{FaultAction, FaultRule, FaultSchedule};
pub use proto::{Request, Response, Ticket, TokenRequest};

use dfs_types::lock::{rank, OrderedCondvar, OrderedMutex};
use dfs_types::{ClientId, DfsError, DfsResult, ServerId, SimClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A network address: who can be called.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Addr {
    /// A file server (protocol exporter + volume + replication server).
    Server(ServerId),
    /// A client cache manager (callable for revocations).
    Client(ClientId),
    /// A volume location database replica.
    Vldb(u32),
    /// The authentication (Kerberos-style) server.
    Kdc,
}

/// Which of the receiver's admission slots a call is served under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CallClass {
    /// Ordinary traffic.
    Normal,
    /// A call issued from inside token-revocation code; served under the
    /// reserved slots of §6.4 so revocation can always make progress.
    Revocation,
}

/// Per-call context handed to the service.
#[derive(Clone, Debug)]
pub struct CallContext {
    /// Who is calling.
    pub caller: Addr,
    /// Authenticated user, if a valid ticket accompanied the call.
    pub principal: Option<u32>,
    /// Dispatch class.
    pub class: CallClass,
}

/// A service bound to an address.
pub trait RpcService: Send + Sync {
    /// Handles one request, on the *caller's* thread. May itself issue
    /// calls over the network (e.g. revocations), so one thread may be
    /// inside several nodes' `dispatch` at once — this one's included,
    /// re-entered for another request further down the stack: a
    /// thread-local says nothing about which node is running.
    fn dispatch(&self, ctx: CallContext, req: Request) -> Response;
}

/// How many calls a node serves at once, per call class.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Normal calls the node serves at once (at least 1).
    pub workers: usize,
    /// Slots reserved for revocation-class traffic (0 = such calls
    /// compete for the normal slots, the ablated configuration of T10).
    pub revocation_workers: usize,
    /// Whether calls must carry a valid ticket.
    pub require_auth: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { workers: 4, revocation_workers: 2, require_auth: false }
    }
}

dfs_types::counters! {
    /// Network-wide statistics.
    pub struct NetStats {
        /// Total calls completed.
        pub calls: u64,
        /// Total bytes (requests + responses).
        pub bytes: u64,
        /// Simulated network time charged (latency × calls).
        pub latency_us: u64,
        /// Calls that timed out waiting for a slot, or were lost in flight.
        pub timeouts: u64,
        maps {
            /// Calls by request label.
            pub by_label: HashMap<&'static str, u64>,
            /// Bytes by request label.
            pub bytes_by_label: HashMap<&'static str, u64>,
        }
    }
}

/// Bounded admission for one call class at one node: §6.4's "dedicated
/// threads" kept as what the paper needs of them — capacity — with the
/// callers' own threads doing the work.
struct Gate {
    state: OrderedMutex<GateState, { rank::NET_GATE }>,
    freed: OrderedCondvar,
}

struct GateState {
    free: usize,
    /// Callers parked on `freed`; a release with none skips the notify.
    waiting: usize,
}

impl Gate {
    fn new(slots: usize) -> Gate {
        Gate {
            state: OrderedMutex::new(GateState { free: slots.max(1), waiting: 0 }),
            freed: OrderedCondvar::new(),
        }
    }

    /// Takes a slot, waiting up to `timeout` for one to come free.
    fn admit(&self, timeout: Duration) -> Option<Slot<'_>> {
        let mut st = self.state.lock();
        if st.free == 0 {
            let deadline = Instant::now() + timeout;
            st.waiting += 1;
            while st.free == 0 {
                let left = deadline.saturating_duration_since(Instant::now());
                if self.freed.wait_for(&mut st, left) {
                    break; // Timed out; `free` has the last word below.
                }
            }
            st.waiting -= 1;
        }
        st.free = st.free.checked_sub(1)?;
        Some(Slot(self))
    }
}

/// One held slot of a [`Gate`]; given back on drop, so a service that
/// unwinds cannot leak it.
struct Slot<'a>(&'a Gate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.free += 1;
        if st.waiting > 0 {
            self.0.freed.notify_one();
        }
    }
}

struct Node {
    service: Arc<dyn RpcService>,
    normal: Gate,
    revocation: Option<Gate>,
    require_auth: bool,
    crashed: AtomicBool,
}

struct NetInner {
    nodes: HashMap<Addr, Arc<Node>>,
    stats: NetStats,
}

/// The simulated network.
///
/// Cheaply cloneable; every node and client holds a handle. Latency is
/// charged to statistics (and the shared [`SimClock`] is *not* advanced:
/// experiments control simulated time explicitly).
#[derive(Clone)]
pub struct Network {
    inner: Arc<OrderedMutex<NetInner, { rank::NET_NODES }>>,
    auth: Arc<AuthRegistry>,
    clock: SimClock,
    latency_us: u64,
    // Microseconds, atomic so tests can tighten the timeout on a network
    // that is already Arc-shared with registered services.
    call_timeout_us: Arc<AtomicU64>,
    /// The fault-injection plane; `None` when no schedule is armed
    /// (the common case pays one lock + one `is_none`).
    faults: Arc<OrderedMutex<Option<faults::FaultState>, { rank::NET_FAULTS }>>,
    /// Faults injected since the schedule was armed, readable without
    /// the fault lock.
    faults_injected: Arc<AtomicU64>,
}

impl Network {
    /// Creates a network with the given per-call latency (microseconds).
    pub fn new(clock: SimClock, latency_us: u64) -> Network {
        Network {
            inner: Arc::new(OrderedMutex::new(NetInner {
                nodes: HashMap::new(),
                stats: NetStats::default(),
            })),
            auth: Arc::new(AuthRegistry::new(clock.clone())),
            clock,
            latency_us,
            call_timeout_us: Arc::new(AtomicU64::new(5_000_000)),
            faults: Arc::new(OrderedMutex::new(None)),
            faults_injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Arms a [`FaultSchedule`]: every subsequent call is matched
    /// against its rules. Replaces any schedule already armed and
    /// resets the injected-fault counter.
    pub fn set_fault_schedule(&self, schedule: FaultSchedule) {
        *self.faults.lock() = Some(faults::FaultState::new(schedule));
        self.faults_injected.store(0, Ordering::Relaxed);
    }

    /// Appends `schedule`'s rules to the live fault plane *without*
    /// disturbing rules already armed: their `seen`/`hits` counters and
    /// the probabilistic RNG stream are untouched, so a scenario
    /// timeline can arm new rules mid-run (at an op-count offset) while
    /// earlier rules keep replaying deterministically. When no schedule
    /// is armed, this arms one exactly like [`Self::set_fault_schedule`].
    pub fn add_fault_rules(&self, schedule: FaultSchedule) {
        let mut guard = self.faults.lock();
        match guard.as_mut() {
            Some(state) => state.append(schedule.rules),
            None => {
                *guard = Some(faults::FaultState::new(schedule));
                self.faults_injected.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Disarms the fault plane.
    pub fn clear_faults(&self) {
        *self.faults.lock() = None;
    }

    /// Faults injected since the current schedule was armed.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Returns the authentication registry shared by KDC and services.
    pub fn auth(&self) -> &Arc<AuthRegistry> {
        &self.auth
    }

    /// Returns the simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Sets the real-time timeout used to detect stalls (tests of the
    /// §6.4 deadlock use a short timeout). Takes effect for calls that
    /// start after the store; safe on a shared network.
    pub fn set_call_timeout(&self, timeout: Duration) {
        self.call_timeout_us.store(timeout.as_micros() as u64, Ordering::Relaxed);
    }

    /// The current per-call timeout.
    pub fn call_timeout(&self) -> Duration {
        Duration::from_micros(self.call_timeout_us.load(Ordering::Relaxed))
    }

    /// Binds `service` at `addr`; `cfg` bounds the calls it serves at
    /// once. Starts no thread: the node is a table entry.
    pub fn register(&self, addr: Addr, service: Arc<dyn RpcService>, cfg: PoolConfig) {
        let node = Node {
            service,
            normal: Gate::new(cfg.workers),
            revocation: (cfg.revocation_workers > 0).then(|| Gate::new(cfg.revocation_workers)),
            require_auth: cfg.require_auth,
            crashed: AtomicBool::new(false),
        };
        // A replaced node is dropped only after the table lock is let
        // go: its service's `Drop` may call back into the network.
        let replaced = self.inner.lock().nodes.insert(addr, Arc::new(node));
        drop(replaced);
    }

    /// Removes a node from the network; calls already inside its
    /// `dispatch` finish on their callers' threads.
    pub fn unregister(&self, addr: Addr) {
        let removed = self.inner.lock().nodes.remove(&addr);
        drop(removed);
    }

    /// Unbinds every node. The node table is what keeps a bound service
    /// — and through it this network — alive, so this is what ends a
    /// simulated world: every later call is `Unreachable`, and services
    /// no one else holds are dropped (one with a call still inside it,
    /// when that call returns).
    pub fn shutdown(&self) {
        let nodes = std::mem::take(&mut self.inner.lock().nodes);
        drop(nodes);
    }

    /// Marks a node crashed (calls fail) or restores it.
    pub fn set_crashed(&self, addr: Addr, crashed: bool) {
        if let Some(node) = self.inner.lock().nodes.get(&addr) {
            node.crashed.store(crashed, Ordering::Relaxed);
        }
    }

    /// Performs a synchronous RPC from `from` to `to`.
    ///
    /// The callee's service runs on this thread, once the call holds one
    /// of the callee's slots for its class (the reserved ones for
    /// [`CallClass::Revocation`] if configured); no slot within the call
    /// timeout is `Timeout` — the timeout bounds admission, not
    /// execution. Latency and bytes are charged to the statistics.
    pub fn call(
        &self,
        from: Addr,
        to: Addr,
        ticket: Option<Ticket>,
        class: CallClass,
        req: Request,
    ) -> DfsResult<Response> {
        // Authentication check (§3.7: "All RPC's are authenticated").
        let principal = ticket.and_then(|t| self.auth.verify(&t));
        let is_down = |n: &Arc<Node>| n.crashed.load(Ordering::Relaxed);
        let node = {
            let inner = self.inner.lock();
            // A dead machine sends nothing either: what its instance
            // still has running fails at its next step over the network.
            if inner.nodes.get(&from).is_some_and(is_down) {
                return Err(DfsError::Unreachable);
            }
            inner.nodes.get(&to).cloned().ok_or(DfsError::Unreachable)?
        };
        if is_down(&node) {
            return Err(DfsError::Unreachable);
        }
        let label = req.label();
        let req_bytes = req.wire_size();

        // Fault plane: an armed schedule may drop, delay, duplicate,
        // crash, or eat the reply of this call (see [`faults`]).
        let fault = {
            let mut guard = self.faults.lock();
            guard.as_mut().and_then(|st| {
                let f = st.decide(from, to, class, label);
                if f.is_some() {
                    self.faults_injected.store(st.injected, Ordering::Relaxed);
                }
                f
            })
        };
        match fault {
            Some(FaultAction::Drop) => {
                // Lost in flight: surface the timeout immediately
                // instead of burning the real-time timeout budget.
                return self.timed_out();
            }
            Some(FaultAction::CrashNode) => {
                self.set_crashed(to, true);
                return Err(DfsError::Unreachable);
            }
            Some(FaultAction::Delay(us)) => {
                std::thread::sleep(Duration::from_micros(us));
            }
            _ => {}
        }

        if node.require_auth && principal.is_none() {
            // Account the rejected call too; it did cross the network.
            self.charge(label, req_bytes + 48);
            return Ok(Response::Err(DfsError::AuthenticationFailed));
        }

        let gate = match class {
            CallClass::Revocation => node.revocation.as_ref().unwrap_or(&node.normal),
            CallClass::Normal => &node.normal,
        };
        let Some(slot) = gate.admit(self.call_timeout()) else {
            return self.timed_out();
        };
        let ctx = CallContext { caller: from, principal, class };
        if fault == Some(FaultAction::Duplicate) {
            // Delivered twice, answered once.
            node.service.dispatch(ctx.clone(), req.clone());
        }
        let resp = node.service.dispatch(ctx, req);
        drop(slot);

        if is_down(&node) {
            // Went down with this call inside it: no reply. (A restart
            // binds a new node; this one stays crashed for good.)
            return Err(DfsError::Unreachable);
        }
        if fault == Some(FaultAction::DropReply) {
            // The request executed; only the reply is lost.
            return self.timed_out();
        }
        self.charge(label, req_bytes + resp.wire_size());
        Ok(resp)
    }

    fn timed_out(&self) -> DfsResult<Response> {
        self.inner.lock().stats.timeouts += 1;
        Err(DfsError::Timeout)
    }

    fn charge(&self, label: &'static str, bytes: u64) {
        let mut inner = self.inner.lock();
        inner.stats.calls += 1;
        inner.stats.bytes += bytes;
        inner.stats.latency_us += self.latency_us;
        *inner.stats.by_label.entry(label).or_insert(0) += 1;
        *inner.stats.bytes_by_label.entry(label).or_insert(0) += bytes;
    }

    /// Returns a snapshot of the network statistics.
    pub fn stats(&self) -> NetStats {
        self.inner.lock().stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;

    struct Echo;
    impl RpcService for Echo {
        fn dispatch(&self, _ctx: CallContext, req: Request) -> Response {
            match req {
                Request::Ping => Response::Ok,
                _ => Response::Err(DfsError::InvalidArgument),
            }
        }
    }

    fn client(n: u32) -> Addr {
        Addr::Client(ClientId(n))
    }

    fn server(n: u32) -> Addr {
        Addr::Server(ServerId(n))
    }

    #[test]
    fn basic_call_and_stats() {
        let net = Network::new(SimClock::new(), 1000);
        net.register(server(1), Arc::new(Echo), PoolConfig::default());
        let r = net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap();
        assert_eq!(r, Response::Ok);
        let s = net.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.by_label["Ping"], 1);
        assert_eq!(s.latency_us, 1000);
        assert!(s.bytes >= 64 + 48);
    }

    #[test]
    fn unknown_node_is_unreachable() {
        let net = Network::new(SimClock::new(), 0);
        let err =
            net.call(client(1), server(9), None, CallClass::Normal, Request::Ping).unwrap_err();
        assert_eq!(err, DfsError::Unreachable);
    }

    #[test]
    fn crashed_node_refuses_calls() {
        let net = Network::new(SimClock::new(), 0);
        net.register(server(1), Arc::new(Echo), PoolConfig::default());
        net.set_crashed(server(1), true);
        assert_eq!(
            net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap_err(),
            DfsError::Unreachable
        );
        net.set_crashed(server(1), false);
        assert!(net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).is_ok());
    }

    #[test]
    fn auth_required_rejects_unauthenticated() {
        let net = Network::new(SimClock::new(), 0);
        net.register(
            server(1),
            Arc::new(Echo),
            PoolConfig { require_auth: true, ..PoolConfig::default() },
        );
        let r = net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap();
        assert_eq!(r, Response::Err(DfsError::AuthenticationFailed));
        // With a valid ticket the call goes through.
        net.auth().add_user(7, 1234);
        let ticket = net.auth().login(7, 1234).unwrap();
        let r = net
            .call(client(1), server(1), Some(ticket), CallClass::Normal, Request::Ping)
            .unwrap();
        assert_eq!(r, Response::Ok);
    }

    #[test]
    fn forged_ticket_is_rejected() {
        let net = Network::new(SimClock::new(), 0);
        net.register(
            server(1),
            Arc::new(Echo),
            PoolConfig { require_auth: true, ..PoolConfig::default() },
        );
        let forged = Ticket { user: 0, session: 42, expires: dfs_types::Timestamp(u64::MAX) };
        let r = net
            .call(client(1), server(1), Some(forged), CallClass::Normal, Request::Ping)
            .unwrap();
        assert_eq!(r, Response::Err(DfsError::AuthenticationFailed));
    }

    /// A service that, on the first call, synchronously calls back into
    /// itself (as a revocation-triggered store does, §6.4).
    struct Reentrant {
        net: Network,
        addr: Addr,
        depth: AtomicUsize,
    }
    impl RpcService for Reentrant {
        fn dispatch(&self, ctx: CallContext, req: Request) -> Response {
            match req {
                Request::Ping if ctx.class == CallClass::Normal => {
                    self.depth.fetch_add(1, Ordering::SeqCst);
                    // Call back into ourselves on the revocation class.
                    match self.net.call(
                        self.addr,
                        self.addr,
                        None,
                        CallClass::Revocation,
                        Request::Ping,
                    ) {
                        Ok(r) => r,
                        Err(e) => Response::Err(e),
                    }
                }
                _ => Response::Ok,
            }
        }
    }

    #[test]
    fn dedicated_revocation_pool_avoids_exhaustion_deadlock() {
        // One normal worker: the outer call occupies it; the inner call
        // must run on the dedicated pool or the node deadlocks (§6.4).
        let net = Network::new(SimClock::new(), 0);
        net.set_call_timeout(Duration::from_millis(500));
        let addr = server(1);
        let svc = Arc::new(Reentrant { net: net.clone(), addr, depth: AtomicUsize::new(0) });
        net.register(
            addr,
            svc,
            PoolConfig { workers: 1, revocation_workers: 1, require_auth: false },
        );
        let r = net.call(client(1), addr, None, CallClass::Normal, Request::Ping).unwrap();
        assert_eq!(r, Response::Ok, "dedicated pool lets the inner call proceed");
    }

    #[test]
    fn shared_pool_exhaustion_stalls() {
        // The ablation: no dedicated revocation workers. The inner call
        // queues behind the outer one forever; the timeout fires.
        let net = Network::new(SimClock::new(), 0);
        net.set_call_timeout(Duration::from_millis(300));
        let addr = server(1);
        let svc = Arc::new(Reentrant { net: net.clone(), addr, depth: AtomicUsize::new(0) });
        net.register(
            addr,
            svc,
            PoolConfig { workers: 1, revocation_workers: 0, require_auth: false },
        );
        let r = net.call(client(1), addr, None, CallClass::Normal, Request::Ping);
        assert!(
            matches!(r, Err(DfsError::Timeout) | Ok(Response::Err(DfsError::Timeout))),
            "shared pool must deadlock and time out, got {r:?}"
        );
        assert!(net.stats().timeouts >= 1);
    }

    #[test]
    fn call_timeout_adjustable_after_sharing() {
        // The timeout lives in an atomic: a clone (as held by registered
        // services and test harnesses) can tighten it and every handle
        // observes the change.
        let net = Network::new(SimClock::new(), 0);
        let shared = net.clone();
        shared.set_call_timeout(Duration::from_millis(123));
        assert_eq!(net.call_timeout(), Duration::from_millis(123));
    }

    #[test]
    fn concurrent_calls_through_the_pool() {
        let net = Network::new(SimClock::new(), 0);
        net.register(server(1), Arc::new(Echo), PoolConfig::default());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let net = net.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        net.call(client(i), server(1), None, CallClass::Normal, Request::Ping)
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(net.stats().calls, 200);
    }

    /// Records the ranks held each time `dispatch` starts; a normal call
    /// sends one revocation-class call back into the same node first, as
    /// a server's revocation does.
    struct RanksSeen {
        net: Network,
        addr: Addr,
        ticket: Ticket,
        seen: Mutex<Vec<Vec<u16>>>,
    }
    impl RpcService for RanksSeen {
        fn dispatch(&self, ctx: CallContext, _req: Request) -> Response {
            self.seen.lock().push(dfs_types::lock::held_ranks());
            if ctx.class == CallClass::Normal {
                let class = CallClass::Revocation;
                return match self.net.call(self.addr, self.addr, Some(self.ticket), class, Request::Ping)
                {
                    Ok(r) => r,
                    Err(e) => Response::Err(e),
                };
            }
            Response::Ok
        }
    }

    #[test]
    fn dispatch_runs_with_no_network_lock_held() {
        // Every lock of the plane — node table, fault plane, auth
        // registry, admission gate — is taken on the way in, so each one
        // is exercised: an armed schedule, a checked ticket, a gate with
        // one slot per class.
        let net = Network::new(SimClock::new(), 0);
        net.set_fault_schedule(
            FaultSchedule::seeded(1).rule(FaultRule::on(FaultAction::Delay(0)).label("Ping")),
        );
        net.auth().add_user(7, 1234);
        let ticket = net.auth().login(7, 1234).unwrap();
        let addr = server(1);
        let svc = Arc::new(RanksSeen { net: net.clone(), addr, ticket, seen: Mutex::new(Vec::new()) });
        let cfg = PoolConfig { workers: 1, revocation_workers: 1, require_auth: true };
        net.register(addr, svc.clone(), cfg);
        let r = net.call(client(1), addr, Some(ticket), CallClass::Normal, Request::Ping).unwrap();
        assert_eq!(r, Response::Ok);
        assert!(net.faults_injected() >= 2, "both calls went through the fault plane");
        let net_ranks = [rank::NET_NODES, rank::NET_FAULTS, rank::NET_AUTH, rank::NET_GATE];
        let seen = svc.seen.lock().clone();
        assert_eq!(seen.len(), 2, "the call and the revocation it sent");
        for held in &seen {
            assert!(!held.iter().any(|r| net_ranks.contains(r)), "dispatch ran under {held:?}");
        }
        assert!(dfs_types::lock::held_ranks().is_empty());
    }

    /// Answers with the id of the thread `dispatch` ran on.
    struct WhoRuns {
        ran_on: Mutex<Option<std::thread::ThreadId>>,
    }
    impl RpcService for WhoRuns {
        fn dispatch(&self, _ctx: CallContext, _req: Request) -> Response {
            *self.ran_on.lock() = Some(std::thread::current().id());
            Response::Ok
        }
    }

    #[test]
    fn dispatch_runs_on_the_calling_thread() {
        let net = Network::new(SimClock::new(), 0);
        let svc = Arc::new(WhoRuns { ran_on: Mutex::new(None) });
        net.register(server(1), svc.clone(), PoolConfig::default());
        for class in [CallClass::Normal, CallClass::Revocation] {
            net.call(client(1), server(1), None, class, Request::Ping).unwrap();
            assert_eq!(svc.ran_on.lock().take(), Some(std::thread::current().id()), "{class:?}");
        }
    }

    /// Holds every `Normal` dispatch until released; `Revocation` calls
    /// pass straight through.
    struct Blocking {
        entered: AtomicUsize,
        release: AtomicBool,
    }
    impl RpcService for Blocking {
        fn dispatch(&self, ctx: CallContext, _req: Request) -> Response {
            if ctx.class == CallClass::Normal {
                self.entered.fetch_add(1, Ordering::SeqCst);
                while !self.release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Response::Ok
        }
    }

    #[test]
    fn a_held_slot_bounds_its_class_and_only_its_class() {
        let net = Network::new(SimClock::new(), 0);
        net.set_call_timeout(Duration::from_millis(100));
        let svc = Arc::new(Blocking { entered: AtomicUsize::new(0), release: AtomicBool::new(false) });
        net.register(
            server(1),
            svc.clone(),
            PoolConfig { workers: 1, revocation_workers: 1, require_auth: false },
        );
        let holder = {
            let net = net.clone();
            std::thread::spawn(move || {
                net.call(client(1), server(1), None, CallClass::Normal, Request::Ping)
            })
        };
        while svc.entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // The one normal slot is taken: a second normal call waits out
        // the timeout at the gate and never reaches the service …
        let t0 = Instant::now();
        let r = net.call(client(2), server(1), None, CallClass::Normal, Request::Ping);
        assert_eq!(r.unwrap_err(), DfsError::Timeout);
        assert!(t0.elapsed() >= Duration::from_millis(100));
        assert_eq!(svc.entered.load(Ordering::SeqCst), 1);
        assert_eq!(net.stats().timeouts, 1);
        // … while the reserved slot admits a revocation-class call at once.
        let r = net.call(client(2), server(1), None, CallClass::Revocation, Request::Ping);
        assert_eq!(r.unwrap(), Response::Ok);
        svc.release.store(true, Ordering::SeqCst);
        assert_eq!(holder.join().unwrap().unwrap(), Response::Ok);
        // The slot is back.
        assert!(net.call(client(2), server(1), None, CallClass::Normal, Request::Ping).is_ok());
        assert_eq!(net.stats().timeouts, 1);
    }

    /// Panics on its first request.
    struct PanicsOnce {
        armed: AtomicBool,
    }
    impl RpcService for PanicsOnce {
        fn dispatch(&self, _ctx: CallContext, _req: Request) -> Response {
            assert!(!self.armed.swap(false, Ordering::SeqCst), "service panic (expected by the test)");
            Response::Ok
        }
    }

    #[test]
    fn a_panicking_service_gives_its_slot_back() {
        let net = Network::new(SimClock::new(), 0);
        net.set_call_timeout(Duration::from_millis(100));
        net.register(
            server(1),
            Arc::new(PanicsOnce { armed: AtomicBool::new(true) }),
            PoolConfig { workers: 1, revocation_workers: 0, require_auth: false },
        );
        let call = || net.call(client(1), server(1), None, CallClass::Normal, Request::Ping);
        // The panic unwinds through `call` into the caller …
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).is_err());
        // … and the node's only slot came back with it.
        assert_eq!(call().unwrap(), Response::Ok);
        assert_eq!(net.stats().timeouts, 0);
    }

    /// Counts dispatches, so duplicate delivery and executed-but-
    /// unanswered calls are observable.
    struct Counting {
        hits: Arc<AtomicUsize>,
    }
    impl RpcService for Counting {
        fn dispatch(&self, _ctx: CallContext, _req: Request) -> Response {
            self.hits.fetch_add(1, Ordering::SeqCst);
            Response::Ok
        }
    }

    #[test]
    fn drop_fault_surfaces_as_timeout_without_delivery() {
        let net = Network::new(SimClock::new(), 0);
        let hits = Arc::new(AtomicUsize::new(0));
        net.register(server(1), Arc::new(Counting { hits: hits.clone() }), PoolConfig::default());
        net.set_fault_schedule(
            FaultSchedule::seeded(7).rule(FaultRule::on(FaultAction::Drop).to(server(1)).limit(1)),
        );
        let r = net.call(client(1), server(1), None, CallClass::Normal, Request::Ping);
        assert_eq!(r.unwrap_err(), DfsError::Timeout);
        assert_eq!(hits.load(Ordering::SeqCst), 0, "a dropped request never dispatches");
        assert_eq!(net.faults_injected(), 1);
        // The rule's budget is spent; the retry goes through.
        assert!(net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).is_ok());
    }

    #[test]
    fn add_fault_rules_appends_without_resetting_armed_rules() {
        let net = Network::new(SimClock::new(), 0);
        net.register(server(1), Arc::new(Echo), PoolConfig::default());
        // Arm a drop-the-3rd-Ping rule and burn one matching call.
        net.set_fault_schedule(
            FaultSchedule::seeded(7)
                .rule(FaultRule::on(FaultAction::Drop).to(server(1)).after(2).limit(1)),
        );
        assert!(net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).is_ok());
        // Mid-run append: a second rule arrives; the first keeps its count.
        net.add_fault_rules(
            FaultSchedule::seeded(0)
                .rule(FaultRule::on(FaultAction::Drop).to(server(1)).after(1).limit(1)),
        );
        assert!(net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).is_ok());
        // Call #3 trips the original rule (seen=1 survived the append;
        // first match wins, so the appended rule never sees this call) …
        assert_eq!(
            net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap_err(),
            DfsError::Timeout
        );
        // … and call #4 trips the appended rule (its own counter started
        // at zero on append: armed after one post-append unclaimed match).
        assert_eq!(
            net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap_err(),
            DfsError::Timeout
        );
        assert!(net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).is_ok());
        assert_eq!(net.faults_injected(), 2);
    }

    #[test]
    fn duplicate_fault_dispatches_twice_but_answers_once() {
        let net = Network::new(SimClock::new(), 0);
        let hits = Arc::new(AtomicUsize::new(0));
        net.register(server(1), Arc::new(Counting { hits: hits.clone() }), PoolConfig::default());
        net.set_fault_schedule(
            FaultSchedule::seeded(7).rule(FaultRule::on(FaultAction::Duplicate).limit(1)),
        );
        let r = net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap();
        assert_eq!(r, Response::Ok);
        assert_eq!(hits.load(Ordering::SeqCst), 2, "duplicate delivery executes twice");
    }

    #[test]
    fn drop_reply_fault_executes_the_side_effect() {
        let net = Network::new(SimClock::new(), 0);
        let hits = Arc::new(AtomicUsize::new(0));
        net.register(server(1), Arc::new(Counting { hits: hits.clone() }), PoolConfig::default());
        net.set_fault_schedule(
            FaultSchedule::seeded(7).rule(FaultRule::on(FaultAction::DropReply).limit(1)),
        );
        let r = net.call(client(1), server(1), None, CallClass::Normal, Request::Ping);
        assert_eq!(r.unwrap_err(), DfsError::Timeout);
        assert_eq!(hits.load(Ordering::SeqCst), 1, "the call executed; only the reply was lost");
    }

    #[test]
    fn crash_on_nth_call_downs_the_node() {
        let net = Network::new(SimClock::new(), 0);
        net.register(server(1), Arc::new(Echo), PoolConfig::default());
        net.set_fault_schedule(
            FaultSchedule::seeded(7)
                .rule(FaultRule::on(FaultAction::CrashNode).to(server(1)).after(2).limit(1)),
        );
        for _ in 0..2 {
            assert!(net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).is_ok());
        }
        // The third call trips the crash and fails; so does everything after.
        assert_eq!(
            net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap_err(),
            DfsError::Unreachable
        );
        assert_eq!(
            net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap_err(),
            DfsError::Unreachable
        );
        net.set_crashed(server(1), false);
        assert!(net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).is_ok());
    }

    #[test]
    fn stats_since_diffs() {
        let net = Network::new(SimClock::new(), 10);
        net.register(server(1), Arc::new(Echo), PoolConfig::default());
        net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap();
        let mid = net.stats();
        net.call(client(1), server(1), None, CallClass::Normal, Request::Ping).unwrap();
        let d = net.stats().since(&mid);
        assert_eq!(d.calls, 1);
        assert_eq!(d.by_label["Ping"], 1);
    }
}
