//! Declarative scenario engine: one driver for every harness workload.
//!
//! A [`Scenario`] is data — topology, weighted workload mix, and an
//! event timeline — and [`Scenario::run`] is the single shared driver
//! that executes it: it builds the fleet, seeds per-client RNG streams,
//! runs the phases behind barriers, fires timeline events at op-count
//! offsets, samples time-series metrics, checks invariants (zero lost
//! updates, cross-client agreement, no torn page reads), and returns a
//! [`RunReport`] with a uniform JSON rendering (via [`crate::emit`]).
//! T9's hot-path sweep, T11's Andrew-style phases, T15's mid-run
//! migration, and T17's mixed-workload scaling run are all scenario
//! definitions over this module (EXPERIMENTS.md).
//!
//! # Determinism contract
//!
//! Every client's op stream is generated from its own RNG, seeded from
//! `(scenario.seed, client_index)` alone, and **all draws for an op
//! happen before the op executes** — outcomes (retries, redirects,
//! token ping-pong) never feed back into the stream. Two runs with the
//! same seed therefore produce the same op sequence ([`RunReport`]'s
//! `op_digest`), the same per-class op counts, and — when every write
//! is acknowledged — the same final file contents (`state_digest`).
//! RPC counts, disk time, and samples are *measured* quantities and
//! legitimately vary with thread scheduling; the report keeps the two
//! groups separate so the replay check (`t17_scenario`) can compare
//! the deterministic block byte for byte.
//!
//! # Timeline semantics
//!
//! Events are armed at **global op-count offsets**: the client thread
//! whose op crosses `at_op` fires the event synchronously and records
//! the exact op count it fired at. Events not reached by the end of
//! the run (offset past the total op budget) fire after the last
//! phase, before verification. Crash events need a topology with
//! spare servers (and a later restart) for the op counter to keep
//! advancing — the driver does not babysit a scenario that crashes
//! its only server.
//!
//! # Sharing and invariants
//!
//! Each op class owns a file set per *sharing group* (`sharing`
//! clients per group). Writers only ever write their own
//! `member_index` page-sized region of a shared file, so the final
//! content of every region is exactly the last acknowledged write —
//! which the invariant checker re-reads through a fresh client (lost
//! updates) and through every group member's own cache (cross-client
//! agreement). Read-class and scan-class sets are prefilled with
//! seed-derived payloads and verified on every read.

use crate::emit::{arr, Obj, Value};
use dfs_client::{CacheManager, ClientStats, WritebackConfig, PAGE_SIZE};
use dfs_core::Cell;
use dfs_fleet::Fleet;
use dfs_rpc::FaultSchedule;
use dfs_types::{DfsError, Fid, VolumeId};
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// One weighted operation class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpClass {
    /// Page read (1-in-4 draws do a `getattr` instead — the cached
    /// status path). Reads draw from the class's own
    /// prefilled set and, when the phase also has a `Write` spec, from
    /// the write set half the time (coherent-read traffic).
    Read,
    /// Page write of the client's own region of a (possibly shared)
    /// file; `fsync_every` forces periodic durability.
    Write,
    /// Metadata churn: create / getattr / remove of per-client names in
    /// a per-group directory (shared directories exercise the
    /// directory-token ping-pong).
    MetadataChurn,
    /// Sequential whole-file read of a prefilled file, page by page,
    /// with content verification.
    StreamingScan,
}

impl OpClass {
    fn index(self) -> usize {
        match self {
            OpClass::Read => 0,
            OpClass::Write => 1,
            OpClass::MetadataChurn => 2,
            OpClass::StreamingScan => 3,
        }
    }

    /// Class names in `index` order (JSON field order).
    pub const NAMES: [&'static str; 4] = ["read", "write", "metadata_churn", "streaming_scan"];
}

/// One op class in a phase's mix.
#[derive(Clone, Copy, Debug)]
pub struct ClassSpec {
    /// The op class.
    pub class: OpClass,
    /// Relative draw weight within the phase.
    pub weight: u32,
    /// Files per sharing group (for `MetadataChurn`: distinct names
    /// each client cycles through).
    pub files: u32,
    /// Clients per sharing group; 1 = private files. The first phase
    /// mentioning a class fixes its `files`/`sharing` — file sets are
    /// global across phases.
    pub sharing: u32,
    /// For `Write`: fsync after every Nth successful write (0 = never).
    pub fsync_every: u32,
}

impl ClassSpec {
    /// A spec with weight `weight`, `files` files, no sharing, no fsync.
    pub fn new(class: OpClass, weight: u32, files: u32) -> ClassSpec {
        ClassSpec { class, weight, files: files.max(1), sharing: 1, fsync_every: 0 }
    }

    /// Sets the sharing degree (clients per group).
    pub fn sharing(mut self, n: u32) -> Self {
        self.sharing = n.max(1);
        self
    }

    /// Sets the write-fsync cadence.
    pub fn fsync_every(mut self, n: u32) -> Self {
        self.fsync_every = n;
        self
    }
}

/// Cluster shape for a scenario. `servers == 1` is the single-cell
/// case; everything still runs through [`Fleet`] so migration events
/// work uniformly.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// File servers.
    pub servers: u32,
    /// Client cache managers (one worker thread each).
    pub clients: u32,
    /// Volumes, placed round-robin across servers.
    pub volumes: u64,
    /// Simulated per-call network latency (µs).
    pub latency_us: u64,
    /// Per-server disk size in blocks.
    pub disk_blocks: u32,
    /// Run each client's background flusher (write-behind daemon).
    pub flusher: bool,
}

impl Topology {
    /// `servers × clients` over `volumes` volumes with library defaults.
    pub fn new(servers: u32, clients: u32, volumes: u64) -> Topology {
        Topology {
            servers: servers.max(1),
            clients: clients.max(1),
            volumes: volumes.max(1),
            latency_us: 200,
            disk_blocks: 32 * 1024,
            flusher: true,
        }
    }

    /// Overrides the simulated network latency.
    pub fn latency_us(mut self, us: u64) -> Self {
        self.latency_us = us;
        self
    }

    /// Overrides the per-server disk size.
    pub fn disk_blocks(mut self, blocks: u32) -> Self {
        self.disk_blocks = blocks;
        self
    }

    /// Disables the background flusher (synchronous store-back only).
    pub fn no_flusher(mut self) -> Self {
        self.flusher = false;
        self
    }
}

/// A timeline event, armed at a global op-count offset.
#[derive(Clone, Debug)]
pub enum Event {
    /// Crash the server in cell slot `0`-based `slot` (volatile state
    /// lost, callers see `Unreachable` until restart).
    CrashServer(usize),
    /// Restart a crashed slot with a post-restart grace window.
    RestartServer {
        /// Cell slot to restart.
        slot: usize,
        /// Grace-window length (µs of real time).
        grace_us: u64,
    },
    /// Live-migrate a volume to a destination slot under traffic.
    MoveVolume {
        /// Volume to move.
        volume: u64,
        /// Destination cell slot.
        dst_slot: usize,
    },
    /// Append the schedule's rules to the network fault plane
    /// ([`dfs_rpc::Network::add_fault_rules`] — already-armed rules
    /// keep their counters).
    ArmFaults(FaultSchedule),
    /// Disarm the fault plane.
    ClearFaults,
}

impl Event {
    fn name(&self) -> &'static str {
        match self {
            Event::CrashServer(_) => "crash_server",
            Event::RestartServer { .. } => "restart_server",
            Event::MoveVolume { .. } => "move_volume",
            Event::ArmFaults(_) => "arm_faults",
            Event::ClearFaults => "clear_faults",
        }
    }
}

/// One phase: every client issues `ops_per_client` weighted draws from
/// `mix`, then waits on a barrier before the next phase starts.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase name (reported in JSON).
    pub name: &'static str,
    /// Ops each client issues in this phase.
    pub ops_per_client: u64,
    /// Weighted op classes.
    pub mix: Vec<ClassSpec>,
}

impl Phase {
    /// A phase issuing `ops_per_client` draws from `mix`.
    pub fn new(name: &'static str, ops_per_client: u64, mix: Vec<ClassSpec>) -> Phase {
        Phase { name, ops_per_client, mix }
    }
}

/// A complete declarative scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (reported in JSON).
    pub name: &'static str,
    /// Master seed; fixes every client's op stream.
    pub seed: u64,
    /// Cluster shape.
    pub topology: Topology,
    /// Phases, run in order behind barriers.
    pub phases: Vec<Phase>,
    /// Events armed at global op-count offsets (sorted by the driver).
    pub timeline: Vec<(u64, Event)>,
    /// Ops between time-series samples (0 = no sampling).
    pub sample_every: u64,
}

impl Scenario {
    /// A scenario with no timeline and no sampling.
    pub fn new(name: &'static str, seed: u64, topology: Topology, phases: Vec<Phase>) -> Scenario {
        Scenario { name, seed, topology, phases, timeline: Vec::new(), sample_every: 0 }
    }

    /// Arms `event` at global op-count `at_op`.
    pub fn at(mut self, at_op: u64, event: Event) -> Self {
        self.timeline.push((at_op, event));
        self
    }

    /// Enables time-series sampling every `n` ops.
    pub fn sample_every(mut self, n: u64) -> Self {
        self.sample_every = n;
        self
    }

    /// Executes the scenario. See the module docs for the contract.
    pub fn run(&self) -> RunReport {
        Driver::new(self).run()
    }
}

/// One time-series sample (cumulative counters at `at_op`).
#[derive(Clone, Debug)]
pub struct Sample {
    /// Global op count when the sample was taken.
    pub at_op: u64,
    /// Simulated time (µs).
    pub sim_us: u64,
    /// Network calls so far.
    pub net_calls: u64,
    /// Cache-local reads so far.
    pub local_reads: u64,
    /// Remote (RPC) reads so far.
    pub remote_reads: u64,
    /// Bounded-stale replica reads so far.
    pub stale_reads: u64,
    /// Revocations received so far.
    pub revocations: u64,
}

/// A fired timeline event.
#[derive(Clone, Debug)]
pub struct FiredEvent {
    /// Event name (`crash_server`, `move_volume`, …).
    pub event: &'static str,
    /// The armed offset.
    pub at_op: u64,
    /// The op count the driver actually fired it at (`>= at_op`; equal
    /// in the common case — the crossing thread fires synchronously).
    pub fired_at: u64,
    /// Whether the event's action succeeded.
    pub ok: bool,
}

/// Most witnesses a report carries (the repo benchmark's bound).
pub const MAX_WITNESSES: usize = 16;

/// One coherence failure with enough to find it again — the repo
/// benchmark's witness shape (`benchmark/README.md`), so a failure reads
/// the same whichever harness caught it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The client whose view failed: the writer whose acknowledged
    /// write was lost, the group member that disagreed, the reader.
    pub client: u32,
    /// The check that failed (`lost_update`, `agreement`) or the op.
    pub op: &'static str,
    /// The file.
    pub fid: Fid,
    /// The tag that should have been in word 0 of the page.
    pub expected_tag: u64,
    /// The tag that was (`None`: the read failed or came back short).
    pub observed_tag: Option<u64>,
}

impl Witness {
    /// Records a failed page check, up to [`MAX_WITNESSES`] per report.
    /// `observed` is what was read instead of `expected`'s payload.
    pub fn note(
        into: &mut Vec<Witness>,
        client: u32,
        op: &'static str,
        fid: Fid,
        expected_tag: u64,
        observed: Option<&[u8]>,
    ) {
        if into.len() < MAX_WITNESSES {
            let observed_tag = observed.and_then(word0);
            into.push(Witness { client, op, fid, expected_tag, observed_tag });
        }
    }

    /// A witness list as the array every report carries.
    pub fn list(witnesses: &[Witness]) -> Value {
        arr(witnesses.iter().map(|w| {
            Obj::new()
                .field("client", w.client)
                .field("op", w.op)
                .field("fid", format!("{:?}", w.fid))
                .field("expected_tag", format!("{:#018x}", w.expected_tag))
                .field("observed_tag", w.observed_tag.map(|t| format!("{t:#018x}")))
        }))
    }
}

/// The tag a tagged page carries in its first word.
fn word0(page: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(page.get(..8)?.try_into().ok()?))
}

/// Everything a run produces. Fields under "deterministic" are a pure
/// function of the scenario (see module docs); the rest are measured.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scenario name.
    pub name: &'static str,
    /// Seed the run used.
    pub seed: u64,
    /// Servers in the topology.
    pub servers: u32,
    /// Clients in the topology.
    pub clients: u32,
    /// Volumes in the topology.
    pub volumes: u64,
    /// Total ops issued (= clients × Σ ops_per_client).
    pub total_ops: u64,
    /// Ops per class, [`OpClass::NAMES`] order.
    pub class_ops: [u64; 4],
    /// FNV-1a digest of every client's op stream, in client order.
    pub op_digest: u64,
    /// FNV-1a digest of the final acknowledged region contents.
    pub state_digest: u64,
    /// Ops whose execution returned an error (after client retries).
    pub failed_ops: u64,
    /// Invariant: regions whose fresh-client read-back did not match
    /// the last acknowledged write.
    pub lost_updates: u64,
    /// Invariant: shared files whose content differed between group
    /// members' caches (or a fresh client) after the run.
    pub agreement_failures: u64,
    /// Invariant: mid-run reads that saw a torn page (neither zeros
    /// nor one complete tagged payload).
    pub torn_reads: u64,
    /// Invariant: prefilled-set reads/scans whose content did not match
    /// the seed-derived payload.
    pub scan_mismatches: u64,
    /// Regions whose last write failed — excluded from the lost-update
    /// check (the write may or may not have landed; at-least-once).
    pub ambiguous_regions: u64,
    /// Audit: grants left in any server's token table on a fid that no
    /// longer resolves (`StaleFid`) — a token that outlived its file.
    /// Reported, not part of [`coherent`](Self::coherent): a restarted
    /// server still re-grants reestablish claims on dead fids.
    pub leaked_grants: u64,
    /// The first [`MAX_WITNESSES`] lost updates and disagreements, each
    /// with client, fid and both tags; empty on a coherent run.
    pub witnesses: Vec<Witness>,
    /// Timeline events, in firing order.
    pub events: Vec<FiredEvent>,
    /// Time-series samples (empty when `sample_every == 0`).
    pub samples: Vec<Sample>,
    /// Merged client counters.
    pub client_stats: ClientStats,
    /// Fleet-wide server counters.
    pub server_ops: u64,
    /// Server-side WrongServer redirects.
    pub server_redirects: u64,
    /// Cross-server forwards.
    pub server_forwards: u64,
    /// Volume moves completed server-side.
    pub server_moves: u64,
    /// Network calls for the whole run.
    pub net_calls: u64,
    /// Network bytes for the whole run.
    pub net_bytes: u64,
    /// Simulated network time charged (latency × calls, µs) — the
    /// deterministic cost currency for network-bound workloads.
    pub net_latency_us: u64,
    /// Calls that found no free slot at the callee within the call
    /// timeout, or were lost to an injected fault.
    pub net_timeouts: u64,
    /// Faults injected by the fault plane.
    pub faults_injected: u64,
    /// Busiest disk's simulated time (µs) — the fleet critical path.
    pub disk_busy_us: u64,
    /// Simulated clock at the end of the run (µs).
    pub sim_us: u64,
}

impl RunReport {
    /// `true` when every invariant held and nothing was ambiguous.
    /// This is the fault-free bar: a crash window legitimately produces
    /// `failed_ops` (client retry budgets expire while the server is
    /// down) and `ambiguous_regions`; use [`RunReport::coherent`] for
    /// runs whose timeline kills servers.
    pub fn clean(&self) -> bool {
        self.failed_ops == 0 && self.ambiguous_regions == 0 && self.coherent()
    }

    /// `true` when the coherence invariants held: no acknowledged write
    /// was lost, group members agreed on shared content, no torn pages,
    /// no prefilled-content corruption. Failed ops and ambiguous
    /// regions (availability effects) are not counted against this.
    pub fn coherent(&self) -> bool {
        self.lost_updates == 0
            && self.agreement_failures == 0
            && self.torn_reads == 0
            && self.scan_mismatches == 0
    }

    /// Aggregate throughput: ops per second of critical-path disk time.
    pub fn ops_per_disk_sec(&self) -> f64 {
        self.total_ops as f64 * 1e6 / self.disk_busy_us.max(1) as f64
    }

    /// The deterministic block: byte-identical across same-seed runs,
    /// including runs whose timeline crashes servers. Only fields that
    /// are a pure function of the scenario spec belong here — in
    /// particular `state_digest` does NOT (under a crash window, which
    /// writes get acknowledged depends on thread scheduling).
    pub fn deterministic(&self) -> Obj {
        Obj::new()
            .field("seed", self.seed)
            .field("total_ops", self.total_ops)
            .field_arr("class_ops", self.class_ops)
            .field("op_digest", format!("{:016x}", self.op_digest))
    }

    /// The invariant block. `state_digest` lives here (not in the
    /// deterministic block): it covers exactly the acknowledged
    /// regions, so it is replayable for fault-free timelines but
    /// scheduling-dependent when a crash window fails writes.
    pub fn invariants(&self) -> Obj {
        Obj::new()
            .field("state_digest", format!("{:016x}", self.state_digest))
            .field("failed_ops", self.failed_ops)
            .field("lost_updates", self.lost_updates)
            .field("agreement_failures", self.agreement_failures)
            .field("torn_reads", self.torn_reads)
            .field("scan_mismatches", self.scan_mismatches)
            .field("ambiguous_regions", self.ambiguous_regions)
            .field("leaked_grants", self.leaked_grants)
            .field("coherent", self.coherent())
            .field("clean", self.clean())
    }

    /// The full uniform report: deterministic + invariants + witnesses
    /// + measured + events + samples.
    pub fn report(&self) -> Obj {
        let s = &self.client_stats;
        let measured = Obj::new()
            .field("net_calls", self.net_calls)
            .field("net_bytes", self.net_bytes)
            .field("sim_net_ms", self.net_latency_us as f64 / 1000.0)
            .field("net_timeouts", self.net_timeouts)
            .field("rpcs_per_op", self.net_calls as f64 / self.total_ops.max(1) as f64)
            .field("local_reads", s.local_reads)
            .field("remote_reads", s.remote_reads)
            .field("stale_reads", s.stale_reads)
            .field("max_stale_us", s.max_stale_us)
            .field("revocations", s.revocations)
            .field("revocation_store_failures", s.revocation_store_failures)
            .field("transport_retries", s.transport_retries)
            .field("grace_waits", s.grace_waits)
            .field("recoveries", s.recoveries)
            .field("client_redirects", s.wrong_server_redirects)
            .field("server_ops", self.server_ops)
            .field("server_redirects", self.server_redirects)
            .field("server_forwards", self.server_forwards)
            .field("server_moves", self.server_moves)
            .field("faults_injected", self.faults_injected)
            .field("disk_busy_ms", self.disk_busy_us as f64 / 1000.0)
            .field("ops_per_disk_sec", self.ops_per_disk_sec())
            .field("sim_ms", self.sim_us as f64 / 1000.0);
        let events = self.events.iter().map(|e| {
            Obj::new()
                .field("event", e.event)
                .field("at_op", e.at_op)
                .field("fired_at", e.fired_at)
                .field("ok", e.ok)
        });
        let samples = self.samples.iter().map(|p| {
            Obj::new()
                .field("at_op", p.at_op)
                .field("sim_us", p.sim_us)
                .field("net_calls", p.net_calls)
                .field("local_reads", p.local_reads)
                .field("remote_reads", p.remote_reads)
                .field("stale_reads", p.stale_reads)
                .field("revocations", p.revocations)
        });
        Obj::new()
            .field("scenario", self.name)
            .field("servers", self.servers)
            .field("clients", self.clients)
            .field("volumes", self.volumes)
            .field("deterministic", self.deterministic())
            .field("invariants", self.invariants())
            .field("witnesses", Witness::list(&self.witnesses))
            .field("measured", measured)
            .field_arr("events", events)
            .field_arr("samples", samples)
    }

    /// [`RunReport::report`] as one line of JSON.
    pub fn to_json(&self) -> String {
        self.report().json()
    }
}

// ---------------------------------------------------------------------
// Seeding and payloads
// ---------------------------------------------------------------------

/// SplitMix64 step — stream derivation from the master seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 accumulator.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// A page-sized payload: the tag in the first 8 bytes, then a SplitMix
/// stream keyed by the tag. Any reader can recover the tag and verify
/// the whole page — the torn-read check.
fn payload(tag: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAGE_SIZE);
    out.extend_from_slice(&tag.to_le_bytes());
    let mut x = tag;
    while out.len() < PAGE_SIZE {
        x = splitmix(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(PAGE_SIZE);
    out
}

/// Classifies a page read from a write-set region: untouched zeros, a
/// complete tagged payload, or torn.
fn classify_page(data: &[u8]) -> PageKind {
    if data.iter().all(|&b| b == 0) {
        return PageKind::Zeros;
    }
    if data.len() == PAGE_SIZE {
        let mut tag = [0u8; 8];
        tag.copy_from_slice(&data[..8]);
        let tag = u64::from_le_bytes(tag);
        if payload(tag) == data {
            return PageKind::Tagged(tag);
        }
    }
    PageKind::Torn
}

#[derive(Debug)]
enum PageKind {
    Zeros,
    Tagged(u64),
    Torn,
}

/// The prefill tag for region `region` of file `file` in set `set` —
/// a pure function of the scenario seed.
fn prefill_tag(seed: u64, set: usize, file: u32, region: u32) -> u64 {
    splitmix(
        seed ^ splitmix(set as u64 ^ (u64::from(file) << 20) ^ (u64::from(region) << 44) ^ 0x5eed),
    )
}

// ---------------------------------------------------------------------
// Driver internals
// ---------------------------------------------------------------------

/// One file set: the files a sharing group of one class works on.
struct FileSet {
    files: Vec<Fid>,
    /// Regions per file (= sharing degree).
    regions: u32,
    /// Prefilled with seed-derived payloads (read/scan sets).
    prefilled: bool,
}

/// A class spec resolved for one client in one phase.
struct ResolvedSpec {
    class: OpClass,
    weight: u32,
    fsync_every: u32,
    /// Index into `RunCtx::sets` (Read/Write/StreamingScan).
    set: usize,
    /// This client's member index within its sharing group.
    member: u32,
    /// The phase's write set, for coherent Read traffic.
    write_set: Option<usize>,
    /// Churn directory and name budget (MetadataChurn).
    churn_dir: Option<Fid>,
    names: u32,
}

/// Timeline/sampling control, behind one mutex; `trigger` caches the
/// next interesting op count so the per-op fast path is one atomic
/// load. Events fire *under* this mutex: firing order must match the
/// declared order (a restart must never overtake its crash), and only
/// client worker threads between ops ever take it — no RPC handler or
/// revocation path does, so the lock cannot join a reply-wait cycle.
struct Control {
    next_event: usize,
    next_sample: u64,
    fired: Vec<FiredEvent>,
    samples: Vec<Sample>,
}

struct RunCtx {
    fleet: Fleet,
    seed: u64,
    clients: Vec<Arc<CacheManager>>,
    sets: Vec<FileSet>,
    timeline: Vec<(u64, Event)>,
    sample_every: u64,
    ops: AtomicU64,
    trigger: AtomicU64,
    ctl: Mutex<Control>,
}

impl RunCtx {
    /// Fires due events / takes due samples at op count `n`, then
    /// recomputes the trigger. `n == u64::MAX` is the post-run sweep:
    /// it fires every event still pending, but samples (and the
    /// recorded fire point) are clamped to the ops actually issued —
    /// sampling "up to u64::MAX" would loop forever.
    // dfs-lint: allow(guard-across-rpc) — timeline events (crash,
    // restart, move, fault arming) send RPCs while `ctl` is held;
    // see the `Control` docs for why this cannot deadlock.
    fn service(&self, n: u64) {
        let issued = self.ops.load(Ordering::SeqCst);
        let mut ctl = self.ctl.lock();
        while ctl.next_event < self.timeline.len() && self.timeline[ctl.next_event].0 <= n {
            let (at_op, event) = &self.timeline[ctl.next_event];
            let ok = self.fire(event);
            let fired =
                FiredEvent { event: event.name(), at_op: *at_op, fired_at: n.min(issued), ok };
            ctl.next_event += 1;
            ctl.fired.push(fired);
        }
        while self.sample_every > 0 && ctl.next_sample <= n.min(issued) {
            let at = ctl.next_sample;
            let sample = self.take_sample(at);
            ctl.next_sample += self.sample_every;
            ctl.samples.push(sample);
        }
        let next_ev = self.timeline.get(ctl.next_event).map_or(u64::MAX, |(at, _)| *at);
        let next_sm = if self.sample_every > 0 { ctl.next_sample } else { u64::MAX };
        self.trigger.store(next_ev.min(next_sm), Ordering::SeqCst);
    }

    fn fire(&self, event: &Event) -> bool {
        let cell = self.fleet.cell();
        match event {
            Event::CrashServer(slot) => {
                if *slot < cell.server_count() {
                    cell.crash_server(*slot);
                    true
                } else {
                    false
                }
            }
            Event::RestartServer { slot, grace_us } => {
                *slot < cell.server_count() && cell.restart_server(*slot, *grace_us).is_ok()
            }
            Event::MoveVolume { volume, dst_slot } => {
                self.fleet.move_volume(VolumeId(*volume), *dst_slot).is_ok()
            }
            Event::ArmFaults(schedule) => {
                cell.net().add_fault_rules(schedule.clone());
                true
            }
            Event::ClearFaults => {
                cell.net().clear_faults();
                true
            }
        }
    }

    fn take_sample(&self, at_op: u64) -> Sample {
        let mut merged = ClientStats::default();
        for c in &self.clients {
            merged.merge(&c.stats());
        }
        let net = self.fleet.cell().net().stats();
        Sample {
            at_op,
            sim_us: self.fleet.cell().clock().now().0,
            net_calls: net.calls,
            local_reads: merged.local_reads,
            remote_reads: merged.remote_reads,
            stale_reads: merged.stale_reads,
            revocations: merged.revocations,
        }
    }
}

/// What one client thread brings home.
#[derive(Default)]
struct ClientOutcome {
    digest: u64,
    class_ops: [u64; 4],
    failed_ops: u64,
    torn_reads: u64,
    scan_mismatches: u64,
    /// (set, file, region) → (last tag written, last attempt acked).
    regions: HashMap<(usize, u32, u32), (u64, bool)>,
}

struct Driver<'a> {
    scenario: &'a Scenario,
}

impl<'a> Driver<'a> {
    fn new(scenario: &'a Scenario) -> Driver<'a> {
        Driver { scenario }
    }

    fn run(self) -> RunReport {
        let sc = self.scenario;
        let topo = &sc.topology;

        // -- Topology ---------------------------------------------------
        let cell = Cell::builder()
            .servers(topo.servers)
            .latency_us(topo.latency_us)
            .disk_blocks(topo.disk_blocks)
            .build()
            .expect("scenario cell");
        let fleet = Fleet::new(cell);
        for v in 1..=topo.volumes {
            fleet.create_volume(VolumeId(v), &format!("vol{v}")).expect("scenario volume");
        }

        // -- File sets (first phase mentioning a class fixes its shape) -
        // set_key[(class, group)] → index into sets; specs resolved per
        // phase re-use them.
        let setup = fleet.cell().new_client_writeback(WritebackConfig {
            flusher: false,
            ..WritebackConfig::default()
        });
        let mut sets: Vec<FileSet> = Vec::new();
        let mut set_key: HashMap<(usize, u32), usize> = HashMap::new();
        let mut churn_dirs: HashMap<u32, Fid> = HashMap::new();
        let mut class_shape: HashMap<usize, (u32, u32)> = HashMap::new(); // class → (files, sharing)
        for phase in &sc.phases {
            for spec in &phase.mix {
                class_shape.entry(spec.class.index()).or_insert((spec.files, spec.sharing));
            }
        }
        let groups_of = |sharing: u32| topo.clients.div_ceil(sharing.max(1));
        for (&class, &(files, sharing)) in {
            let mut keys: Vec<_> = class_shape.iter().collect();
            keys.sort();
            keys
        } {
            for group in 0..groups_of(sharing) {
                let vol = VolumeId((class as u64 * 31 + u64::from(group)) % topo.volumes + 1);
                let root = setup.root(vol).expect("volume root");
                if class == OpClass::MetadataChurn.index() {
                    let dir = setup
                        .mkdir(root, &format!("churn_g{group}"), 0o755)
                        .expect("churn dir")
                        .fid;
                    churn_dirs.insert(group, dir);
                    continue;
                }
                let dir = setup
                    .mkdir(root, &format!("c{class}_g{group}"), 0o755)
                    .expect("set dir")
                    .fid;
                let prefilled = class != OpClass::Write.index();
                let set_idx = sets.len();
                let mut fids = Vec::with_capacity(files as usize);
                for f in 0..files {
                    let fid = setup.create(dir, &format!("f{f}"), 0o644).expect("set file").fid;
                    for region in 0..sharing {
                        let data = if prefilled {
                            payload(prefill_tag(sc.seed, set_idx, f, region))
                        } else {
                            vec![0u8; PAGE_SIZE]
                        };
                        setup
                            .write(fid, u64::from(region) * PAGE_SIZE as u64, &data)
                            .expect("prefill");
                    }
                    fids.push(fid);
                }
                sets.push(FileSet { files: fids, regions: sharing, prefilled });
                set_key.insert((class, group), set_idx);
            }
        }
        setup.store_back_all().expect("prefill store-back");

        // -- Clients and per-phase resolved specs -----------------------
        let clients: Vec<Arc<CacheManager>> = (0..topo.clients)
            .map(|_| {
                if topo.flusher {
                    fleet.cell().new_client()
                } else {
                    fleet.cell().new_client_writeback(WritebackConfig {
                        flusher: false,
                        ..WritebackConfig::default()
                    })
                }
            })
            .collect();

        let resolve = |client: u32, phase: &Phase| -> Vec<ResolvedSpec> {
            let write_set = phase
                .mix
                .iter()
                .find(|s| s.class == OpClass::Write)
                .map(|_| {
                    let (_, sharing) = class_shape[&OpClass::Write.index()];
                    set_key[&(OpClass::Write.index(), client / sharing)]
                });
            phase
                .mix
                .iter()
                .map(|spec| {
                    let class = spec.class.index();
                    let (_, sharing) = class_shape[&class];
                    let group = client / sharing;
                    let member = client % sharing;
                    let (set, churn_dir) = if spec.class == OpClass::MetadataChurn {
                        (usize::MAX, Some(churn_dirs[&group]))
                    } else {
                        (set_key[&(class, group)], None)
                    };
                    ResolvedSpec {
                        class: spec.class,
                        weight: spec.weight.max(1),
                        fsync_every: spec.fsync_every,
                        set,
                        member,
                        write_set: if spec.class == OpClass::Read { write_set } else { None },
                        churn_dir,
                        names: spec.files.max(1),
                    }
                })
                .collect()
        };

        let timeline = {
            let mut t = sc.timeline.clone();
            t.sort_by_key(|(at, _)| *at);
            t
        };
        let first_trigger = {
            let ev = timeline.first().map_or(u64::MAX, |(at, _)| *at);
            let sm = if sc.sample_every > 0 { sc.sample_every } else { u64::MAX };
            ev.min(sm)
        };
        let ctx = Arc::new(RunCtx {
            fleet,
            seed: sc.seed,
            clients,
            sets,
            timeline,
            sample_every: sc.sample_every,
            ops: AtomicU64::new(0),
            trigger: AtomicU64::new(first_trigger),
            ctl: Mutex::new(Control {
                next_event: 0,
                next_sample: if sc.sample_every > 0 { sc.sample_every } else { u64::MAX },
                fired: Vec::new(),
                samples: Vec::new(),
            }),
        });

        // -- Phases -----------------------------------------------------
        let barrier = Arc::new(Barrier::new(topo.clients as usize));
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..topo.clients)
                .map(|i| {
                    let ctx = Arc::clone(&ctx);
                    let barrier = Arc::clone(&barrier);
                    let phases = &sc.phases;
                    let seed = sc.seed;
                    let resolve = &resolve;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(splitmix(seed ^ (u64::from(i) << 1)));
                        let mut out = ClientOutcome::default();
                        let mut digest = Fnv::new();
                        let client = Arc::clone(&ctx.clients[i as usize]);
                        for (pi, phase) in phases.iter().enumerate() {
                            let specs = resolve(i, phase);
                            let total_w: u32 = specs.iter().map(|s| s.weight).sum();
                            let mut writes_since_fsync = 0u32;
                            for op in 0..phase.ops_per_client {
                                digest.u64(pi as u64);
                                digest.u64(op);
                                let spec = {
                                    let mut r = (rng.gen::<u64>() % u64::from(total_w)) as u32;
                                    digest.u64(u64::from(r));
                                    specs
                                        .iter()
                                        .find(|s| {
                                            if r < s.weight {
                                                true
                                            } else {
                                                r -= s.weight;
                                                false
                                            }
                                        })
                                        .expect("weighted draw in range")
                                };
                                out.class_ops[spec.class.index()] += 1;
                                let ok = Self::one_op(
                                    &ctx,
                                    &client,
                                    spec,
                                    &mut rng,
                                    &mut digest,
                                    &mut writes_since_fsync,
                                    &mut out,
                                );
                                if !ok {
                                    out.failed_ops += 1;
                                }
                                let n = ctx.ops.fetch_add(1, Ordering::SeqCst) + 1;
                                if n >= ctx.trigger.load(Ordering::SeqCst) {
                                    ctx.service(n);
                                }
                            }
                            barrier.wait();
                        }
                        let _ = client.store_back_all();
                        out.digest = digest.0;
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });

        // Fire anything the op counter never reached (offsets past the
        // op budget), so declared events always run.
        let total_ops = ctx.ops.load(Ordering::SeqCst);
        ctx.service(u64::MAX);

        // A restarted server refuses brand-new hosts while its
        // token-reestablishment grace window is open (by design —
        // tests/recovery.rs pins it). Verification reads through a
        // fresh client, so step simulated time past every open window
        // first; each deadline is finite, so this terminates.
        for s in 0..ctx.fleet.server_count() {
            while ctx.fleet.cell().server(s).in_grace() {
                ctx.fleet.cell().clock().advance_millis(10);
            }
        }

        // -- Invariants -------------------------------------------------
        let fresh = ctx.fleet.cell().new_client_writeback(WritebackConfig {
            flusher: false,
            ..WritebackConfig::default()
        });
        let mut lost_updates = 0u64;
        let mut ambiguous_regions = 0u64;
        let mut witnesses = Vec::new();
        let mut state = Fnv::new();
        for (client, out) in (0u32..).zip(&outcomes) {
            let mut keys: Vec<_> = out.regions.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let (set, file, region) = key;
                let (tag, acked) = out.regions[&key];
                if !acked {
                    ambiguous_regions += 1;
                    continue;
                }
                state.u64(set as u64);
                state.u64(u64::from(file));
                state.u64(u64::from(region));
                state.u64(tag);
                let fid = ctx.sets[set].files[file as usize];
                let got = fresh.read(fid, u64::from(region) * PAGE_SIZE as u64, PAGE_SIZE).ok();
                if got.as_ref() != Some(&payload(tag)) {
                    lost_updates += 1;
                    Witness::note(&mut witnesses, client, "lost_update", fid, tag, got.as_deref());
                }
            }
        }

        // Cross-client agreement: every member of a sharing group (and
        // the fresh client) must see identical shared-file bytes.
        let mut agreement_failures = 0u64;
        for (&(class, group), &set_idx) in &set_key {
            let set = &ctx.sets[set_idx];
            if set.regions <= 1 {
                continue;
            }
            let sharing = class_shape[&class].1;
            let lo = group * sharing;
            let hi = (lo + sharing).min(topo.clients);
            for &fid in &set.files {
                let len = set.regions as usize * PAGE_SIZE;
                let reference = fresh.read(fid, 0, len).ok();
                for member in lo..hi {
                    let got = ctx.clients[member as usize].read(fid, 0, len).ok();
                    if got != reference {
                        agreement_failures += 1;
                        // The first page the member sees differently
                        // (page 0 when one of the reads failed outright).
                        let want = reference.as_deref().unwrap_or_default();
                        let seen = got.as_deref().unwrap_or_default();
                        let pages = want.chunks(PAGE_SIZE).zip(seen.chunks(PAGE_SIZE));
                        let at = pages.take_while(|(w, s)| w == s).count() * PAGE_SIZE;
                        let expected = want.get(at..).and_then(word0).unwrap_or(0);
                        Witness::note(
                            &mut witnesses,
                            member,
                            "agreement",
                            fid,
                            expected,
                            seen.get(at..),
                        );
                    }
                }
            }
        }

        // Token lifetime follows the file: whatever path strands a
        // grant on a destroyed file shows up here as a number.
        let mut leaked_grants = 0u64;
        for s in 0..ctx.fleet.server_count() {
            for (_, token) in ctx.fleet.cell().server(s).token_manager().live_grants() {
                let gone = || fresh.getattr(token.fid) == Err(DfsError::StaleFid);
                if !token.is_volume_token() && gone() {
                    leaked_grants += 1;
                }
            }
        }

        // -- Metrics ----------------------------------------------------
        let mut client_stats = ClientStats::default();
        for c in &ctx.clients {
            client_stats.merge(&c.stats());
        }
        let server = ctx.fleet.aggregate_server_stats();
        let net = ctx.fleet.cell().net().stats();
        let mut op_digest = Fnv::new();
        let mut class_ops = [0u64; 4];
        let mut failed_ops = 0;
        let mut torn_reads = 0;
        let mut scan_mismatches = 0;
        for out in &outcomes {
            op_digest.u64(out.digest);
            for (i, n) in out.class_ops.iter().enumerate() {
                class_ops[i] += n;
            }
            failed_ops += out.failed_ops;
            torn_reads += out.torn_reads;
            scan_mismatches += out.scan_mismatches;
        }
        let (events, samples) = {
            let ctl = ctx.ctl.lock();
            (ctl.fired.clone(), ctl.samples.clone())
        };

        RunReport {
            name: sc.name,
            seed: sc.seed,
            servers: topo.servers,
            clients: topo.clients,
            volumes: topo.volumes,
            total_ops,
            class_ops,
            op_digest: op_digest.0,
            state_digest: state.0,
            failed_ops,
            lost_updates,
            agreement_failures,
            torn_reads,
            scan_mismatches,
            ambiguous_regions,
            leaked_grants,
            witnesses,
            events,
            samples,
            client_stats,
            server_ops: server.ops,
            server_redirects: server.wrong_server_redirects,
            server_forwards: server.forwards,
            server_moves: server.moves,
            net_calls: net.calls,
            net_bytes: net.bytes,
            net_latency_us: net.latency_us,
            net_timeouts: net.timeouts,
            faults_injected: ctx.fleet.cell().net().faults_injected(),
            disk_busy_us: ctx.fleet.disk_critical_path_us(),
            sim_us: ctx.fleet.cell().clock().now().0,
        }
    }

    /// Executes one drawn op. All RNG draws happen before any I/O.
    #[allow(clippy::too_many_arguments)]
    fn one_op(
        ctx: &RunCtx,
        client: &CacheManager,
        spec: &ResolvedSpec,
        rng: &mut StdRng,
        digest: &mut Fnv,
        writes_since_fsync: &mut u32,
        out: &mut ClientOutcome,
    ) -> bool {
        match spec.class {
            OpClass::Write => {
                let set = &ctx.sets[spec.set];
                let file = (rng.gen::<u64>() % set.files.len() as u64) as u32;
                let tag = rng.gen::<u64>();
                digest.u64(u64::from(file));
                digest.u64(tag);
                let fid = set.files[file as usize];
                let off = u64::from(spec.member) * PAGE_SIZE as u64;
                let acked = client.write(fid, off, &payload(tag)).is_ok();
                let mut ok = acked;
                if acked {
                    *writes_since_fsync += 1;
                    if spec.fsync_every > 0 && *writes_since_fsync >= spec.fsync_every {
                        *writes_since_fsync = 0;
                        ok = client.fsync(fid).is_ok();
                    }
                }
                out.regions.insert((spec.set, file, spec.member), (tag, acked));
                ok
            }
            OpClass::Read => {
                // Draw everything first: source set, file, region, kind.
                let from_write = spec.write_set.is_some() && rng.gen::<u64>() % 2 == 0;
                let set_idx = if from_write { spec.write_set.unwrap() } else { spec.set };
                let set = &ctx.sets[set_idx];
                let file = (rng.gen::<u64>() % set.files.len() as u64) as u32;
                let region = (rng.gen::<u64>() % u64::from(set.regions)) as u32;
                let getattr = rng.gen::<u64>() % 4 == 0;
                digest.u64(u64::from(from_write));
                digest.u64(u64::from(file));
                digest.u64(u64::from(region));
                digest.u64(u64::from(getattr));
                let fid = set.files[file as usize];
                if getattr {
                    return client.getattr(fid).is_ok();
                }
                match client.read(fid, u64::from(region) * PAGE_SIZE as u64, PAGE_SIZE) {
                    Ok(data) => {
                        if set.prefilled {
                            // Prefilled sets are never written: the read
                            // must return exactly the seed-derived page.
                            let want = prefill_tag(ctx.seed, set_idx, file, region);
                            if !matches!(classify_page(&data),
                                         PageKind::Tagged(t) if t == want)
                            {
                                out.scan_mismatches += 1;
                            }
                        } else {
                            match classify_page(&data) {
                                PageKind::Torn => out.torn_reads += 1,
                                PageKind::Zeros | PageKind::Tagged(_) => {}
                            }
                        }
                        true
                    }
                    Err(_) => false,
                }
            }
            OpClass::MetadataChurn => {
                let dir = spec.churn_dir.expect("churn dir resolved");
                let k = rng.gen::<u64>() % u64::from(spec.names);
                digest.u64(k);
                let name = format!("m{}_f{k}", spec.member);
                (|| {
                    let f = client.create(dir, &name, 0o644)?;
                    client.getattr(f.fid)?;
                    client.remove(dir, &name)
                })()
                .is_ok()
            }
            OpClass::StreamingScan => {
                let set = &ctx.sets[spec.set];
                let file = (rng.gen::<u64>() % set.files.len() as u64) as u32;
                digest.u64(u64::from(file));
                let fid = set.files[file as usize];
                let mut ok = true;
                for region in 0..set.regions {
                    match client.read(fid, u64::from(region) * PAGE_SIZE as u64, PAGE_SIZE) {
                        Ok(data) => {
                            let want = prefill_tag(ctx.seed, spec.set, file, region);
                            if !matches!(classify_page(&data),
                                         PageKind::Tagged(t) if t == want)
                            {
                                out.scan_mismatches += 1;
                            }
                        }
                        Err(_) => ok = false,
                    }
                }
                ok
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_embeds_and_verifies_its_tag() {
        let p = payload(0xdead_beef_1234_5678);
        assert_eq!(p.len(), PAGE_SIZE);
        assert!(matches!(classify_page(&p), PageKind::Tagged(t) if t == 0xdead_beef_1234_5678));
        let mut torn = p.clone();
        torn[PAGE_SIZE / 2] ^= 0xff;
        assert!(matches!(classify_page(&torn), PageKind::Torn));
        assert!(matches!(classify_page(&vec![0u8; PAGE_SIZE]), PageKind::Zeros));
    }

    #[test]
    fn splitmix_and_fnv_are_stable() {
        // Pinned values: the determinism contract depends on these
        // functions never drifting.
        assert_eq!(splitmix(0), 0xE220_A839_7B1D_CDAF);
        let mut f = Fnv::new();
        f.u64(42);
        let a = f.0;
        let mut g = Fnv::new();
        g.u64(42);
        assert_eq!(a, g.0);
        let mut h = Fnv::new();
        h.u64(43);
        assert_ne!(a, h.0);
    }

    #[test]
    fn sampling_is_bounded_by_the_op_budget() {
        // Regression: the post-run `service(u64::MAX)` sweep must clamp
        // sampling to the ops actually issued — sampling "up to MAX"
        // looped (and allocated) forever.
        let sc = Scenario::new(
            "unit_sampled",
            3,
            Topology::new(1, 2, 1).latency_us(10).no_flusher(),
            vec![Phase::new("mix", 6, vec![ClassSpec::new(OpClass::Write, 1, 2).sharing(2)])],
        )
        .sample_every(1);
        let r = sc.run();
        assert_eq!(r.total_ops, 12);
        assert!(!r.samples.is_empty(), "sampling was on");
        assert!(
            r.samples.len() <= r.total_ops as usize,
            "one sample per op at most, got {}",
            r.samples.len()
        );
        assert!(r.samples.iter().all(|s| s.at_op <= r.total_ops));
    }

    #[test]
    fn tiny_scenario_runs_clean() {
        let sc = Scenario::new(
            "unit_tiny",
            7,
            Topology::new(1, 2, 1).latency_us(10).no_flusher(),
            vec![Phase::new(
                "mix",
                8,
                vec![
                    ClassSpec::new(OpClass::Write, 2, 2).sharing(2),
                    ClassSpec::new(OpClass::Read, 2, 2).sharing(2),
                    ClassSpec::new(OpClass::MetadataChurn, 1, 2),
                ],
            )],
        );
        let r = sc.run();
        assert_eq!(r.total_ops, 16);
        assert!(r.clean(), "invariants: {}", r.invariants().json());
        assert_eq!(r.leaked_grants, 0, "the churn class removes what it creates");
        crate::json::validate(&r.to_json()).expect("report JSON must parse");
    }
}
