//! The four workloads, their correctness oracle, and the round loop.
//!
//! Every workload is a closed loop of two driver threads. A thread's
//! op stream comes from `StdRng` seeded by `(seed, thread)`, and every
//! draw happens before the op it parameterises runs. Pages carry a
//! tag-keyed payload that is checked in full on every read.

use crate::hist::Hist;
use crate::trace::Tracer;
use crate::world::{World, VOLUME};
use dfs_client::{CacheManager, PAGE_SIZE};
use dfs_types::{DfsResult, Fid, FileStatus, FileType};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Driver threads per workload (`nproc` on the reference host).
pub const THREADS: usize = 2;
/// Failures reported in full per workload.
pub const MAX_WITNESSES: usize = 16;

/// Operation types, each with its own latency histogram: the median of
/// a mixture moves with the mix, the median of one type does not.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Cache-hit page read.
    Read,
    /// First read after the peer's acknowledged write.
    HandoffRead,
    /// Write that must take the token from the peer.
    Write,
    /// Write absorbed under a token already held.
    AbsorbedWrite,
    Fsync,
    Create,
    Lookup,
    Getattr,
    Remove,
}

impl Kind {
    pub const ALL: [Kind; 9] = [
        Kind::Read,
        Kind::HandoffRead,
        Kind::Write,
        Kind::AbsorbedWrite,
        Kind::Fsync,
        Kind::Create,
        Kind::Lookup,
        Kind::Getattr,
        Kind::Remove,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::HandoffRead => "handoff_read",
            Kind::Write => "write",
            Kind::AbsorbedWrite => "absorbed_write",
            Kind::Fsync => "fsync",
            Kind::Create => "create",
            Kind::Lookup => "lookup",
            Kind::Getattr => "getattr",
            Kind::Remove => "remove",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// The op types it issues (each gets a histogram per round); the
    /// first is the one whose latency is the workload's headline.
    pub kinds: &'static [Kind],
    /// Ops per thread per round in `--smoke` runs and tests: 1/50 of
    /// the ≈3 s rounds sized on the reference host.
    pub smoke_ops: u64,
    /// Traced runs keep full spans for one op in this many. Coprime to
    /// the workload's op cycle, so every op type gets sampled.
    pub sample_every: u64,
    /// Cache managers the world needs.
    clients: usize,
    /// Builds driver thread `thread`'s state in a fresh world: prefill
    /// and pre-read included.
    driver: fn(&World, seed: u64, thread: usize) -> DfsResult<Box<dyn Driver>>,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "hot_read",
        why: "2 clients read random 4 KiB pages of private cached files: token + cache hit, no RPC, no disk; only the client crate works",
        kinds: &[Kind::Read],
        smoke_ops: 100_000,
        sample_every: 1009,
        clients: THREADS,
        driver: HotRead::prepare,
    },
    WorkloadDef {
        name: "shared_handoff",
        why: "2 client pairs pass one page back and forth in lock-step (write, 7 reads, swap): token revocation, store-back in the handler, FetchData",
        kinds: &[Kind::HandoffRead, Kind::Read, Kind::Write],
        smoke_ops: 2_000,
        sample_every: 61,
        clients: 2 * THREADS,
        driver: SharedHandoff::prepare,
    },
    WorkloadDef {
        name: "write_fsync",
        why: "2 clients overwrite 8 MiB (more than the server buffer cache) and fsync every 16 pages: StoreDataVec, one journal transaction, group commit, disk",
        kinds: &[Kind::Fsync, Kind::AbsorbedWrite, Kind::Read],
        smoke_ops: 720,
        sample_every: 13,
        clients: THREADS + 1,
        driver: WriteFsync::prepare,
    },
    WorkloadDef {
        name: "meta_churn",
        why: "2 clients cycle create, lookup, getattr, remove over 64 names in private directories: one small RPC and one journal transaction per update",
        kinds: &[Kind::Create, Kind::Lookup, Kind::Getattr, Kind::Remove],
        smoke_ops: 360,
        sample_every: 7,
        clients: THREADS,
        driver: MetaChurn::prepare,
    },
];

impl WorkloadDef {
    pub fn primary(&self) -> Kind {
        self.kinds[0]
    }
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------
// Correctness oracle
// ---------------------------------------------------------------------

const WORD_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fills a page with the payload keyed by `tag`: 8-byte word `i` holds
/// `tag + i * WORD_STEP`, so word 0 names the tag and a page mixing two
/// writes fails the check whichever words it took from each.
pub fn fill_page(buf: &mut [u8], tag: u64) {
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&tag.wrapping_add((i as u64).wrapping_mul(WORD_STEP)).to_le_bytes());
    }
}

/// Checks every byte of a page read; `Err` carries the tag observed in
/// word 0 (or `None` for a short read).
pub fn check_page(data: &[u8], tag: u64) -> Result<(), Option<u64>> {
    let ok = data.len() == PAGE_SIZE
        && data.chunks_exact(8).enumerate().all(|(i, w)| {
            u64::from_le_bytes(w.try_into().expect("8-byte chunk"))
                == tag.wrapping_add((i as u64).wrapping_mul(WORD_STEP))
        });
    if ok {
        return Ok(());
    }
    Err(data.get(..8).map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))))
}

/// One failed op, with enough to find it again.
#[derive(Clone, Debug)]
pub struct Witness {
    pub client: u32,
    pub round: usize,
    pub op: String,
    pub fid: Fid,
    pub expected_tag: u64,
    /// `Ok(tag seen in word 0)` for wrong bytes (`None`: short read),
    /// `Err(error)` for an op that returned `Err`.
    pub observed: Result<Option<u64>, String>,
}

// ---------------------------------------------------------------------
// Per-thread recording
// ---------------------------------------------------------------------

/// What one thread measured in one round.
pub struct RoundRec {
    /// One histogram per op type the workload issues, in
    /// `WorkloadDef::kinds` order.
    pub hists: Vec<Hist>,
    pub ops: u64,
    pub failed: u64,
    /// Bytes handed to `CacheManager::write`.
    pub user_bytes: u64,
    pub started: Option<Instant>,
    pub ended: Option<Instant>,
}

impl RoundRec {
    fn new(kinds: usize) -> RoundRec {
        RoundRec {
            hists: (0..kinds).map(|_| Hist::new()).collect(),
            ops: 0,
            failed: 0,
            user_bytes: 0,
            started: None,
            ended: None,
        }
    }
}

/// A driver thread's recorder: histograms are allocated for every round
/// up front, so the timed loop never allocates on the recorder's behalf.
pub struct Recorder {
    tracer: Option<Arc<Tracer>>,
    kinds: &'static [Kind],
    /// Round 0 is the warm-up; the last holds the post-run verification.
    pub rounds: Vec<RoundRec>,
    cur: usize,
    seq: u64,
    /// Running hash of every op issued (kind and parameters), for the
    /// same-seed-same-inputs check.
    pub digest: u64,
    pub witnesses: Vec<Witness>,
}

impl Recorder {
    fn new(rounds: usize, kinds: &'static [Kind], tracer: Option<Arc<Tracer>>) -> Recorder {
        Recorder {
            tracer,
            kinds,
            rounds: (0..rounds).map(|_| RoundRec::new(kinds.len())).collect(),
            cur: 0,
            seq: 0,
            digest: 0xcbf2_9ce4_8422_2325,
            witnesses: Vec::new(),
        }
    }

    /// Times one `CacheManager` call as op type `kind`; `param` is what
    /// the seed decided about it. In a traced run the call is also the
    /// root `client.op` span of op `(client, seq)`.
    #[inline]
    fn timed<T>(&mut self, kind: Kind, client: u32, param: u64, f: impl FnOnce() -> T) -> T {
        self.seq += 1;
        self.digest = (self.digest ^ param ^ ((kind as u64) << 56)).wrapping_mul(0x0100_0000_01b3);
        let (out, ns) = match &self.tracer {
            Some(t) => t.op(client, self.seq, kind.name(), f),
            None => {
                let t0 = Instant::now();
                let out = f();
                (out, t0.elapsed().as_nanos() as u64)
            }
        };
        let slot = self
            .kinds
            .iter()
            .position(|k| *k == kind)
            .expect("op type not declared by the workload");
        let rec = &mut self.rounds[self.cur];
        rec.hists[slot].record(ns);
        rec.ops += 1;
        out
    }

    fn fail(
        &mut self,
        kind: Kind,
        client: u32,
        fid: Fid,
        expected_tag: u64,
        observed: Result<Option<u64>, String>,
    ) {
        self.rounds[self.cur].failed += 1;
        if self.witnesses.len() < MAX_WITNESSES {
            self.witnesses.push(Witness {
                client,
                round: self.cur,
                op: format!("{}#{}", kind.name(), self.seq),
                fid,
                expected_tag,
                observed,
            });
        }
    }

    /// Counts a failure unless `res` is `Ok`; returns the value.
    fn ok<T>(
        &mut self,
        kind: Kind,
        client: u32,
        fid: Fid,
        tag: u64,
        res: DfsResult<T>,
    ) -> Option<T> {
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(kind, client, fid, tag, Err(format!("{e:?}")));
                None
            }
        }
    }

    /// Counts a failure unless `res` is a full page carrying `tag`.
    fn page(&mut self, kind: Kind, client: u32, fid: Fid, tag: u64, res: DfsResult<Vec<u8>>) {
        if let Some(data) = self.ok(kind, client, fid, tag, res) {
            if let Err(seen) = check_page(&data, tag) {
                self.fail(kind, client, fid, tag, Ok(seen));
            }
        }
    }
}

/// A driver thread's workload state.
trait Driver: Send {
    /// Runs the workload's smallest repeating unit of ops.
    fn unit(&mut self, rec: &mut Recorder);

    /// Post-run verification, outside the measured rounds.
    fn verify(&mut self, _rec: &mut Recorder) {}
}

fn thread_rng(seed: u64, thread: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ thread as u64)
}

fn private_dir(c: &CacheManager, name: &str) -> DfsResult<Fid> {
    Ok(c.mkdir(c.root(VOLUME)?, name, 0o755)?.fid)
}

// ---------------------------------------------------------------------
// hot_read
// ---------------------------------------------------------------------

const HOT_FILES: u64 = 64;
const HOT_PAGES: u64 = 16;
/// Reads per `unit`, so the round loop's bookkeeping is amortised.
const HOT_BATCH: usize = 64;

struct HotRead {
    client: Arc<CacheManager>,
    id: u32,
    fids: Vec<Fid>,
    /// Tag of page `file * HOT_PAGES + page`.
    tags: Vec<u64>,
    rng: StdRng,
}

impl HotRead {
    fn prepare(world: &World, seed: u64, thread: usize) -> DfsResult<Box<dyn Driver>> {
        let client = world.clients[thread].clone();
        let id = client.id().0;
        let mut rng = thread_rng(seed, thread);
        let dir = private_dir(&client, &format!("hot{id}"))?;
        let mut buf = vec![0u8; PAGE_SIZE];
        let (mut fids, mut tags) = (Vec::new(), Vec::new());
        for f in 0..HOT_FILES {
            let fid = client.create(dir, &format!("f{f:02}"), 0o644)?.fid;
            for p in 0..HOT_PAGES {
                let tag = rng.gen::<u64>();
                fill_page(&mut buf, tag);
                client.write(fid, p * PAGE_SIZE as u64, &buf)?;
                tags.push(tag);
            }
            client.fsync(fid)?;
            fids.push(fid);
        }
        // Pre-read once, so the first measured read of a page is no
        // different from the rest.
        for (i, tag) in tags.iter().enumerate() {
            let (f, p) = (i as u64 / HOT_PAGES, i as u64 % HOT_PAGES);
            let data = client.read(fids[f as usize], p * PAGE_SIZE as u64, PAGE_SIZE)?;
            assert!(check_page(&data, *tag).is_ok(), "prefilled page reads back wrong");
        }
        Ok(Box::new(HotRead { client, id, fids, tags, rng }))
    }
}

impl Driver for HotRead {
    fn unit(&mut self, rec: &mut Recorder) {
        for _ in 0..HOT_BATCH {
            let i = self.rng.gen_range_u64(HOT_FILES * HOT_PAGES);
            let fid = self.fids[(i / HOT_PAGES) as usize];
            let offset = (i % HOT_PAGES) * PAGE_SIZE as u64;
            let res =
                rec.timed(Kind::Read, self.id, i, || self.client.read(fid, offset, PAGE_SIZE));
            rec.page(Kind::Read, self.id, fid, self.tags[i as usize], res);
        }
    }
}

// ---------------------------------------------------------------------
// shared_handoff
// ---------------------------------------------------------------------

/// Reads the non-writing client makes per handoff: one that takes the
/// token over, then six hits.
const HANDOFF_READS: usize = 7;

/// One thread driving its own pair of clients over its own one-page
/// file, in lock-step: nothing here races, so the RPC count per round
/// is a constant of the protocol and not of the scheduler.
struct SharedHandoff {
    pair: [Arc<CacheManager>; 2],
    fid: Fid,
    writer: usize,
    rng: StdRng,
    buf: Vec<u8>,
}

impl SharedHandoff {
    fn prepare(world: &World, seed: u64, thread: usize) -> DfsResult<Box<dyn Driver>> {
        let pair = [world.clients[2 * thread].clone(), world.clients[2 * thread + 1].clone()];
        let dir_name = format!("pair{thread}");
        let dir = private_dir(&pair[0], &dir_name)?;
        let fid = pair[0].create(dir, "page", 0o644)?.fid;
        let mut buf = vec![0u8; PAGE_SIZE];
        fill_page(&mut buf, 0);
        pair[0].write(fid, 0, &buf)?;
        pair[0].fsync(fid)?;
        // The peer finds the file the way a second user would.
        let root = pair[1].root(VOLUME)?;
        let seen_dir = pair[1].lookup(root, &dir_name)?.fid;
        assert_eq!(pair[1].lookup(seen_dir, "page")?.fid, fid);
        Ok(Box::new(SharedHandoff { pair, fid, writer: 0, rng: thread_rng(seed, thread), buf }))
    }
}

impl Driver for SharedHandoff {
    fn unit(&mut self, rec: &mut Recorder) {
        let tag = self.rng.gen::<u64>();
        fill_page(&mut self.buf, tag);
        let (x, y) = (&self.pair[self.writer], &self.pair[1 - self.writer]);
        let (xid, yid) = (x.id().0, y.id().0);
        let res = rec.timed(Kind::Write, xid, tag, || x.write(self.fid, 0, &self.buf));
        rec.ok(Kind::Write, xid, self.fid, tag, res);
        rec.rounds[rec.cur].user_bytes += PAGE_SIZE as u64;
        for i in 0..HANDOFF_READS {
            let kind = if i == 0 { Kind::HandoffRead } else { Kind::Read };
            let res = rec.timed(kind, yid, 0, || y.read(self.fid, 0, PAGE_SIZE));
            rec.page(kind, yid, self.fid, tag, res);
        }
        self.writer = 1 - self.writer;
    }
}

// ---------------------------------------------------------------------
// write_fsync
// ---------------------------------------------------------------------

const WF_FILES: usize = 4;
const WF_PAGES: u64 = 256;
const WF_GROUP: u64 = 16;

struct WriteFsync {
    client: Arc<CacheManager>,
    /// A second client that reads everything back at the end: what it
    /// sees came through store-back, the journal and the server.
    verifier: Arc<CacheManager>,
    id: u32,
    fids: Vec<Fid>,
    /// Tag last written to page `file * WF_PAGES + page`.
    tags: Vec<u64>,
    /// Next group: `file * (WF_PAGES / WF_GROUP) + group`.
    next_group: u64,
    rng: StdRng,
    buf: Vec<u8>,
}

impl WriteFsync {
    fn prepare(world: &World, seed: u64, thread: usize) -> DfsResult<Box<dyn Driver>> {
        let client = world.clients[thread].clone();
        let verifier = world.clients[THREADS].clone();
        let id = client.id().0;
        let mut rng = thread_rng(seed, thread);
        let dir = private_dir(&client, &format!("wf{id}"))?;
        let mut buf = vec![0u8; PAGE_SIZE];
        let (mut fids, mut tags) = (Vec::new(), Vec::new());
        for f in 0..WF_FILES {
            let fid = client.create(dir, &format!("f{f}"), 0o644)?.fid;
            for p in 0..WF_PAGES {
                let tag = rng.gen::<u64>();
                fill_page(&mut buf, tag);
                client.write(fid, p * PAGE_SIZE as u64, &buf)?;
                tags.push(tag);
                if (p + 1) % WF_GROUP == 0 {
                    client.fsync(fid)?;
                }
            }
            fids.push(fid);
        }
        let groups = WF_FILES as u64 * (WF_PAGES / WF_GROUP);
        let next_group = rng.gen_range_u64(groups);
        Ok(Box::new(WriteFsync { client, verifier, id, fids, tags, next_group, rng, buf }))
    }
}

impl Driver for WriteFsync {
    fn unit(&mut self, rec: &mut Recorder) {
        let groups_per_file = WF_PAGES / WF_GROUP;
        let file = (self.next_group / groups_per_file) as usize;
        let first = (self.next_group % groups_per_file) * WF_GROUP;
        let fid = self.fids[file];
        for p in first..first + WF_GROUP {
            let tag = self.rng.gen::<u64>();
            fill_page(&mut self.buf, tag);
            let offset = p * PAGE_SIZE as u64;
            let res = rec.timed(Kind::AbsorbedWrite, self.id, tag, || {
                self.client.write(fid, offset, &self.buf)
            });
            if rec.ok(Kind::AbsorbedWrite, self.id, fid, tag, res).is_some() {
                self.tags[file * WF_PAGES as usize + p as usize] = tag;
            }
            rec.rounds[rec.cur].user_bytes += PAGE_SIZE as u64;
        }
        let res = rec.timed(Kind::Fsync, self.id, self.next_group, || self.client.fsync(fid));
        rec.ok(Kind::Fsync, self.id, fid, 0, res);
        self.next_group = (self.next_group + 1) % (WF_FILES as u64 * groups_per_file);
    }

    fn verify(&mut self, rec: &mut Recorder) {
        let vid = self.verifier.id().0;
        for (i, tag) in self.tags.iter().enumerate() {
            let fid = self.fids[i / WF_PAGES as usize];
            let offset = (i as u64 % WF_PAGES) * PAGE_SIZE as u64;
            let res =
                rec.timed(Kind::Read, vid, i as u64, || self.verifier.read(fid, offset, PAGE_SIZE));
            rec.page(Kind::Read, vid, fid, *tag, res);
        }
    }
}

// ---------------------------------------------------------------------
// meta_churn
// ---------------------------------------------------------------------

const CHURN_NAMES: u64 = 64;

/// Not a stationary workload on this code base: the server never drops
/// a removed file's token grants, and `TokenManager::release` scans
/// every grant there is, so each cycle is slower than the one before
/// (see README, "What the design is a response to"). The best-decile
/// round is therefore an early one.
struct MetaChurn {
    client: Arc<CacheManager>,
    id: u32,
    dir: Fid,
    next_name: u64,
    rng: StdRng,
}

impl MetaChurn {
    fn prepare(world: &World, seed: u64, thread: usize) -> DfsResult<Box<dyn Driver>> {
        let client = world.clients[thread].clone();
        let id = client.id().0;
        let dir = private_dir(&client, &format!("churn{id}"))?;
        Ok(Box::new(MetaChurn { client, id, dir, next_name: 0, rng: thread_rng(seed, thread) }))
    }
}

impl Driver for MetaChurn {
    fn unit(&mut self, rec: &mut Recorder) {
        let salt = self.rng.gen::<u32>();
        let name = format!("n{:02}-{salt:08x}", self.next_name);
        self.next_name = (self.next_name + 1) % CHURN_NAMES;
        let (c, id, dir, param) = (&self.client, self.id, self.dir, u64::from(salt));

        let res = rec.timed(Kind::Create, id, param, || c.create(dir, &name, 0o644));
        let Some(created) = rec.ok(Kind::Create, id, dir, param, res) else {
            return;
        };
        let fid = created.fid;
        let same_file =
            |st: &FileStatus| st.fid == fid && st.ftype == FileType::Regular && st.length == 0;

        let res = rec.timed(Kind::Lookup, id, param, || c.lookup(dir, &name));
        if let Some(st) = rec.ok(Kind::Lookup, id, fid, param, res) {
            if !same_file(&st) {
                rec.fail(Kind::Lookup, id, fid, param, Err(format!("lookup returned {st:?}")));
            }
        }
        let res = rec.timed(Kind::Getattr, id, param, || c.getattr(fid));
        if let Some(st) = rec.ok(Kind::Getattr, id, fid, param, res) {
            if !same_file(&st) {
                rec.fail(Kind::Getattr, id, fid, param, Err(format!("getattr returned {st:?}")));
            }
        }
        let res = rec.timed(Kind::Remove, id, param, || c.remove(dir, &name));
        rec.ok(Kind::Remove, id, fid, param, res);
    }
}

// ---------------------------------------------------------------------
// Set-up and the round loop
// ---------------------------------------------------------------------

/// A built world with its per-thread workload state, ready to run.
pub struct Prepared {
    pub world: World,
    kinds: &'static [Kind],
    drivers: Vec<Box<dyn Driver>>,
    tracer: Option<Arc<Tracer>>,
}

/// Set-up: builds the world, prefills and pre-reads. With a tracer the
/// world is the traced one; `flusher` turns the clients' background
/// flusher on (a diagnostic, never a benchmark configuration).
pub fn prepare(
    def: &WorkloadDef,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
    flusher: bool,
) -> DfsResult<Prepared> {
    let world = World::build(def.clients, tracer.as_ref(), flusher)?;
    let drivers = (0..THREADS).map(|t| (def.driver)(&world, seed, t)).collect::<DfsResult<_>>()?;
    Ok(Prepared { world, kinds: def.kinds, drivers, tracer })
}

/// When a round ends: after `ops` ops per thread or after `time`,
/// whichever comes first, at the next unit boundary.
#[derive(Clone, Copy)]
pub struct Limit {
    pub ops: u64,
    pub time: Duration,
}

impl Limit {
    pub fn ops(ops: u64) -> Limit {
        Limit { ops, time: Duration::from_secs(3600) }
    }

    pub fn time(time: Duration) -> Limit {
        Limit { ops: u64::MAX, time }
    }
}

/// What a run produced: per-thread recordings and the statistics
/// snapshots taken at the barriers between rounds.
pub struct RunOutput {
    /// The op types the workload issues; indexes `RoundRec::hists`.
    pub kinds: &'static [Kind],
    /// One per driver thread.
    pub threads: Vec<Recorder>,
    /// `snapshots[r]` was taken before round `r`, `snapshots[r + 1]`
    /// after it; round 0 is the warm-up.
    pub snapshots: Vec<crate::world::Snapshot>,
    /// Measured rounds (excluding warm-up and verification).
    pub rounds: usize,
}

impl RunOutput {
    /// A run of no rounds: every metric computes to 0 from it.
    pub fn empty() -> RunOutput {
        RunOutput {
            kinds: &[],
            threads: Vec::new(),
            snapshots: vec![Default::default(); 2],
            rounds: 0,
        }
    }
}

impl Prepared {
    /// Runs a warm-up round and `rounds` measured rounds, then the
    /// post-run verification. Rounds are separated by a barrier at
    /// which the coordinator snapshots every statistics struct.
    pub fn run(&mut self, warmup: Limit, rounds: usize, limit: Limit) -> RunOutput {
        let barrier = Barrier::new(THREADS + 1);
        let world = &self.world;
        let tracer = &self.tracer;
        let kinds = self.kinds;
        let mut snapshots = Vec::with_capacity(rounds + 2);
        let threads = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .drivers
                .iter_mut()
                .map(|driver| {
                    let barrier = &barrier;
                    // Warm-up + measured rounds + verification.
                    let mut rec = Recorder::new(rounds + 2, kinds, tracer.clone());
                    s.spawn(move || {
                        for r in 0..=rounds {
                            rec.cur = r;
                            let limit = if r == 0 { warmup } else { limit };
                            barrier.wait();
                            let started = Instant::now();
                            loop {
                                driver.unit(&mut rec);
                                if rec.rounds[r].ops >= limit.ops || started.elapsed() >= limit.time
                                {
                                    break;
                                }
                            }
                            rec.rounds[r].started = Some(started);
                            rec.rounds[r].ended = Some(Instant::now());
                            barrier.wait();
                        }
                        // The coordinator takes the closing snapshot
                        // before verification adds its own traffic.
                        barrier.wait();
                        rec.cur = rounds + 1;
                        driver.verify(&mut rec);
                        rec
                    })
                })
                .collect();
            for r in 0..=rounds {
                if let Some(t) = tracer {
                    t.set_recording(r > 0);
                }
                snapshots.push(world.snapshot());
                barrier.wait();
                barrier.wait();
            }
            snapshots.push(world.snapshot());
            if let Some(t) = tracer {
                t.set_recording(false);
            }
            barrier.wait();
            handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
        });
        RunOutput { kinds, threads, snapshots, rounds }
    }

    pub fn teardown(self) -> DfsResult<()> {
        drop(self.drivers);
        self.world.teardown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_catches_stale_mixed_and_short_pages() {
        let mut page = vec![0u8; PAGE_SIZE];
        fill_page(&mut page, 7);
        assert!(check_page(&page, 7).is_ok());
        assert_eq!(check_page(&page, 8), Err(Some(7)));
        let mut other = vec![0u8; PAGE_SIZE];
        fill_page(&mut other, 9);
        page[2048..].copy_from_slice(&other[2048..]);
        assert_eq!(check_page(&page, 7), Err(Some(7)), "half-new page must fail");
        assert_eq!(check_page(&page[..100], 7), Err(Some(7)));
        assert_eq!(check_page(&[], 7), Err(None));
        assert_eq!(check_page(&vec![0u8; PAGE_SIZE], 7), Err(Some(0)), "zero page must fail");
    }

    fn small_run(name: &str, seed: u64) -> RunOutput {
        let def = workload(name).unwrap();
        let mut p = prepare(def, seed, None, false).unwrap();
        let ops = def.smoke_ops / 4;
        let out = p.run(Limit::ops(ops / 2), 2, Limit::ops(ops));
        p.teardown().unwrap();
        out
    }

    fn digests(out: &RunOutput) -> Vec<u64> {
        out.threads.iter().map(|t| t.digest).collect()
    }

    #[test]
    fn same_seed_same_ops_different_seed_different_ops_and_nothing_fails() {
        for def in &WORKLOADS {
            let (a, b, c) =
                (small_run(def.name, 1), small_run(def.name, 1), small_run(def.name, 2));
            assert_eq!(digests(&a), digests(&b), "{}: same seed, different ops", def.name);
            assert_ne!(digests(&a), digests(&c), "{}: different seed, same ops", def.name);
            for out in [&a, &b, &c] {
                for t in &out.threads {
                    assert!(t.witnesses.is_empty(), "{}: {:?}", def.name, t.witnesses);
                    assert!(t.rounds.iter().all(|r| r.failed == 0));
                }
            }
        }
    }

    #[test]
    fn lock_step_handoff_costs_exactly_five_rpcs_per_round() {
        let def = workload("shared_handoff").unwrap();
        let mut p = prepare(def, 3, None, false).unwrap();
        // 1 000 handoffs of 8 ops per thread, after a warm-up that
        // leaves both pairs in the steady alternating state.
        let out = p.run(Limit::ops(16), 1, Limit::ops(8_000));
        let d = out.snapshots[2].since(&out.snapshots[1]);
        let ops: u64 = out.threads.iter().map(|t| t.rounds[1].ops).sum();
        assert_eq!(ops, 2 * 8_000);
        assert_eq!(d.net.calls, ops / 8 * 5, "by label: {:?}", d.net.by_label);
        // 375 per thousand ops: the writer's grant takes the reader's
        // token, the reader's fetch takes the writer's in two parts.
        assert_eq!(d.client.revocations, ops / 8 * 3);
        assert!(out.threads.iter().all(|t| t.witnesses.is_empty()));
        p.teardown().unwrap();
    }
}
