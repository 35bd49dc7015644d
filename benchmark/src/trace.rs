//! Outside-in tracing: spans recorded from the benchmark's own files,
//! around the calls into each layer.
//!
//! The traced world installs three wrappers built from public traits —
//! [`TracedCache`] (`DataCache`), [`TracedService`] (`RpcService`, at
//! the server's and at each client's address) and [`TracedFs`]
//! (`PhysicalFs`/`VfsPlus`) — and the workload loop records a root
//! `client.op` span around every `CacheManager` call. Every span is
//! folded into a per-(name, label) histogram; one op in `sample_every`
//! keeps its full spans for the span file.

use crate::hist::Hist;
use crate::json::{obj, Json};
use dfs_client::DataCache;
use dfs_rpc::{Addr, CallContext, Request, Response, RpcService};
use dfs_types::{Acl, AggregateId, DfsResult, Fid, FileStatus, VolumeId};
use dfs_vfs::{
    Credentials, DirEntry, PhysicalFs, SalvageReport, SetAttrs, Vfs, VfsPlus, VolumeDump,
    VolumeInfo, WriteExtent,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const OP: &str = "client.op";
pub const CACHE: &str = "client.cache";
pub const REVOKE: &str = "client.revoke";
pub const DISPATCH: &str = "server.dispatch";
pub const EPISODE: &str = "episode.call";

/// Most full spans kept per workload.
const SPAN_CAP: usize = 100_000;
const SHARDS: usize = 16;
/// Client ids the per-client "current op" table covers.
const MAX_CLIENTS: usize = 16;

/// What the current thread is working for: the op that caused the
/// work (`seq` 0 = none known, reported as `bg`) and the span the next
/// child span hangs under.
#[derive(Clone, Copy)]
struct Ctx {
    client: u32,
    seq: u64,
    sampled: bool,
    parent: &'static str,
}

const NO_CTX: Ctx = Ctx { client: 0, seq: 0, sampled: false, parent: "bg" };

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(NO_CTX) };
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// One kept span.
struct Span {
    name: &'static str,
    label: &'static str,
    client: u32,
    seq: u64,
    parent: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate of every span with one (name, label, foreground) key.
pub struct SpanAgg {
    pub name: &'static str,
    pub label: &'static str,
    /// Whether the spans ran on behalf of a benchmark op in flight
    /// (as opposed to `bg`: revocation-driven store-backs).
    pub foreground: bool,
    pub hist: Hist,
}

#[derive(Default)]
struct Shard {
    aggs: Vec<SpanAgg>,
    spans: Vec<Span>,
    background_seen: u64,
}

pub struct Tracer {
    epoch: Instant,
    sample_every: u64,
    shards: Vec<Mutex<Shard>>,
    /// Per client id: `seq << 1 | sampled` of the op its driver thread
    /// has in flight, 0 when idle. Lets the server-side wrapper name
    /// the op a request belongs to from `CallContext::caller` alone.
    current: Vec<AtomicU64>,
    kept: AtomicUsize,
    /// Off during set-up and warm-up, so aggregates cover exactly the
    /// measured rounds.
    recording: AtomicBool,
}

impl Tracer {
    pub fn new(sample_every: u64) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            sample_every: sample_every.max(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            current: (0..MAX_CLIENTS).map(|_| AtomicU64::new(0)).collect(),
            kept: AtomicUsize::new(0),
            recording: AtomicBool::new(false),
        })
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn record(&self, name: &'static str, label: &'static str, ctx: Ctx, t0: Instant, t1: Instant) {
        if !self.recording.load(Ordering::Relaxed) {
            return;
        }
        let foreground = ctx.seq != 0;
        let mut shard = SHARD.with(|s| self.shards[*s].lock().expect("tracer shard poisoned"));
        let keep = if foreground {
            ctx.sampled
        } else {
            shard.background_seen += 1;
            shard.background_seen.is_multiple_of(self.sample_every)
        };
        let pos = shard
            .aggs
            .iter()
            .position(|a| a.name == name && a.label == label && a.foreground == foreground);
        let agg = match pos {
            Some(p) => &mut shard.aggs[p],
            None => {
                shard.aggs.push(SpanAgg { name, label, foreground, hist: Hist::new() });
                shard.aggs.last_mut().expect("just pushed")
            }
        };
        agg.hist.record(t1.duration_since(t0).as_nanos() as u64);
        if keep && self.kept.fetch_add(1, Ordering::Relaxed) < SPAN_CAP {
            shard.spans.push(Span {
                name,
                label,
                client: ctx.client,
                seq: ctx.seq,
                parent: ctx.parent,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
            });
        }
    }

    /// Runs `f` as a child span of whatever the thread is working for.
    fn child<T>(&self, name: &'static str, label: &'static str, f: impl FnOnce() -> T) -> T {
        let ctx = CTX.get();
        CTX.set(Ctx { parent: name, ..ctx });
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        CTX.set(ctx);
        self.record(name, label, ctx, t0, t1);
        out
    }

    /// Runs `f` as the root span of op `(client, seq)`; returns its
    /// result and duration.
    pub fn op<T>(
        &self,
        client: u32,
        seq: u64,
        label: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let sampled = seq.is_multiple_of(self.sample_every);
        let ctx = Ctx { client, seq, sampled, parent: OP };
        let slot = self.current.get(client as usize);
        if let Some(slot) = slot {
            slot.store(seq << 1 | u64::from(sampled), Ordering::Release);
        }
        CTX.set(ctx);
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        CTX.set(NO_CTX);
        if let Some(slot) = slot {
            slot.store(0, Ordering::Release);
        }
        self.record(OP, label, Ctx { parent: "", ..ctx }, t0, t1);
        (out, t1.duration_since(t0).as_nanos() as u64)
    }

    /// The op client `id`'s driver thread has in flight, if any.
    fn current_op(&self, id: u32) -> Ctx {
        match self.current.get(id as usize).map_or(0, |s| s.load(Ordering::Acquire)) {
            0 => NO_CTX,
            packed => Ctx { client: id, seq: packed >> 1, sampled: packed & 1 == 1, parent: OP },
        }
    }

    /// Merges the per-thread aggregates.
    pub fn aggregates(&self) -> Vec<SpanAgg> {
        let mut out: Vec<SpanAgg> = Vec::new();
        for shard in &self.shards {
            for a in &shard.lock().expect("tracer shard poisoned").aggs {
                match out.iter_mut().find(|o| {
                    o.name == a.name && o.label == a.label && o.foreground == a.foreground
                }) {
                    Some(o) => o.hist.merge(&a.hist),
                    None => out.push(SpanAgg {
                        name: a.name,
                        label: a.label,
                        foreground: a.foreground,
                        hist: a.hist.clone(),
                    }),
                }
            }
        }
        out.sort_by_key(|a| (a.name, a.label, !a.foreground));
        out
    }

    /// The kept spans as a JSON document, ordered by start time.
    pub fn spans_json(&self, workload: &str) -> Json {
        let mut spans: Vec<Span> = Vec::new();
        for shard in &self.shards {
            spans.append(&mut shard.lock().expect("tracer shard poisoned").spans);
        }
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        let rows = spans
            .iter()
            .map(|s| {
                let op = if s.seq == 0 {
                    Json::Str("bg".into())
                } else {
                    Json::Arr(vec![u64::from(s.client).into(), s.seq.into()])
                };
                obj([
                    ("name", s.name.into()),
                    ("label", s.label.into()),
                    ("op", op),
                    ("parent", s.parent.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                ])
            })
            .collect();
        obj([
            ("workload", workload.into()),
            ("sample_every", self.sample_every.into()),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// `DataCache` wrapper: every page-store call is a `client.cache` span.
pub struct TracedCache {
    pub inner: Arc<dyn DataCache>,
    pub tracer: Arc<Tracer>,
}

impl DataCache for TracedCache {
    fn read_page(&self, fid: Fid, page: u64) -> Option<Vec<u8>> {
        self.tracer.child(CACHE, "read_page", || self.inner.read_page(fid, page))
    }

    fn write_page(&self, fid: Fid, page: u64, data: &[u8]) -> DfsResult<()> {
        self.tracer.child(CACHE, "write_page", || self.inner.write_page(fid, page, data))
    }

    fn drop_page(&self, fid: Fid, page: u64) {
        self.tracer.child(CACHE, "drop_page", || self.inner.drop_page(fid, page))
    }

    fn evict_file(&self, fid: Fid) {
        self.tracer.child(CACHE, "evict_file", || self.inner.evict_file(fid))
    }

    fn bytes_used(&self) -> u64 {
        self.inner.bytes_used()
    }
}

/// `RpcService` wrapper, re-registered at the wrapped node's address.
///
/// At a server it records `server.dispatch`, a child of the calling
/// client's op in flight (or `bg`). At a client it records
/// `client.revoke`, a child of the calling server.
pub struct TracedService {
    pub inner: Arc<dyn RpcService>,
    pub tracer: Arc<Tracer>,
    /// `DISPATCH` or `REVOKE`.
    pub name: &'static str,
}

impl RpcService for TracedService {
    fn dispatch(&self, ctx: CallContext, req: Request) -> Response {
        let work_for = match (self.name, ctx.caller) {
            (DISPATCH, Addr::Client(c)) => self.tracer.current_op(c.0),
            (_, Addr::Server(_)) => Ctx { parent: "server", ..NO_CTX },
            _ => NO_CTX,
        };
        let label = req.label();
        let saved = CTX.replace(work_for);
        let out = self.tracer.child(self.name, label, || self.inner.dispatch(ctx, req));
        CTX.set(saved);
        out
    }
}

/// `PhysicalFs` wrapper handed to the file server: every call the
/// server makes into Episode is an `episode.call` span.
pub struct TracedFs {
    pub inner: Arc<dyn PhysicalFs>,
    pub tracer: Arc<Tracer>,
}

struct TracedVolume {
    inner: Arc<dyn VfsPlus>,
    tracer: Arc<Tracer>,
}

/// Forwards trait methods to `self.inner` inside an `episode.call` span
/// labelled with the method's name.
macro_rules! forward {
    ($( fn $name:ident(&self $(, $arg:ident : $ty:ty)*) -> $ret:ty; )*) => {
        $(fn $name(&self $(, $arg: $ty)*) -> $ret {
            self.tracer.child(EPISODE, stringify!($name), || self.inner.$name($($arg),*))
        })*
    };
}

impl PhysicalFs for TracedFs {
    fn aggregate_id(&self) -> AggregateId {
        self.inner.aggregate_id()
    }

    fn mount(&self, vol: VolumeId) -> DfsResult<Arc<dyn VfsPlus>> {
        let inner = self.tracer.child(EPISODE, "mount", || self.inner.mount(vol))?;
        Ok(Arc::new(TracedVolume { inner, tracer: self.tracer.clone() }))
    }

    forward! {
        fn list_volumes(&self) -> DfsResult<Vec<VolumeInfo>>;
        fn volume_info(&self, vol: VolumeId) -> DfsResult<VolumeInfo>;
        fn create_volume(&self, id: VolumeId, name: &str) -> DfsResult<()>;
        fn delete_volume(&self, vol: VolumeId) -> DfsResult<()>;
        fn clone_volume(&self, src: VolumeId, clone_id: VolumeId, name: &str) -> DfsResult<()>;
        fn dump_volume(&self, vol: VolumeId, since_version: u64) -> DfsResult<VolumeDump>;
        fn restore_volume(&self, dump: &VolumeDump, read_only: bool) -> DfsResult<()>;
        fn salvage(&self) -> DfsResult<SalvageReport>;
        fn sync_aggregate(&self) -> DfsResult<()>;
    }
}

impl Vfs for TracedVolume {
    fn volume_id(&self) -> VolumeId {
        self.inner.volume_id()
    }

    forward! {
        fn root(&self) -> DfsResult<Fid>;
        fn lookup(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus>;
        fn create(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus>;
        fn mkdir(&self, cred: &Credentials, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus>;
        fn symlink(&self, cred: &Credentials, dir: Fid, name: &str, target: &str) -> DfsResult<FileStatus>;
        fn link(&self, cred: &Credentials, dir: Fid, name: &str, target: Fid) -> DfsResult<FileStatus>;
        fn remove(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<FileStatus>;
        fn rmdir(&self, cred: &Credentials, dir: Fid, name: &str) -> DfsResult<()>;
        fn rename(&self, cred: &Credentials, src_dir: Fid, src_name: &str, dst_dir: Fid, dst_name: &str) -> DfsResult<()>;
        fn readdir(&self, cred: &Credentials, dir: Fid) -> DfsResult<Vec<DirEntry>>;
        fn read(&self, cred: &Credentials, file: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>>;
        fn write(&self, cred: &Credentials, file: Fid, offset: u64, data: &[u8]) -> DfsResult<FileStatus>;
        fn write_vec(&self, cred: &Credentials, file: Fid, extents: &[WriteExtent]) -> DfsResult<FileStatus>;
        fn getattr(&self, cred: &Credentials, file: Fid) -> DfsResult<FileStatus>;
        fn setattr(&self, cred: &Credentials, file: Fid, attrs: &SetAttrs) -> DfsResult<FileStatus>;
        fn readlink(&self, cred: &Credentials, file: Fid) -> DfsResult<String>;
        fn fsync(&self, cred: &Credentials, file: Fid) -> DfsResult<()>;
        fn sync(&self) -> DfsResult<()>;
    }
}

impl VfsPlus for TracedVolume {
    forward! {
        fn get_acl(&self, cred: &Credentials, file: Fid) -> DfsResult<Acl>;
        fn set_acl(&self, cred: &Credentials, file: Fid, acl: &Acl) -> DfsResult<()>;
    }
}
