//! The NFS-style baseline: stateless server, TTL attribute cache.
//!
//! §5.4: "Relatively weak cache consistency guarantees are provided by
//! the Sun Network File System. A page of cached file data is assumed to
//! be valid for 3 seconds; if it is directory data, it is assumed to be
//! valid for 30 seconds. ... clients must communicate with servers every
//! 3 seconds whether or not any shared data have been modified."

use dfs_rpc::{Addr, CallClass, CallContext, Network, PoolConfig, Request, Response, RpcService};
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{
    ClientId, DfsError, DfsResult, FileStatus, Fid, ServerId, Timestamp, VolumeId,
};
use dfs_vfs::{Credentials, VfsPlus, WriteExtent};
use std::collections::HashMap;
use std::sync::Arc;

/// Default validity of cached file attributes/data: 3 seconds.
pub const FILE_TTL_US: u64 = 3_000_000;
/// Default validity of cached directory data: 30 seconds.
pub const DIR_TTL_US: u64 = 30_000_000;

/// A stateless NFS-style exporter over one mounted volume.
///
/// No tokens, no callbacks: the server answers each call and remembers
/// nothing about clients.
pub struct NfsServer {
    fs: Arc<dyn VfsPlus>,
}

impl NfsServer {
    /// Binds the exporter at `Server(id)`.
    pub fn start(net: &Network, id: ServerId, fs: Arc<dyn VfsPlus>) -> Arc<NfsServer> {
        let srv = Arc::new(NfsServer { fs });
        net.register(Addr::Server(id), srv.clone(), PoolConfig::default());
        srv
    }
}

impl RpcService for NfsServer {
    fn dispatch(&self, _ctx: CallContext, req: Request) -> Response {
        let cred = Credentials::system();
        let r = (|| -> DfsResult<Response> {
            match req {
                Request::GetRoot { .. } => Ok(Response::FidIs(self.fs.root()?)),
                Request::FetchStatus { fid, .. } => Ok(Response::Status {
                    status: self.fs.getattr(&cred, fid)?,
                    tokens: Vec::new(),
                    stamp: Default::default(),
                    epoch: 1,
                    stale_us: 0,
                }),
                Request::FetchData { fid, offset, len, .. } => {
                    let bytes = self.fs.read(&cred, fid, offset, len as usize)?;
                    let status = self.fs.getattr(&cred, fid)?;
                    Ok(Response::Data {
                        bytes,
                        status,
                        tokens: Vec::new(),
                        stamp: Default::default(),
                        epoch: 1,
                        stale_us: 0,
                    })
                }
                Request::StoreDataVec { fid, extents } => {
                    // NFSv2 semantics: the write is synchronous and
                    // durable before the reply.
                    let status = crate::write_extents(&*self.fs, &cred, fid, &extents)?;
                    self.fs.fsync(&cred, fid)?;
                    Ok(Response::Status {
                        status,
                        tokens: Vec::new(),
                        stamp: Default::default(),
                        epoch: 1,
                        stale_us: 0,
                    })
                }
                Request::Lookup { dir, name, .. } => Ok(Response::Status {
                    status: self.fs.lookup(&cred, dir, &name)?,
                    tokens: Vec::new(),
                    stamp: Default::default(),
                    epoch: 1,
                    stale_us: 0,
                }),
                Request::Create { dir, name, mode } => Ok(Response::Status {
                    status: self.fs.create(&cred, dir, &name, mode)?,
                    tokens: Vec::new(),
                    stamp: Default::default(),
                    epoch: 1,
                    stale_us: 0,
                }),
                Request::Remove { dir, name } => {
                    let status = self.fs.remove(&cred, dir, &name)?;
                    Ok(Response::Status {
                        status,
                        tokens: Vec::new(),
                        stamp: Default::default(),
                        epoch: 1,
                        stale_us: 0,
                    })
                }
                Request::Readdir { dir } => Ok(Response::Entries(self.fs.readdir(&cred, dir)?)),
                _ => Err(DfsError::InvalidArgument),
            }
        })();
        r.unwrap_or_else(Response::Err)
    }
}

struct CachedAttrs {
    status: FileStatus,
    fetched: Timestamp,
}

struct CachedPage {
    data: Vec<u8>,
    /// Data version of the attrs under which it was fetched (real NFS
    /// compares mtime; the simulated clock can tie, so the version is
    /// the honest equivalent).
    version: u64,
}

dfs_types::counters! {
    /// Client-side NFS statistics.
    pub struct NfsStats live NfsCounters {
        /// Reads served from cache within the TTL.
        pub cached_reads: u64,
        /// GETATTR-style revalidations.
        pub revalidations: u64,
        /// Data fetches.
        pub fetches: u64,
        /// Synchronous write RPCs.
        pub writes: u64,
    }
}

/// The NFS-style client: per-file attribute cache with fixed TTLs.
pub struct NfsClient {
    net: Network,
    addr: Addr,
    server: Addr,
    file_ttl_us: u64,
    attrs: OrderedMutex<HashMap<Fid, CachedAttrs>, { rank::BASELINE_CLIENT }>,
    pages: OrderedMutex<HashMap<(Fid, u64), CachedPage>, { rank::BASELINE_CLIENT }>,
    stats: NfsCounters,
}

const PAGE: u64 = 4096;

impl NfsClient {
    /// Creates a client of `server` with the standard 3 s file TTL.
    pub fn new(net: Network, id: ClientId, server: ServerId) -> Arc<NfsClient> {
        NfsClient::with_ttl(net, id, server, FILE_TTL_US)
    }

    /// Creates a client with a custom attribute TTL (for sweeps).
    pub fn with_ttl(
        net: Network,
        id: ClientId,
        server: ServerId,
        file_ttl_us: u64,
    ) -> Arc<NfsClient> {
        Arc::new(NfsClient {
            net,
            addr: Addr::Client(id),
            server: Addr::Server(server),
            file_ttl_us,
            attrs: OrderedMutex::new(HashMap::new()),
            pages: OrderedMutex::new(HashMap::new()),
            stats: NfsCounters::default(),
        })
    }

    /// Client statistics.
    pub fn stats(&self) -> NfsStats {
        self.stats.snapshot()
    }

    fn call(&self, req: Request) -> DfsResult<Response> {
        self.net.call(self.addr, self.server, None, CallClass::Normal, req)?.into_result()
    }

    /// Root of the exported volume.
    pub fn root(&self, volume: VolumeId) -> DfsResult<Fid> {
        match self.call(Request::GetRoot { volume })? {
            Response::FidIs(f) => Ok(f),
            _ => Err(DfsError::Internal("bad response")),
        }
    }

    /// Returns attributes, revalidating when the TTL has lapsed.
    fn attrs_of(&self, fid: Fid) -> DfsResult<FileStatus> {
        let now = self.net.clock().now();
        {
            let attrs = self.attrs.lock();
            if let Some(c) = attrs.get(&fid) {
                if now.micros_since(c.fetched) < self.file_ttl_us {
                    return Ok(c.status.clone());
                }
            }
        }
        self.stats.revalidations.add(1);
        match self.call(Request::FetchStatus { fid, want: None })? {
            Response::Status { status, .. } => {
                self.attrs
                    .lock()
                    .insert(fid, CachedAttrs { status: status.clone(), fetched: now });
                Ok(status)
            }
            _ => Err(DfsError::Internal("bad response")),
        }
    }

    /// Returns the file's status (possibly stale within the TTL).
    pub fn getattr(&self, fid: Fid) -> DfsResult<FileStatus> {
        self.attrs_of(fid)
    }

    /// Reads from the cache when attributes are fresh and the page's
    /// mtime matches; otherwise fetches.
    pub fn read(&self, fid: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        let st = self.attrs_of(fid)?;
        let end = st.length.min(offset + len as u64);
        if offset >= end {
            return Ok(Vec::new());
        }
        let first = offset / PAGE;
        let last = (end - 1) / PAGE;
        let mut out = Vec::with_capacity((end - offset) as usize);
        for p in first..=last {
            let cached = {
                let pages = self.pages.lock();
                pages.get(&(fid, p)).and_then(|c| {
                    (c.version == st.data_version).then(|| c.data.clone())
                })
            };
            let data = match cached {
                Some(d) => {
                    self.stats.cached_reads.add(1);
                    d
                }
                None => {
                    self.stats.fetches.add(1);
                    match self.call(Request::FetchData {
                        fid,
                        offset: p * PAGE,
                        len: PAGE as u32,
                        want: None,
                    })? {
                        Response::Data { mut bytes, .. } => {
                            bytes.resize(PAGE as usize, 0);
                            self.pages.lock().insert(
                                (fid, p),
                                CachedPage { data: bytes.clone(), version: st.data_version },
                            );
                            bytes
                        }
                        _ => return Err(DfsError::Internal("bad response")),
                    }
                }
            };
            let ps = p * PAGE;
            let s = offset.max(ps) - ps;
            let e = (end - ps).min(PAGE);
            out.extend_from_slice(&data[s as usize..e as usize]);
        }
        Ok(out)
    }

    /// Writes through to the server (synchronous NFSv2 write).
    pub fn write(&self, fid: Fid, offset: u64, data: &[u8]) -> DfsResult<FileStatus> {
        self.stats.writes.add(1);
        let extents = vec![WriteExtent { offset, data: data.to_vec() }];
        match self.call(Request::StoreDataVec { fid, extents })? {
            Response::Status { status, .. } => {
                // Update caches with what we know.
                let now = self.net.clock().now();
                self.attrs
                    .lock()
                    .insert(fid, CachedAttrs { status: status.clone(), fetched: now });
                // Invalidate affected pages (simplest correct choice).
                let first = offset / PAGE;
                let last = (offset + data.len() as u64).max(1).div_ceil(PAGE);
                let mut pages = self.pages.lock();
                for p in first..=last {
                    pages.remove(&(fid, p));
                }
                Ok(status)
            }
            _ => Err(DfsError::Internal("bad response")),
        }
    }

    /// Looks up a name (no dir caching here; dir caching only matters
    /// for the TTL-staleness experiments, driven through `read`).
    pub fn lookup(&self, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        match self.call(Request::Lookup { dir, name: name.into(), want: None })? {
            Response::Status { status, .. } => Ok(status),
            _ => Err(DfsError::Internal("bad response")),
        }
    }

    /// Creates a file.
    pub fn create(&self, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        match self.call(Request::Create { dir, name: name.into(), mode })? {
            Response::Status { status, .. } => Ok(status),
            _ => Err(DfsError::Internal("bad response")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_disk::{DiskConfig, SimDisk};
    use dfs_episode::{Episode, FormatParams};
    use dfs_types::SimClock;
    use dfs_vfs::PhysicalFs;

    fn setup() -> (Network, SimClock, Arc<NfsClient>, Arc<NfsClient>) {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock.clone(), FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "v").unwrap();
        let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        NfsServer::start(&net, ServerId(1), vol);
        let a = NfsClient::new(net.clone(), ClientId(1), ServerId(1));
        let b = NfsClient::new(net.clone(), ClientId(2), ServerId(1));
        (net, clock, a, b)
    }

    #[test]
    fn read_write_basics() {
        let (_, _, a, _) = setup();
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "f", 0o644).unwrap();
        a.write(f.fid, 0, b"nfs data").unwrap();
        assert_eq!(a.read(f.fid, 0, 16).unwrap(), b"nfs data");
        assert_eq!(a.lookup(root, "f").unwrap().fid, f.fid);
    }

    #[test]
    fn stale_reads_within_ttl() {
        // The §5.4 weakness: B does not see A's write for up to 3 s.
        let (_, clock, a, b) = setup();
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "shared", 0o666).unwrap();
        a.write(f.fid, 0, b"version 1").unwrap();
        assert_eq!(b.read(f.fid, 0, 16).unwrap(), b"version 1");
        // A overwrites; B's attribute cache is still fresh.
        a.write(f.fid, 0, b"version 2").unwrap();
        assert_eq!(
            b.read(f.fid, 0, 16).unwrap(),
            b"version 1",
            "NFS serves stale data within the 3 s window"
        );
        // After the TTL, B revalidates and sees the new version.
        clock.advance_micros(FILE_TTL_US + 1);
        assert_eq!(b.read(f.fid, 0, 16).unwrap(), b"version 2");
    }

    #[test]
    fn polling_costs_rpcs_even_when_idle() {
        // "clients must communicate with servers every 3 seconds whether
        // or not any shared data have been modified."
        let (net, clock, a, _) = setup();
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "idle", 0o644).unwrap();
        a.write(f.fid, 0, b"static").unwrap();
        a.read(f.fid, 0, 8).unwrap();
        let before = net.stats();
        // 30 simulated seconds of a once-per-second reader.
        for _ in 0..30 {
            clock.advance_secs(1);
            a.read(f.fid, 0, 8).unwrap();
        }
        let delta = net.stats().since(&before);
        assert!(
            delta.calls >= 9,
            "~10 revalidations expected over 30 s at a 3 s TTL, saw {}",
            delta.calls
        );
        assert!(a.stats().revalidations >= 9);
    }

    #[test]
    fn writes_always_go_to_server() {
        let (net, _, a, _) = setup();
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "w", 0o644).unwrap();
        let before = net.stats();
        for i in 0..20u8 {
            a.write(f.fid, 0, &[i; 64]).unwrap();
        }
        let delta = net.stats().since(&before);
        assert!(delta.calls >= 20, "every NFS write is an RPC");
    }
}
