//! The AFS-style baseline: whole-file caching with untyped callbacks.
//!
//! §5.4: "AFS 'callbacks' are roughly equivalent to DEcorum status read
//! tokens ... because callbacks are the only synchronization mechanism,
//! they are overburdened. There are not separate callbacks for reading
//! and writing, nor for status and data. ... it stores data back to the
//! server when the file is closed." And: "Callbacks cannot describe byte
//! ranges of data. If a group of users are accessing (and modifying) the
//! same large file, even though they may be using disjoint parts of it,
//! the file will frequently be shipped back and forth in its entirety."

use dfs_rpc::{Addr, CallClass, CallContext, Network, PoolConfig, Request, Response, RpcService};
use dfs_token::{Token, TokenId, TokenTypes};
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{ByteRange, ClientId, DfsError, DfsResult, FileStatus, Fid, ServerId, VolumeId};
use dfs_vfs::{Credentials, VfsPlus, WriteExtent};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

dfs_types::counters! {
    /// AFS-style server statistics.
    pub struct AfsServerStats live AfsServerCounters {
        /// Whole-file fetches served.
        pub fetches: u64,
        /// Whole-file stores received.
        pub stores: u64,
        /// Callbacks broken.
        pub callbacks_broken: u64,
    }
}

/// The AFS-style exporter: whole-file transfer plus a callback registry.
pub struct AfsServer {
    net: Network,
    addr: Addr,
    fs: Arc<dyn VfsPlus>,
    /// fid → clients holding a callback promise.
    callbacks: OrderedMutex<HashMap<Fid, HashSet<ClientId>>, { rank::BASELINE_SERVER }>,
    stats: AfsServerCounters,
}

impl AfsServer {
    /// Binds the exporter at `Server(id)`.
    pub fn start(net: &Network, id: ServerId, fs: Arc<dyn VfsPlus>) -> Arc<AfsServer> {
        let srv = Arc::new(AfsServer {
            net: net.clone(),
            addr: Addr::Server(id),
            fs,
            callbacks: OrderedMutex::new(HashMap::new()),
            stats: AfsServerCounters::default(),
        });
        net.register(Addr::Server(id), srv.clone(), PoolConfig::default());
        srv
    }

    /// Server statistics.
    pub fn stats(&self) -> AfsServerStats {
        self.stats.snapshot()
    }

    /// Breaks every callback on `fid` except `keep`'s.
    fn break_callbacks(&self, fid: Fid, keep: Option<ClientId>) {
        let holders: Vec<ClientId> = {
            let mut cbs = self.callbacks.lock();
            match cbs.get_mut(&fid) {
                Some(set) => {
                    let holders = set.iter().copied().filter(|c| Some(*c) != keep).collect();
                    set.retain(|c| Some(*c) == keep);
                    holders
                }
                None => Vec::new(),
            }
        };
        for c in holders {
            self.stats.callbacks_broken.add(1);
            // An untyped callback break, carried as a revocation of a
            // status-read token (the paper's own analogy).
            let _ = self.net.call(
                self.addr,
                Addr::Client(c),
                None,
                CallClass::Revocation,
                Request::RevokeVec {
                    items: vec![(
                        Token {
                            id: TokenId(0),
                            fid,
                            types: TokenTypes::STATUS_READ,
                            range: ByteRange::WHOLE,
                        },
                        TokenTypes::STATUS_READ,
                        Default::default(),
                    )],
                },
            );
        }
    }
}

impl RpcService for AfsServer {
    fn dispatch(&self, ctx: CallContext, req: Request) -> Response {
        let cred = Credentials::system();
        let caller = match ctx.caller {
            Addr::Client(c) => Some(c),
            _ => None,
        };
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
                // AFS fetches the whole file and registers a callback.
                Request::FetchData { fid, .. } => {
                    let status = self.fs.getattr(&cred, fid)?;
                    let bytes = self.fs.read(&cred, fid, 0, status.length as usize)?;
                    if let Some(c) = caller {
                        self.callbacks.lock().entry(fid).or_default().insert(c);
                    }
                    self.stats.fetches.add(1);
                    Ok(Response::Data {
                        bytes,
                        status,
                        tokens: Vec::new(),
                        stamp: Default::default(),
                        epoch: 1,
                        stale_us: 0,
                    })
                }
                // Store (at close) replaces file contents and breaks the
                // other holders' callbacks.
                Request::StoreDataVec { fid, extents } => {
                    let status = crate::write_extents(&*self.fs, &cred, fid, &extents)?;
                    self.stats.stores.add(1);
                    self.break_callbacks(fid, caller);
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
                Request::Create { dir, name, mode } => {
                    let status = self.fs.create(&cred, dir, &name, mode)?;
                    self.break_callbacks(dir, caller);
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

struct AfsFile {
    data: Vec<u8>,
    status: FileStatus,
    /// Callback promise still valid?
    valid: bool,
    dirty: bool,
}

dfs_types::counters! {
    /// AFS-style client statistics.
    pub struct AfsClientStats live AfsClientCounters {
        /// Whole files fetched.
        pub fetches: u64,
        /// Bytes fetched.
        pub bytes_fetched: u64,
        /// Whole files stored at close.
        pub stores: u64,
        /// Bytes stored.
        pub bytes_stored: u64,
        /// Callback breaks received.
        pub callback_breaks: u64,
        /// Reads served from the whole-file cache.
        pub cached_reads: u64,
    }
}

/// The AFS-style client: whole-file cache, store-on-close.
pub struct AfsClient {
    net: Network,
    addr: Addr,
    server: Addr,
    files: OrderedMutex<HashMap<Fid, AfsFile>, { rank::BASELINE_CLIENT }>,
    stats: AfsClientCounters,
}

impl AfsClient {
    /// Creates the client and binds its callback service at `Client(id)`.
    pub fn start(net: Network, id: ClientId, server: ServerId) -> Arc<AfsClient> {
        let cm = Arc::new(AfsClient {
            net: net.clone(),
            addr: Addr::Client(id),
            server: Addr::Server(server),
            files: OrderedMutex::new(HashMap::new()),
            stats: AfsClientCounters::default(),
        });
        net.register(Addr::Client(id), cm.clone(), PoolConfig::default());
        cm
    }

    /// Client statistics.
    pub fn stats(&self) -> AfsClientStats {
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

    /// Ensures the whole file is cached under a valid callback.
    fn ensure_cached(&self, fid: Fid) -> DfsResult<()> {
        {
            let files = self.files.lock();
            if files.get(&fid).is_some_and(|f| f.valid) {
                return Ok(());
            }
        }
        match self.call(Request::FetchData { fid, offset: 0, len: u32::MAX, want: None })? {
            Response::Data { bytes, status, .. } => {
                self.stats.fetches.add(1);
                self.stats.bytes_fetched.add(bytes.len() as u64);
                self.files
                    .lock()
                    .insert(fid, AfsFile { data: bytes, status, valid: true, dirty: false });
                Ok(())
            }
            _ => Err(DfsError::Internal("bad response")),
        }
    }

    /// Reads from the cached whole file.
    pub fn read(&self, fid: Fid, offset: u64, len: usize) -> DfsResult<Vec<u8>> {
        self.ensure_cached(fid)?;
        let files = self.files.lock();
        let f = files.get(&fid).expect("just cached");
        let end = (f.data.len() as u64).min(offset + len as u64);
        if offset >= end {
            return Ok(Vec::new());
        }
        self.stats.cached_reads.add(1);
        Ok(f.data[offset as usize..end as usize].to_vec())
    }

    /// Writes into the cached copy; nothing reaches the server until
    /// [`AfsClient::close`] — the §5.4 consistency gap.
    pub fn write(&self, fid: Fid, offset: u64, data: &[u8]) -> DfsResult<()> {
        self.ensure_cached(fid)?;
        let mut files = self.files.lock();
        let f = files.get_mut(&fid).expect("just cached");
        let end = offset as usize + data.len();
        if f.data.len() < end {
            f.data.resize(end, 0);
        }
        f.data[offset as usize..end].copy_from_slice(data);
        f.status.length = f.data.len() as u64;
        f.dirty = true;
        Ok(())
    }

    /// Closes the file: stores the whole file back if dirty.
    pub fn close(&self, fid: Fid) -> DfsResult<()> {
        let payload = {
            let mut files = self.files.lock();
            match files.get_mut(&fid) {
                Some(f) if f.dirty => {
                    f.dirty = false;
                    Some(f.data.clone())
                }
                _ => None,
            }
        };
        if let Some(data) = payload {
            self.stats.stores.add(1);
            self.stats.bytes_stored.add(data.len() as u64);
            let extents = vec![WriteExtent { offset: 0, data }];
            self.call(Request::StoreDataVec { fid, extents })?;
        }
        Ok(())
    }

    /// Creates a file.
    pub fn create(&self, dir: Fid, name: &str, mode: u16) -> DfsResult<FileStatus> {
        match self.call(Request::Create { dir, name: name.into(), mode })? {
            Response::Status { status, .. } => Ok(status),
            _ => Err(DfsError::Internal("bad response")),
        }
    }

    /// Looks up a name.
    pub fn lookup(&self, dir: Fid, name: &str) -> DfsResult<FileStatus> {
        match self.call(Request::Lookup { dir, name: name.into(), want: None })? {
            Response::Status { status, .. } => Ok(status),
            _ => Err(DfsError::Internal("bad response")),
        }
    }
}

impl RpcService for AfsClient {
    fn dispatch(&self, _ctx: CallContext, req: Request) -> Response {
        match req {
            Request::RevokeVec { items } => {
                // Each item is a callback break: invalidate the whole
                // cached file.
                let mut files = self.files.lock();
                for (token, ..) in &items {
                    self.stats.callback_breaks.add(1);
                    if let Some(f) = files.get_mut(&token.fid) {
                        f.valid = false;
                    }
                }
                Response::RevokeVecAck { returned: vec![true; items.len()] }
            }
            _ => Response::Err(DfsError::InvalidArgument),
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

    fn setup() -> (Network, Arc<AfsServer>, Arc<AfsClient>, Arc<AfsClient>) {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "v").unwrap();
        let vol = PhysicalFs::mount(&*ep, VolumeId(1)).unwrap();
        let srv = AfsServer::start(&net, ServerId(1), vol);
        let a = AfsClient::start(net.clone(), ClientId(1), ServerId(1));
        let b = AfsClient::start(net.clone(), ClientId(2), ServerId(1));
        (net, srv, a, b)
    }

    #[test]
    fn whole_file_cache_round_trip() {
        let (_, _, a, _) = setup();
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "f", 0o644).unwrap();
        a.write(f.fid, 0, b"afs data").unwrap();
        a.close(f.fid).unwrap();
        assert_eq!(a.read(f.fid, 0, 16).unwrap(), b"afs data");
    }

    #[test]
    fn staleness_until_close() {
        // The §5.4 gap: B cannot see A's write until A closes.
        let (_, _, a, b) = setup();
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "shared", 0o666).unwrap();
        a.write(f.fid, 0, b"v1").unwrap();
        a.close(f.fid).unwrap();
        assert_eq!(b.read(f.fid, 0, 8).unwrap(), b"v1");
        a.write(f.fid, 0, b"v2").unwrap();
        assert_eq!(
            b.read(f.fid, 0, 8).unwrap(),
            b"v1",
            "written but unclosed data is invisible in AFS"
        );
        a.close(f.fid).unwrap();
        assert_eq!(b.read(f.fid, 0, 8).unwrap(), b"v2", "close broke B's callback");
        assert!(b.stats().callback_breaks >= 1);
    }

    #[test]
    fn callbacks_eliminate_idle_polling() {
        // Unlike NFS, repeated reads of an unchanged file cost nothing.
        let (net, _, a, _) = setup();
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "idle", 0o644).unwrap();
        a.write(f.fid, 0, b"static").unwrap();
        a.close(f.fid).unwrap();
        a.read(f.fid, 0, 6).unwrap();
        let before = net.stats();
        for _ in 0..50 {
            a.read(f.fid, 0, 6).unwrap();
        }
        assert_eq!(net.stats().since(&before).calls, 0);
    }

    #[test]
    fn disjoint_writers_ship_the_whole_file() {
        // §5.4: no byte ranges — the file ping-pongs in its entirety.
        let (_, srv, a, b) = setup();
        let root = a.root(VolumeId(1)).unwrap();
        let f = a.create(root, "big", 0o666).unwrap();
        a.write(f.fid, 0, &vec![0u8; 128 * 1024]).unwrap();
        a.close(f.fid).unwrap();

        for round in 0..4u64 {
            a.write(f.fid, round * 64, &[1u8; 64]).unwrap();
            a.close(f.fid).unwrap();
            b.write(f.fid, 64 * 1024 + round * 64, &[2u8; 64]).unwrap();
            b.close(f.fid).unwrap();
        }
        // Each handoff re-fetched and re-stored ~128 KiB.
        let sa = a.stats();
        let sb = b.stats();
        let total = sa.bytes_fetched + sa.bytes_stored + sb.bytes_fetched + sb.bytes_stored;
        assert!(
            total > 1024 * 1024,
            "whole-file ping-pong should move > 1 MiB, moved {total}"
        );
        assert!(srv.stats().callbacks_broken >= 4);
    }
}
