//! The DEcorum file server: protocol exporter and related servers (§3).
//!
//! A [`FileServer`] assembles, per the paper's Figure 1:
//!
//! * the **token manager** (§3.1) from [`dfs_token`];
//! * the **host model** (§3.2) — one table of the hosts that have
//!   called, with their leases and the post-restart grace window;
//! * the **vnode glue layer** (§3.3) — local access that synchronizes
//!   with remote guarantees, usable over *any* [`dfs_vfs::PhysicalFs`]
//!   (Episode or the FFS baseline: the interoperability goal of §1);
//! * the **volume registry** (local) and the replicated **VLDB** (§3.4);
//! * the **server procedures** (§3.5) — the RPC dispatch;
//! * the **volume server** (§3.6) — on-line volume motion;
//! * the **replication server** (§3.8) — lazy, bounded-staleness
//!   replicas driven by whole-volume tokens and incremental dumps.
//!
//! Authentication (§3.7) is enforced by the RPC substrate against the
//! shared Kerberos-style registry.

pub mod glue;
pub mod hosts;
pub mod locks;
pub mod vldb;
mod volumes;

use glue::{gone, rename_wants, whole, Granted, Want};
pub use glue::{Glue, LocalHost};
pub use hosts::{Host, HostModel, RemoteHost, DEFAULT_LEASE_US};
pub use locks::LockTable;
pub use vldb::{VldbHandle, VldbReplica};

use dfs_journal::{HostLog, HostLogReplay};
use dfs_rpc::{
    Addr, CallClass, CallContext, Network, PoolConfig, Request, Response, RpcService,
    TokenRequest,
};
use dfs_token::{tokens_cover, Token, TokenManager, TokenTypes};
use dfs_types::{
    ByteRange, ClientId, DfsError, DfsResult, Fid, FileStatus, HostId, SerializationStamp,
    ServerId, Timestamp, VnodeId, VolumeId,
};
use dfs_vfs::{Credentials, PhysicalFs, VfsPlus, VolumeDump, WriteExtent};
use dfs_types::lock::{rank, OrderedMutex};
use std::collections::HashMap;
use std::sync::Arc;
use volumes::{Admit, Volumes};

/// Read tokens a client wants to cache directory contents.
pub const DIR_READ: TokenTypes = TokenTypes(TokenTypes::STATUS_READ.0 | TokenTypes::DATA_READ.0);
/// Write tokens the server takes while mutating a directory.
pub const DIR_WRITE: TokenTypes =
    TokenTypes(TokenTypes::STATUS_WRITE.0 | TokenTypes::DATA_WRITE.0);
/// What destroying a file takes on the victim: assurance that it has no
/// remote users (§5.4), an exclusive-write open token, plus the write
/// tokens, which revoke every other host's cached copy first.
const DELETE: TokenTypes = TokenTypes(TokenTypes::OPEN_EXCLUSIVE_WRITE.0 | DIR_WRITE.0);

/// Most extents a single `StoreDataVec` may carry.
pub const MAX_STORE_EXTENTS: usize = 64;
/// Most payload bytes a single `StoreDataVec` may carry (8 MiB).
pub const MAX_STORE_BYTES: usize = 8 << 20;

dfs_types::counters! {
    /// Server operation statistics.
    pub struct ServerStats live ServerCounters {
        /// File RPCs served.
        pub ops: u64,
        /// Calls refused because the volume was being moved.
        pub busy_rejections: u64,
        /// Calls refused because the post-restart grace window was open and
        /// the caller had not reestablished yet.
        pub grace_rejections: u64,
        /// Volume moves completed.
        pub moves: u64,
        /// Replica refresh passes that shipped data.
        pub replica_refreshes: u64,
        /// Calls for volumes not hosted here answered with `WrongServer`.
        pub wrong_server_redirects: u64,
        maps {
            /// File RPCs served, by volume — `Cell::load`'s signal for
            /// picking the hottest volume when rebalancing. Filled from the
            /// volume table by [`FileServer::stats`].
            pub volume_ops: HashMap<VolumeId, u64>,
        }
    }
}

/// A DEcorum file server node.
pub struct FileServer {
    id: ServerId,
    addr: Addr,
    net: Network,
    physical: Arc<dyn PhysicalFs>,
    tm: Arc<TokenManager>,
    local_host: Arc<LocalHost>,
    /// The host model (§3.2): every host registered with `tm`, and the
    /// post-restart grace window. While the window is open, a client
    /// may do file work only after checking in via `ReestablishTokens`.
    hosts: OrderedMutex<HostModel, { rank::SERVER_HOSTS }>,
    locks: Arc<LockTable>,
    vldb: VldbHandle,
    /// Restart epoch: 1 for a freshly started server, +1 per restart.
    /// Stamped into every `Status`/`Data` response so clients detect a
    /// crash-restart from ordinary traffic.
    epoch: u64,
    /// The volume registry (§3.4). Authoritative: a request for a
    /// volume it does not show as hosted is redirected, never mounted.
    volumes: Volumes,
    /// Durable host/lease journal (the Episode aggregate's host-log
    /// ring). When present, the server records which clients hold
    /// tokens and when they were last heard from, so a restart can
    /// rebuild its expected-host set from disk even if the previous
    /// instance's memory is gone with the machine. `None` for physical
    /// file systems without a host-log region (the FFS baseline).
    host_log: Option<Arc<HostLog>>,
    stats: ServerCounters,
}

impl FileServer {
    /// Builds a server over `physical`, binds it at `Server(id)`, and
    /// registers its existing volumes in the VLDB. The server starts at
    /// epoch 1 with no recovery grace window.
    pub fn start(
        net: Network,
        id: ServerId,
        physical: Arc<dyn PhysicalFs>,
        vldb_replicas: Vec<Addr>,
        pool: PoolConfig,
    ) -> DfsResult<Arc<FileServer>> {
        Self::start_journaled(net, id, physical, None, vldb_replicas, pool)
    }

    /// Like [`FileServer::start`], but with a durable host journal: the
    /// server records token-holder/lease facts into `host_log` as it
    /// runs, so a later [`FileServer::restart`] can rebuild recovery
    /// state from disk alone.
    pub fn start_journaled(
        net: Network,
        id: ServerId,
        physical: Arc<dyn PhysicalFs>,
        host_log: Option<Arc<HostLog>>,
        vldb_replicas: Vec<Addr>,
        pool: PoolConfig,
    ) -> DfsResult<Arc<FileServer>> {
        Self::start_instance(
            net,
            id,
            physical,
            host_log,
            vldb_replicas,
            pool,
            1,
            HostModel::default(),
        )
    }

    /// Restarts a server after a crash, on the same (journal-recovered)
    /// `physical`. Recovery state comes from the *durable* host journal
    /// replay, never from the dying instance's memory: the previous
    /// epoch is the highest epoch ever journaled, and the expected-host
    /// set is every journaled client that held tokens and was still
    /// inside its lease — so recovery survives losing the whole machine,
    /// not just the process. The new instance runs at `prev_epoch + 1`
    /// and opens a `grace_us`-long recovery window during which the
    /// expected hosts may reestablish their tokens. Grace ends early
    /// once every still-lease-live expected host has checked in;
    /// lease-expired hosts never pin the window.
    ///
    /// Binding the address replaces the crashed node on the network, so
    /// the restarted server is immediately reachable.
    #[allow(clippy::too_many_arguments)] // A restart is a whole-machine rebuild; the args are the machine.
    pub fn restart(
        net: Network,
        id: ServerId,
        physical: Arc<dyn PhysicalFs>,
        host_log: Option<Arc<HostLog>>,
        replay: &HostLogReplay,
        vldb_replicas: Vec<Addr>,
        pool: PoolConfig,
        grace_us: u64,
    ) -> DfsResult<Arc<FileServer>> {
        // Wait only for hosts that actually held tokens at their last
        // journaling and are still lease-live: a caller with nothing to
        // reestablish (or one long dead) must not pin the grace window.
        let hosts = HostModel::restarted(replay, net.clock().now(), grace_us);
        // A replay that never saw a `ServerEpoch` (pre-host-log
        // aggregate) still restarts above the floor epoch of 1.
        let prev_epoch = replay.epoch.max(1);
        Self::start_instance(
            net,
            id,
            physical,
            host_log,
            vldb_replicas,
            pool,
            prev_epoch + 1,
            hosts,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn start_instance(
        net: Network,
        id: ServerId,
        physical: Arc<dyn PhysicalFs>,
        host_log: Option<Arc<HostLog>>,
        vldb_replicas: Vec<Addr>,
        pool: PoolConfig,
        epoch: u64,
        hosts: HostModel,
    ) -> DfsResult<Arc<FileServer>> {
        let addr = Addr::Server(id);
        let vldb = VldbHandle::new(net.clone(), addr, vldb_replicas);
        // The table starts with a restarted instance's journaled clients:
        // register them as `enter` would have.
        let tm = Arc::new(TokenManager::new());
        for &host in hosts.hosts.keys() {
            tm.register_host(RemoteHost::new(net.clone(), addr, host));
        }
        let srv = Arc::new(FileServer {
            id,
            addr,
            net: net.clone(),
            physical,
            tm,
            local_host: LocalHost::new(HostId::Local(id.0)),
            hosts: OrderedMutex::new(hosts),
            locks: Arc::new(LockTable::new()),
            vldb,
            epoch,
            volumes: Volumes::new(),
            host_log: host_log.clone(),
            stats: ServerCounters::default(),
        });
        // Journal this instance's epoch before serving anything: a
        // crash from here on must restart at `epoch + 1` even if no
        // other host fact was ever recorded.
        if let Some(hl) = &host_log {
            hl.record_epoch(epoch)?;
        }
        srv.tm.register_host(srv.local_host.clone());
        for vol in srv.physical.list_volumes()? {
            srv.volumes.serve(vol.id);
            srv.vldb.register(vol.id, id)?;
        }
        net.register(addr, srv.clone(), pool);
        Ok(srv)
    }

    /// Unbinds this server from the network (graceful shutdown; the
    /// physical file system stays with its owner for a later restart).
    pub fn stop(&self) {
        self.net.unregister(self.addr);
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// This instance's restart epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True while the post-restart grace window is open.
    pub fn in_grace(&self) -> bool {
        self.hosts.lock().in_grace(self.net.clock().now())
    }

    /// The token manager (diagnostics and tests).
    pub fn token_manager(&self) -> &Arc<TokenManager> {
        &self.tm
    }

    /// The cache managers in the host table, in id order (diagnostics).
    pub fn clients(&self) -> Vec<ClientId> {
        self.hosts.lock().clients()
    }

    /// Operation statistics.
    pub fn stats(&self) -> ServerStats {
        let volume_ops = self.volumes.op_counts();
        ServerStats { volume_ops, ..self.stats.snapshot() }
    }

    /// Returns a glue-wrapped VFS for *local* access to a volume on this
    /// server — the path a local user's system calls take (Figure 1).
    ///
    /// Local operations acquire tokens exactly like remote clients, so
    /// they synchronize correctly with exported guarantees (§5.1, §5.5).
    pub fn local_volume(&self, vol: VolumeId) -> DfsResult<Arc<Glue>> {
        let fs = self.volumes.mount(vol, || self.physical.mount(vol))?;
        Ok(Arc::new(Glue::new(fs, self.tm.clone(), self.local_host.clone(), self.locks.clone())))
    }

    /// Notes that `host` was heard from at `now`, entering it in the
    /// host table on first contact. Entering registers the host's proxy
    /// with the token manager under the table lock, so no call can grant
    /// to a host the token manager does not know (§5.1).
    fn enter(&self, table: &mut HostModel, host: HostId, now: Timestamp) {
        let entry = table.hosts.entry(host).or_insert_with(|| {
            self.tm.register_host(RemoteHost::new(self.net.clone(), self.addr, host));
            Host::default()
        });
        entry.last_seen = now;
    }

    /// Builds credentials from the authenticated principal.
    fn cred_for(&self, ctx: &CallContext) -> Credentials {
        match ctx.principal {
            Some(user) => {
                Credentials { user, groups: self.net.auth().groups_of(user) }
            }
            // Unauthenticated calls run as the system principal; cells
            // that care configure `require_auth` on the node.
            None => Credentials::system(),
        }
    }

    /// Durable lease refresh: re-journal `client`'s last-seen time (and
    /// current token-holder status) once the on-disk fact has gone stale
    /// by a quarter of the lease. Coarse on purpose — one synchronous
    /// ring write per client per lease/4, not per RPC — and always an
    /// over-approximation in between: a restart reading a slightly old
    /// `last_seen` only shortens how long a dead client is waited for,
    /// never forgets a live one (the client's reestablishment doesn't
    /// depend on the journal being fresh).
    fn journal_lease_refresh(&self, client: ClientId, now: Timestamp) {
        let Some(hl) = &self.host_log else { return };
        let quarter = DEFAULT_LEASE_US / 4;
        let stale = hl
            .lease_of(client.0)
            .is_none_or(|(seen, _)| now.0.saturating_sub(seen) >= quarter);
        if stale {
            let holding = self.tm.token_holders().contains(&client);
            let _ = hl.record_lease(client.0, now.0, holding);
        }
    }

    /// Durably marks `host` as a token holder the moment it first keeps
    /// a grant. Eager (unlike the lease refresh) because this is the
    /// fact a restart's grace window is built from: a client that
    /// crashed the server one RPC after taking its first write token
    /// must already be in the journal. The holding flag is only cleared
    /// by a later lease refresh observing no tokens — over-inclusion
    /// merely extends grace, which is safe.
    fn journal_holding(&self, host: HostId) {
        let HostId::Client(c) = host else { return };
        let Some(hl) = &self.host_log else { return };
        if hl.lease_of(c.0).map(|(_, h)| h) != Some(true) {
            let _ = hl.record_lease(c.0, self.net.clock().now().0, true);
        }
    }

    /// The grant–run–release step of a server procedure: grants `base`,
    /// widened by the caller's `want`, to `host`, runs `f`, and either
    /// hands the token to the caller (if `want` was given) or releases
    /// it. Returns `f`'s result, the tokens to ship, and the stamp.
    fn with_grant<R>(
        &self,
        host: HostId,
        (fid, base, range): Want,
        want: Option<TokenRequest>,
        f: impl FnOnce() -> DfsResult<R>,
    ) -> DfsResult<(R, Vec<Token>, SerializationStamp)> {
        let (types, range) = match &want {
            Some(w) => (base.union(w.types), range.union_hull(&w.range)),
            None => (base, range),
        };
        let held = Granted::new(&self.tm, host, [(fid, types, range)])?;
        let stamp = held.stamp;
        let result = f()?;
        let tokens = if want.is_some() {
            self.journal_holding(host);
            vec![held.keep_first()]
        } else {
            Vec::new()
        };
        Ok((result, tokens, stamp))
    }

    /// A `Status` reply from this instance, served by the primary.
    fn status_reply(
        &self,
        status: FileStatus,
        tokens: Vec<Token>,
        stamp: SerializationStamp,
    ) -> Response {
        Response::Status { status, tokens, stamp, epoch: self.epoch, stale_us: 0 }
    }

    /// Calls a peer file server (volume motion and replication traffic),
    /// surfacing an error reply as `Err`.
    fn peer_call(&self, server: ServerId, req: Request) -> DfsResult<Response> {
        self.net.call(self.addr, Addr::Server(server), None, CallClass::Normal, req)?.into_result()
    }

    // ------------------------------------------------------------------
    // Volume motion (§3.6) and replication (§3.8)
    // ------------------------------------------------------------------

    /// Pulls back guarantees on a whole volume by granting `types` on
    /// its vnode 0 to this server and letting the grant go. `DIR_WRITE`
    /// pulls back everything: dirty data and status at clients are
    /// stored back before this returns. `DIR_READ` pulls back only the
    /// *write* guarantees: read, lock, and open tokens survive — with
    /// their ids intact — so a live move can ship them to the target
    /// instead of revoking the world.
    fn quiesce(&self, volume: VolumeId, types: TokenTypes) -> DfsResult<()> {
        let vol_fid = Fid::new(volume, VnodeId(0), 0);
        Granted::new(&self.tm, HostId::Local(self.id.0), [whole(vol_fid, types)]).map(drop)
    }

    /// Moves a volume to `target` **live** (§2.1: applications "are
    /// blocked for a short time" — only for the delta, not the bulk).
    ///
    /// Phase 1, volume fully available: store dirty client data back,
    /// clone-ship a consistent full snapshot to the target, and note
    /// its high-water data version. Writes keep landing here; anything
    /// newer than the snapshot travels in the phase-2 delta.
    ///
    /// Phase 2, short blackout: new file calls bounce with retryable
    /// `VolumeBusy` while we pull back just the write guarantees
    /// (read/lock/open tokens survive), wait out calls admitted before
    /// the blackout, ship the delta dump, install the surviving client
    /// tokens at the target with ids preserved, flip the VLDB entry
    /// (generation bump), and leave the new owner in the volume table
    /// so this server answers `WrongServer` cheaply.
    fn move_volume(&self, volume: VolumeId, target: ServerId) -> DfsResult<()> {
        if target == self.id {
            return Err(DfsError::InvalidArgument);
        }
        if !self.volumes.hosts(volume) {
            return Err(DfsError::NoSuchVolume);
        }
        // Phase 1: live bulk ship.
        self.quiesce(volume, DIR_READ)?;
        let full = self.physical.dump_volume(volume, 0)?;
        let base = full.max_data_version;
        // Whatever fails from here on, the target may hold a staged
        // copy (a timed-out ship may still have landed): tell it to
        // throw the copy away so the fork cannot outlive the failed
        // move (best effort — an unreachable target discards nothing,
        // but its copy stays staged and is never served).
        let discard = |e| {
            let _ = self.peer_call(target, Request::VolDiscard { volume });
            e
        };
        self.peer_call(target, Request::VolRestore { dump: full, read_only: false })
            .map_err(discard)?;

        // Phase 2: blackout.
        self.volumes.begin_blackout(volume).map_err(discard)?;
        let result = (|| {
            self.quiesce(volume, DIR_READ)?;
            self.volumes.drain(volume);
            let mut delta = self.physical.dump_volume(volume, base)?;
            // A `base` of 0 (volume never written) dumps everything with
            // `since_version == 0`, which the restorer reads as "create
            // from scratch" — but the target already holds the phase-1
            // copy. Mark the dump incremental; applying every file over
            // the identical copy is harmless.
            delta.since_version = delta.since_version.max(1);
            self.peer_call(target, Request::VolRestore { dump: delta, read_only: false })?;
            // Ship the surviving guarantees: clients keep their cached
            // tokens across the move, and the target keeps stamping
            // above our serialization floors (§6.2).
            let (grants, stamps) = self.tm.export_volume(volume);
            let grants: Vec<(ClientId, Token)> = grants
                .into_iter()
                .filter_map(|(h, t)| match h {
                    HostId::Client(c) => Some((c, t)),
                    _ => None,
                })
                .collect();
            self.peer_call(target, Request::VolInstallTokens { volume, grants, stamps })?;
            // Flip ownership: the table entry stops hosting and starts
            // carrying the route note in one step, so the instant the
            // routing gate redirects, the hint is there.
            self.vldb.register(volume, target)?;
            let generation = self.vldb.lookup_gen(volume).map(|(_, g)| g).unwrap_or(0);
            self.volumes.moved_away(volume, target, generation);
            self.physical.delete_volume(volume)?;
            self.tm.drop_volume(volume);
            Ok(())
        })();
        // A no-op once the volume has moved away.
        self.volumes.end_blackout(volume);
        if result.is_ok() {
            self.stats.moves.add(1);
        }
        result.map_err(discard)
    }

    /// Starts lazily replicating `volume` from `source` onto this
    /// server, with the given maximum staleness (§3.8).
    fn replica_add(&self, volume: VolumeId, source: ServerId, max_staleness_us: u64) -> DfsResult<()> {
        let dump = self.fetch_dump(source, volume, 0)?;
        self.physical.restore_volume(&dump, true)?;
        self.volumes.restored(volume);
        self.arm_replica_token(source, volume);
        // The replica serves (read-only) copies of the volume itself —
        // it must not redirect readers back to the master.
        let now = self.net.clock().now();
        self.volumes.add_replica(volume, source, max_staleness_us, now, dump.max_data_version);
        // Advertise this replica in the VLDB so clients can find it
        // when the primary is down (§3.8 promotion). Best effort: a
        // replica that fails to advertise still serves direct readers.
        let _ = self.vldb.add_replica(volume, self.id);
        Ok(())
    }

    /// Fetches `volume`'s changes since data version `since` from `source`.
    fn fetch_dump(&self, source: ServerId, volume: VolumeId, since: u64) -> DfsResult<VolumeDump> {
        match self.peer_call(source, Request::VolDump { volume, since_version: since })? {
            Response::Dump(dump) => Ok(dump),
            _ => Err(DfsError::Internal("bad dump response")),
        }
    }

    /// (Re-)takes the whole-volume token: the guarantee that the replica
    /// may be used until the master changes (§3.8). Best effort.
    fn arm_replica_token(&self, source: ServerId, volume: VolumeId) {
        let fid = Fid::new(volume, VnodeId(0), 0);
        let want = TokenRequest { types: DIR_READ, range: ByteRange::WHOLE };
        let _ = self.peer_call(source, Request::GetToken { fid, want });
    }

    /// Stamps the replica staleness bound into a file response when the
    /// answering volume is a §3.8 replica: the age of its last refresh
    /// (as of the call's admission), clamped to ≥ 1 µs so even a
    /// just-refreshed replica is distinguishable from the primary
    /// (clients must not treat replica bytes as token-backed cacheable
    /// data). Primary-served volumes pass through with `stale_us` = 0.
    fn stamp_staleness(&self, refreshed: Option<Timestamp>, resp: Response) -> Response {
        let Some(refreshed) = refreshed else { return resp };
        let age = self.net.clock().now().micros_since(refreshed).max(1);
        match resp {
            Response::Status { status, tokens, stamp, epoch, .. } => {
                Response::Status { status, tokens, stamp, epoch, stale_us: age }
            }
            Response::Data { bytes, status, tokens, stamp, epoch, .. } => {
                Response::Data { bytes, status, tokens, stamp, epoch, stale_us: age }
            }
            other => other,
        }
    }

    /// One replication pass: refreshes any replica past its staleness
    /// bound and known-dirty via token revocation. Driven explicitly by
    /// `ReplTick` so experiments control simulated time.
    fn replica_tick(&self) -> DfsResult<()> {
        let now = self.net.clock().now();
        for (volume, source, base) in self.volumes.replicas_due(now) {
            let dump = self.fetch_dump(source, volume, base)?;
            let shipped = !dump.files.is_empty();
            if shipped {
                // The client of the replica "is guaranteed to always see
                // a consistent snapshot": restore swaps the volume in
                // whole, and later calls mount the new one.
                self.physical.restore_volume(&dump, true)?;
                self.volumes.restored(volume);
            }
            self.arm_replica_token(source, volume);
            self.volumes.refreshed(volume, now, dump.max_data_version);
            if shipped {
                self.stats.replica_refreshes.add(1);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The server procedures (§3.5)
    // ------------------------------------------------------------------

    /// The file procedures, run for the caller `host` on the request's
    /// (admitted, mounted) volume `fs`.
    fn file_op(
        &self,
        ctx: &CallContext,
        host: HostId,
        fs: &dyn VfsPlus,
        req: Request,
    ) -> DfsResult<Response> {
        use Request as Q;
        use Response as P;
        let cred = &self.cred_for(ctx);
        match req {
            Q::GetRoot { .. } => Ok(P::FidIs(fs.root()?)),

            Q::FetchStatus { fid, want } => {
                let base = whole(fid, TokenTypes::STATUS_READ);
                let (status, tokens, stamp) =
                    self.with_grant(host, base, want, || fs.getattr(cred, fid))?;
                Ok(self.status_reply(status, tokens, stamp))
            }

            Q::FetchData { fid, offset, len, want } => {
                let types = TokenTypes(TokenTypes::DATA_READ.0 | TokenTypes::STATUS_READ.0);
                let base = (fid, types, ByteRange::at(offset, len as u64));
                let ((bytes, status), tokens, stamp) = self.with_grant(host, base, want, || {
                    Ok((fs.read(cred, fid, offset, len as usize)?, fs.getattr(cred, fid)?))
                })?;
                Ok(P::Data { bytes, status, tokens, stamp, epoch: self.epoch, stale_us: 0 })
            }

            // A store-back batch goes through `Vfs::write_vec`: one
            // journal transaction, one group commit, durable on return.
            Q::StoreDataVec { fid, extents } => {
                if extents.is_empty()
                    || extents.len() > MAX_STORE_EXTENTS
                    || extents.iter().map(|e| e.data.len()).sum::<usize>() > MAX_STORE_BYTES
                {
                    return Err(DfsError::InvalidArgument);
                }
                self.store(host, fid, Some(&extents), || fs.write_vec(cred, fid, &extents))
            }
            Q::StoreStatus { fid, attrs } => {
                self.store(host, fid, None, || fs.setattr(cred, fid, &attrs))
            }

            Q::Fsync { fid } => fs.fsync(cred, fid).map(|()| P::Ok),

            Q::GetToken { fid, want } => {
                let base = (fid, TokenTypes::NONE, want.range);
                // Whole-volume tokens (vnode 0) have no status to fetch.
                let (status, tokens, stamp) = if fid.vnode.0 == 0 {
                    let ((), tokens, stamp) = self.with_grant(host, base, Some(want), || Ok(()))?;
                    (FileStatus { fid, stamp, ..Default::default() }, tokens, stamp)
                } else {
                    self.with_grant(host, base, Some(want), || fs.getattr(cred, fid))?
                };
                Ok(self.status_reply(status, tokens, stamp))
            }

            Q::ReturnToken { fid, token } => {
                self.tm.release_on(host, fid, token);
                Ok(P::Ok)
            }

            Q::Lookup { dir, name, want } => {
                self.dir_op(host, dir, DIR_READ, want, || fs.lookup(cred, dir, &name))
            }
            Q::Create { dir, name, mode } => {
                self.dir_op(host, dir, DIR_WRITE, None, || fs.create(cred, dir, &name, mode))
            }
            Q::Mkdir { dir, name, mode } => {
                self.dir_op(host, dir, DIR_WRITE, None, || fs.mkdir(cred, dir, &name, mode))
            }
            Q::Symlink { dir, name, target } => {
                self.dir_op(host, dir, DIR_WRITE, None, || fs.symlink(cred, dir, &name, &target))
            }

            Q::Link { dir, name, target } => {
                let wants = [whole(dir, DIR_WRITE), whole(target, TokenTypes::STATUS_WRITE)];
                let _held = Granted::new(&self.tm, host, wants)?;
                let status = fs.link(cred, dir, &name, target)?;
                // The reply describes the target: stamped on its counter,
                // as `Remove`'s, not on the directory's.
                let stamp = self.tm.stamp(status.fid);
                Ok(self.status_reply(status, Vec::new(), stamp))
            }

            Q::Remove { dir, name } => {
                let victim = fs.lookup(cred, dir, &name)?;
                let wants = [whole(dir, DIR_WRITE), whole(victim.fid, DELETE)];
                let held = Granted::new(&self.tm, host, wants)?;
                let status = fs.remove(cred, dir, &name)?;
                // The reply describes the victim (alive, if it has another
                // link): stamped on its counter, as `dir_op`'s, before that goes.
                let stamp = self.tm.stamp(status.fid);
                if status.nlink == 0 {
                    held.retire(&self.locks, status.fid);
                }
                Ok(self.status_reply(status, Vec::new(), stamp))
            }

            Q::Rmdir { dir, name } => {
                let victim = fs.lookup(cred, dir, &name)?;
                let wants = [whole(dir, DIR_WRITE), whole(victim.fid, DIR_WRITE)];
                let held = Granted::new(&self.tm, host, wants)?;
                fs.rmdir(cred, dir, &name)?;
                held.retire(&self.locks, victim.fid);
                Ok(P::Ok)
            }

            Q::Rename { src_dir, src_name, dst_dir, dst_name } => {
                let (wants, target) = rename_wants(fs, cred, (src_dir, dst_dir, &dst_name))?;
                let held = Granted::new(&self.tm, host, wants)?;
                fs.rename(cred, src_dir, &src_name, dst_dir, &dst_name)?;
                if let Some(fid) = gone(fs, cred, target) {
                    held.retire(&self.locks, fid);
                }
                Ok(P::Ok)
            }

            Q::Readdir { dir } => {
                let base = whole(dir, DIR_READ);
                let (entries, ..) = self.with_grant(host, base, None, || fs.readdir(cred, dir))?;
                Ok(P::Entries(entries))
            }

            Q::Readlink { fid } => Ok(P::Target(fs.readlink(cred, fid)?)),

            Q::GetAcl { fid } => Ok(P::AclIs(fs.get_acl(cred, fid)?)),

            Q::SetAcl { fid, acl } => {
                let base = whole(fid, TokenTypes::STATUS_WRITE);
                self.with_grant(host, base, None, || fs.set_acl(cred, fid, &acl))?;
                Ok(P::Ok)
            }

            Q::SetLock { fid, range, write } => {
                // A server-mediated lock must first pull back conflicting
                // lock *tokens*: holders with active locks retain them,
                // which correctly refuses this lock (§5.3).
                let types =
                    if write { TokenTypes::LOCK_WRITE } else { TokenTypes::LOCK_READ };
                let _held = Granted::new(&self.tm, host, [(fid, types, range)])?;
                self.locks.set(host, fid, range, write).map(|()| P::Ok)
            }

            Q::ReleaseLock { fid, range } => {
                self.locks.release(host, fid, range);
                Ok(P::Ok)
            }

            _ => Err(DfsError::Internal("not a file call")),
        }
    }

    /// A store on behalf of `host` (DESIGN §9). A store never *acquires*
    /// a token: it is admitted only while the token table shows `host`
    /// already holding the write guarantee — `DATA_WRITE` over every
    /// extent of a data store, `STATUS_WRITE` for a status store — and
    /// is otherwise refused with `TokenRevoked`, nothing written, no
    /// other holder disturbed. A grant stays in the table until its
    /// holder acknowledges the revocation, so the store-back a
    /// revocation handler sends is admitted, and one that arrives after
    /// the token has been handed on is not. Check and write happen under
    /// the file's token shard, so no grant can change between them.
    fn store(
        &self,
        host: HostId,
        fid: Fid,
        extents: Option<&[WriteExtent]>,
        f: impl FnOnce() -> DfsResult<FileStatus>,
    ) -> DfsResult<Response> {
        let status = self.tm.with_held(host, fid, |held| {
            let admitted = match extents {
                Some(extents) => extents.iter().all(|e| {
                    let range = ByteRange::at(e.offset, e.data.len() as u64);
                    tokens_cover(held, TokenTypes::DATA_WRITE, &range)
                }),
                None => held.iter().any(|t| t.types.contains(TokenTypes::STATUS_WRITE)),
            };
            if admitted { f() } else { Err(DfsError::TokenRevoked) }
        })?;
        Ok(self.status_reply(status, Vec::new(), self.tm.stamp(fid)))
    }

    /// A directory procedure answering with the status of the *child* it
    /// looked up or made, stamped on the child's own counter.
    fn dir_op(
        &self,
        host: HostId,
        dir: Fid,
        types: TokenTypes,
        want: Option<TokenRequest>,
        f: impl FnOnce() -> DfsResult<FileStatus>,
    ) -> DfsResult<Response> {
        let (status, tokens, _) = self.with_grant(host, whole(dir, types), want, f)?;
        let stamp = self.tm.stamp(status.fid);
        Ok(self.status_reply(status, tokens, stamp))
    }

    /// The procedures addressed to this server itself.
    fn admin_op(&self, ctx: &CallContext, req: Request) -> DfsResult<Response> {
        use Request as Q;
        use Response as P;
        match req {
            Q::Ping => Ok(P::Ok),

            Q::VolCreate { volume, name } => {
                self.physical.create_volume(volume, &name)?;
                self.volumes.serve(volume);
                self.vldb.register(volume, self.id)?;
                Ok(P::Ok)
            }
            Q::VolDelete { volume } => {
                // Stop serving before anything is destroyed: bounce new
                // calls, wait out the admitted ones as a move does, and
                // only then forget the volume, its bytes and — so a
                // volume re-created under this id starts clean — its
                // grants and stamps.
                if self.volumes.begin_blackout(volume).is_ok() {
                    self.volumes.drain(volume);
                }
                self.volumes.remove(volume);
                self.physical.delete_volume(volume)?;
                self.tm.drop_volume(volume);
                self.vldb.unregister(volume)?;
                Ok(P::Ok)
            }
            Q::VolClone { src, clone, name } => {
                // Snapshot what clients have written, not just what has
                // been stored back: revoke outstanding write tokens.
                self.quiesce(src, DIR_WRITE)?;
                self.physical.clone_volume(src, clone, &name)?;
                self.volumes.serve(clone);
                self.vldb.register(clone, self.id)?;
                Ok(P::Ok)
            }
            Q::VolDump { volume, since_version } => {
                self.quiesce(volume, DIR_WRITE)?;
                Ok(P::Dump(self.physical.dump_volume(volume, since_version)?))
            }
            Q::VolRestore { dump, read_only } => {
                self.physical.restore_volume(&dump, read_only)?;
                // A move target keeps the shipped copy *staged* until the
                // handover completes (`VolInstallTokens`): the VLDB still
                // names the source, and a client holding a stale hint
                // aimed here must be redirected there — serving (or
                // accepting writes into) the phase-1 snapshot would fork
                // the volume, with the writes clobbered by the phase-2
                // delta.
                self.volumes.restored(dump.volume);
                Ok(P::Ok)
            }
            Q::VolInstallTokens { volume, grants, stamps } => {
                // A move source handing over the volume's coherence
                // state: install each surviving client grant verbatim
                // (ids preserved, so clients' cached tokens stay valid
                // and future revocations match them), and lift every
                // serialization counter to the source's floor so stamps
                // stay monotone across the move (§6.2).
                let now = self.net.clock().now();
                for (client, token) in grants {
                    if token.fid.volume != volume {
                        return Err(DfsError::InvalidArgument);
                    }
                    let host = HostId::Client(client);
                    self.enter(&mut self.hosts.lock(), host, now);
                    // Journal the shipped client as a holder, so a later
                    // restart of *this* server expects it to recover:
                    // the move's handover is exactly the kind of state a
                    // crashed target must not forget.
                    self.journal_holding(host);
                    self.tm.install_grant(host, token);
                }
                for (fid, stamp) in stamps {
                    self.tm.raise_stamp_floor(fid, stamp);
                }
                // Handover complete: the delta is applied and the
                // coherence state is in place, so the staged copy
                // becomes a hosted volume this server serves (the
                // source flips the VLDB right after this call returns).
                self.volumes.serve(volume);
                Ok(P::Ok)
            }
            Q::VolDiscard { volume } => {
                // The source aborted a move after the bulk ship: throw
                // away the staged copy so this server cannot end up
                // claiming a stale fork of the volume. Already-promoted
                // (or never-staged) volumes are untouched.
                if self.volumes.discard_staged(volume) {
                    self.physical.delete_volume(volume)?;
                }
                Ok(P::Ok)
            }
            Q::VolInfo { volume } => Ok(P::VolumeIs(self.physical.volume_info(volume)?)),
            Q::VolList => Ok(P::Volumes(self.physical.list_volumes()?)),
            Q::VolMove { volume, target } => self.move_volume(volume, target).map(|()| P::Ok),

            Q::ReplAdd { volume, source, max_staleness_us } => {
                self.replica_add(volume, source, max_staleness_us).map(|()| P::Ok)
            }
            Q::ReplTick => self.replica_tick().map(|()| P::Ok),

            Q::GetEpoch => Ok(P::EpochIs { epoch: self.epoch, in_grace: self.in_grace() }),

            Q::ReestablishTokens { epoch, tokens } => {
                let client = match ctx.caller {
                    Addr::Client(c) => c,
                    _ => return Err(DfsError::InvalidArgument),
                };
                if epoch != self.epoch {
                    // The caller is talking to a different instance than
                    // it thinks (e.g. we restarted again); it must
                    // re-probe before claiming anything.
                    return Err(DfsError::InvalidArgument);
                }
                // `dispatch` entered the caller.
                let host = HostId::Client(client);
                let now = self.net.clock().now();
                let (in_grace, expected) = {
                    let mut table = self.hosts.lock();
                    (table.in_grace(now), table.expected(host))
                };
                let mut granted = Vec::new();
                if in_grace && expected {
                    // Re-grant claims on files still here that don't
                    // conflict with what other hosts already reestablished;
                    // the rest are silently dropped (the honest pre-crash
                    // grant set is conflict-free, so drops only punish
                    // stale claims).
                    for t in tokens {
                        if !self.claim_resolves(t.fid) {
                            self.tm.refuse_claim();
                        } else if let Some((token, _stamp)) =
                            self.tm.reestablish(host, t.fid, t.types, t.range)
                        {
                            granted.push(token);
                        }
                    }
                }
                if !granted.is_empty() {
                    // The re-grants make this client a holder under the
                    // *new* instance; journal that for the next crash.
                    self.journal_holding(host);
                }
                if expected {
                    // Last expected host in: close the window early.
                    self.hosts.lock().check_in(host, now);
                }
                Ok(P::Reestablished { epoch: self.epoch, tokens: granted })
            }

            Q::RevokeVec { items } => {
                Ok(P::RevokeVecAck { returned: self.replica_revoked(&items) })
            }

            // VLDB and login traffic (and any file call sent past
            // `dispatch`) is not for a file server.
            _ => Err(DfsError::InvalidArgument),
        }
    }

    /// Whether a reestablishment claim on `fid` names a file this server
    /// still has: its volume is served here and, unless the claim is a
    /// whole-volume token, the volume's file system still resolves it.
    /// Asked of the mounted volume, as `file_op` is handed it, not of the
    /// glue, which would take a token.
    fn claim_resolves(&self, fid: Fid) -> bool {
        let Ok(fs) = self.volumes.mount(fid.volume, || self.physical.mount(fid.volume)) else {
            return false;
        };
        fid.vnode.0 == 0
            || !matches!(
                fs.getattr(&Credentials::system(), fid),
                Err(DfsError::StaleFid | DfsError::NotFound)
            )
    }

    /// Answers revocations aimed at this server. We hold whole-volume
    /// replica tokens only: mark each token's replica dirty and return
    /// it (§3.8) — one answer per item, in request order.
    fn replica_revoked(&self, items: &[(Token, TokenTypes, SerializationStamp)]) -> Vec<bool> {
        items.iter().for_each(|(token, ..)| self.volumes.mark_dirty(token.fid.volume));
        vec![true; items.len()]
    }

    /// The volume a file RPC is about, if any. Admin traffic (volume
    /// motion, replication, VLDB, recovery probes) returns `None`: it
    /// is addressed to a specific server deliberately and must never be
    /// redirected.
    fn volume_of_req(req: &Request) -> Option<VolumeId> {
        let fid = match req {
            Request::GetRoot { volume } => return Some(*volume),
            Request::FetchStatus { fid, .. }
            | Request::FetchData { fid, .. }
            | Request::StoreDataVec { fid, .. }
            | Request::StoreStatus { fid, .. }
            | Request::Fsync { fid }
            | Request::GetToken { fid, .. }
            | Request::ReturnToken { fid, .. }
            | Request::Readlink { fid }
            | Request::GetAcl { fid }
            | Request::SetAcl { fid, .. }
            | Request::SetLock { fid, .. }
            | Request::ReleaseLock { fid, .. } => fid,
            Request::Lookup { dir, .. }
            | Request::Create { dir, .. }
            | Request::Mkdir { dir, .. }
            | Request::Symlink { dir, .. }
            | Request::Link { dir, .. }
            | Request::Remove { dir, .. }
            | Request::Rmdir { dir, .. }
            | Request::Readdir { dir } => dir,
            Request::Rename { src_dir, .. } => src_dir,
            _ => return None,
        };
        Some(fid.volume)
    }

    /// Answers a call for a volume this server does not host: a
    /// `WrongServer` hint (`route`, the note left if we moved it away
    /// ourselves, else a fresh VLDB lookup), or `NoSuchVolume` when no
    /// other server has it.
    fn not_hosted(&self, volume: VolumeId, route: Option<(ServerId, u64)>) -> Response {
        let hint = route.or_else(|| match self.vldb.lookup_gen(volume) {
            Ok((server, generation)) if server != self.id => Some((server, generation)),
            _ => None,
        });
        let Some((hint, generation)) = hint else {
            return Response::Err(DfsError::NoSuchVolume);
        };
        self.stats.wrong_server_redirects.add(1);
        Response::WrongServer { hint, generation }
    }
}

impl RpcService for FileServer {
    fn dispatch(&self, ctx: CallContext, req: Request) -> Response {
        let now = self.net.clock().now();
        let volume = Self::volume_of_req(&req);
        let host = match ctx.caller {
            Addr::Client(c) => Some(HostId::Client(c)),
            Addr::Server(s) => Some(HostId::Replicator(s.0)),
            _ => None,
        };
        // One look at the host table per call: note the caller, and run
        // the post-restart recovery gate. While the grace window is open,
        // file work is admitted only from clients that have reestablished
        // their tokens. Revocation-class store-backs pass, as do peers
        // (replicators), which are not part of recovery.
        let gated = host.is_some_and(|host| {
            let mut table = self.hosts.lock();
            self.enter(&mut table, host, now);
            let file_work = volume.is_some() && ctx.class != CallClass::Revocation;
            file_work && matches!(host, HostId::Client(_)) && table.gates(host, now)
        });
        if let Addr::Client(c) = ctx.caller {
            self.journal_lease_refresh(c, now);
        }
        let Some(volume) = volume else {
            // Admin traffic is addressed to this server deliberately:
            // no routing, no recovery gate, no blackout.
            self.stats.ops.add(1);
            return self.admin_op(&ctx, req).unwrap_or_else(Response::Err);
        };
        // File work comes from a cache manager or a replicator.
        let Some(host) = host else { return Response::Err(DfsError::InvalidArgument) };
        // Routing, recovery and blackout verdicts in one look at the
        // volume table. Not-hosted comes first whatever the call class
        // — the owner, not this server, holds the volume's recovery
        // story, and a store-back aimed at a moved-away volume must
        // chase it too.
        let admitted = match self.volumes.admit(volume, ctx.class, gated) {
            Admit::NotHosted(route) => return self.not_hosted(volume, route),
            Admit::Grace => {
                self.stats.grace_rejections.add(1);
                return Response::Err(DfsError::GraceWait);
            }
            Admit::Busy => {
                self.stats.busy_rejections.add(1);
                return Response::Err(DfsError::VolumeBusy);
            }
            Admit::Serve(admitted) => admitted,
        };
        self.stats.ops.add(1);
        let mount = || self.volumes.mount(volume, || self.physical.mount(volume));
        let resp = match &admitted.fs {
            Some(fs) => self.file_op(&ctx, host, &**fs, req),
            None => mount().and_then(|fs| self.file_op(&ctx, host, &*fs, req)),
        };
        self.stamp_staleness(admitted.replica_refreshed, resp.unwrap_or_else(Response::Err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_disk::{DiskConfig, SimDisk};
    use dfs_episode::{Episode, FormatParams};
    use dfs_types::{ClientId, SimClock};

    fn cell() -> (Network, Arc<FileServer>) {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "root.cell").unwrap();
        let srv = FileServer::start(
            net.clone(),
            ServerId(1),
            ep,
            vec![Addr::Vldb(0)],
            PoolConfig::default(),
        )
        .unwrap();
        (net, srv)
    }

    /// Two servers over one VLDB; server 1 starts with volume 1.
    fn pair() -> (SimClock, Network, Arc<FileServer>, Arc<FileServer>) {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let mk = |n: u32| {
            let disk = SimDisk::new(DiskConfig::with_blocks(16384));
            let ep = Episode::format(disk, clock.clone(), FormatParams::default()).unwrap();
            if n == 1 {
                ep.create_volume(VolumeId(1), "root.cell").unwrap();
            }
            let vldb = vec![Addr::Vldb(0)];
            FileServer::start(net.clone(), ServerId(n), ep, vldb, PoolConfig::default()).unwrap()
        };
        let (s1, s2) = (mk(1), mk(2));
        (clock, net, s1, s2)
    }

    fn call(net: &Network, req: Request) -> Response {
        net.call(Addr::Client(ClientId(7)), Addr::Server(ServerId(1)), None, CallClass::Normal, req)
            .unwrap()
    }

    /// A one-extent store-back of `data` at offset 0.
    fn store(fid: Fid, data: &[u8]) -> Request {
        Request::StoreDataVec { fid, extents: vec![WriteExtent { offset: 0, data: data.to_vec() }] }
    }

    /// Takes the write tokens over all of `fid` for `client` at server
    /// `to`: a store is admitted on a token already held, never granted
    /// one (DESIGN §9).
    fn take_write_token(net: &Network, client: u32, to: u32, fid: Fid) {
        let want = TokenRequest { types: DIR_WRITE, range: ByteRange::WHOLE };
        let from = Addr::Client(ClientId(client));
        let to = Addr::Server(ServerId(to));
        let granted = net.call(from, to, None, CallClass::Normal, Request::GetToken { fid, want });
        assert!(matches!(granted, Ok(Response::Status { .. })), "{granted:?}");
    }

    #[test]
    fn get_root_and_create_and_fetch() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let created = match call(
            &net,
            Request::Create { dir: root, name: "hello".into(), mode: 0o644 },
        ) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        take_write_token(&net, 7, 1, created.fid);
        match call(&net, store(created.fid, b"remote!")) {
            Response::Status { status, .. } => assert_eq!(status.length, 7),
            other => panic!("{other:?}"),
        }
        match call(
            &net,
            Request::FetchData { fid: created.fid, offset: 0, len: 32, want: None },
        ) {
            Response::Data { bytes, status, .. } => {
                assert_eq!(bytes, b"remote!");
                assert_eq!(status.length, 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reestablishment_refuses_a_claim_on_a_file_that_is_gone() {
        let (net, srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let live = match call(&net, Request::Create { dir: root, name: "kept".into(), mode: 0o644 })
        {
            Response::Status { status, .. } => status.fid,
            other => panic!("{other:?}"),
        };
        let never = Fid::new(VolumeId(1), VnodeId(live.vnode.0 + 100), 1);
        // A restart's grace window, waiting for client 7.
        let now = net.clock().now();
        {
            let mut table = srv.hosts.lock();
            let host = Host { last_seen: now, expected: true, checked_in: false };
            table.hosts.insert(HostId::Client(ClientId(7)), host);
            table.grace_until = Some(Timestamp(now.0 + (1 << 40)));
        }
        let claim = |fid| Token {
            id: dfs_token::TokenId(0),
            fid,
            types: TokenTypes::DATA_READ,
            range: ByteRange::WHOLE,
        };
        let refused = srv.tm.stats().refused;
        let tokens = vec![claim(live), claim(never)];
        match call(&net, Request::ReestablishTokens { epoch: srv.epoch(), tokens }) {
            Response::Reestablished { tokens, .. } => {
                assert_eq!(tokens.iter().map(|t| t.fid).collect::<Vec<_>>(), vec![live]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(srv.tm.stats().refused, refused + 1, "counted as a conflict is");
        assert!(srv.tm.live_grants().iter().all(|(_, t)| t.fid != never));
    }

    #[test]
    fn store_data_vec_applies_batch_in_one_group_commit() {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 500);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "root.cell").unwrap();
        let _srv = FileServer::start(
            net.clone(),
            ServerId(1),
            ep.clone(),
            vec![Addr::Vldb(0)],
            PoolConfig::default(),
        )
        .unwrap();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "v".into(), mode: 0o644 }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        let before = ep.journal().stats().syncs;
        let extents = vec![
            WriteExtent { offset: 0, data: vec![1u8; 4096] },
            WriteExtent { offset: 4096, data: vec![2u8; 4096] },
            WriteExtent { offset: 16384, data: vec![3u8; 100] },
        ];
        take_write_token(&net, 7, 1, f.fid);
        match call(&net, Request::StoreDataVec { fid: f.fid, extents }) {
            Response::Status { status, .. } => assert_eq!(status.length, 16484),
            other => panic!("{other:?}"),
        }
        // The whole batch forced the log exactly once.
        assert_eq!(ep.journal().stats().syncs, before + 1);
        match call(&net, Request::FetchData { fid: f.fid, offset: 4096, len: 8, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, vec![2u8; 8]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_data_vec_rejects_malformed_batches() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "m".into(), mode: 0o644 }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        let bytes = |len| WriteExtent { offset: 0, data: vec![0u8; len] };
        let too_many = (0..=MAX_STORE_EXTENTS as u64)
            .map(|i| WriteExtent { offset: i * 8192, data: vec![0u8; 1] })
            .collect();
        let half = MAX_STORE_BYTES / 2 + 1;
        let malformed = [
            ("empty", vec![]),
            ("too many extents", too_many),
            ("one extent over the byte bound", vec![bytes(MAX_STORE_BYTES + 1)]),
            ("two extents over the byte bound", vec![bytes(half), bytes(half)]),
        ];
        for (what, extents) in malformed {
            let req = Request::StoreDataVec { fid: f.fid, extents };
            assert_eq!(call(&net, req), Response::Err(DfsError::InvalidArgument), "{what}");
        }
    }

    #[test]
    fn a_store_is_admitted_only_on_a_token_already_held() {
        let (net, srv) = cell();
        let root = root_of(&net, 1, 1);
        let create = Request::Create { dir: root, name: "gated".into(), mode: 0o644 };
        let fid = match call(&net, create) {
            Response::Status { status, .. } => status.fid,
            other => panic!("{other:?}"),
        };
        let page = |offset| WriteExtent { offset, data: vec![9u8; 4096] };
        let one = Request::StoreDataVec { fid, extents: vec![page(0)] };
        let vec = Request::StoreDataVec { fid, extents: vec![page(0), page(8192)] };
        let status = |length| Request::StoreStatus {
            fid,
            attrs: dfs_vfs::SetAttrs { length, mode: Some(0o600), ..Default::default() },
        };
        let refused = Response::Err(DfsError::TokenRevoked);
        let grants = || srv.token_manager().stats().grants;
        // Another client holds the read tokens a granting store would
        // have had to revoke.
        let reader = Addr::Client(ClientId(8));
        let want = TokenRequest::whole(DIR_READ);
        net.call(reader, Addr::Server(ServerId(1)), None, CallClass::Normal, Request::FetchStatus {
            fid,
            want,
        })
        .unwrap();
        let before = (grants(), srv.token_manager().stats().revocations);

        // No token: every kind of store is refused, in either class,
        // nothing is written, nothing is granted, no one is revoked.
        for class in [CallClass::Normal, CallClass::Revocation] {
            for req in [one.clone(), vec.clone(), status(None), status(Some(0))] {
                assert_eq!(send(&net, 1, class, req), refused, "{class:?}");
            }
        }
        assert_eq!((grants(), srv.token_manager().stats().revocations), before);
        let fetch = Request::FetchStatus { fid, want: None };
        assert!(matches!(
            call(&net, fetch),
            Response::Status { status, .. } if status.length == 0 && status.mode & 0o777 == 0o644
        ));

        // DATA_WRITE over the first page only: that page is admitted, a
        // batch reaching past it is not — every extent must be covered —
        // and a status store still is not.
        let first_page = TokenRequest {
            types: TokenTypes::DATA_WRITE,
            range: ByteRange::new(0, 4096),
        };
        call(&net, Request::GetToken { fid, want: first_page });
        let held = grants();
        assert!(matches!(call(&net, one), Response::Status { status, .. } if status.length == 4096));
        assert_eq!(call(&net, vec), refused);
        assert_eq!(call(&net, status(None)), refused);
        // STATUS_WRITE admits the status store, whatever it changes.
        let status_write = TokenRequest::whole(TokenTypes::STATUS_WRITE);
        call(&net, Request::GetToken { fid, want: status_write.unwrap() });
        assert!(matches!(
            call(&net, status(Some(100))),
            Response::Status { status, .. } if status.length == 100 && status.mode & 0o777 == 0o600
        ));
        assert_eq!(grants(), held + 1, "only the GetToken granted anything");
    }

    #[test]
    fn stamps_increase_per_file() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let s1 = match call(&net, Request::FetchStatus { fid: root, want: None }) {
            Response::Status { stamp, .. } => stamp,
            other => panic!("{other:?}"),
        };
        let s2 = match call(&net, Request::FetchStatus { fid: root, want: None }) {
            Response::Status { stamp, .. } => stamp,
            other => panic!("{other:?}"),
        };
        assert!(s2 > s1, "per-file serialization stamps must increase (§6.2)");
    }

    #[test]
    fn link_answers_on_the_targets_stamp_counter() {
        let (net, srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "t".into(), mode: 0o644 }) {
            Response::Status { status, .. } => status.fid,
            other => panic!("{other:?}"),
        };
        // Run the file's counter ahead of the directory's.
        for _ in 0..8 {
            call(&net, Request::FetchStatus { fid: f, want: None });
        }
        let tm = srv.token_manager();
        let (file_before, dir_before) = (tm.current_stamp(f), tm.current_stamp(root));
        assert!(file_before > dir_before);
        match call(&net, Request::Link { dir: root, name: "u".into(), target: f }) {
            Response::Status { status, stamp, .. } => {
                assert_eq!((status.fid, status.nlink), (f, 2));
                assert_eq!(stamp, tm.current_stamp(f), "the target's next stamp");
                assert!(stamp > file_before, "{stamp:?} would be dropped as stale (§6.3)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn vldb_learns_server_volumes_on_start() {
        let (net, srv) = cell();
        let vldb = VldbHandle::new(net, Addr::Client(ClientId(9)), vec![Addr::Vldb(0)]);
        assert_eq!(vldb.lookup(VolumeId(1)).unwrap(), srv.id());
    }

    #[test]
    fn local_and_remote_access_synchronize() {
        // The §5.5 example in miniature: a local user and a remote user
        // write the same file; token conflicts force serialization.
        let (net, srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "x".into(), mode: 0o666 }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        // Remote client writes via RPC.
        take_write_token(&net, 7, 1, f.fid);
        call(&net, store(f.fid, b"remote"));
        // Local user reads through the glue layer.
        let local = srv.local_volume(VolumeId(1)).unwrap();
        let cred = Credentials::system();
        use dfs_vfs::Vfs;
        assert_eq!(local.read(&cred, f.fid, 0, 16).unwrap(), b"remote");
        // Local write, then remote read.
        local.write(&cred, f.fid, 0, b"local!").unwrap();
        match call(&net, Request::FetchData { fid: f.fid, offset: 0, len: 16, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, b"local!"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn namespace_round_trip() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        call(&net, Request::Mkdir { dir: root, name: "d".into(), mode: 0o755 });
        let d = match call(&net, Request::Lookup { dir: root, name: "d".into(), want: None }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        assert!(d.is_dir());
        call(&net, Request::Create { dir: d.fid, name: "f".into(), mode: 0o644 });
        let entries = match call(&net, Request::Readdir { dir: d.fid }) {
            Response::Entries(e) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(entries.len(), 1);
        call(&net, Request::Rename {
            src_dir: d.fid,
            src_name: "f".into(),
            dst_dir: root,
            dst_name: "g".into(),
        });
        assert!(matches!(
            call(&net, Request::Lookup { dir: root, name: "g".into(), want: None }),
            Response::Status { .. }
        ));
        call(&net, Request::Remove { dir: root, name: "g".into() });
        assert!(matches!(
            call(&net, Request::Lookup { dir: root, name: "g".into(), want: None }),
            Response::Err(DfsError::NotFound)
        ));
        call(&net, Request::Rmdir { dir: root, name: "d".into() });
        assert!(matches!(
            call(&net, Request::Lookup { dir: root, name: "d".into(), want: None }),
            Response::Err(DfsError::NotFound)
        ));
    }

    #[test]
    fn server_side_locks() {
        let (net, _srv) = cell();
        let root = match call(&net, Request::GetRoot { volume: VolumeId(1) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match call(&net, Request::Create { dir: root, name: "l".into(), mode: 0o666 }) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        let lock = |c: u32, write: bool| {
            net.call(
                Addr::Client(ClientId(c)),
                Addr::Server(ServerId(1)),
                None,
                CallClass::Normal,
                Request::SetLock { fid: f.fid, range: ByteRange::new(0, 100), write },
            )
            .unwrap()
        };
        assert_eq!(lock(1, true), Response::Ok);
        assert_eq!(lock(2, true), Response::Err(DfsError::LockConflict));
        net.call(
            Addr::Client(ClientId(1)),
            Addr::Server(ServerId(1)),
            None,
            CallClass::Normal,
            Request::ReleaseLock { fid: f.fid, range: ByteRange::new(0, 100) },
        )
        .unwrap();
        assert_eq!(lock(2, true), Response::Ok);
    }

    #[test]
    fn volume_move_between_servers() {
        let (_clock, net, s1, s2) = pair();
        // Create a volume with content on s1.
        let c = Addr::Client(ClientId(1));
        let send = |to: ServerId, req: Request| {
            net.call(c, Addr::Server(to), None, CallClass::Normal, req).unwrap()
        };
        send(ServerId(1), Request::VolCreate { volume: VolumeId(7), name: "proj".into() });
        let root = match send(ServerId(1), Request::GetRoot { volume: VolumeId(7) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match send(
            ServerId(1),
            Request::Create { dir: root, name: "file".into(), mode: 0o644 },
        ) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        take_write_token(&net, 1, 1, f.fid);
        send(ServerId(1), store(f.fid, b"movable"));

        // Move it.
        assert_eq!(
            send(ServerId(1), Request::VolMove { volume: VolumeId(7), target: ServerId(2) }),
            Response::Ok
        );
        assert_eq!(s1.stats().moves, 1);

        // VLDB points at s2; fids still resolve; data survived.
        let vldb = VldbHandle::new(net.clone(), c, vec![Addr::Vldb(0)]);
        assert_eq!(vldb.lookup(VolumeId(7)).unwrap(), ServerId(2));
        match send(ServerId(2), Request::FetchData { fid: f.fid, offset: 0, len: 16, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, b"movable"),
            other => panic!("{other:?}"),
        }
        // The old server redirects with a hint at the new owner.
        assert!(matches!(
            send(ServerId(1), Request::FetchStatus { fid: f.fid, want: None }),
            Response::WrongServer { hint: ServerId(2), .. }
        ));
        // So do token-free one-shots: every misdirected call gets the hint.
        assert!(matches!(
            send(ServerId(1), Request::GetRoot { volume: VolumeId(7) }),
            Response::WrongServer { hint: ServerId(2), .. }
        ));
        assert!(s1.stats().wrong_server_redirects >= 2);
        let _ = s2;
    }

    #[test]
    fn unknown_volume_redirects_via_vldb() {
        let (_clock, net, _s1, _s2) = pair();
        let c = Addr::Client(ClientId(1));
        let send = |to: ServerId, req: Request| {
            net.call(c, Addr::Server(to), None, CallClass::Normal, req).unwrap()
        };
        // Volume 9 lives on s2; a file call misdirected at s1 gets a
        // hint from the VLDB even though s1 never hosted the volume.
        send(ServerId(2), Request::VolCreate { volume: VolumeId(9), name: "elsewhere".into() });
        let fid = Fid::new(VolumeId(9), VnodeId(1), 1);
        assert!(matches!(
            send(ServerId(1), Request::FetchStatus { fid, want: None }),
            Response::WrongServer { hint: ServerId(2), .. }
        ));
        // A volume nobody hosts is an error, not a redirect loop.
        let ghost = Fid::new(VolumeId(99), VnodeId(1), 1);
        assert!(matches!(
            send(ServerId(1), Request::FetchStatus { fid: ghost, want: None }),
            Response::Err(DfsError::NoSuchVolume)
        ));
    }

    #[test]
    fn lazy_replication_ships_increments() {
        let (clock, net, _s1, s2) = pair();
        let c = Addr::Client(ClientId(1));
        let send = |to: ServerId, req: Request| {
            net.call(c, Addr::Server(to), None, CallClass::Normal, req).unwrap()
        };
        send(ServerId(1), Request::VolCreate { volume: VolumeId(7), name: "src".into() });
        let root = match send(ServerId(1), Request::GetRoot { volume: VolumeId(7) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let f = match send(
            ServerId(1),
            Request::Create { dir: root, name: "data".into(), mode: 0o644 },
        ) {
            Response::Status { status, .. } => status,
            other => panic!("{other:?}"),
        };
        take_write_token(&net, 1, 1, f.fid);
        send(ServerId(1), store(f.fid, b"v1"));

        // Replicate onto s2 with a 10-minute staleness bound.
        let ten_min = 600 * 1_000_000;
        assert_eq!(
            send(
                ServerId(2),
                Request::ReplAdd { volume: VolumeId(7), source: ServerId(1), max_staleness_us: ten_min },
            ),
            Response::Ok
        );
        // Replica serves v1 (read-only).
        match send(ServerId(2), Request::FetchData { fid: f.fid, offset: 0, len: 8, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, b"v1"),
            other => panic!("{other:?}"),
        }
        // Master changes; replica stays at v1 until the bound expires.
        take_write_token(&net, 1, 1, f.fid);
        send(ServerId(1), store(f.fid, b"v2"));
        send(ServerId(2), Request::ReplTick);
        match send(ServerId(2), Request::FetchData { fid: f.fid, offset: 0, len: 8, want: None }) {
            Response::Data { bytes, .. } => {
                // The write revoked the whole-volume token, marking the
                // replica dirty: the next tick refreshes regardless of
                // the staleness clock. Both v1 and v2 are acceptable
                // here; the guarantee is only "no more than ten minutes
                // stale", and never regressing.
                assert!(bytes == b"v2" || bytes == b"v1");
            }
            other => panic!("{other:?}"),
        }
        clock.advance_micros(ten_min + 1);
        send(ServerId(2), Request::ReplTick);
        match send(ServerId(2), Request::FetchData { fid: f.fid, offset: 0, len: 8, want: None }) {
            Response::Data { bytes, .. } => assert_eq!(bytes, b"v2", "bound expired: must refresh"),
            other => panic!("{other:?}"),
        }
        assert!(s2.stats().replica_refreshes >= 1);
    }

    #[test]
    fn authenticated_permissions_flow_through() {
        let clock = SimClock::new();
        let net = Network::new(clock.clone(), 0);
        net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
        ep.create_volume(VolumeId(1), "v").unwrap();
        let _srv = FileServer::start(
            net.clone(),
            ServerId(1),
            ep,
            vec![Addr::Vldb(0)],
            PoolConfig { require_auth: true, ..PoolConfig::default() },
        )
        .unwrap();
        net.auth().add_user(100, 42);
        let ticket = net.auth().login(100, 42).unwrap();
        let c = Addr::Client(ClientId(1));

        // Unauthenticated call is refused.
        let r = net
            .call(c, Addr::Server(ServerId(1)), None, CallClass::Normal, Request::VolList)
            .unwrap();
        assert_eq!(r, Response::Err(DfsError::AuthenticationFailed));

        // Authenticated call succeeds, and the cred is user 100 — who
        // cannot write the system-owned root (mode 0755).
        let root = match net
            .call(
                c,
                Addr::Server(ServerId(1)),
                Some(ticket),
                CallClass::Normal,
                Request::GetRoot { volume: VolumeId(1) },
            )
            .unwrap()
        {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        };
        let r = net
            .call(
                c,
                Addr::Server(ServerId(1)),
                Some(ticket),
                CallClass::Normal,
                Request::Create { dir: root, name: "nope".into(), mode: 0o644 },
            )
            .unwrap();
        assert_eq!(r, Response::Err(DfsError::PermissionDenied));
    }

    fn send(net: &Network, to: u32, class: CallClass, req: Request) -> Response {
        net.call(Addr::Client(ClientId(7)), Addr::Server(ServerId(to)), None, class, req).unwrap()
    }

    fn root_of(net: &Network, to: u32, volume: u64) -> Fid {
        match send(net, to, CallClass::Normal, Request::GetRoot { volume: VolumeId(volume) }) {
            Response::FidIs(f) => f,
            other => panic!("{other:?}"),
        }
    }

    /// A token host that keeps whatever it is asked to give up.
    struct Keeper(HostId);
    impl dfs_token::TokenHost for Keeper {
        fn host_id(&self) -> HostId {
            self.0
        }
        fn revoke(
            &self,
            _: &Token,
            _: TokenTypes,
            _: SerializationStamp,
        ) -> dfs_token::RevokeResult {
            dfs_token::RevokeResult::Retained
        }
    }

    #[test]
    fn rename_releases_its_first_grant_when_the_second_is_refused() {
        let (_clock, net, s1, _s2) = pair();
        let root = root_of(&net, 1, 1);
        let mut dirs = ["a", "b"].map(|name| {
            let mkdir = Request::Mkdir { dir: root, name: name.into(), mode: 0o755 };
            match send(&net, 1, CallClass::Normal, mkdir) {
                Response::Status { status, .. } => status.fid,
                other => panic!("{other:?}"),
            }
        });
        dirs.sort();
        let [first, second] = dirs;
        let create = Request::Create { dir: first, name: "f".into(), mode: 0o644 };
        send(&net, 1, CallClass::Normal, create);
        let keeper = HostId::Client(ClientId(99));
        let tm = s1.token_manager();
        tm.register_host(Arc::new(Keeper(keeper)));
        tm.grant(keeper, second, DIR_READ, ByteRange::WHOLE).unwrap();

        let rename = Request::Rename {
            src_dir: first,
            src_name: "f".into(),
            dst_dir: second,
            dst_name: "g".into(),
        };
        assert_eq!(send(&net, 1, CallClass::Normal, rename), Response::Err(DfsError::OpenConflict));
        let caller = HostId::Client(ClientId(7));
        for dir in [first, second] {
            assert!(
                tm.tokens_on(dir).iter().all(|(host, _)| *host != caller),
                "the refused rename left a grant on {dir:?}"
            );
        }
    }

    #[test]
    fn vol_delete_stops_serving_and_forgets_the_volumes_tokens() {
        let (_clock, net, s1, _s2) = pair();
        let v = VolumeId(5);
        send(&net, 1, CallClass::Normal, Request::VolCreate { volume: v, name: "doomed".into() });
        let root = root_of(&net, 1, 5);
        let want = TokenRequest::whole(TokenTypes::STATUS_READ);
        assert!(matches!(
            send(&net, 1, CallClass::Normal, Request::FetchStatus { fid: root, want }),
            Response::Status { ref tokens, .. } if tokens.len() == 1
        ));
        assert_eq!(s1.token_manager().tokens_on(root).len(), 1);

        let deleted = send(&net, 1, CallClass::Normal, Request::VolDelete { volume: v });
        assert_eq!(deleted, Response::Ok);
        assert!(s1.token_manager().tokens_on(root).is_empty(), "grants outlived the volume");
        assert_eq!(
            send(&net, 1, CallClass::Normal, Request::FetchStatus { fid: root, want: None }),
            Response::Err(DfsError::NoSuchVolume)
        );
        assert_eq!(s1.volumes.inflight(v), 0);
    }

    #[test]
    fn in_flight_count_returns_to_zero_after_errors_and_bounces() {
        let (_clock, net, s1, _s2) = pair();
        let v = VolumeId(1);
        let ghost = Fid::new(v, VnodeId(4000), 1);
        assert!(matches!(
            send(&net, 1, CallClass::Normal, Request::FetchStatus { fid: ghost, want: None }),
            Response::Err(_)
        ));
        assert_eq!(s1.volumes.inflight(v), 0, "a handler error leaked an in-flight count");
        s1.volumes.begin_blackout(v).unwrap();
        assert_eq!(
            send(&net, 1, CallClass::Normal, Request::GetRoot { volume: v }),
            Response::Err(DfsError::VolumeBusy)
        );
        assert_eq!(s1.volumes.inflight(v), 0, "a bounced call leaked an in-flight count");
        assert_eq!(s1.stats().busy_rejections, 1);
    }

    /// What `dispatch` does with a call, as seen from outside.
    #[derive(Clone, Debug, PartialEq)]
    enum Verdict {
        Served,
        /// Served by a §3.8 replica (`stale_us` stamped).
        ServedStale,
        Wrong(u32),
        NoVolume,
        Busy,
        Grace,
    }

    /// Sends `req` to server `to` and returns the verdict plus the
    /// server's stats delta as `[ops, busy_rejections, grace_rejections,
    /// wrong_server_redirects, volume_ops[volume]]`.
    fn probe(
        net: &Network,
        srv: &FileServer,
        class: CallClass,
        volume: VolumeId,
        req: Request,
    ) -> (Verdict, [u64; 5]) {
        let snap = |s: ServerStats| {
            let vol_ops = s.volume_ops.get(&volume).copied().unwrap_or(0);
            let rejections = [s.busy_rejections, s.grace_rejections];
            [s.ops, rejections[0], rejections[1], s.wrong_server_redirects, vol_ops]
        };
        let before = snap(srv.stats());
        let resp = send(net, srv.id().0, class, req);
        let after = snap(srv.stats());
        let delta: [u64; 5] = std::array::from_fn(|i| after[i] - before[i]);
        let verdict = match resp {
            Response::WrongServer { hint, .. } => Verdict::Wrong(hint.0),
            Response::Err(DfsError::NoSuchVolume) => Verdict::NoVolume,
            Response::Err(DfsError::VolumeBusy) => Verdict::Busy,
            Response::Err(DfsError::GraceWait) => Verdict::Grace,
            Response::Status { stale_us, .. } if stale_us > 0 => Verdict::ServedStale,
            Response::Status { .. } | Response::FidIs(_) | Response::Volumes(_) => Verdict::Served,
            other => panic!("unexpected answer {other:?}"),
        };
        (verdict, delta)
    }

    #[test]
    fn admit_table() {
        use CallClass::{Normal, Revocation};
        use Verdict::*;
        let (_clock, net, s1, s2) = pair();
        let admin = |to: u32, req: Request| assert_eq!(send(&net, to, Normal, req), Response::Ok);
        // Volume states, all probed at server 1 unless noted:
        //   1 serving · 3 blackout · 7 moved away to server 2 (route note)
        //   8 staged (server 2 owns it) · 9 unknown here, VLDB says server 2
        //   99 unknown to everyone · 4 a replica *at server 2* of server 1's
        for (to, volume) in [(1, 3), (1, 4), (1, 7), (2, 8), (2, 9)] {
            admin(to, Request::VolCreate { volume: VolumeId(volume), name: format!("v{volume}") });
        }
        admin(1, Request::VolMove { volume: VolumeId(7), target: ServerId(2) });
        let dump_8 = Request::VolDump { volume: VolumeId(8), since_version: 0 };
        let dump = match send(&net, 2, Normal, dump_8) {
            Response::Dump(dump) => dump,
            other => panic!("{other:?}"),
        };
        admin(1, Request::VolRestore { dump, read_only: false });
        let (volume, source) = (VolumeId(4), ServerId(1));
        admin(2, Request::ReplAdd { volume, source, max_staleness_us: 1 << 40 });
        // Learn each volume's root fid from whoever serves it, then
        // black volume 3 out.
        let root = |volume: u64| root_of(&net, if volume >= 7 { 2 } else { 1 }, volume);
        let roots: HashMap<u64, Fid> = [1, 3, 4, 7, 8, 9].map(|v| (v, root(v))).into();
        s1.volumes.begin_blackout(VolumeId(3)).unwrap();

        let file = |volume: u64| Request::FetchStatus {
            fid: roots.get(&volume).copied().unwrap_or(Fid::new(VolumeId(volume), VnodeId(1), 1)),
            want: None,
        };
        let one_shot = |volume: u64| Request::GetRoot { volume: VolumeId(volume) };
        const SERVED: [u64; 5] = [1, 0, 0, 0, 1];
        const BOUNCED: [u64; 5] = [0, 1, 0, 0, 0];
        const REDIRECTED: [u64; 5] = [0, 0, 0, 1, 0];
        // (server, volume, class, file call → verdict and stats delta,
        //  token-free one-shot → verdict and stats delta)
        type Row = (u32, u64, CallClass, Verdict, [u64; 5], Verdict, [u64; 5]);
        let rows: &[Row] = &[
            (1, 1, Normal, Served, SERVED, Served, SERVED),
            (1, 1, Revocation, Served, SERVED, Served, SERVED),
            (1, 3, Normal, Busy, BOUNCED, Busy, BOUNCED),
            (1, 3, Revocation, Served, SERVED, Served, SERVED),
            (1, 7, Normal, Wrong(2), REDIRECTED, Wrong(2), REDIRECTED),
            (1, 7, Revocation, Wrong(2), REDIRECTED, Wrong(2), REDIRECTED),
            (1, 8, Normal, Wrong(2), REDIRECTED, Wrong(2), REDIRECTED),
            (1, 8, Revocation, Wrong(2), REDIRECTED, Wrong(2), REDIRECTED),
            (1, 9, Normal, Wrong(2), REDIRECTED, Wrong(2), REDIRECTED),
            (1, 9, Revocation, Wrong(2), REDIRECTED, Wrong(2), REDIRECTED),
            (1, 99, Normal, NoVolume, [0; 5], NoVolume, [0; 5]),
            (1, 99, Revocation, NoVolume, [0; 5], NoVolume, [0; 5]),
            (2, 4, Normal, ServedStale, SERVED, Served, SERVED),
            (2, 4, Revocation, ServedStale, SERVED, Served, SERVED),
        ];
        let check = |grace: bool| {
            for (server, volume, class, on_file, file_delta, on_one_shot, one_shot_delta) in rows {
                let srv = if *server == 1 { &s1 } else { &s2 };
                // The grace window (server 1's) shuts out normal-class
                // calls to hosted volumes — before the blackout is even
                // looked at — and nothing else.
                let gated = grace && *class == Normal && matches!(*volume, 1 | 3);
                for (req, verdict, delta) in [
                    (file(*volume), on_file, file_delta),
                    (one_shot(*volume), on_one_shot, one_shot_delta),
                ] {
                    let expect =
                        if gated { (Grace, [0, 0, 1, 0, 0]) } else { (verdict.clone(), *delta) };
                    let got = probe(&net, srv, *class, VolumeId(*volume), req);
                    assert_eq!(got, expect, "volume {volume} {class:?} (grace: {grace})");
                }
                // Admin traffic is never routed or gated.
                let got = probe(&net, srv, *class, VolumeId(*volume), Request::VolList);
                assert_eq!(got, (Served, [1, 0, 0, 0, 0]), "volume {volume} {class:?} admin");
            }
        };
        check(false);

        // Open a grace window on server 1 that client 7 is not part of.
        let now = net.clock().now();
        {
            let mut table = s1.hosts.lock();
            let expected = Host { last_seen: now, expected: true, checked_in: false };
            table.hosts.insert(HostId::Client(ClientId(50)), expected);
            table.grace_until = Some(Timestamp(now.0 + (1 << 40)));
        }
        check(true);
    }
}
