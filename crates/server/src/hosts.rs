//! The host model (§3.2) and the remote-client token-host proxy.
//!
//! The host model "maintains structures describing authenticated
//! individuals that have made RPC's to it, and the client managers from
//! which the RPC's originated" — including whether revocation messages
//! have all been delivered.

use dfs_rpc::{Addr, CallClass, Network, Request, Response};
use dfs_token::{RevokeItem, RevokeResult, Token, TokenHost, TokenTypes};
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{ClientId, HostId, SerializationStamp, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-client state kept by a file server.
#[derive(Clone, Debug, Default)]
pub struct HostRecord {
    /// Last authenticated principal seen from this client.
    pub principal: Option<u32>,
    /// RPCs received from this client.
    pub calls: u64,
    /// Revocations sent to this client.
    pub revocations_sent: u64,
    /// Revocations acknowledged.
    pub revocations_acked: u64,
    /// Last time we heard from the client.
    pub last_seen: Timestamp,
}

/// Default client lease: a client silent for longer is presumed dead
/// (simulated time, §3.2 — production DFS ties this to the token
/// lifetime the server hands out).
pub const DEFAULT_LEASE_US: u64 = 60_000_000;

/// The server's registry of known clients: one map under one lock, so
/// a registry-wide query (lease scan, snapshot) is one consistent read.
pub struct HostModel {
    records: OrderedMutex<HashMap<ClientId, HostRecord>, { rank::HOST_RECORDS }>,
    /// A client whose `last_seen` is older than this is lease-expired:
    /// it no longer blocks revocation quiescence or pins a post-restart
    /// grace window.
    lease_us: u64,
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel::new()
    }
}

impl HostModel {
    /// Creates an empty host model with the default lease.
    pub fn new() -> HostModel {
        HostModel::with_lease(DEFAULT_LEASE_US)
    }

    /// Creates an empty host model with an explicit lease (µs of
    /// simulated time).
    pub fn with_lease(lease_us: u64) -> HostModel {
        HostModel { records: OrderedMutex::new(HashMap::new()), lease_us }
    }

    /// True if `r` was heard from within the lease before `now`.
    fn in_lease(&self, r: &HostRecord, now: Timestamp) -> bool {
        now.0.saturating_sub(r.last_seen.0) <= self.lease_us
    }

    /// The configured lease in microseconds.
    pub fn lease_us(&self) -> u64 {
        self.lease_us
    }

    /// True if `client` is known and inside its lease at `now`.
    pub fn lease_live(&self, client: ClientId, now: Timestamp) -> bool {
        self.records.lock().get(&client).is_some_and(|r| self.in_lease(r, now))
    }

    /// Known clients still inside their lease at `now`.
    pub fn live_clients(&self, now: Timestamp) -> Vec<ClientId> {
        let recs = self.records.lock();
        recs.iter().filter(|(_, r)| self.in_lease(r, now)).map(|(c, _)| *c).collect()
    }

    /// True if every revocation sent to every *lease-live* client was
    /// acknowledged. A crashed client with outstanding revocations
    /// blocks this only until its lease runs out.
    pub fn revocations_all_acked(&self, now: Timestamp) -> bool {
        let recs = self.records.lock();
        recs.values().all(|r| r.revocations_sent == r.revocations_acked || !self.in_lease(r, now))
    }

    /// Snapshot of every known client and when it was last heard from —
    /// the handoff a restarting server uses as its expected-host set
    /// (standing in for a durably-stored host table).
    pub fn snapshot(&self) -> Vec<(ClientId, Timestamp)> {
        self.records.lock().iter().map(|(c, r)| (*c, r.last_seen)).collect()
    }

    /// Seeds a record without counting a call — used by a restarting
    /// server to carry the previous instance's last-seen times forward
    /// so lease expiry applies to hosts that never reconnect.
    pub fn seed(&self, client: ClientId, last_seen: Timestamp) {
        let mut recs = self.records.lock();
        let r = recs.entry(client).or_default();
        if last_seen > r.last_seen {
            r.last_seen = last_seen;
        }
    }

    /// Notes an incoming call from `client`.
    pub fn saw_call(&self, client: ClientId, principal: Option<u32>, now: Timestamp) {
        let mut recs = self.records.lock();
        let r = recs.entry(client).or_default();
        r.calls += 1;
        if principal.is_some() {
            r.principal = principal;
        }
        r.last_seen = now;
    }

    /// Notes a revocation sent to / acknowledged by `client`.
    pub fn saw_revocation(&self, client: ClientId, acked: bool) {
        let mut recs = self.records.lock();
        let r = recs.entry(client).or_default();
        r.revocations_sent += 1;
        if acked {
            r.revocations_acked += 1;
        }
    }

    /// Returns true if every revocation sent to `client` was delivered.
    pub fn revocations_quiesced(&self, client: ClientId) -> bool {
        let recs = self.records.lock();
        recs.get(&client).is_none_or(|r| r.revocations_sent == r.revocations_acked)
    }

    /// Returns a snapshot of one client's record.
    pub fn record(&self, client: ClientId) -> Option<HostRecord> {
        self.records.lock().get(&client).cloned()
    }

    /// Lists all known clients.
    pub fn clients(&self) -> Vec<ClientId> {
        self.records.lock().keys().copied().collect()
    }
}

/// Token-manager host proxy for a remote token holder — a cache manager
/// or a replication server on another file server. Revocations become
/// server→peer RPCs (§5.3).
pub struct RemoteHost {
    net: Network,
    server_addr: Addr,
    peer: Addr,
    host_id: HostId,
    model: Arc<HostModel>,
}

impl RemoteHost {
    /// Creates the proxy for cache manager `client`.
    pub fn client(
        net: Network,
        server_addr: Addr,
        client: ClientId,
        model: Arc<HostModel>,
    ) -> Arc<RemoteHost> {
        Arc::new(RemoteHost {
            net,
            server_addr,
            peer: Addr::Client(client),
            host_id: HostId::Client(client),
            model,
        })
    }

    /// Creates the proxy for a replication server on `server` (§3.8).
    pub fn replicator(
        net: Network,
        server_addr: Addr,
        server: dfs_types::ServerId,
        model: Arc<HostModel>,
    ) -> Arc<RemoteHost> {
        Arc::new(RemoteHost {
            net,
            server_addr,
            peer: Addr::Server(server),
            host_id: HostId::Replicator(server.0),
            model,
        })
    }

    /// Books one revocation's outcome in the host model and turns it
    /// into the token manager's verdict. `None` — an unreachable peer,
    /// or an entry missing from a short batch ack — counts as sent but
    /// unacknowledged and is treated as returned: the retry round
    /// re-revokes any token that actually survives (a production server
    /// would also mark the client dead).
    fn settle(&self, answer: Option<bool>) -> RevokeResult {
        if let Addr::Client(c) = self.peer {
            self.model.saw_revocation(c, answer.is_some());
        }
        match answer {
            Some(false) => RevokeResult::Retained,
            _ => RevokeResult::Returned,
        }
    }
}

impl TokenHost for RemoteHost {
    fn host_id(&self) -> HostId {
        self.host_id
    }

    fn revoke(
        &self,
        token: &Token,
        types: TokenTypes,
        stamp: SerializationStamp,
    ) -> RevokeResult {
        let item = RevokeItem { token: token.clone(), types, stamp };
        self.revoke_batch(&[item]).pop().expect("one answer per item")
    }

    fn revoke_batch(&self, items: &[RevokeItem]) -> Vec<RevokeResult> {
        // Server→peer revocation RPC; dispatched in the revocation class
        // so a busy peer can always serve it (§6.4).
        let resp = self.net.call(
            self.server_addr,
            self.peer,
            None,
            CallClass::Revocation,
            Request::RevokeVec {
                items: items
                    .iter()
                    .map(|i| (i.token.clone(), i.types, i.stamp))
                    .collect(),
            },
        );
        // Every token in the batch is accounted exactly once, in order.
        let returned = match resp {
            Ok(Response::RevokeVecAck { returned }) => returned,
            _ => Vec::new(),
        };
        (0..items.len()).map(|i| self.settle(returned.get(i).copied())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_model_tracks_calls_and_revocations() {
        let m = HostModel::new();
        let c = ClientId(1);
        m.saw_call(c, Some(42), Timestamp(10));
        m.saw_call(c, None, Timestamp(20));
        let r = m.record(c).unwrap();
        assert_eq!(r.calls, 2);
        assert_eq!(r.principal, Some(42), "principal sticks");
        assert_eq!(r.last_seen, Timestamp(20));

        assert!(m.revocations_quiesced(c));
        m.saw_revocation(c, true);
        assert!(m.revocations_quiesced(c));
        m.saw_revocation(c, false);
        assert!(!m.revocations_quiesced(c));
    }

    #[test]
    fn unknown_client_is_quiesced() {
        let m = HostModel::new();
        assert!(m.revocations_quiesced(ClientId(99)));
        assert!(m.record(ClientId(99)).is_none());
    }

    #[test]
    fn crashed_client_blocks_all_acked_until_lease_expires() {
        let m = HostModel::with_lease(1_000);
        let live = ClientId(1);
        let dead = ClientId(2);
        m.saw_call(live, None, Timestamp(100));
        m.saw_call(dead, None, Timestamp(100));
        // The dead client misses a revocation (sent but never acked).
        m.saw_revocation(dead, false);
        m.saw_revocation(live, true);
        assert!(!m.revocations_all_acked(Timestamp(500)), "any client's unacked revocation blocks");
        // The live client keeps calling; the dead one goes silent. Once
        // its lease runs out it stops pinning quiescence.
        m.saw_call(live, None, Timestamp(1_500));
        assert!(
            m.revocations_all_acked(Timestamp(1_500)),
            "lease expiry must unblock a crashed client"
        );
        assert!(m.lease_live(live, Timestamp(1_500)));
        assert!(!m.lease_live(dead, Timestamp(1_500)));
        assert_eq!(m.live_clients(Timestamp(1_500)), vec![live]);
    }

    #[test]
    fn snapshot_reports_last_seen() {
        let m = HostModel::new();
        m.saw_call(ClientId(3), Some(7), Timestamp(42));
        let snap = m.snapshot();
        assert_eq!(snap, vec![(ClientId(3), Timestamp(42))]);
    }

    use dfs_rpc::{CallContext, PoolConfig, RpcService};
    use dfs_token::TokenId;
    use dfs_types::{ByteRange, Fid, ServerId, SimClock, VnodeId, VolumeId};
    use parking_lot::Mutex;

    /// Peer service answering `RevokeVec` with a scripted ack vector,
    /// recording what arrived.
    struct ScriptedPeer {
        acks: Vec<bool>,
        seen: Mutex<Vec<usize>>,
    }

    impl RpcService for ScriptedPeer {
        fn dispatch(&self, _ctx: CallContext, req: Request) -> Response {
            match req {
                Request::RevokeVec { items } => {
                    self.seen.lock().push(items.len());
                    Response::RevokeVecAck { returned: self.acks.clone() }
                }
                _ => Response::Err(dfs_types::DfsError::InvalidArgument),
            }
        }
    }

    fn batch_items(n: u64) -> Vec<RevokeItem> {
        (1..=n)
            .map(|i| RevokeItem {
                token: Token {
                    id: TokenId(i),
                    fid: Fid::new(VolumeId(1), VnodeId(i as u32), 1),
                    types: TokenTypes::DATA_WRITE,
                    range: ByteRange::WHOLE,
                },
                types: TokenTypes::DATA_WRITE,
                stamp: SerializationStamp(i),
            })
            .collect()
    }

    fn remote_host_with_peer(acks: Vec<bool>) -> (Arc<RemoteHost>, Arc<ScriptedPeer>, Arc<HostModel>) {
        let net = Network::new(SimClock::new(), 0);
        let peer = Arc::new(ScriptedPeer { acks, seen: Mutex::new(Vec::new()) });
        net.register(Addr::Client(ClientId(1)), peer.clone(), PoolConfig::default());
        let model = Arc::new(HostModel::new());
        let host = RemoteHost::client(net, Addr::Server(ServerId(1)), ClientId(1), model.clone());
        (host, peer, model)
    }

    #[test]
    fn batched_revoke_acks_every_token_exactly_once_mixed() {
        let (host, peer, model) = remote_host_with_peer(vec![true, false, true]);
        let results = host.revoke_batch(&batch_items(3));
        assert_eq!(
            results,
            vec![RevokeResult::Returned, RevokeResult::Retained, RevokeResult::Returned],
            "per-token answers preserved in order"
        );
        assert_eq!(*peer.seen.lock(), vec![3], "one RPC carried the whole batch");
        let rec = model.record(ClientId(1)).unwrap();
        assert_eq!(rec.revocations_sent, 3, "each token counted once");
        assert_eq!(rec.revocations_acked, 3);
        assert!(model.revocations_quiesced(ClientId(1)));
    }

    #[test]
    fn short_ack_counts_tail_as_sent_but_unacked() {
        let (host, _peer, model) = remote_host_with_peer(vec![true]);
        let results = host.revoke_batch(&batch_items(3));
        assert_eq!(results, vec![RevokeResult::Returned; 3], "missing answers treated as returned");
        let rec = model.record(ClientId(1)).unwrap();
        assert_eq!(rec.revocations_sent, 3);
        assert_eq!(rec.revocations_acked, 1, "unanswered tokens stay unacked");
        assert!(!model.revocations_quiesced(ClientId(1)));
    }

    #[test]
    fn single_item_batch_goes_out_as_one_revoke_vec() {
        let (host, peer, model) = remote_host_with_peer(vec![false]);
        let item = &batch_items(1)[0];
        assert_eq!(host.revoke(&item.token, item.types, item.stamp), RevokeResult::Retained);
        assert_eq!(*peer.seen.lock(), vec![1], "one RevokeVec carrying one item");
        let rec = model.record(ClientId(1)).unwrap();
        assert_eq!(rec.revocations_sent, 1);
        assert_eq!(rec.revocations_acked, 1);
        assert!(model.revocations_quiesced(ClientId(1)), "a kept token is still an answer");
    }
}
