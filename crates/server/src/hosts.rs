//! The host model (§3.2) and the remote-client token-host proxy.
//!
//! The host model "maintains structures describing authenticated
//! individuals that have made RPC's to it, and the client managers from
//! which the RPC's originated". Here it is the file server's one host
//! table: every host registered with the token manager, when it was
//! last heard from, and the post-restart grace window — who is expected
//! back and who has checked in (Lustre-style recovery).

use dfs_journal::HostLogReplay;
use dfs_rpc::{Addr, CallClass, Network, Request, Response};
use dfs_token::{RevokeItem, RevokeResult, Token, TokenHost, TokenTypes};
use dfs_types::{ClientId, HostId, SerializationStamp, ServerId, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

/// Client lease: a client silent for longer is presumed dead
/// (simulated time, §3.2 — production DFS ties this to the token
/// lifetime the server hands out). A dead client does not pin a grace
/// window.
pub const DEFAULT_LEASE_US: u64 = 60_000_000;

/// True if a host last heard from at `last_seen` is inside its lease at
/// `now`.
fn in_lease(last_seen: Timestamp, now: Timestamp) -> bool {
    now.0.saturating_sub(last_seen.0) <= DEFAULT_LEASE_US
}

/// One host in the server's table.
#[derive(Clone, Copy, Debug, Default)]
pub struct Host {
    /// Last time we heard from the host.
    pub last_seen: Timestamp,
    /// The previous instance journaled it as a token holder and it was
    /// inside its lease at restart: the grace window waits for it.
    pub expected: bool,
    /// It reestablished its tokens under this instance.
    pub checked_in: bool,
}

/// The file server's host table: one map plus the grace deadline, kept
/// by the server under one lock. A host is in the map exactly when it
/// is registered with the token manager.
#[derive(Default)]
pub struct HostModel {
    pub(crate) hosts: HashMap<HostId, Host>,
    /// Deadline of the post-restart grace window; `None` once it has
    /// closed, and for a freshly started server.
    pub(crate) grace_until: Option<Timestamp>,
}

impl HostModel {
    /// The table a restarted instance starts with: every client in the
    /// host-log replay at its journaled last-seen time, expected back if
    /// it was journaled as a holder and is still inside its lease, and
    /// a grace window `grace_us` long.
    pub fn restarted(replay: &HostLogReplay, now: Timestamp, grace_us: u64) -> HostModel {
        let hosts = replay
            .hosts
            .iter()
            .map(|(&c, &(seen, holding))| {
                let last_seen = Timestamp(seen);
                let expected = holding && in_lease(last_seen, now);
                (HostId::Client(ClientId(c)), Host { last_seen, expected, checked_in: false })
            })
            .collect();
        HostModel { hosts, grace_until: Some(Timestamp(now.0 + grace_us)) }
    }

    /// True while the grace window is open. It closes for good at its
    /// deadline or once every expected host still inside its lease has
    /// checked in — a dead client does not pin it.
    pub fn in_grace(&mut self, now: Timestamp) -> bool {
        let Some(until) = self.grace_until else { return false };
        let all_in = self
            .hosts
            .values()
            .all(|h| !h.expected || h.checked_in || !in_lease(h.last_seen, now));
        if now >= until || all_in {
            self.grace_until = None;
            return false;
        }
        true
    }

    /// True if the grace window shuts out `host`'s file work: it is open
    /// and `host` has not checked in.
    pub fn gates(&mut self, host: HostId, now: Timestamp) -> bool {
        self.in_grace(now) && !self.hosts.get(&host).is_some_and(|h| h.checked_in)
    }

    /// True if the grace window waits for `host`.
    pub fn expected(&self, host: HostId) -> bool {
        self.hosts.get(&host).is_some_and(|h| h.expected)
    }

    /// Checks an expected `host` in; the last one in closes the window.
    pub fn check_in(&mut self, host: HostId, now: Timestamp) {
        if let Some(h) = self.hosts.get_mut(&host).filter(|h| h.expected) {
            h.checked_in = true;
        }
        self.in_grace(now);
    }

    /// The cache managers in the table, in id order.
    pub fn clients(&self) -> Vec<ClientId> {
        let mut clients: Vec<ClientId> = self
            .hosts
            .keys()
            .filter_map(|h| match h {
                HostId::Client(c) => Some(*c),
                _ => None,
            })
            .collect();
        clients.sort();
        clients
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
}

impl RemoteHost {
    /// Creates the proxy for `host`, a cache manager or a replication
    /// server (§3.8); the server-local host is the glue layer's.
    pub fn new(net: Network, server_addr: Addr, host: HostId) -> Arc<RemoteHost> {
        let peer = match host {
            HostId::Client(c) => Addr::Client(c),
            HostId::Replicator(s) => Addr::Server(ServerId(s)),
            HostId::Local(_) => unreachable!("the local host is the glue layer's"),
        };
        Arc::new(RemoteHost { net, server_addr, peer, host_id: host })
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
        // One answer per token, in order. A missing one — an unreachable
        // peer, or a short batch ack — counts as returned: the retry
        // round re-revokes any token that actually survives.
        let returned = match resp {
            Ok(Response::RevokeVecAck { returned }) => returned,
            _ => Vec::new(),
        };
        (0..items.len())
            .map(|i| match returned.get(i) {
                Some(false) => RevokeResult::Retained,
                _ => RevokeResult::Returned,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A replay of `(client, last_seen, holding)` facts.
    fn replay(hosts: &[(u32, u64, bool)]) -> HostLogReplay {
        let hosts = hosts.iter().map(|&(c, seen, holding)| (c, (seen, holding))).collect();
        HostLogReplay { hosts, ..HostLogReplay::default() }
    }

    #[test]
    fn restarted_grace_waits_only_for_expected_holders_inside_their_lease() {
        let now = DEFAULT_LEASE_US + 1_000;
        // 1 a holder · 2 held nothing · 3 a holder whose lease ran out
        // before the restart · 4 a holder whose lease runs out 100 µs in.
        let journaled = replay(&[
            (1, now - 10, true),
            (2, now - 10, false),
            (3, 999, true),
            (4, now - DEFAULT_LEASE_US + 100, true),
        ]);
        let m = &mut HostModel::restarted(&journaled, Timestamp(now), 1 << 40);
        let client = |c| HostId::Client(ClientId(c));
        assert_eq!(m.clients(), [1, 2, 3, 4].map(ClientId));
        assert_eq!([1, 2, 3, 4].map(|c| m.expected(client(c))), [true, false, false, true]);
        // Everyone not checked in is shut out, expected or not.
        assert!(m.gates(client(2), Timestamp(now)));
        m.check_in(client(2), Timestamp(now));
        assert!(m.gates(client(2), Timestamp(now)), "only an expected host checks in");
        m.check_in(client(1), Timestamp(now));
        assert!(!m.gates(client(1), Timestamp(now)), "a checked-in host passes");
        assert!(m.in_grace(Timestamp(now)), "client 4 is still inside its lease");
        assert!(!m.in_grace(Timestamp(now + 101)), "client 4's lease ran out: grace closes");
        assert!(!m.gates(client(2), Timestamp(now + 101)));
    }

    #[test]
    fn restarted_grace_closes_at_its_deadline() {
        let m = &mut HostModel::restarted(&replay(&[(1, 500, true)]), Timestamp(1_000), 2_000);
        assert!(m.in_grace(Timestamp(2_999)), "the expected host never came back");
        assert!(!m.in_grace(Timestamp(3_000)));
        assert!(!m.in_grace(Timestamp(1_000)), "a closed window stays closed");
        assert!(!HostModel::default().in_grace(Timestamp(0)), "a fresh server has no grace");
    }

    use dfs_rpc::{CallContext, PoolConfig, RpcService};
    use dfs_token::TokenId;
    use dfs_types::{ByteRange, Fid, SimClock, VnodeId, VolumeId};
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

    fn remote_host_with_peer(acks: Vec<bool>) -> (Arc<RemoteHost>, Arc<ScriptedPeer>) {
        let net = Network::new(SimClock::new(), 0);
        let peer = Arc::new(ScriptedPeer { acks, seen: Mutex::new(Vec::new()) });
        net.register(Addr::Client(ClientId(1)), peer.clone(), PoolConfig::default());
        let host = RemoteHost::new(net, Addr::Server(ServerId(1)), HostId::Client(ClientId(1)));
        (host, peer)
    }

    #[test]
    fn batched_revoke_acks_every_token_exactly_once_mixed() {
        let (host, peer) = remote_host_with_peer(vec![true, false, true]);
        let results = host.revoke_batch(&batch_items(3));
        assert_eq!(
            results,
            vec![RevokeResult::Returned, RevokeResult::Retained, RevokeResult::Returned],
            "per-token answers preserved in order"
        );
        assert_eq!(*peer.seen.lock(), vec![3], "one RPC carried the whole batch");
    }

    #[test]
    fn short_ack_counts_tail_as_sent_but_unacked() {
        let (host, peer) = remote_host_with_peer(vec![true]);
        let results = host.revoke_batch(&batch_items(3));
        assert_eq!(results, vec![RevokeResult::Returned; 3], "missing answers treated as returned");
        assert_eq!(*peer.seen.lock(), vec![3], "one RPC carried the whole batch");
    }

    #[test]
    fn single_item_batch_goes_out_as_one_revoke_vec() {
        let (host, peer) = remote_host_with_peer(vec![false]);
        let item = &batch_items(1)[0];
        assert_eq!(host.revoke(&item.token, item.types, item.stamp), RevokeResult::Retained);
        assert_eq!(*peer.seen.lock(), vec![1], "one RevokeVec carrying one item");
    }
}
