//! Direct probes: one layer's public entry point called in a tight
//! loop, outside any workload. They price the steps a workload's
//! latency is made of (an RPC hop, a token grant, a journal commit).

use crate::hist::Hist;
use crate::world::CLIENT_POOL;
use dfs_disk::{DiskConfig, SimDisk};
use dfs_journal::{Journal, LogRegion};
use dfs_rpc::{Addr, CallClass, CallContext, Network, Request, Response, RpcService};
use dfs_token::{RevokeResult, Token, TokenHost, TokenManager, TokenTypes};
use dfs_types::{
    ByteRange, ClientId, DfsResult, Fid, HostId, SerializationStamp, ServerId, SimClock, VnodeId,
    VolumeId,
};
use std::sync::Arc;
use std::time::Instant;

/// Median latencies, in µs.
#[derive(Clone, Copy, Default)]
pub struct Probes {
    pub rpc_call_1t: f64,
    pub rpc_call_2t: f64,
    pub token_grant_release: f64,
    pub token_conflict_grant: f64,
    pub journal_commit: f64,
}

fn p50_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut h = Hist::new();
    for i in 0..n + n / 10 {
        let t0 = Instant::now();
        f();
        // The first tenth warms caches and lazily-built state.
        if i >= n / 10 {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }
    h.p50_us()
}

struct Echo;

impl RpcService for Echo {
    fn dispatch(&self, _ctx: CallContext, _req: Request) -> Response {
        Response::Ok
    }
}

/// `Network::call` to a trivial service bound with the client pool
/// configuration, from `callers` threads at once; the median over all
/// callers.
fn rpc_call(callers: u32, calls: usize) -> f64 {
    let net = Network::new(SimClock::new(), 500);
    let to = Addr::Server(ServerId(1));
    net.register(to, Arc::new(Echo), CLIENT_POOL);
    let medians: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=callers)
            .map(|c| {
                let net = &net;
                s.spawn(move || {
                    let from = Addr::Client(ClientId(c));
                    p50_us(calls, || {
                        let r = net.call(from, to, None, CallClass::Normal, Request::Ping);
                        assert_eq!(r, Ok(Response::Ok));
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
    });
    net.unregister(to);
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// A token host that gives back whatever it is asked for.
struct Yielding(HostId);

impl TokenHost for Yielding {
    fn host_id(&self) -> HostId {
        self.0
    }

    fn revoke(&self, _: &Token, _: TokenTypes, _: SerializationStamp) -> RevokeResult {
        RevokeResult::Returned
    }
}

/// `TokenManager::grant` + `release` with no other holder, and `grant`
/// alone when one other host holds a conflicting token.
fn token_grants(n: usize) -> DfsResult<(f64, f64)> {
    let tm = TokenManager::new();
    let hosts = [HostId::Client(ClientId(1)), HostId::Client(ClientId(2))];
    for h in hosts {
        tm.register_host(Arc::new(Yielding(h)));
    }
    let fid = Fid::new(VolumeId(1), VnodeId(7), 1);
    let write = TokenTypes(TokenTypes::DATA_WRITE.0 | TokenTypes::STATUS_WRITE.0);
    let mut err = None;
    let quiet = p50_us(n, || match tm.grant(hosts[0], fid, write, ByteRange::WHOLE) {
        Ok((token, _)) => tm.release(hosts[0], token.id),
        Err(e) => err = Some(e),
    });
    let mut turn = 0;
    let conflict = p50_us(n, || {
        turn ^= 1;
        if let Err(e) = tm.grant(hosts[turn], fid, write, ByteRange::WHOLE) {
            err = Some(e);
        }
    });
    err.map_or(Ok((quiet, conflict)), Err)
}

/// `begin` + `update` (64 bytes) + `commit` + `sync` on a journal of
/// the cell's log size.
fn journal_commit(n: usize) -> DfsResult<f64> {
    let disk = SimDisk::new(DiskConfig::with_blocks(4096));
    let jn = Journal::format(disk, LogRegion { first_block: 1, blocks: 256 })?;
    let buf = jn.get(1024)?;
    let mut err = None;
    let mut v = 0u8;
    let p50 = p50_us(n, || {
        v = v.wrapping_add(1);
        let txn = jn.begin();
        let r = jn
            .update(txn, &buf, 0, &[v; 64])
            .and_then(|()| jn.commit(txn))
            .and_then(|()| jn.sync());
        if let Err(e) = r {
            err = Some(e);
        }
    });
    err.map_or(Ok(p50), Err)
}

pub fn run() -> DfsResult<Probes> {
    let (token_grant_release, token_conflict_grant) = token_grants(20_000)?;
    Ok(Probes {
        rpc_call_1t: rpc_call(1, 10_000),
        rpc_call_2t: rpc_call(2, 10_000),
        token_grant_release,
        token_conflict_grant,
        journal_commit: journal_commit(5_000)?,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn probes_run_and_are_positive() {
        let (q, c) = super::token_grants(200).unwrap();
        assert!(q > 0.0 && c > 0.0);
        assert!(super::rpc_call(2, 200) > 0.0);
        assert!(super::journal_commit(200).unwrap() > 0.0);
    }
}
