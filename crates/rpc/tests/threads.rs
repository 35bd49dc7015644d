//! The RPC plane owns no thread: a node is a table entry, and a call
//! runs the callee on the caller. This file holds one test so that it
//! has a process — and a thread count — to itself.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use dfs_rpc::{Addr, CallClass, CallContext, Network, PoolConfig, Request, Response, RpcService};
use dfs_types::{ClientId, ServerId, SimClock};

struct Echo;
impl RpcService for Echo {
    fn dispatch(&self, _ctx: CallContext, _req: Request) -> Response {
        Response::Ok
    }
}

/// Threads of this process, from the kernel's own count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn register_and_call_spawn_no_thread() {
    let net = Network::new(SimClock::new(), 0);
    let before = threads();
    for n in 0..32 {
        let cfg = PoolConfig { workers: 4, revocation_workers: n as usize % 3, require_auth: false };
        net.register(Addr::Server(ServerId(n)), Arc::new(Echo), cfg);
    }
    assert_eq!(threads(), before, "register started a thread");
    for n in 0..32 {
        for class in [CallClass::Normal, CallClass::Revocation] {
            let r = net.call(Addr::Client(ClientId(1)), Addr::Server(ServerId(n)), None, class, Request::Ping);
            assert_eq!(r.unwrap(), Response::Ok);
        }
    }
    assert_eq!(threads(), before, "a call started a thread");
    net.set_crashed(Addr::Server(ServerId(0)), true);
    net.unregister(Addr::Server(ServerId(1)));
    net.shutdown();
    assert_eq!(threads(), before);
}
