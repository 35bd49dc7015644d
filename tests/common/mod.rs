//! Shared setup for the integration suites: the cell/client
//! boilerplate every `tests/*.rs` file used to hand-roll. Each suite
//! pulls this in with `mod common;` and uses the subset it needs.

#![allow(dead_code)] // each suite uses a different subset

use std::sync::Arc;
use std::thread::JoinHandle;

use decorum_dfs::client::{CacheManager, WritebackConfig};
use decorum_dfs::rpc::{Addr, FaultAction, FaultRule, FaultSchedule};
use decorum_dfs::types::{Fid, VolumeId};
use decorum_dfs::Cell;

/// The volume every helper provisions: id 1, name "v", on slot 0.
pub const VOL: VolumeId = VolumeId(1);

/// An `n`-server cell with [`VOL`] created on server 0.
pub fn cell(n: u32) -> Cell {
    let cell = Cell::builder().servers(n).build().unwrap();
    cell.create_volume(0, VOL, "v").unwrap();
    cell
}

/// A single-server cell with [`VOL`] — the most common fixture.
pub fn one_server_cell() -> Cell {
    cell(1)
}

/// A client with the background flusher disabled, so every store-back
/// happens exactly where the test triggers it — the deterministic
/// choice for fault schedules and dirty-page scenarios.
pub fn no_flush_client(cell: &Cell) -> Arc<CacheManager> {
    cell.new_client_writeback(WritebackConfig { flusher: false, ..Default::default() })
}

/// Creates `name` under [`VOL`]'s root, writes `data` at offset 0, and
/// fsyncs it to durability. Returns the new file's fid.
pub fn durable_file(client: &CacheManager, name: &str, data: &[u8]) -> Fid {
    let root = client.root(VOL).unwrap();
    let f = client.create(root, name, 0o644).unwrap();
    client.write(f.fid, 0, data).unwrap();
    client.fsync(f.fid).unwrap();
    f.fid
}

/// How long the fault plane holds a delayed store. Everything a test
/// does "while the store is in flight" takes well under this; a test
/// that ran slower than this would still pass, having raced nothing.
const IN_FLIGHT_US: u64 = 150_000;

/// Delays `a`'s next `StoreDataVec` in flight and, once the fault plane has
/// it, returns: the caller now runs beside a store that has taken its
/// snapshot, holds its vnode's store slot, and has not reached the
/// server. `send` is what sends it, on a helper thread.
pub fn in_flight<T: Send + 'static>(
    cell: &Cell,
    a: &Arc<CacheManager>,
    send: impl FnOnce(Arc<CacheManager>) -> T + Send + 'static,
) -> JoinHandle<T> {
    let delay = FaultRule::on(FaultAction::Delay(IN_FLIGHT_US))
        .from(Addr::Client(a.id()))
        .label("StoreDataVec")
        .limit(1);
    cell.net().set_fault_schedule(FaultSchedule::seeded(1).rule(delay));
    let a = a.clone();
    let sender = std::thread::spawn(move || send(a));
    while cell.net().faults_injected() == 0 {
        std::thread::yield_now();
    }
    sender
}

/// A flusher pass by `a` — the daemon as an actor the test drives —
/// delayed in flight.
pub fn delayed_flush_pass(cell: &Cell, a: &Arc<CacheManager>) -> JoinHandle<()> {
    in_flight(cell, a, |a| a.flush_pass().unwrap())
}

/// Threads of this process, from the kernel's own count (Linux).
pub fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}
