//! T6 — §3.8: lazy replication keeps a replica "out of date by no more
//! than a fixed amount of time"; replica readers always see consistent
//! snapshots and never see data regress.

use dfs_bench::emit::Obj;
use dfs_types::VolumeId;
use decorum_dfs::Cell;

fn run(bound_secs: u64) -> (f64, u64, bool) {
    let cell = Cell::builder().servers(2).build().unwrap();
    cell.create_volume(0, VolumeId(1), "src").unwrap();
    let writer = cell.new_client();
    let root = writer.root(VolumeId(1)).unwrap();
    let f = writer.create(root, "counter", 0o666).unwrap();
    writer.write(f.fid, 0, &0u64.to_le_bytes()).unwrap();
    writer.fsync(f.fid).unwrap();
    cell.replicate_volume(0, 1, VolumeId(1), bound_secs * 1_000_000).unwrap();

    // The replica reader hits server 2 directly.
    use dfs_rpc::{Addr, CallClass, Request, Response};
    let read_replica = || -> u64 {
        match cell
            .net()
            .call(
                Addr::Client(dfs_types::ClientId(99)),
                Addr::Server(cell.server(1).id()),
                None,
                CallClass::Normal,
                Request::FetchData { fid: f.fid, offset: 0, len: 8, want: None },
            )
            .unwrap()
        {
            Response::Data { bytes, .. } => u64::from_le_bytes(bytes.try_into().unwrap()),
            other => panic!("replica read failed: {other:?}"),
        }
    };

    // Master writes once per simulated second; the replication daemon
    // ticks every second; track worst observed staleness and monotonicity.
    let mut max_staleness = 0u64;
    let mut last_seen = 0u64;
    let mut monotone = true;
    let mut refreshes = 0u64;
    // Fixed 20-minute run so refresh counts are comparable across bounds.
    for second in 1..=1200u64 {
        writer.write(f.fid, 0, &second.to_le_bytes()).unwrap();
        writer.fsync(f.fid).unwrap();
        cell.clock().advance_secs(1);
        cell.replication_tick(1).unwrap();
        let seen = read_replica();
        if seen < last_seen {
            monotone = false;
        }
        last_seen = seen;
        max_staleness = max_staleness.max(second - seen);
    }
    refreshes += cell.server(1).stats().replica_refreshes;
    (max_staleness as f64, refreshes, monotone)
}

fn main() {
    let args = dfs_bench::Args::parse(&[]);
    let sweep = [2u64, 10, 60, 600].map(|bound| {
        let (stale, refreshes, monotone) = run(bound);
        Obj::new()
            .field("bound_s", bound)
            .field("max_staleness_s", stale)
            .field("refreshes", refreshes)
            .field("monotone", monotone)
            .field("within_bound", stale <= bound as f64)
    });
    args.print(
        "T6: lazy replication staleness (writer @1/s; replication tick @1/s)",
        "Expected shape (paper): observed staleness stays at or under the\n\
         configured bound; replicas never regress; tighter bounds cost more\n\
         refreshes (and §3.8 warns bounds under ~10 minutes are expensive).",
        Obj::new().field("bench", "t6_lazy_replication").field_arr("sweep", sweep),
    );
}
