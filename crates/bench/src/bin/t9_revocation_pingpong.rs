//! T9 — §5.5: the write/read handoff between two clients, counting the
//! RPCs per handoff and verifying single-system semantics: a write is
//! visible to the other client as soon as the write call returns.
//!
//! `--clients A,B,...` adds a token hot-path sweep, now a scenario
//! definition over [`dfs_bench::scenario`]: N clients share one file
//! under a read-dominated mix with periodic writes, so every write
//! storms the token manager with revocations while the reads between
//! storms are token hits in the client's cache. The shared driver
//! owns the threads, seeding, and the cross-client agreement check;
//! this binary keeps only the two-client handoff microbench (which
//! needs per-handoff RPC accounting no aggregate driver provides).

use dfs_bench::emit::Obj;
use dfs_bench::scenario::{ClassSpec, OpClass, Phase, RunReport, Scenario, Topology, Witness};
use dfs_bench::Args;
use dfs_types::VolumeId;
use decorum_dfs::Cell;

/// The two-client handoff: the report's top-level fields, up to the
/// sweep.
fn pingpong() -> Obj {
    let cell = Cell::builder().servers(1).build().unwrap();
    cell.create_volume(0, VolumeId(1), "v").unwrap();
    let a = cell.new_client();
    let b = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "pingpong", 0o666).unwrap();
    a.write(f.fid, 0, &0u64.to_le_bytes()).unwrap();

    const HANDOFFS: u64 = 100;
    let before = cell.net().stats();
    let mut violations = 0u64;
    // The first stale reads: reader, fid, the tag written, the tag seen.
    let mut witnesses = Vec::new();
    for i in 1..=HANDOFFS {
        let (writer, reader) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
        writer.write(f.fid, 0, &i.to_le_bytes()).unwrap();
        let seen = reader.read(f.fid, 0, 8).unwrap();
        if seen != i.to_le_bytes() {
            violations += 1;
            Witness::note(&mut witnesses, reader.id().0, "read", f.fid, i, Some(&seen));
        }
    }
    let d = cell.net().stats().since(&before);
    let mut labels: Vec<_> = d.by_label.iter().collect();
    labels.sort();
    let sim_net_ms = d.latency_us as f64 / 1000.0;
    Obj::new()
        .field("bench", "t9_revocation_pingpong")
        .field("handoffs", HANDOFFS)
        .field("rpcs", d.calls)
        .field("rpcs_per_handoff", d.calls as f64 / HANDOFFS as f64)
        .field("sim_net_ms", sim_net_ms)
        .field("net_us_per_handoff", sim_net_ms * 1000.0 / HANDOFFS as f64)
        .field("stale_reads", violations)
        .field("witnesses", Witness::list(&witnesses))
        .field("bytes", d.bytes)
        .field("rpcs_by_label", labels.into_iter().fold(Obj::new(), |o, (l, &c)| o.field(l, c)))
}

/// N clients on one shared file: read-dominated with a write roughly
/// every 64th draw, so token grants, revocation storms, and
/// snapshot-path reads all land on the hot path under real thread
/// contention. The Read class pulls half its draws from the shared
/// write set, so readers keep colliding with the writers' tokens.
fn hotpath(clients: u32, ops_per_client: u64) -> RunReport {
    Scenario::new(
        "t9_hotpath",
        9,
        Topology::new(1, clients, 1).latency_us(20),
        vec![Phase::new(
            "hot",
            ops_per_client,
            vec![
                ClassSpec::new(OpClass::Write, 1, 1).sharing(clients).fsync_every(16),
                ClassSpec::new(OpClass::Read, 63, 1).sharing(clients),
            ],
        )],
    )
    .run()
}

fn main() {
    let args = Args::parse(&["--ops", "--clients"]);
    let (ops, clients) = (args.get("--ops", 400u64), args.list("--clients", vec![2u32, 8]));
    let report = pingpong();
    let sweep = clients.iter().map(|&n| {
        let r = hotpath(n, ops);
        Obj::new()
            .field("clients", r.clients)
            .field("total_ops", r.total_ops)
            .field("rpcs", r.net_calls)
            .field("sim_net_ms", r.net_latency_us as f64 / 1000.0)
            .field("ops_per_sim_net_s", r.total_ops as f64 * 1e6 / r.net_latency_us.max(1) as f64)
            .field("local_reads", r.client_stats.local_reads)
            .field("revocations", r.client_stats.revocations)
            .field("ok", r.clean())
            .field("witnesses", Witness::list(&r.witnesses))
    });
    args.print(
        "T9: token revocation ping-pong (two clients alternating writes), then\n    \
         the token hot-path sweep (shared file, read-dominated, write every ~64th op)",
        "Expected shape (paper §5.5, §6.1): a constant small number of RPCs\n\
         per handoff and zero stale reads; in the sweep, throughput should\n\
         scale with clients while reads between revocation storms are served\n\
         from the client's cache under its tokens, with no RPC.",
        report.field_arr("sweep", sweep),
    );
}
