//! T14 — read availability under a primary outage (§3.8 replica
//! promotion + the fault-injection plane).
//!
//! A volume's primary is partitioned away (a deterministic `Drop` rule
//! on the fault plane — the server is alive, just unreachable), and a
//! fresh reader probes every file. Two modes are compared at each
//! outage age:
//!
//! * **baseline** — no read-only replica: every probe burns its retry
//!   budget and reports honest `Unavailable`;
//! * **replica** — the volume was lazily replicated (§3.8) before the
//!   outage: probes fail over through the VLDB to the replica and are
//!   served *bounded-stale*, each response stamped with its staleness.
//!
//! After the partition heals, the reader reconciles: reads come back
//! primary-served (stale stamp zero) and a write goes through. The
//! bench verifies zero lost updates across the whole episode.
//!
//! Flags: `--json` for machine-readable output (validated by
//! `jsoncheck` in verify.sh), `--files N` for the probe set size.

use decorum_dfs::rpc::{Addr, FaultAction, FaultRule, FaultSchedule};
use decorum_dfs::types::VolumeId;
use decorum_dfs::Cell;
use dfs_bench::{f2, header, row, Args};

struct Point {
    outage_s: u64,
    replica: bool,
    reads_ok: u32,
    reads_unavailable: u32,
    giveups: u64,
    stale_reads: u64,
    max_stale_ms: f64,
    reconciled: bool,
    lost_updates: u32,
}

/// One outage episode: build a cell, write `files` files, optionally
/// replicate the volume, partition the primary for `outage_s` simulated
/// seconds of staleness, probe every file, heal, reconcile, verify.
fn run(files: u32, outage_s: u64, replica: bool) -> Point {
    let cell = Cell::builder().servers(2).build().expect("cell");
    cell.create_volume(0, VolumeId(1), "v").expect("volume");
    let writer = cell.new_client();
    let root = writer.root(VolumeId(1)).unwrap();
    let mut fids = Vec::new();
    for i in 0..files {
        let f = writer.create(root, &format!("f{i}"), 0o644).unwrap();
        writer.write(f.fid, 0, format!("payload-{i:04}").as_bytes()).unwrap();
        writer.fsync(f.fid).unwrap();
        fids.push(f.fid);
    }
    if replica {
        // 10 s staleness bound; the replica registers itself in the
        // VLDB so readers can find it when the primary is gone.
        cell.replicate_volume(0, 1, VolumeId(1), 10_000_000).unwrap();
    }

    // The outage: a one-way partition swallowing everything sent to
    // the primary. Deterministic (prob 100), no real-time burn.
    let primary = Addr::Server(cell.server(0).id());
    cell.net()
        .set_fault_schedule(FaultSchedule::seeded(7).rule(FaultRule::on(FaultAction::Drop).to(primary)));
    cell.clock().advance_secs(outage_s);

    // Fresh reader: nothing cached, every probe is a real RPC.
    let reader = cell.new_client();
    let mut reads_ok = 0u32;
    let mut reads_unavailable = 0u32;
    for (i, &fid) in fids.iter().enumerate() {
        match reader.read(fid, 0, 16) {
            Ok(bytes) => {
                assert_eq!(bytes, format!("payload-{i:04}").as_bytes(), "stale read lost an update");
                reads_ok += 1;
            }
            Err(_) => reads_unavailable += 1,
        }
    }
    let during = reader.stats();

    // Heal, then reconcile: the next read must be primary-served and a
    // write must flow again.
    cell.net().clear_faults();
    let read_back = reader.read(fids[0], 0, 16).map(|b| b == b"payload-0000").unwrap_or(false);
    let wrote = reader.write(fids[0], 0, b"reconciled!!").is_ok() && reader.fsync(fids[0]).is_ok();
    let reconciled = read_back && wrote;

    // Zero lost updates end to end, through yet another fresh client.
    let auditor = cell.new_client();
    let mut lost = 0u32;
    for (i, &fid) in fids.iter().enumerate() {
        let want = if i == 0 {
            b"reconciled!!".to_vec()
        } else {
            format!("payload-{i:04}").into_bytes()
        };
        if auditor.read(fid, 0, want.len()).ok().as_deref() != Some(want.as_slice()) {
            lost += 1;
        }
    }

    Point {
        outage_s,
        replica,
        reads_ok,
        reads_unavailable,
        giveups: during.unavailable_giveups,
        stale_reads: during.stale_reads,
        max_stale_ms: during.max_stale_us as f64 / 1000.0,
        reconciled,
        lost_updates: lost,
    }
}

fn main() {
    let args = Args::parse(&["--files"]);
    let (json, files) = (args.json, args.get("--files", 16u32));
    let mut sweep = Vec::new();
    for &outage_s in &[1u64, 2, 4, 8] {
        sweep.push(run(files, outage_s, false));
        sweep.push(run(files, outage_s, true));
    }

    if json {
        let rows: Vec<String> = sweep
            .iter()
            .map(|p| {
                format!(
                    "{{\"outage_s\": {}, \"replica\": {}, \"reads_ok\": {}, \
                     \"reads_unavailable\": {}, \"giveups\": {}, \"stale_reads\": {}, \
                     \"max_stale_ms\": {:.2}, \"reconciled\": {}, \"lost_updates\": {}}}",
                    p.outage_s,
                    p.replica,
                    p.reads_ok,
                    p.reads_unavailable,
                    p.giveups,
                    p.stale_reads,
                    p.max_stale_ms,
                    p.reconciled,
                    p.lost_updates
                )
            })
            .collect();
        println!(
            "{{\"bench\": \"t14_availability\", \"files\": {files}, \"sweep\": [{}]}}",
            rows.join(", ")
        );
        return;
    }

    println!("T14: read availability during a primary partition — {files} probe files\n");
    header(&[
        "outage s",
        "replica",
        "reads ok",
        "unavail",
        "give-ups",
        "stale reads",
        "max stale ms",
        "reconciled",
        "lost",
    ]);
    for p in &sweep {
        row(&[
            &p.outage_s,
            &p.replica,
            &p.reads_ok,
            &p.reads_unavailable,
            &p.giveups,
            &p.stale_reads,
            &f2(p.max_stale_ms),
            &p.reconciled,
            &p.lost_updates,
        ]);
    }
    println!("\nExpected shape (§3.8): without a replica every read during the");
    println!("outage is honestly Unavailable; with one, availability goes to 100%");
    println!("at a bounded, stamped staleness that tracks the outage age. Both");
    println!("modes reconcile after the heal with zero lost updates.");
}
