//! T3 — §5.4: the consistency/network-load spectrum.
//!
//! One writer updates a shared file once per simulated second; one
//! reader polls it once per 100 ms. NFS (3 s TTL) serves stale data and
//! still burns RPCs; AFS is fresh only at close boundaries; DFS tokens
//! are always fresh with traffic only at real handoffs.

use dfs_baselines::{AfsClient, AfsServer, NfsClient, NfsServer};
use dfs_bench::emit::Obj;
use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_rpc::Network;
use dfs_types::{ClientId, ServerId, SimClock, VolumeId};
use dfs_vfs::PhysicalFs;
use std::sync::Arc;

const ROUNDS: u64 = 60; // Simulated seconds of the workload.

struct Outcome {
    rpcs: u64,
    bytes: u64,
    stale_reads: u64,
    reads: u64,
    /// RPCs during a 60 s idle phase (reader polls, writer silent) —
    /// the paper's point that NFS pays "whether or not any shared data
    /// have been modified".
    idle_rpcs: u64,
}

fn episode_on(net: &Network, clock: &SimClock) -> Arc<dyn PhysicalFs> {
    let disk = SimDisk::new(DiskConfig::with_blocks(32 * 1024));
    let ep = Episode::format(disk, clock.clone(), FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    let _ = net;
    ep
}

fn run_nfs() -> Outcome {
    let clock = SimClock::new();
    let net = Network::new(clock.clone(), 500);
    let phys = episode_on(&net, &clock);
    let vol = phys.mount(VolumeId(1)).unwrap();
    NfsServer::start(&net, ServerId(1), vol);
    let writer = NfsClient::new(net.clone(), ClientId(1), ServerId(1));
    let reader = NfsClient::new(net.clone(), ClientId(2), ServerId(1));
    let root = writer.root(VolumeId(1)).unwrap();
    let f = writer.create(root, "shared", 0o666).unwrap();
    writer.write(f.fid, 0, &0u64.to_le_bytes()).unwrap();
    let before = net.stats();
    let (mut stale, mut reads) = (0u64, 0u64);
    for second in 1..=ROUNDS {
        writer.write(f.fid, 0, &second.to_le_bytes()).unwrap();
        for _ in 0..10 {
            clock.advance_millis(100);
            let bytes = reader.read(f.fid, 0, 8).unwrap();
            let seen = u64::from_le_bytes(bytes.try_into().unwrap());
            reads += 1;
            if seen != second {
                stale += 1;
            }
        }
    }
    let d = net.stats().since(&before);
    // Idle phase: no writes; the reader keeps polling for 60 s.
    let before_idle = net.stats();
    for _ in 0..600 {
        clock.advance_millis(100);
        reader.read(f.fid, 0, 8).unwrap();
    }
    let idle = net.stats().since(&before_idle);
    Outcome { rpcs: d.calls, bytes: d.bytes, stale_reads: stale, reads, idle_rpcs: idle.calls }
}

fn run_afs() -> Outcome {
    let clock = SimClock::new();
    let net = Network::new(clock.clone(), 500);
    let phys = episode_on(&net, &clock);
    let vol = phys.mount(VolumeId(1)).unwrap();
    AfsServer::start(&net, ServerId(1), vol);
    let writer = AfsClient::start(net.clone(), ClientId(1), ServerId(1));
    let reader = AfsClient::start(net.clone(), ClientId(2), ServerId(1));
    let root = writer.root(VolumeId(1)).unwrap();
    let f = writer.create(root, "shared", 0o666).unwrap();
    writer.write(f.fid, 0, &0u64.to_le_bytes()).unwrap();
    writer.close(f.fid).unwrap();
    let before = net.stats();
    let (mut stale, mut reads) = (0u64, 0u64);
    for second in 1..=ROUNDS {
        // The writer holds the file open across the second and closes
        // at the end of it — store-on-close semantics.
        writer.write(f.fid, 0, &second.to_le_bytes()).unwrap();
        for _ in 0..10 {
            clock.advance_millis(100);
            let bytes = reader.read(f.fid, 0, 8).unwrap();
            let seen = u64::from_le_bytes(bytes.try_into().unwrap());
            reads += 1;
            if seen != second {
                stale += 1;
            }
        }
        writer.close(f.fid).unwrap();
    }
    let d = net.stats().since(&before);
    let before_idle = net.stats();
    for _ in 0..600 {
        clock.advance_millis(100);
        reader.read(f.fid, 0, 8).unwrap();
    }
    let idle = net.stats().since(&before_idle);
    Outcome { rpcs: d.calls, bytes: d.bytes, stale_reads: stale, reads, idle_rpcs: idle.calls }
}

fn run_dfs() -> Outcome {
    let cell = dfs_core::Cell::builder().servers(1).build().unwrap();
    cell.create_volume(0, VolumeId(1), "v").unwrap();
    let writer = cell.new_client();
    let reader = cell.new_client();
    let root = writer.root(VolumeId(1)).unwrap();
    let f = writer.create(root, "shared", 0o666).unwrap();
    writer.write(f.fid, 0, &0u64.to_le_bytes()).unwrap();
    let before = cell.net().stats();
    let (mut stale, mut reads) = (0u64, 0u64);
    for second in 1..=ROUNDS {
        writer.write(f.fid, 0, &second.to_le_bytes()).unwrap();
        for _ in 0..10 {
            cell.clock().advance_millis(100);
            let bytes = reader.read(f.fid, 0, 8).unwrap();
            let seen = u64::from_le_bytes(bytes.try_into().unwrap());
            reads += 1;
            if seen != second {
                stale += 1;
            }
        }
    }
    let d = cell.net().stats().since(&before);
    let before_idle = cell.net().stats();
    for _ in 0..600 {
        cell.clock().advance_millis(100);
        reader.read(f.fid, 0, 8).unwrap();
    }
    let idle = cell.net().stats().since(&before_idle);
    Outcome { rpcs: d.calls, bytes: d.bytes, stale_reads: stale, reads, idle_rpcs: idle.calls }
}

fn main() {
    let args = dfs_bench::Args::parse(&[]);
    let outcomes =
        [("nfs (3s ttl)", run_nfs()), ("afs (callbacks)", run_afs()), ("dfs (tokens)", run_dfs())];
    let systems = outcomes.map(|(name, o)| {
        Obj::new()
            .field("system", name)
            .field("rpcs", o.rpcs)
            .field("bytes", o.bytes)
            .field("stale_reads", o.stale_reads)
            .field("reads", o.reads)
            .field("idle_rpcs", o.idle_rpcs)
    });
    args.print(
        "T3: consistency vs network load (1 writer @1/s, 1 reader @10/s, 60 s)\n    \
         stale read = reader saw a value older than the writer's last write;\n    \
         idle_rpcs = RPCs in a further 60 s with the writer silent",
        "Expected shape (paper): NFS has stale reads AND steady polling traffic;\n\
         AFS has stale reads between write and close; DFS has zero stale reads\n\
         with traffic proportional to actual sharing.",
        Obj::new()
            .field("bench", "t3_consistency_spectrum")
            .field("rounds_s", ROUNDS)
            .field_arr("systems", systems),
    );
}
