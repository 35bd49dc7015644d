//! T4 — §5.4: "Callbacks cannot describe byte ranges of data. If a group
//! of users are accessing (and modifying) the same large file, even
//! though they may be using disjoint parts of it, the file will
//! frequently be shipped back and forth in its entirety."
//!
//! Two clients alternate writes in disjoint halves of a file, AFS-style
//! vs DFS byte-range tokens, sweeping the file size.

use dfs_baselines::{AfsClient, AfsServer};
use dfs_bench::emit::Obj;
use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_rpc::Network;
use dfs_types::{ByteRange, ClientId, ServerId, SimClock, VolumeId};
use dfs_vfs::PhysicalFs;

const HANDOFFS: u64 = 20;

fn run_afs(file_bytes: u64) -> u64 {
    let clock = SimClock::new();
    let net = Network::new(clock.clone(), 500);
    let disk = SimDisk::new(DiskConfig::with_blocks(128 * 1024));
    let ep = Episode::format(disk, clock, FormatParams::default()).unwrap();
    ep.create_volume(VolumeId(1), "v").unwrap();
    AfsServer::start(&net, ServerId(1), ep.mount(VolumeId(1)).unwrap());
    let a = AfsClient::start(net.clone(), ClientId(1), ServerId(1));
    let b = AfsClient::start(net.clone(), ClientId(2), ServerId(1));
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "big", 0o666).unwrap();
    a.write(f.fid, 0, &vec![0u8; file_bytes as usize]).unwrap();
    a.close(f.fid).unwrap();
    let before = net.stats();
    for i in 0..HANDOFFS {
        a.write(f.fid, i * 64, &[1u8; 64]).unwrap();
        a.close(f.fid).unwrap();
        b.write(f.fid, file_bytes / 2 + i * 64, &[2u8; 64]).unwrap();
        b.close(f.fid).unwrap();
    }
    net.stats().since(&before).bytes
}

fn run_dfs(file_bytes: u64) -> u64 {
    let cell = dfs_core::Cell::builder().servers(1).disk_blocks(128 * 1024).build().unwrap();
    cell.create_volume(0, VolumeId(1), "v").unwrap();
    let a = cell.new_client();
    let b = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "big", 0o666).unwrap();
    a.write(f.fid, 0, &vec![0u8; file_bytes as usize]).unwrap();
    a.fsync(f.fid).unwrap();
    a.acquire_data_token(f.fid, ByteRange::new(0, file_bytes / 2), true).unwrap();
    b.acquire_data_token(f.fid, ByteRange::new(file_bytes / 2, file_bytes), true).unwrap();
    let before = cell.net().stats();
    for i in 0..HANDOFFS {
        a.write(f.fid, i * 64, &[1u8; 64]).unwrap();
        b.write(f.fid, file_bytes / 2 + i * 64, &[2u8; 64]).unwrap();
    }
    cell.net().stats().since(&before).bytes
}

fn main() {
    let args = dfs_bench::Args::parse(&[]);
    let sweep = [64u64, 256, 1024, 4096].map(|kib| {
        let (afs, dfs) = (run_afs(kib * 1024), run_dfs(kib * 1024));
        Obj::new()
            .field("file_kib", kib)
            .field("afs_bytes", afs)
            .field("dfs_bytes", dfs)
            .field("afs_over_dfs", afs as f64 / dfs.max(1) as f64)
    });
    args.print(
        &format!(
            "T4: disjoint writers of one large file — bytes on the wire for\n    \
             {HANDOFFS} alternating 64-byte writes per client"
        ),
        "Expected shape (paper): AFS traffic grows with the FILE size (whole-file\n\
         ping-pong); DFS traffic is flat (token messages only), so the ratio\n\
         widens linearly with file size.",
        Obj::new()
            .field("bench", "t4_byte_range_sharing")
            .field("handoffs", HANDOFFS)
            .field_arr("sweep", sweep),
    );
}
