//! Volume administration: clone (on-line backup), move between servers,
//! and lazy replication — §2.1, §3.6, §3.8.
//!
//! Run with: `cargo run --example volume_admin`

use decorum_dfs::types::VolumeId;
use decorum_dfs::Cell;

fn main() {
    let cell = Cell::builder().servers(3).build().expect("cell");
    cell.create_volume(0, VolumeId(10), "user.kazar").expect("volume");

    let client = cell.new_client();
    let root = client.root(VolumeId(10)).expect("root");
    for i in 0..20 {
        let f = client
            .create(root, &format!("paper-{i:02}.tex"), 0o644)
            .expect("create");
        client
            .write(f.fid, 0, format!("contents of draft {i}").as_bytes())
            .expect("write");
    }
    client.fsync(root).expect("sync");

    // ---- Clone: an instant on-line snapshot (§2.1). ------------------
    cell.clone_volume(0, VolumeId(10), VolumeId(11), "user.kazar.backup")
        .expect("clone");
    println!("cloned vol10 -> vol11 (copy-on-write, read-only)");

    // The original keeps evolving; the snapshot is frozen.
    let f = client.lookup(root, "paper-00.tex").expect("lookup");
    client.write(f.fid, 0, b"HEAVILY REVISED").expect("write");

    let snap_client = cell.new_client();
    let snap_root = snap_client.root(VolumeId(11)).expect("snap root");
    let snap_f = snap_client
        .lookup(snap_root, "paper-00.tex")
        .expect("snap lookup");
    let frozen = snap_client.read(snap_f.fid, 0, 64).expect("snap read");
    println!(
        "snapshot still reads: {:?}",
        String::from_utf8_lossy(&frozen)
    );
    assert_eq!(frozen, b"contents of draft 0");

    // ---- Move: rebalance vol10 onto server 2 (§3.6). -----------------
    cell.move_volume(VolumeId(10), 1).expect("move");
    println!(
        "moved vol10 to {:?}; VLDB now says {:?}",
        cell.server(1).id(),
        cell.vldb().lookup(VolumeId(10)).expect("vldb")
    );
    // The client keeps working with the same fids, transparently.
    assert_eq!(
        client.read(f.fid, 0, 15).expect("read after move"),
        b"HEAVILY REVISED"
    );

    // ---- Lazy replication onto server 3 (§3.8). ----------------------
    let ten_minutes = 600 * 1_000_000;
    cell.replicate_volume(1, 2, VolumeId(10), ten_minutes)
        .expect("replicate");
    println!("replicating vol10 -> server 3 with a 10-minute bound");

    // Mutate the master, advance simulated time past the bound, tick.
    client.write(f.fid, 0, b"post-replica edit").expect("write");
    client.fsync(f.fid).expect("fsync");
    cell.clock().advance_micros(ten_minutes + 1);
    cell.replication_tick(2).expect("tick");
    println!(
        "replica refreshes shipped: {}",
        cell.server(2).stats().replica_refreshes
    );

    println!("volume administration: OK");
}
