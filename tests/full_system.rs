//! Workspace integration tests: whole-cell scenarios spanning every
//! crate — servers, clients, tokens, volumes, authentication, crashes.

use decorum_dfs::types::{ByteRange, DfsError, SimClock, VolumeId};
use decorum_dfs::vfs::SetAttrs;
use decorum_dfs::{Cell, OpenMode};

mod common;

#[test]
fn multi_server_cell_with_many_clients() {
    let cell = Cell::builder().servers(3).build().unwrap();
    cell.create_volume(0, VolumeId(1), "vol-a").unwrap();
    cell.create_volume(1, VolumeId(2), "vol-b").unwrap();
    cell.create_volume(2, VolumeId(3), "vol-c").unwrap();

    let clients: Vec<_> = (0..4).map(|_| cell.new_client()).collect();
    for (i, vol) in [VolumeId(1), VolumeId(2), VolumeId(3)].iter().enumerate() {
        let root = clients[i].root(*vol).unwrap();
        let f = clients[i].create(root, "data", 0o666).unwrap();
        clients[i].write(f.fid, 0, format!("volume {}", vol.0).as_bytes()).unwrap();
        // Every other client can read it through its own path.
        for c in &clients {
            let got = c.read(f.fid, 0, 32).unwrap();
            assert_eq!(got, format!("volume {}", vol.0).as_bytes());
        }
    }
}

#[test]
fn authenticated_cell_end_to_end() {
    let cell = Cell::builder().servers(1).require_auth(true).build().unwrap();
    cell.add_user(0, 42); // The cell administrator (superuser).
    cell.add_user(100, 1111);
    cell.add_user(200, 2222);
    cell.admin_login(0, 42).unwrap();
    cell.create_volume(0, VolumeId(1), "secure").unwrap();

    let alice = cell.new_client();
    let bob = cell.new_client();
    // Without login, nothing works.
    assert!(alice.root(VolumeId(1)).is_err());
    alice.login(100, 1111).unwrap();
    bob.login(200, 2222).unwrap();

    let root = alice.root(VolumeId(1)).unwrap();
    // Root is owned by the system; open it up first via a system client.
    let admin = cell.new_client();
    assert!(admin.root(VolumeId(1)).is_err(), "admin must authenticate too");
    admin.login(0, 42).unwrap();
    admin.setattr(root, &SetAttrs { mode: Some(0o777), ..Default::default() }).unwrap();

    let f = alice.create(root, "alice-only", 0o600).unwrap();
    alice.write(f.fid, 0, b"private").unwrap();
    alice.fsync(f.fid).unwrap();
    assert_eq!(bob.read(f.fid, 0, 16).unwrap_err(), DfsError::PermissionDenied);

    // ACLs beat mode bits: grant bob's user id read access.
    let mut acl = decorum_dfs::types::Acl::unix_default(100);
    acl.push(decorum_dfs::types::AclEntry::allow(
        decorum_dfs::types::Principal::User(200),
        decorum_dfs::types::Rights::READ,
    ));
    alice.set_acl(f.fid, &acl).unwrap();
    assert_eq!(bob.read(f.fid, 0, 7).unwrap(), b"private");
}

#[test]
fn server_crash_and_restart_preserves_committed_state() {
    use decorum_dfs::episode::Episode;
    use decorum_dfs::rpc::PoolConfig;
    use decorum_dfs::FileServer;

    let cell = common::one_server_cell();
    let c = cell.new_client();
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "durable", 0o644).unwrap();
    c.write(f.fid, 0, b"must survive").unwrap();
    c.fsync(f.fid).unwrap();

    // Crash the server: network node down, disk loses its cache.
    let addr = decorum_dfs::rpc::Addr::Server(cell.server(0).id());
    cell.net().set_crashed(addr, true);

    // Client calls now fail fast as unreachable.
    let fresh = cell.new_client();
    assert!(fresh.getattr(f.fid).is_err());

    // "Reboot": bring the node back. (The Episode instance survives in
    // memory here; the dedicated disk-level crash tests live in the
    // episode crate. This test checks the cell-level failure path.)
    cell.net().set_crashed(addr, false);
    assert_eq!(c.read(f.fid, 0, 16).unwrap(), b"must survive");

    // Full dress rehearsal of a cold restart on a separate stage:
    let clock = SimClock::new();
    let disk = decorum_dfs::disk::SimDisk::new(decorum_dfs::disk::DiskConfig::with_blocks(16384));
    let ep = Episode::format(disk.clone(), clock.clone(), Default::default()).unwrap();
    ep.create_volume(VolumeId(9), "w").unwrap();
    {
        use decorum_dfs::vfs::{Credentials, PhysicalFs};
        let v = PhysicalFs::mount(&*ep, VolumeId(9)).unwrap();
        let root = v.root().unwrap();
        let f = v.create(&Credentials::system(), root, "x", 0o644).unwrap();
        v.write(&Credentials::system(), f.fid, 0, b"cold").unwrap();
        v.fsync(&Credentials::system(), f.fid).unwrap();
    }
    disk.crash(None);
    disk.power_on();
    let (ep2, report) = Episode::open(disk, clock).unwrap();
    assert!(!report.formatted);
    // A new file server over the recovered aggregate serves the data.
    let net = decorum_dfs::rpc::Network::new(SimClock::new(), 0);
    net.register(
        decorum_dfs::rpc::Addr::Vldb(0),
        decorum_dfs::server::VldbReplica::new(),
        PoolConfig::default(),
    );
    let srv = FileServer::start(
        net.clone(),
        decorum_dfs::types::ServerId(9),
        ep2,
        vec![decorum_dfs::rpc::Addr::Vldb(0)],
        PoolConfig::default(),
    )
    .unwrap();
    assert_eq!(srv.id().0, 9);
    let cm = decorum_dfs::CacheManager::start(
        net,
        decorum_dfs::types::ClientId(50),
        vec![decorum_dfs::rpc::Addr::Vldb(0)],
        std::sync::Arc::new(decorum_dfs::client::MemCache::new()),
    );
    let root = cm.root(VolumeId(9)).unwrap();
    let got = cm.lookup(root, "x").unwrap();
    assert_eq!(cm.read(got.fid, 0, 8).unwrap(), b"cold");
}

#[test]
fn open_modes_and_locks_across_the_cell() {
    let cell = common::one_server_cell();
    let a = cell.new_client();
    let b = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "bin", 0o755).unwrap();
    a.write(f.fid, 0, b"#!exe").unwrap();

    a.open(f.fid, OpenMode::Execute).unwrap();
    assert_eq!(b.open(f.fid, OpenMode::Write).unwrap_err(), DfsError::OpenConflict);
    a.close(f.fid, OpenMode::Execute).unwrap();
    b.open(f.fid, OpenMode::Write).unwrap();
    b.close(f.fid, OpenMode::Write).unwrap();

    a.lock(f.fid, ByteRange::new(0, 10), true).unwrap();
    assert_eq!(
        b.lock(f.fid, ByteRange::new(5, 15), true).unwrap_err(),
        DfsError::LockConflict
    );
    a.unlock(f.fid, ByteRange::new(0, 10)).unwrap();
    b.lock(f.fid, ByteRange::new(5, 15), true).unwrap();
}

#[test]
fn diskless_and_disk_clients_interoperate() {
    let cell = common::one_server_cell();
    let diskless = cell.new_client();
    let disky = cell.new_disk_client(1024);
    let root = diskless.root(VolumeId(1)).unwrap();
    let f = diskless.create(root, "both", 0o666).unwrap();
    diskless.write(f.fid, 0, &vec![0xAB; 20_000]).unwrap();
    assert_eq!(disky.read(f.fid, 10_000, 100).unwrap(), vec![0xAB; 100]);
    disky.write(f.fid, 0, b"disk-cached").unwrap();
    assert_eq!(diskless.read(f.fid, 0, 11).unwrap(), b"disk-cached");
}

/// A client cache smaller than the file: pages that were cached, stored
/// back and then evicted must be fetched again on read — an evicted
/// page is a miss, not a hole.
#[test]
fn reads_through_a_bounded_disk_cache_return_what_was_written() {
    const PAGE: usize = decorum_dfs::client::PAGE_SIZE;
    let tag = |p: u64| [(p % 251) as u8 + 1; PAGE];
    let cell = common::one_server_cell();
    let c = cell.new_disk_client(256);
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "big", 0o644).unwrap();
    for p in 0..1024u64 {
        c.write(f.fid, p * PAGE as u64, &tag(p)).unwrap();
        if p % 64 == 63 {
            c.fsync(f.fid).unwrap();
        }
    }
    for p in 0..1024u64 {
        let got = c.read(f.fid, p * PAGE as u64, PAGE).unwrap();
        assert!(got == tag(p), "page {p} read back as {:?}...", &got[..4]);
    }
}

#[test]
fn snapshot_while_writing() {
    // On-line backup (§2.1): a clone taken mid-workload is a consistent
    // point-in-time image while the original keeps changing.
    let cell = Cell::builder().servers(1).build().unwrap();
    cell.create_volume(0, VolumeId(1), "live").unwrap();
    let c = cell.new_client();
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "counter", 0o666).unwrap();
    for i in 0..10u64 {
        c.write(f.fid, 0, &i.to_le_bytes()).unwrap();
    }
    cell.clone_volume(0, VolumeId(1), VolumeId(2), "live.backup").unwrap();
    for i in 10..20u64 {
        c.write(f.fid, 0, &i.to_le_bytes()).unwrap();
    }
    let snap = cell.new_client();
    let sroot = snap.root(VolumeId(2)).unwrap();
    let sf = snap.lookup(sroot, "counter").unwrap();
    let frozen = u64::from_le_bytes(snap.read(sf.fid, 0, 8).unwrap().try_into().unwrap());
    assert_eq!(frozen, 9, "snapshot holds the value at clone time");
    let live = u64::from_le_bytes(c.read(f.fid, 0, 8).unwrap().try_into().unwrap());
    assert_eq!(live, 19);
}

#[test]
fn delete_refused_while_remotely_open() {
    // §5.4: "a virtual file system can assure itself that a file about
    // to be deleted has no remote users, by requesting an open token for
    // exclusive writing on the file."
    let cell = common::one_server_cell();
    let a = cell.new_client();
    let b = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "inuse", 0o666).unwrap();
    b.open(f.fid, OpenMode::Execute).unwrap();
    assert_eq!(
        a.remove(root, "inuse").unwrap_err(),
        DfsError::OpenConflict,
        "delete must be refused while another client executes the file"
    );
    b.close(f.fid, OpenMode::Execute).unwrap();
    a.remove(root, "inuse").unwrap();
    assert!(a.lookup(root, "inuse").is_err());
}

#[test]
fn token_handoff_under_simulated_network_partition() {
    // If the holder of a write token is unreachable, the server treats
    // its tokens as returned (host death handling) and the survivor can
    // proceed — availability over a dead client's cache.
    let cell = common::one_server_cell();
    // No background flusher on A: its dirty page must still be unstored
    // when it dies (otherwise the test races the 2 ms flush interval).
    let a = common::no_flush_client(&cell);
    let b = cell.new_client();
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "orphaned", 0o666).unwrap();
    a.write(f.fid, 0, b"will be lost").unwrap();
    // A dies silently (unflushed data is lost, as with a crashed host).
    cell.net().set_crashed(decorum_dfs::rpc::Addr::Client(a.id()), true);
    // B can still take the file over; it sees the last stored state.
    b.write(f.fid, 0, b"taken over").unwrap();
    assert_eq!(b.read(f.fid, 0, 16).unwrap(), b"taken over");
}
