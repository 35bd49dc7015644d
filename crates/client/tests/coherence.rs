//! End-to-end cache-coherence tests: cache managers against a live
//! protocol exporter over Episode, exercising the token protocol of §5
//! and the locking/serialization machinery of §6.

use dfs_client::{CacheManager, MemCache, OpenMode};
use dfs_disk::{DiskConfig, SimDisk};
use dfs_episode::{Episode, FormatParams};
use dfs_rpc::{Addr, Network, PoolConfig};
use dfs_server::{FileServer, VldbReplica};
use dfs_types::{ByteRange, ClientId, DfsError, ServerId, SimClock, VolumeId};
use std::sync::Arc;

struct Cell {
    net: Network,
    clock: SimClock,
    servers: Vec<Arc<FileServer>>,
}

fn cell(n_servers: u32) -> Cell {
    let clock = SimClock::new();
    let net = Network::new(clock.clone(), 500);
    net.register(Addr::Vldb(0), VldbReplica::new(), PoolConfig::default());
    net.register(Addr::Kdc, dfs_rpc::KdcService::new(net.auth().clone()), PoolConfig::default());
    let mut servers = Vec::new();
    for i in 1..=n_servers {
        let disk = SimDisk::new(DiskConfig::with_blocks(16384));
        let ep = Episode::format(disk, clock.clone(), FormatParams::default()).unwrap();
        if i == 1 {
            ep.create_volume(VolumeId(1), "root.cell").unwrap();
        }
        servers.push(
            FileServer::start(
                net.clone(),
                ServerId(i),
                ep,
                vec![Addr::Vldb(0)],
                PoolConfig { workers: 8, revocation_workers: 4, require_auth: false },
            )
            .unwrap(),
        );
    }
    Cell { net, clock, servers }
}

fn client(cell: &Cell, n: u32) -> Arc<CacheManager> {
    CacheManager::start(cell.net.clone(), ClientId(n), vec![Addr::Vldb(0)], Arc::new(MemCache::new()))
}

/// A client with no background flusher, for tests that assert on exact
/// network traffic: the 2 ms flush interval would otherwise race the
/// test body and ship re-dirtied pages mid-measurement.
fn client_no_flusher(cell: &Cell, n: u32) -> Arc<CacheManager> {
    CacheManager::start_with_config(
        cell.net.clone(),
        ClientId(n),
        vec![Addr::Vldb(0)],
        Arc::new(MemCache::new()),
        dfs_client::WritebackConfig { flusher: false, ..Default::default() },
    )
}

#[test]
fn create_write_read_through_cache_manager() {
    let cell = cell(1);
    let cm = client(&cell, 1);
    let root = cm.root(VolumeId(1)).unwrap();
    let f = cm.create(root, "hello.txt", 0o644).unwrap();
    cm.write(f.fid, 0, b"cache manager").unwrap();
    assert_eq!(cm.read(f.fid, 0, 64).unwrap(), b"cache manager");
    assert_eq!(cm.read(f.fid, 6, 7).unwrap(), b"manager");
    let st = cm.getattr(f.fid).unwrap();
    assert_eq!(st.length, 13);
}

#[test]
fn repeated_reads_are_local_after_first_fetch() {
    let cell = cell(1);
    let cm = client(&cell, 1);
    let root = cm.root(VolumeId(1)).unwrap();
    let f = cm.create(root, "f", 0o644).unwrap();
    cm.write(f.fid, 0, &vec![7u8; 10_000]).unwrap();
    cm.fsync(f.fid).unwrap();

    let before = cell.net.stats();
    for _ in 0..50 {
        assert_eq!(cm.read(f.fid, 100, 500).unwrap(), vec![7u8; 500]);
    }
    let delta = cell.net.stats().since(&before);
    assert_eq!(delta.calls, 0, "reads under a data token cost zero RPCs (§5.2)");
    assert!(cm.stats().local_reads >= 50);
}

#[test]
fn writes_are_absorbed_locally_under_write_token() {
    let cell = cell(1);
    // No flusher: the test asserts an exact-zero RPC delta, which the
    // 2 ms background flush would otherwise race.
    let cm = client_no_flusher(&cell, 1);
    let root = cm.root(VolumeId(1)).unwrap();
    let f = cm.create(root, "f", 0o644).unwrap();
    cm.write(f.fid, 0, b"first").unwrap(); // Acquires the token.
    let before = cell.net.stats();
    for i in 0..100u64 {
        cm.write(f.fid, 0, format!("write {i}").as_bytes()).unwrap();
    }
    let delta = cell.net.stats().since(&before);
    assert_eq!(
        delta.calls, 0,
        "100 writes under a write token cost zero RPCs — the AFS/NFS contrast of §5.4"
    );
    assert!(cm.stats().local_writes >= 100);
    assert!(cm.dirty_pages(f.fid) > 0, "data is write-behind");
}

#[test]
fn single_system_semantics_between_two_clients() {
    // §5.4: "when one user modifies a file, other users see the
    // modifications as soon as the write system call is complete."
    let cell = cell(1);
    let a = client(&cell, 1);
    let b = client(&cell, 2);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "shared", 0o666).unwrap();

    a.write(f.fid, 0, b"from A, round 1").unwrap();
    // No fsync, no close: B must still see it (the server revokes A's
    // write token, forcing the dirty pages back).
    assert_eq!(b.read(f.fid, 0, 64).unwrap(), b"from A, round 1");

    b.write(f.fid, 0, b"B overwrites!!!").unwrap();
    assert_eq!(a.read(f.fid, 0, 64).unwrap(), b"B overwrites!!!");
    assert!(a.stats().revocations >= 1, "A's tokens were revoked");
    assert!(b.stats().revocations >= 1, "B's tokens were revoked in turn");
}

#[test]
fn disjoint_byte_ranges_do_not_ping_pong() {
    // §5.4: byte-range tokens let clients modify disjoint parts of one
    // file without shipping it back and forth.
    let cell = cell(1);
    let a = client_no_flusher(&cell, 1);
    let b = client_no_flusher(&cell, 2);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "big", 0o666).unwrap();
    // Lay the file out first.
    a.write(f.fid, 0, &vec![0u8; 256 * 1024]).unwrap();
    a.fsync(f.fid).unwrap();

    let half = 128 * 1024u64;
    // A claims the first half, B the second (byte-range tokens).
    a.acquire_data_token(f.fid, ByteRange::new(0, half), true).unwrap();
    b.acquire_data_token(f.fid, ByteRange::new(half, 256 * 1024), true).unwrap();
    a.write(f.fid, 0, b"A's half").unwrap();
    b.write(f.fid, half, b"B's half").unwrap();
    let before_a = a.stats();
    let before_b = b.stats();
    let before_net = cell.net.stats();
    for i in 0..50u64 {
        a.write(f.fid, (i * 64) % (half - 64), &[1u8; 64]).unwrap();
        b.write(f.fid, half + (i * 64) % (half - 64), &[2u8; 64]).unwrap();
    }
    let da = a.stats();
    let db = b.stats();
    let dn = cell.net.stats().since(&before_net);
    // Status tokens (whole-file) may ping-pong, but the *data* never
    // ships: no revocation ever forced a dirty store-back, and total
    // traffic is token-sized, not file-sized (the §5.4 contrast: AFS
    // would ship the 256 KiB file back and forth on every handoff).
    assert_eq!(
        da.revocation_stores - before_a.revocation_stores,
        0,
        "A never shipped its half"
    );
    assert_eq!(
        db.revocation_stores - before_b.revocation_stores,
        0,
        "B never shipped its half"
    );
    assert!(
        dn.bytes < 100 * 1024,
        "traffic {} bytes should be token-sized, not ~25 MiB of file ping-pong",
        dn.bytes
    );
}

#[test]
fn revocation_stores_dirty_data_back() {
    let cell = cell(1);
    // No flusher: the page must still be dirty when the revocation
    // arrives, so the handler — not a timer — is what stores it.
    let a = client_no_flusher(&cell, 1);
    let b = client(&cell, 2);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "f", 0o666).unwrap();
    a.write(f.fid, 0, b"dirty in A's cache").unwrap();
    assert!(a.dirty_pages(f.fid) > 0);
    // B's read triggers revocation; A must store back first (§5.3).
    assert_eq!(b.read(f.fid, 0, 64).unwrap(), b"dirty in A's cache");
    assert_eq!(a.dirty_pages(f.fid), 0, "revocation flushed A's pages");
    assert!(a.stats().revocation_stores >= 1);
}

#[test]
fn lookup_caching_in_directory_layer() {
    let cell = cell(1);
    let cm = client(&cell, 1);
    let root = cm.root(VolumeId(1)).unwrap();
    cm.create(root, "cached-name", 0o644).unwrap();
    cm.lookup(root, "cached-name").unwrap();
    let before = cell.net.stats();
    for _ in 0..20 {
        cm.lookup(root, "cached-name").unwrap();
    }
    let delta = cell.net.stats().since(&before);
    assert_eq!(delta.calls, 0, "cached lookups cost zero RPCs (§4.3)");
    assert!(cm.stats().lookup_hits >= 20);
}

#[test]
fn cross_client_directory_invalidation() {
    let cell = cell(1);
    let a = client(&cell, 1);
    let b = client(&cell, 2);
    let root = a.root(VolumeId(1)).unwrap();
    a.create(root, "seen-by-both", 0o644).unwrap();
    // A caches the lookup (with dir tokens).
    a.lookup(root, "seen-by-both").unwrap();
    assert!(a.lookup(root, "nonexistent").is_err());
    // B removes the file; A's dir tokens are revoked.
    b.remove(root, "seen-by-both").unwrap();
    assert_eq!(
        a.lookup(root, "seen-by-both").unwrap_err(),
        DfsError::NotFound,
        "A must not serve the stale cached lookup"
    );
}

#[test]
fn open_token_write_vs_execute() {
    // The ETXTBSY case of §5.4: opening for write while another client
    // has the file open for execution is refused.
    let cell = cell(1);
    let a = client(&cell, 1);
    let b = client(&cell, 2);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "program", 0o755).unwrap();
    a.open(f.fid, OpenMode::Execute).unwrap();
    assert_eq!(
        b.open(f.fid, OpenMode::Write).unwrap_err(),
        DfsError::OpenConflict,
        "cannot write a file being executed"
    );
    a.close(f.fid, OpenMode::Execute).unwrap();
    b.open(f.fid, OpenMode::Write).unwrap();
}

#[test]
fn exclusive_write_open_excludes_everyone() {
    let cell = cell(1);
    let a = client(&cell, 1);
    let b = client(&cell, 2);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "x", 0o666).unwrap();
    a.open(f.fid, OpenMode::ExclusiveWrite).unwrap();
    assert_eq!(b.open(f.fid, OpenMode::Read).unwrap_err(), DfsError::OpenConflict);
    assert_eq!(b.open(f.fid, OpenMode::Write).unwrap_err(), DfsError::OpenConflict);
}

#[test]
fn lock_tokens_make_locking_local() {
    let cell = cell(1);
    let a = client(&cell, 1);
    let b = client(&cell, 2);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "locked", 0o666).unwrap();
    // A acquires a lock token covering the first half.
    a.acquire_lock_token(f.fid, ByteRange::new(0, 1000), true).unwrap();
    let before = cell.net.stats();
    for i in 0..10 {
        a.lock(f.fid, ByteRange::new(i * 10, i * 10 + 5), true).unwrap();
        a.unlock(f.fid, ByteRange::new(i * 10, i * 10 + 5)).unwrap();
    }
    let delta = cell.net.stats().since(&before);
    assert_eq!(delta.calls, 0, "token-backed locks cost zero RPCs (§5.2)");
    // B's conflicting lock attempt: A retains the token because a lock
    // is held... first set a long-lived local lock.
    a.lock(f.fid, ByteRange::new(0, 100), true).unwrap();
    assert_eq!(
        b.lock(f.fid, ByteRange::new(50, 60), true).unwrap_err(),
        DfsError::LockConflict
    );
    // After A unlocks and the token is revocable, B succeeds.
    a.unlock(f.fid, ByteRange::new(0, 100)).unwrap();
    b.lock(f.fid, ByteRange::new(50, 60), true).unwrap();
}

#[test]
fn status_caching_and_invalidation() {
    let cell = cell(1);
    let a = client(&cell, 1);
    let b = client(&cell, 2);
    let root = a.root(VolumeId(1)).unwrap();
    let f = a.create(root, "st", 0o666).unwrap();
    a.getattr(f.fid).unwrap();
    let before = cell.net.stats();
    for _ in 0..10 {
        a.getattr(f.fid).unwrap();
    }
    assert_eq!(cell.net.stats().since(&before).calls, 0, "status cached under token");
    // B writes; A's status token is revoked; next getattr refetches and
    // sees the new length.
    b.write(f.fid, 0, &vec![1u8; 5000]).unwrap();
    let st = a.getattr(f.fid).unwrap();
    assert_eq!(st.length, 5000, "A sees B's new length immediately");
}

#[test]
fn truncate_via_setattr_invalidates_tail() {
    let cell = cell(1);
    let cm = client(&cell, 1);
    let root = cm.root(VolumeId(1)).unwrap();
    let f = cm.create(root, "t", 0o644).unwrap();
    cm.write(f.fid, 0, &vec![9u8; 20_000]).unwrap();
    let st = cm
        .setattr(f.fid, &dfs_vfs::SetAttrs::truncate(1000))
        .unwrap();
    assert_eq!(st.length, 1000);
    assert_eq!(cm.read(f.fid, 0, 4096).unwrap().len(), 1000);
    assert_eq!(cm.read(f.fid, 0, 4096).unwrap(), vec![9u8; 1000]);
}

#[test]
fn namespace_operations_via_client() {
    let cell = cell(1);
    let cm = client(&cell, 1);
    let root = cm.root(VolumeId(1)).unwrap();
    let d = cm.mkdir(root, "dir", 0o755).unwrap();
    let f = cm.create(d.fid, "file", 0o644).unwrap();
    cm.write(f.fid, 0, b"data").unwrap();
    cm.link(d.fid, "alias", f.fid).unwrap();
    let names: Vec<String> =
        cm.readdir(d.fid).unwrap().into_iter().map(|e| e.name).collect();
    assert_eq!(names.len(), 2);
    cm.rename(d.fid, "file", root, "moved").unwrap();
    assert!(cm.lookup(d.fid, "file").is_err());
    assert_eq!(cm.lookup(root, "moved").unwrap().fid, f.fid);
    cm.remove(root, "moved").unwrap();
    cm.remove(d.fid, "alias").unwrap();
    cm.rmdir(root, "dir").unwrap();
    assert!(cm.lookup(root, "dir").is_err());
    let s = cm.symlink(root, "ln", "/a/b").unwrap();
    assert_eq!(cm.readlink(s.fid).unwrap(), "/a/b");
}

#[test]
fn volume_move_is_transparent_to_clients() {
    let cell = cell(2);
    let cm = client(&cell, 1);
    let root = cm.root(VolumeId(1)).unwrap();
    let f = cm.create(root, "nomad", 0o644).unwrap();
    cm.write(f.fid, 0, b"before move").unwrap();
    cm.fsync(f.fid).unwrap();

    // Administrator moves the volume to server 2.
    use dfs_rpc::{CallClass, Request, Response};
    let resp = cell
        .net
        .call(
            Addr::Client(ClientId(99)),
            Addr::Server(ServerId(1)),
            None,
            CallClass::Normal,
            Request::VolMove { volume: VolumeId(1), target: ServerId(2) },
        )
        .unwrap();
    assert_eq!(resp, Response::Ok);

    // The same fid keeps working; the client re-consults the VLDB.
    assert_eq!(cm.read(f.fid, 0, 32).unwrap(), b"before move");
    cm.write(f.fid, 0, b"after move!").unwrap();
    assert_eq!(cm.read(f.fid, 0, 32).unwrap(), b"after move!");
    let _ = &cell.servers;
}

#[test]
fn authenticated_client_permissions() {
    let cell = cell(1);
    cell.net.auth().add_user(100, 777);
    cell.net.auth().add_user(200, 888);
    let a = client(&cell, 1);
    let b = client(&cell, 2);
    a.login(100, 777).unwrap();
    b.login(200, 888).unwrap();

    let root = a.root(VolumeId(1)).unwrap();
    // Open the root so plain users can create (server-side system cred
    // created it 0755, owner system).
    let admin = client(&cell, 3);
    admin
        .setattr(root, &dfs_vfs::SetAttrs { mode: Some(0o777), ..Default::default() })
        .unwrap();

    let f = a.create(root, "private", 0o600).unwrap();
    a.write(f.fid, 0, b"secret").unwrap();
    a.fsync(f.fid).unwrap();
    assert_eq!(
        b.read(f.fid, 0, 16).unwrap_err(),
        DfsError::PermissionDenied,
        "user 200 cannot read user 100's 0600 file"
    );
    assert_eq!(a.read(f.fid, 0, 16).unwrap(), b"secret");

    // Wrong password fails.
    assert_eq!(b.login(200, 1).unwrap_err(), DfsError::AuthenticationFailed);
    let _ = cell.clock.now();
}

#[test]
fn queued_revocation_race_is_handled() {
    // Exercise §6.3 heavily: many clients fetch tokens on the same file
    // while others' grants revoke them; queued revocations must never
    // leave a client using a dead token.
    let cell = cell(1);
    let clients: Vec<_> = (1..=4).map(|i| client(&cell, i)).collect();
    let root = clients[0].root(VolumeId(1)).unwrap();
    let f = clients[0].create(root, "contended", 0o666).unwrap();
    clients[0].write(f.fid, 0, &vec![0u8; 8192]).unwrap();

    let threads: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(i, cm)| {
            let cm = cm.clone();
            let fid = f.fid;
            std::thread::spawn(move || {
                for round in 0..30u64 {
                    let val = (i as u64 * 100 + round) as u8;
                    cm.write(fid, (round % 4) * 256, &[val; 64]).unwrap();
                    let data = cm.read(fid, (round % 4) * 256, 64).unwrap();
                    assert_eq!(data.len(), 64);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Every client's final view must agree with the server's.
    let reference = clients[0].read(f.fid, 0, 2048).unwrap();
    for cm in &clients[1..] {
        assert_eq!(cm.read(f.fid, 0, 2048).unwrap(), reference);
    }
}
