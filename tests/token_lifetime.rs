//! Token lifetime follows the file (DESIGN.md "Token lifetime"): when a
//! file's last link goes, the server retires every grant on the dead
//! fid inside the same grant step and the removing client forgets the
//! vnode. Everything here is a count — grants in the server's table,
//! vnodes in the client's, RPCs on the wire — never a time.

use decorum_dfs::client::{CacheManager, PAGE_SIZE};
use decorum_dfs::token::{TokenManager, TokenTypes};
use decorum_dfs::types::{DfsError, Fid};
use decorum_dfs::vfs::{Credentials, Vfs};
use decorum_dfs::Cell;
use std::sync::Arc;

mod common;
use common::{no_flush_client, one_server_cell, VOL};

fn token_manager(cell: &Cell) -> Arc<TokenManager> {
    cell.server(0).token_manager().clone()
}

/// A file under `dir` with one page written and made durable, so the
/// client holds tokens, a trusted status and a valid page on it.
fn cached_file(client: &CacheManager, dir: Fid, name: &str) -> Fid {
    let fid = client.create(dir, name, 0o644).unwrap().fid;
    client.write(fid, 0, &[7u8; PAGE_SIZE]).unwrap();
    client.fsync(fid).unwrap();
    assert_eq!(client.read(fid, 0, PAGE_SIZE).unwrap(), [7u8; PAGE_SIZE]);
    fid
}

#[test]
fn churn_is_stationary_at_the_server_and_at_the_client() {
    let cell = one_server_cell();
    let tm = token_manager(&cell);
    let client = no_flush_client(&cell);
    let dir = client.mkdir(client.root(VOL).unwrap(), "churn", 0o755).unwrap().fid;
    let mut at_100 = None;
    for cycle in 1..=2_000u32 {
        let name = format!("n{:02}-{cycle:08x}", cycle % 64);
        let fid = client.create(dir, &name, 0o644).unwrap().fid;
        assert_eq!(client.lookup(dir, &name).unwrap().fid, fid);
        assert_eq!(client.getattr(fid).unwrap().fid, fid);
        assert_eq!(tm.tokens_on(fid).len(), 1, "the getattr's status token");
        client.remove(dir, &name).unwrap();
        assert_eq!(tm.tokens_on(fid), [], "cycle {cycle}: a grant outlived its file");
        let sizes = (tm.live_grants().len(), client.cached_vnodes());
        match cycle {
            100 => at_100 = Some(sizes),
            2_000 => assert_eq!(Some(sizes), at_100, "(grants, vnodes) grew with the cycles"),
            _ => {}
        }
    }
    let stats = tm.stats();
    let live = tm.live_grants().len() as u64;
    assert_eq!(stats.grants, stats.releases + stats.revocations + live, "{stats:?}");
}

#[test]
fn a_reused_slot_starts_with_no_grant_of_its_last_file() {
    let cell = one_server_cell();
    let tm = token_manager(&cell);
    let client = no_flush_client(&cell);
    let root = client.root(VOL).unwrap();
    let old = client.create(root, "a", 0o644).unwrap().fid;
    client.getattr(old).unwrap();
    client.remove(root, "a").unwrap();
    let new = client.create(root, "b", 0o644).unwrap().fid;
    assert_eq!(new.vnode, old.vnode, "Episode hands the freed slot out again");
    assert_ne!(new.uniq, old.uniq);
    assert_eq!(client.getattr(new).unwrap().fid, new);
    let on_slot = tm.tokens_on(new);
    assert_eq!(on_slot.len(), 1, "{on_slot:?}");
    assert_eq!(on_slot[0].1.fid, new);
    assert_eq!(client.getattr(old).unwrap_err(), DfsError::StaleFid);
}

#[test]
fn a_file_with_another_link_keeps_its_tokens_and_its_cache() {
    let cell = one_server_cell();
    let tm = token_manager(&cell);
    let client = no_flush_client(&cell);
    let root = client.root(VOL).unwrap();
    let fid = cached_file(&client, root, "a");
    client.link(root, "b", fid).unwrap();
    let held = client.held_tokens(fid);
    assert!(!held.is_empty());
    let vnodes = client.cached_vnodes();

    client.remove(root, "a").unwrap();
    assert_eq!(client.held_tokens(fid), held, "the file lives: nothing was given up");
    assert_eq!(tm.tokens_on(fid).len(), held.len());
    let before = cell.net().stats();
    assert_eq!(client.read(fid, 0, PAGE_SIZE).unwrap(), [7u8; PAGE_SIZE]);
    assert_eq!(client.getattr(fid).unwrap().nlink, 1, "the reply's status was merged");
    assert_eq!(cell.net().stats().since(&before).calls, 0, "both served from the cache");

    client.remove(root, "b").unwrap();
    assert_eq!(tm.tokens_on(fid), [], "the last link took the grants with it");
    assert_eq!(client.cached_vnodes(), vnodes - 1, "and the vnode");
    assert_eq!(client.read(fid, 0, PAGE_SIZE).unwrap_err(), DfsError::StaleFid);
}

#[test]
fn removing_a_file_another_client_caches_revokes_it_there() {
    let cell = one_server_cell();
    let tm = token_manager(&cell);
    let (a, b) = (no_flush_client(&cell), no_flush_client(&cell));
    let root = a.root(VOL).unwrap();
    let fid = cached_file(&a, root, "shared");
    assert_eq!(b.read(fid, 0, PAGE_SIZE).unwrap(), [7u8; PAGE_SIZE]);
    assert!(!b.held_tokens(fid).is_empty());
    let revoked = b.stats().revocations;

    a.remove(root, "shared").unwrap();
    // The delete's exclusive tokens pulled B's back through the normal
    // path before the file went; nothing of B's was left to retire.
    assert!(b.stats().revocations > revoked);
    assert_eq!(b.held_tokens(fid), []);
    assert_eq!(b.read(fid, 0, PAGE_SIZE).unwrap_err(), DfsError::StaleFid, "not the cached page");
    assert_eq!(tm.tokens_on(fid), []);
}

#[test]
fn rmdir_and_rename_over_a_target_retire_the_victim() {
    let cell = one_server_cell();
    let tm = token_manager(&cell);
    let client = no_flush_client(&cell);
    let root = client.root(VOL).unwrap();
    client.getattr(root).unwrap();
    let vnodes = client.cached_vnodes();

    let sub = client.mkdir(root, "d", 0o755).unwrap().fid;
    client.getattr(sub).unwrap();
    assert_eq!(tm.tokens_on(sub).len(), 1);
    client.rmdir(root, "d").unwrap();
    assert_eq!(tm.tokens_on(sub), []);
    assert_eq!(client.cached_vnodes(), vnodes, "the directory's vnode was forgotten");

    // A rename over an existing name destroys what the name held.
    let moved = cached_file(&client, root, "x");
    let replaced = cached_file(&client, root, "y");
    // The client forgets the target only when it holds the directory's
    // read tokens, which vouch for the entry its directory layer names.
    assert_eq!(client.lookup(root, "y").unwrap().fid, replaced);
    client.rename(root, "x", root, "y").unwrap();
    assert_eq!(tm.tokens_on(replaced), []);
    assert_eq!(client.cached_vnodes(), vnodes + 1, "only the moved file is still cached");
    assert_eq!(client.lookup(root, "y").unwrap().fid, moved);
    assert!(!tm.tokens_on(moved).is_empty());
    assert_eq!(client.read(replaced, 0, PAGE_SIZE).unwrap_err(), DfsError::StaleFid);

    // Unless it has another link: then it lives, tokens and all.
    let linked = cached_file(&client, root, "z");
    client.link(root, "z2", linked).unwrap();
    client.create(root, "w", 0o644).unwrap();
    client.rename(root, "w", root, "z").unwrap();
    assert!(!tm.tokens_on(linked).is_empty());
    assert_eq!(client.read(linked, 0, PAGE_SIZE).unwrap(), [7u8; PAGE_SIZE]);
}

#[test]
fn a_local_delete_retires_through_the_glue_layer() {
    let cell = one_server_cell();
    let tm = token_manager(&cell);
    let client = no_flush_client(&cell);
    let root = client.root(VOL).unwrap();
    let fid = cached_file(&client, root, "f");
    let lock = decorum_dfs::types::ByteRange::new(0, 10);
    client.acquire_lock_token(fid, lock, false).unwrap();
    assert!(tm.tokens_on(fid).iter().any(|(_, t)| t.types.contains(TokenTypes::LOCK_READ)));

    let local = cell.server(0).local_volume(VOL).unwrap();
    local.remove(&Credentials::system(), root, "f").unwrap();
    // The write tokens were revoked; the lock token conflicts with
    // nothing a delete takes and was retired where it sat.
    assert_eq!(tm.tokens_on(fid), []);
    assert_eq!(client.read(fid, 0, PAGE_SIZE).unwrap_err(), DfsError::StaleFid);
}
