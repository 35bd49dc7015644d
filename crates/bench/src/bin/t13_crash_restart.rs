//! T13 — the crash-restart pipeline end to end (§2.2 + the recovery
//! protocol): a whole cell is crashed and restarted while a write-behind
//! client holds dirty pages, sweeping the file-system size with the
//! in-flight burst held constant.
//!
//! Two claims are measured at once:
//!
//! 1. **Server**: journal replay cost (blocks scanned, simulated disk
//!    time) stays flat as the file system grows — recovery tracks the
//!    active log, not the aggregate (§2.2).
//! 2. **Client**: the reconnection pipeline reestablishes the token set
//!    inside the grace window and replays the dirty burst with zero
//!    lost updates, at a cost proportional to the burst.
//!
//! Flags: `--json` emits machine-readable results (validated by
//! `jsoncheck` in the verify.sh smoke stage); `--files N` sets the base
//! file count of the sweep; `--burst N` the dirty pages at crash time.

use dfs_bench::emit::Obj;
use dfs_bench::Args;
use decorum_dfs::client::WritebackConfig;
use decorum_dfs::types::VolumeId;
use decorum_dfs::Cell;

/// Grows a fresh cell to `files` × 16 KiB of fsync'd data, leaves a
/// `burst`-page dirty write in the client cache, crashes and restarts
/// the server, and drives the client back through recovery.
fn run(files: u32, burst: u64) -> Obj {
    let cell = Cell::builder()
        .servers(1)
        .disk_blocks(256 * 1024)
        .log_blocks(256)
        .build()
        .expect("cell");
    cell.create_volume(0, VolumeId(1), "v").expect("volume");
    // Flusher off: the burst must still be dirty at crash time, so the
    // replay cost measured below is exactly the client's.
    let c = cell.new_client_writeback(WritebackConfig { flusher: false, ..Default::default() });
    let root = c.root(VolumeId(1)).unwrap();
    for i in 0..files {
        let f = c.create(root, &format!("f{i}"), 0o644).unwrap();
        c.write(f.fid, 0, &vec![i as u8; 16 * 1024]).unwrap();
        c.fsync(f.fid).unwrap();
    }
    // Checkpoint: an empty-handed fsync forces the log and flushes the
    // episode home, so the *active* log at crash time is exactly the
    // fixed-size tail below — independent of how much data came before.
    let hot = c.create(root, "hot", 0o644).unwrap();
    c.fsync(hot.fid).unwrap();
    // A fixed tail of acked-but-uncheckpointed transactions: this is
    // what journal replay will actually scan.
    for i in 0..8 {
        let t = c.create(root, &format!("tail{i}"), 0o644).unwrap();
        c.write(t.fid, 0, &[i as u8; 4096]).unwrap();
        c.fsync(t.fid).unwrap();
    }
    // The fixed in-flight burst: dirty in the client cache only.
    for p in 0..burst {
        c.write(hot.fid, p * 4096, &[0xA5u8; 4096]).unwrap();
    }
    let before = c.stats();

    cell.crash_server(0);
    let report = cell.restart_server(0, 5_000_000).expect("restart");

    // One poke runs the whole client pipeline: GraceWait, epoch probe,
    // reestablishment, burst replay.
    c.create(root, "poke", 0o644).unwrap();
    let after = c.stats();

    // Zero-lost-update check through a fresh client (grace closed when
    // the survivor checked in, so this is admitted immediately).
    let b = cell.new_client();
    let verified = (0..burst)
        .all(|p| b.read(hot.fid, p * 4096, 4096).map(|d| d == vec![0xA5u8; 4096]).unwrap_or(false));

    Obj::new()
        .field("files", files)
        .field("fs_kib", u64::from(files) * 16 + 8 * 4 + burst * 4)
        .field("scanned_blocks", report.scanned_blocks)
        .field("log_records", report.records)
        .field("replay_ms", report.disk_busy_us as f64 / 1000.0)
        .field("tokens_reestablished", after.tokens_reestablished - before.tokens_reestablished)
        .field("replayed_pages", after.recovery_replayed_pages - before.recovery_replayed_pages)
        .field("grace_waits", after.grace_waits - before.grace_waits)
        .field("verified", verified)
}

fn main() {
    let args = Args::parse(&["--files", "--burst"]);
    let (files, burst) = (args.get("--files", 64u32), args.get("--burst", 8u64));
    let sweep = [1u32, 2, 4, 8].map(|m| run(files * m, burst));
    args.print(
        &format!("T13: crash-restart pipeline — FS size swept, {burst}-page dirty burst fixed"),
        &format!(
            "Expected shape (paper §2.2): scanned_blocks and replay_ms stay roughly\n\
             flat as the file system grows 8x — recovery is proportional to the\n\
             active log. The client replays exactly the burst ({burst} pages) after\n\
             reestablishing its tokens inside the grace window; 'verified' confirms\n\
             no update was lost across the crash."
        ),
        Obj::new()
            .field("bench", "t13_crash_restart")
            .field("burst_pages", burst)
            .field_arr("sweep", sweep),
    );
}
