//! F2 — Figure 2: client-side structure, annotated from a live client.
//!
//! The figure is the report's title; the report itself is the live
//! layer counters (`--json` prints those alone).

use dfs_bench::emit::Obj;
use decorum_dfs::types::VolumeId;
use decorum_dfs::Cell;

const FIGURE: &str = "Figure 2: DEcorum client structure (live layers)

+--------------------------------------------------+
|  Vnode/VFS interface to the kernel*              |
|   vnode layer (4.4): open/read/write/dirs        |
|   directory layer (4.3): per-lookup cache        |
|   cache layer (4.2): status+data under tokens    |
|   resource layer (4.1): connections + VLDB cache |
|   [RPC]  <— two-way: revocations arrive here —>  |
+--------------------------------------------------+
(* kernel interface simulated by the public API)";

fn main() {
    let args = dfs_bench::Args::parse(&[]);
    let cell = Cell::builder().servers(1).build().expect("cell");
    cell.create_volume(0, VolumeId(1), "v").expect("volume");
    let c = cell.new_client();
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "file", 0o644).unwrap();
    c.write(f.fid, 0, &vec![1u8; 8192]).unwrap();
    c.read(f.fid, 0, 4096).unwrap();
    c.lookup(root, "file").unwrap();
    c.lookup(root, "file").unwrap();
    let s = c.stats();

    let report = Obj::new()
        .field("bench", "fig2_client_structure")
        .field("lookup_hits", s.lookup_hits)
        .field("lookup_misses", s.lookup_misses)
        .field("local_reads", s.local_reads)
        .field("remote_reads", s.remote_reads)
        .field("local_writes", s.local_writes)
        .field("write_token_fetches", s.write_token_fetches)
        .field("revocations", s.revocations)
        .field("queued_revocations", s.queued_revocations);
    args.print(
        FIGURE,
        "Expected shape (Figure 2): the vnode layer counts lookup hits and\n\
         misses (4.4), the cache layer local and remote reads and writes\n\
         under tokens (4.2), and the RPC layer the revocations that arrive\n\
         from the server.",
        report,
    );
}
