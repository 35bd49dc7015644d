//! F2 — Figure 2: client-side structure, annotated from a live client.
//!
//! `--json` emits the live layer counters machine-readably (the ASCII
//! rendering is inherently human output).

use dfs_bench::emit::Obj;
use decorum_dfs::types::VolumeId;
use decorum_dfs::Cell;

fn main() {
    let json = dfs_bench::Args::parse(&[]).json;
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

    if json {
        let out = Obj::new()
            .field("bench", "fig2_client_structure")
            .field("lookup_hits", s.lookup_hits)
            .field("lookup_misses", s.lookup_misses)
            .field("local_reads", s.local_reads)
            .field("remote_reads", s.remote_reads)
            .field("local_writes", s.local_writes)
            .field("write_token_fetches", s.write_token_fetches)
            .field("revocations", s.revocations)
            .field("queued_revocations", s.queued_revocations)
            .render();
        println!("{out}");
        return;
    }

    println!("Figure 2: DEcorum client structure (live layers)");
    println!();
    println!("+--------------------------------------------------+");
    println!("|  Vnode/VFS interface to the kernel*              |");
    println!("|   vnode layer (4.4): open/read/write/dirs        |");
    println!("|     | lookup hits {:>6}  misses {:>6}           |", s.lookup_hits, s.lookup_misses);
    println!("|   directory layer (4.3): per-lookup cache        |");
    println!("|   cache layer (4.2): status+data under tokens    |");
    println!("|     | local reads {:>6}  remote reads {:>6}     |", s.local_reads, s.remote_reads);
    println!("|     | local writes {:>5}  token fetches {:>5}    |", s.local_writes, s.write_token_fetches);
    println!("|   resource layer (4.1): connections + VLDB cache |");
    println!("|   [RPC]  <— two-way: revocations arrive here —>  |");
    println!("|     | revocations {:>6} (queued {:>4})           |", s.revocations, s.queued_revocations);
    println!("+--------------------------------------------------+");
    println!("(* kernel interface simulated by the public API)");
}
