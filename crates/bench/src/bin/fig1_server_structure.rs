//! F1 — Figure 1: server-side structure, rendered from a live cell.
//!
//! The figure is the report's title; the report itself is the live
//! component counters (`--json` prints those alone).

use dfs_bench::emit::Obj;
use decorum_dfs::types::VolumeId;
use decorum_dfs::Cell;

fn main() {
    let args = dfs_bench::Args::parse(&[]);
    let cell = Cell::builder().servers(1).build().expect("cell");
    cell.create_volume(0, VolumeId(1), "root.cell").expect("volume");
    // Touch the server from both sides so every component has state.
    let c = cell.new_client();
    let root = c.root(VolumeId(1)).unwrap();
    let f = c.create(root, "x", 0o644).unwrap();
    c.write(f.fid, 0, b"hi").unwrap();
    let local = cell.server(0).local_volume(VolumeId(1)).unwrap();
    use decorum_dfs::vfs::{Credentials, Vfs};
    local.read(&Credentials::system(), f.fid, 0, 2).unwrap();

    let tm = cell.server(0).token_manager().stats();
    let report = Obj::new()
        .field("bench", "fig1_server_structure")
        .field("token_grants", tm.grants)
        .field("token_revocations", tm.revocations)
        .field("token_releases", tm.releases)
        .field_arr("host_model_clients", cell.server(0).clients().iter().map(|c| c.0))
        .field("server_ops", cell.server(0).stats().ops);
    args.print(
        &cell.render_server_structure(),
        "Expected shape (Figure 1): each component drawn above is live — the\n\
         counters come from the cell's token manager, host model and protocol\n\
         exporter after one client created, wrote and read a file.",
        report,
    );
}
