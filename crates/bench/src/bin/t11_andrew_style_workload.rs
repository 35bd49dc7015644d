//! T11 (extension) — an Andrew-benchmark-style software-engineering
//! session, now a scenario definition over [`dfs_bench::scenario`].
//!
//! The paper's lineage (AFS, Howard et al. 1988) evaluated file systems
//! with the Andrew benchmark's phases: MakeDir, Copy, ScanDir, ReadAll,
//! and Make. This extension expresses that phase mix declaratively —
//! one developer client against one server, mostly-private working
//! set, exactly where token caching pays:
//!
//! | Andrew phase    | scenario phase | op classes                      |
//! |-----------------|----------------|---------------------------------|
//! | MakeDir + Copy  | `copy`         | Write (fsync'd) + MetadataChurn |
//! | ScanDir         | `scan`         | Read (1-in-4 draws = getattr)   |
//! | ReadAll         | `readall`      | StreamingScan (4-page files)    |
//! | Make            | `make`         | Write + re-Read of hot files    |
//!
//! The shared driver owns seeding, execution, and the invariant checks
//! (no lost updates, prefilled content verified on every scan). The
//! cross-system NFS/AFS comparison this binary used to carry lives in
//! `t3_consistency_spectrum`; T11 now measures the thing the Andrew
//! workload is actually for — RPCs per operation of a cached developer
//! session (EXPERIMENTS.md notes the re-baselining).
//!
//! Flags: `--json` (uniform scenario report), `--seed N`.

use dfs_bench::emit::Obj;
use dfs_bench::scenario::{ClassSpec, OpClass, Phase, Scenario, Topology};
use dfs_bench::Args;

/// Files in the source tree (per sharing group — there is one group).
const FILES: u32 = 12;

fn andrew(seed: u64) -> Scenario {
    Scenario::new(
        "t11_andrew",
        seed,
        Topology::new(1, 1, 1).disk_blocks(64 * 1024),
        vec![
            // MakeDir + Copy: populate the tree, fsync in batches (the
            // editor's save cadence), with directory churn alongside.
            Phase::new(
                "copy",
                96,
                vec![
                    ClassSpec::new(OpClass::Write, 5, FILES).sharing(4).fsync_every(4),
                    ClassSpec::new(OpClass::MetadataChurn, 1, 8),
                ],
            ),
            // ScanDir: stat-heavy revisiting (1-in-4 Read draws are
            // getattrs — the cached status path).
            Phase::new("scan", 72, vec![ClassSpec::new(OpClass::Read, 1, FILES).sharing(4)]),
            // ReadAll: sequential whole-file reads with verification.
            Phase::new(
                "readall",
                48,
                vec![ClassSpec::new(OpClass::StreamingScan, 1, FILES).sharing(4)],
            ),
            // Make: edit hot files, re-read sources, occasional fsync.
            Phase::new(
                "make",
                40,
                vec![
                    ClassSpec::new(OpClass::Write, 1, FILES).sharing(4).fsync_every(8),
                    ClassSpec::new(OpClass::Read, 2, FILES).sharing(4),
                ],
            ),
        ],
    )
}

fn main() {
    let args = Args::parse(&["--seed"]);
    let r = andrew(args.get("--seed", 11u64)).run();
    args.print(
        &format!(
            "T11 (extension): Andrew-style developer workload as a scenario\n    \
             phases: copy / scan / readall / make; {FILES} source files; class_ops\n    \
             counts read / write / metadata_churn / streaming_scan"
        ),
        "Expected shape: for a mostly-private working set the token cache\n\
         drives RPCs per operation toward zero after the copy phase — reads\n\
         and getattrs are served locally, and write-backs happen on demand,\n\
         not store-on-close of whole files. Compare `t3_consistency_spectrum`\n\
         for the NFS/AFS baseline costs on an equivalent mix.",
        Obj::new().field("bench", "t11_andrew_style_workload").field("run", r.report()),
    );
}
