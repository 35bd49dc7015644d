//! F3 — Figure 3: the open-token compatibility matrix, rendered from
//! the same predicate the token manager uses at grant time.
//!
//! The rendered matrix is the report's title; the report carries the
//! matrix as named rows of booleans (all `--json` prints).

use dfs_bench::emit::Obj;
use dfs_token::{open_compatible, TokenTypes};

fn main() {
    let args = dfs_bench::Args::parse(&[]);
    let subs = TokenTypes::open_subtypes();
    let rows = subs.iter().map(|&(x, xname)| {
        Obj::new()
            .field("open", xname)
            .field_arr("compatible_with", subs.iter().map(|&(y, _)| open_compatible(x, y)))
    });
    let report = Obj::new()
        .field("bench", "fig3_open_token_matrix")
        .field_arr("opens", subs.iter().map(|&(_, name)| name))
        .field_arr("matrix", rows);
    args.print(
        &dfs_token::render_open_matrix(),
        "(yes = both opens may be held by different hosts; - = conflict)\n\
         Rows/columns: read, write, execute, shared-read, excl-write.\n\
         Note the UNIX rule: write vs execute conflict (ETXTBSY, §5.4).",
        report,
    );
}
