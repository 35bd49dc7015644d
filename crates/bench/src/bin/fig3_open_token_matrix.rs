//! F3 — Figure 3: the open-token compatibility matrix, rendered from
//! the same predicate the token manager uses at grant time.
//!
//! `--json` emits the matrix as named rows of booleans.

use dfs_bench::emit::{arr, Obj};
use dfs_token::{open_compatible, TokenTypes};

fn main() {
    let json = dfs_bench::Args::parse(&[]).json;
    if json {
        let subs = TokenTypes::open_subtypes();
        let rows = arr(subs.iter().map(|&(x, xname)| {
            Obj::new()
                .field("open", xname)
                .field_arr("compatible_with", subs.iter().map(|&(y, _)| open_compatible(x, y)))
        }));
        let out = Obj::new()
            .field("bench", "fig3_open_token_matrix")
            .field_arr("opens", subs.iter().map(|&(_, name)| name))
            .field_raw("matrix", &rows)
            .render();
        println!("{out}");
        return;
    }
    println!("{}", dfs_token::render_open_matrix());
    println!("(yes = both opens may be held by different hosts; - = conflict)");
    println!("Rows/columns: read, write, execute, shared-read, excl-write.");
    println!("Note the UNIX rule: write vs execute conflict (ETXTBSY, §5.4).");
}
