//! `dfs-lint`: workspace-wide lock-order static analysis for the
//! DEcorum DFS reproduction.
//!
//! The workspace enforces its lock hierarchy twice: dynamically, via the
//! ranked [`OrderedMutex`] wrappers in `dfs-types` (debug builds panic on
//! inversion), and statically, by this tool. The static half catches
//! orderings that no test happens to execute.
//!
//! # What it checks
//!
//! Scanning every `crates/*/src/**/*.rs` file, the lint extracts lock
//! *facts* — lock field declarations (with their declared rank, parsed
//! from `OrderedMutex<T, { rank::NAME }>` types, bare or wrapped in an
//! `Arc<…>`, a `Vec<…>` or a `Box<[…]>`), acquisition sites
//! (`field.lock()`, and `field[i].lock()` on a wrapped one), and
//! the calls made while a guard is live — then builds an inter-procedural
//! lock-order graph and reports:
//!
//! - **`lock-order`** — an acquisition edge that descends or stays level
//!   in the declared rank hierarchy, or a cycle among unranked locks:
//!   two locks acquired in both orders on some pair of paths.
//! - **`guard-across-revoke`** — a guard held across a call to
//!   `TokenHost::revoke`. Per §5.1/§6.4 of the paper, revocation RPCs
//!   must be issued with no token-manager (or other) locks held, or a
//!   client whose reply path needs those locks deadlocks the server.
//! - **`guard-across-rpc`** — a guard held across a `dfs-rpc` send
//!   (`*.net…call(...)` directly, or any function that transitively
//!   performs one). Same deadlock argument: the peer may turn around and
//!   issue a revocation that needs the held lock.
//! - **`double-lock`** — re-acquiring a field whose guard is already
//!   live in an enclosing scope (self-deadlock with a non-reentrant
//!   mutex).
//! - **`std-sync`** — `std::sync::{Mutex, RwLock, Condvar}` in non-test
//!   code; the workspace standard is `parking_lot` via the `Ordered*`
//!   wrappers.
//! - **`lockset`** — Eraser-style coverage inference: every plain field
//!   of a lock-bearing struct must have a non-empty intersection of
//!   locks held across its access sites, unless all its writes happen
//!   under `&mut self` exclusivity (see [`lockset`]).
//! - **`lock-gap`** — release/reacquire TOCTOU: state read under a
//!   guard, the guard ends, and the reacquired guard is written without
//!   revalidation (see [`lockgap`]).
//! - **`unused-allow`** — a `dfs-lint: allow(...)` that suppressed no
//!   would-be violation in this run, or names an unknown rule.
//!
//! # Precision contract
//!
//! There is no AST — a hand-rolled lexer feeds conservative pattern
//! walkers (the container has no network access, so `syn`/`quote` are
//! not available; nothing outside `std` is used). The design errs
//! toward *under*-reporting on constructs it cannot see precisely:
//! acquisitions only count on fields declared as lock types in the same
//! crate, calls resolve nearest-definition-first (same file, then same
//! crate, then workspace), and heavily overloaded std method names are
//! never resolved at all (see `CALL_STOPLIST` in `scan.rs`). Guard
//! liveness is lexical: `let g = x.f.lock();` holds `g` until its
//! scope closes, `drop(g)`, or `g` is passed by value to a call (the
//! callee then owns unlocking it, and `g` is not held across that
//! call); any other acquisition form is a statement temporary. The
//! client's vnode `lo` guard has one more form: lent as `&mut lo` it is
//! the callee's to answer for — the lender is not charged for that
//! call, and the callee's `lo: &mut LoGuard` parameter is a live `lo`
//! guard from its first line, except inside the argument of
//! `lo.unlocked(..)`, which runs with it released.
//!
//! # Suppressions
//!
//! `// dfs-lint: allow(rule, ...)` on (or directly above) a line
//! suppresses the named rules there. On a `fn` line it audits the whole
//! function (e.g. the client's `store_once`, whose reserved-class sends
//! are grant-free at the server per §6.3 and therefore safe to make
//! with the vnode lock held). On a lock field declaration it
//! exempts guards of that field everywhere (e.g. the client vnode `hi`
//! lock, which §6.1 holds across RPCs by design because revocation
//! handlers only ever take `lo`).
//!
//! [`OrderedMutex`]: ../dfs_types/lock/index.html

pub mod analyze;
pub mod lockgap;
pub mod lockset;
pub mod scan;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rank annotation on an `Ordered*` field: a named constant from
/// `dfs_types::lock::rank` or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum RankExpr {
    Const(String),
    Literal(u16),
}

/// A lock field declaration.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub name: String,
    pub line: u32,
    pub rank: Option<RankExpr>,
}

/// One lock acquisition site: `receiver.field.lock()` (or `.read()` /
/// `.write()`), with the guards live at that point.
#[derive(Debug, Clone)]
pub struct Acquisition {
    pub field: String,
    pub line: u32,
    /// `(field, acquisition line)` of every guard live here.
    pub held: Vec<(String, u32)>,
    /// Dotted receiver path before the field (`self`, `buf.cell`, …).
    /// Two acquisitions of one field pair up for the lock-gap rule only
    /// when their receivers match — `a.state` / `b.state` are different
    /// objects.
    pub receiver: String,
    /// State was observed through this guard (a field read through the
    /// guard variable, or a value projected out of a temporary guard).
    pub reads: bool,
    /// State was written through this guard.
    pub writes: bool,
    /// Line of the first write through the guard (valid when `writes`).
    pub write_line: u32,
    /// The first write was preceded by a guard-state comparison
    /// (`g.version == snapshot`) or its RHS re-reads the guard
    /// (`g.tail.max(local)`) — the revalidate-after-reacquire idiom,
    /// which the lock-gap rule recognises as the sanctioned fix.
    pub revalidated: bool,
}

/// Receiver kind of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelfKind {
    /// Free function or associated fn without `self`.
    None,
    /// `&self` — shared access; the caller may alias this object.
    Ref,
    /// `&mut self` — rustc guarantees exclusive access for the call, so
    /// plain-field accesses cannot race and are exempt from lockset.
    RefMut,
    /// `self` / `mut self` by value — also exclusive.
    Value,
}

/// One access to a shared data field — a plain (non-lock, non-atomic)
/// field of a struct that also declares `Ordered*` locks — via
/// `self.field`.
#[derive(Debug, Clone)]
pub struct Access {
    pub field: String,
    pub line: u32,
    /// Assignment (`=`, `+=`, indexed store) or `&mut` borrow.
    pub write: bool,
    /// Guards live at the access, as `(lock field, acquisition line)`.
    pub held: Vec<(String, u32)>,
}

/// One call made inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: String,
    pub line: u32,
    pub held: Vec<(String, u32)>,
    /// Dotted receiver path, e.g. `self.net` for `self.net.call(..)`.
    pub receiver: String,
    /// True for a direct `dfs-rpc` send: a `call` method on a receiver
    /// path mentioning `net`.
    pub direct_rpc: bool,
}

/// Facts about one function body.
#[derive(Debug, Clone)]
pub struct FnFacts {
    pub name: String,
    pub line: u32,
    pub self_kind: SelfKind,
    /// Declared with any `pub` visibility. Public fns are lockset roots:
    /// callers outside the scanned tree (tests, benches) may enter with
    /// no locks held, so no lock context is inferred for them.
    pub is_pub: bool,
    pub acquisitions: Vec<Acquisition>,
    pub calls: Vec<Call>,
    /// Shared-data-field accesses (see [`Access`]).
    pub accesses: Vec<Access>,
    /// Rules suppressed for the whole function via a `dfs-lint: allow`
    /// annotation on the `fn` line.
    pub audited: HashSet<String>,
}

/// Everything extracted from one source file.
#[derive(Debug, Clone)]
pub struct FileFacts {
    pub crate_name: String,
    pub path: String,
    pub fields: Vec<FieldDecl>,
    /// Plain sibling data fields of lock-bearing structs declared in
    /// this file (the lockset rule's subjects). `rank` is always `None`.
    pub data_fields: Vec<FieldDecl>,
    pub rank_consts: HashMap<String, u16>,
    pub fns: Vec<FnFacts>,
    /// `(line, type name)` of `std::sync::{Mutex,RwLock,Condvar}` uses.
    pub std_sync_sites: Vec<(u32, String)>,
    /// `(line, type name)` of every raw `parking_lot` lock named in
    /// non-test code — a path (`parking_lot::Mutex`) or an import
    /// (`use parking_lot::{Mutex, RwLock}`) — wherever the lock then sits:
    /// a named or tuple field, an `Option`, a map value, a `static`.
    pub raw_lock_sites: Vec<(u32, String)>,
    /// line → rules allowed on that line.
    pub allows: HashMap<u32, HashSet<String>>,
}

/// A reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: String,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Scans a workspace-style directory and analyzes it (see [`facts`]).
pub fn run(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    Ok(analyze::analyze(&facts(root)?))
}

/// Scans a workspace-style directory into per-file facts: every
/// immediate subdirectory of `root` that contains `src/` is treated as a
/// crate (named after the directory), and its `src/**/*.rs` files are
/// scanned. If `root` itself contains `src/`, it is treated as a single
/// crate. Test and bench trees are deliberately out of scope — the
/// discipline applies to production code.
pub fn facts(root: &Path) -> std::io::Result<Vec<FileFacts>> {
    let mut files = Vec::new();
    let mut crate_roots: Vec<(String, PathBuf)> = Vec::new();
    if root.join("src").is_dir() {
        crate_roots.push((dir_name(root), root.to_path_buf()));
    } else {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(root)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("src").is_dir())
            .collect();
        entries.sort();
        for p in entries {
            crate_roots.push((dir_name(&p), p));
        }
    }
    for (crate_name, crate_root) in crate_roots {
        let mut sources = Vec::new();
        collect_rs(&crate_root.join("src"), &mut sources)?;
        sources.sort();
        let texts: Vec<(String, String)> = sources
            .iter()
            .map(|p| std::fs::read_to_string(p).map(|s| (p.to_string_lossy().into_owned(), s)))
            .collect::<std::io::Result<_>>()?;
        // Acquisition detection needs every lock field of the crate, not
        // just the ones declared in the file being scanned — and likewise
        // access detection needs the crate-wide shared-data-field set
        // (`journal/frame.rs` declares the fields `journal/lib.rs`
        // accesses).
        let mut crate_fields: HashSet<String> = HashSet::new();
        let mut crate_data: HashSet<String> = HashSet::new();
        for (_, src) in &texts {
            crate_fields.extend(scan::lock_field_names(src));
            crate_data.extend(scan::shared_data_field_names(src));
        }
        for (rel, src) in &texts {
            files.push(scan::scan_file(&crate_name, rel, src, &crate_fields, &crate_data));
        }
    }
    Ok(files)
}

fn dir_name(p: &Path) -> String {
    // `.` (scanning the workspace root crate) has no file name; fall
    // back to the canonical directory name so the crate key is stable.
    p.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .or_else(|| {
            p.canonicalize()
                .ok()
                .and_then(|c| c.file_name().map(|n| n.to_string_lossy().into_owned()))
        })
        .unwrap_or_else(|| ".".into())
}

/// Renders diagnostics as one stable JSON document: diagnostics sorted
/// by (path, line, rule), plus a total. No external JSON crates — the
/// escaper covers everything the diagnostic messages can contain.
pub fn render_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort();
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            esc(&d.path),
            d.line,
            esc(&d.rule),
            esc(&d.message)
        ));
    }
    if !sorted.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"total\": {}\n}}\n", sorted.len()));
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}
