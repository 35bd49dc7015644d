//! Single-file fact extraction: a hand-rolled Rust lexer plus pattern
//! walkers that pull out the lock-relevant facts of one source file.
//!
//! The lexer is deliberately tiny: it strips comments, strings, chars
//! and lifetimes while preserving line numbers, and emits a flat token
//! stream. Everything downstream pattern-matches on that stream — there
//! is no AST, so the walkers are conservative heuristics tuned for the
//! workspace's idiom (see the module doc in `lib.rs` for the precision
//! contract).

use crate::{Access, Acquisition, Call, FieldDecl, FileFacts, FnFacts, RankExpr, SelfKind};
use std::collections::{HashMap, HashSet};

/// One lexical token with the 1-based source line it started on.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Num(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Punct(char),
}

#[derive(Debug, Clone)]
pub struct Sp {
    pub tok: Tok,
    pub line: u32,
}

/// Methods that acquire a lock when invoked on a known lock field.
/// `lock_all` is the sharded mutex's whole-table acquisition; its
/// acquisition name carries a `#*` suffix (see the shard arm below).
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write", "lock_all"];

/// Lock type names recognised in field declarations.
const LOCK_TYPES: &[&str] =
    &["Mutex", "RwLock", "OrderedMutex", "OrderedRwLock", "OrderedShardedMutex"];

/// `parking_lot`'s lock types: naming one outside the wrappers' own
/// module makes a lock no rank covers.
const RAW_LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "ReentrantMutex", "FairMutex"];

/// Owning containers a lock field's type may wrap its lock in:
/// `Arc<Mutex<T>>`, `Vec<OrderedMutex<T, R>>`, `Box<[Mutex<T>]>`. A guard
/// of such a field is still a guard of that field (`self.slots[i].lock()`
/// included).
const LOCK_WRAPPERS: &[&str] = &["Arc", "Vec", "Box"];

/// Method/function names never treated as workspace calls. These are
/// overwhelmingly std collection/iterator/option methods; resolving
/// them by bare name against workspace functions (`get`, `insert`, …)
/// would fabricate call edges. The cost is missing a real workspace
/// call that shares one of these names — an acceptable recall loss for
/// the precision gain.
const CALL_STOPLIST: &[&str] = &[
    "len", "is_empty", "clone", "unwrap", "expect", "iter", "into_iter", "get", "get_mut",
    "insert", "remove", "push", "pop", "contains", "contains_key", "entry", "or_default",
    "or_insert", "or_insert_with", "map", "and_then", "then", "filter", "filter_map", "collect",
    "retain", "keys", "values", "values_mut", "iter_mut", "to_vec", "to_string", "into", "from",
    "as_ref", "as_mut", "as_str", "as_slice", "as_bytes", "cloned", "copied", "unwrap_or",
    "unwrap_or_else", "unwrap_or_default", "ok", "ok_or", "ok_or_else", "err", "min", "max",
    "min_by_key", "max_by_key", "drain", "extend", "sort", "sort_by", "sort_by_key", "position",
    "find", "any", "all", "count", "sum", "chain", "zip", "flatten", "flat_map", "rev", "take",
    "skip", "last", "first", "resize", "truncate", "clear", "starts_with", "ends_with", "split",
    "splitn", "trim", "parse", "fmt", "eq", "ne", "cmp", "partial_cmp", "hash", "next", "peek",
    "load", "store", "swap", "fetch_add", "fetch_sub", "compare_exchange", "join", "spawn",
    "sleep", "now", "elapsed", "abs", "saturating_add", "saturating_sub", "checked_add",
    "checked_sub", "wrapping_add", "is_some", "is_none", "is_ok", "is_err", "is_dir", "is_file",
    "to_owned", "as_deref", "take_while", "skip_while", "windows", "chunks", "concat",
    "copy_from_slice", "try_into", "try_from", "fill", "default", "replace", "get_or_insert_with",
    "min_by", "max_by", "step_by", "enumerate", "encode", "decode", "push_str", "repeat",
    // Generic verbs that name both std/io methods and unrelated
    // workspace functions (`disk.write(..)` must not resolve to a
    // client's `fn write` operation). Real lock acquisitions are
    // matched structurally before call detection, so stoplisting the
    // verbs here cannot hide an acquisition.
    "read", "write", "flush", "lock", "wait", "stats", "new",
];

/// Keywords that may be followed by `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "loop", "for", "in", "return", "break", "continue", "as",
    "let", "mut", "fn", "pub", "use", "mod", "impl", "trait", "struct", "enum", "const", "static",
    "type", "where", "move", "ref", "self", "Self", "super", "crate", "dyn", "unsafe", "async",
    "await", "true", "false",
];

pub fn lex(src: &str) -> Vec<Sp> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                while i < n && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i += 1;
                while i < n {
                    match b[i] {
                        '\\' => i += 2,
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            '\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                // `'\n'`): a char literal has exactly one unescaped char,
                // so `'X'` is a literal iff position i+2 is a quote.
                if i + 1 < n
                    && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                    && !(i + 2 < n && b[i + 2] == '\'')
                {
                    // Lifetime: skip the quote and the identifier.
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    continue;
                }
                i += 1;
                while i < n {
                    match b[i] {
                        '\\' => i += 2,
                        '\'' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Stop a numeric literal before a method call (`0.lock()`
                    // is tuple-index style; `1.0` is a float — keep the
                    // common case simple: stop at `.` followed by non-digit).
                    if b[i] == '.' && (i + 1 >= n || !b[i + 1].is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                out.push(Sp { tok: Tok::Num(b[start..i].iter().collect()), line });
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let ident: String = b[start..i].iter().collect();
                // Raw/byte string prefixes: r"..", r#".."#, b"..", br#".."#.
                if (ident == "r" || ident == "b" || ident == "br")
                    && i < n
                    && (b[i] == '"' || b[i] == '#')
                {
                    let mut hashes = 0;
                    while i < n && b[i] == '#' {
                        hashes += 1;
                        i += 1;
                    }
                    if i < n && b[i] == '"' {
                        i += 1;
                        'raw: while i < n {
                            if b[i] == '\n' {
                                line += 1;
                            }
                            if b[i] == '"' {
                                let mut h = 0;
                                while i + 1 + h < n && b[i + 1 + h] == '#' && h < hashes {
                                    h += 1;
                                }
                                if h == hashes {
                                    i += 1 + hashes;
                                    break 'raw;
                                }
                            }
                            i += 1;
                        }
                        continue;
                    }
                }
                out.push(Sp { tok: Tok::Ident(ident), line });
            }
            '{' => {
                out.push(Sp { tok: Tok::LBrace, line });
                i += 1;
            }
            '}' => {
                out.push(Sp { tok: Tok::RBrace, line });
                i += 1;
            }
            '(' => {
                out.push(Sp { tok: Tok::LParen, line });
                i += 1;
            }
            ')' => {
                out.push(Sp { tok: Tok::RParen, line });
                i += 1;
            }
            '[' => {
                out.push(Sp { tok: Tok::LBracket, line });
                i += 1;
            }
            ']' => {
                out.push(Sp { tok: Tok::RBracket, line });
                i += 1;
            }
            c => {
                out.push(Sp { tok: Tok::Punct(c), line });
                i += 1;
            }
        }
    }
    out
}

/// Extracts `// dfs-lint: allow(rule, ...)` annotations. Each maps to a
/// *target line*: the annotation's own line if it trails code, else the
/// next line that carries code (skipping blanks, other comments, and
/// attribute lines so an allow above `#[...]` still binds to the item).
pub fn collect_allows(src: &str) -> HashMap<u32, HashSet<String>> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out: HashMap<u32, HashSet<String>> = HashMap::new();
    for (idx, raw) in lines.iter().enumerate() {
        let Some(pos) = raw.find("dfs-lint: allow(") else { continue };
        let Some(comment_pos) = raw.find("//") else { continue };
        if pos < comment_pos {
            continue; // "dfs-lint" outside a comment: not an annotation
        }
        // The marker must open the line's comment: only whitespace between
        // the first `//` and `dfs-lint`. Doc prose *mentioning* the syntax
        // (``/// use `// dfs-lint: allow(...)` ``) is not an annotation.
        if !raw[comment_pos + 2..pos].trim().is_empty() {
            continue;
        }
        let rest = &raw[pos + "dfs-lint: allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let code_before = raw[..comment_pos].trim();
        let target = if !code_before.is_empty() {
            (idx + 1) as u32
        } else {
            // Find the next code-bearing line.
            let mut t = idx + 1;
            loop {
                if t >= lines.len() {
                    break (idx + 1) as u32;
                }
                let l = lines[t].trim();
                if l.is_empty() || l.starts_with("//") || l.starts_with("#[") || l.starts_with("#!") {
                    t += 1;
                } else {
                    break (t + 1) as u32;
                }
            }
        };
        out.entry(target).or_default().extend(rules);
    }
    out
}

/// Computes token-index ranges covered by `#[cfg(test)]` items (mods and
/// fns), which the fact walkers skip entirely.
fn cfg_test_ranges(ts: &[Sp]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < ts.len() {
        let is_cfg_test = ts[i].tok == Tok::Punct('#')
            && ts[i + 1].tok == Tok::LBracket
            && ts[i + 2].tok == Tok::Ident("cfg".into())
            && ts[i + 3].tok == Tok::LParen
            && ts[i + 4].tok == Tok::Ident("test".into())
            && ts[i + 5].tok == Tok::RParen
            && ts[i + 6].tok == Tok::RBracket;
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip ahead to the item's opening brace and find its close.
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut opened = false;
        while j < ts.len() {
            match ts[j].tok {
                Tok::LBrace => {
                    depth += 1;
                    opened = true;
                }
                Tok::RBrace => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        break;
                    }
                }
                Tok::Punct(';') if !opened => break, // `mod tests;` — nothing inline
                _ => {}
            }
            j += 1;
        }
        ranges.push((i, j));
        i = j + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i <= b)
}

fn ident(ts: &[Sp], i: usize) -> Option<&str> {
    match ts.get(i).map(|s| &s.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn is_punct(ts: &[Sp], i: usize, c: char) -> bool {
    matches!(ts.get(i).map(|s| &s.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Matches a lock field declaration starting at token `i`.
fn field_decl_at(ts: &[Sp], i: usize) -> Option<FieldDecl> {
    let name = ident(ts, i)?;
    if !is_punct(ts, i + 1, ':') || is_punct(ts, i + 2, ':') {
        return None;
    }
    let mut j = i + 2;
    let ty = loop {
        // Swallow a leading path (`parking_lot :: Mutex`).
        while ident(ts, j).is_some() && is_punct(ts, j + 1, ':') && is_punct(ts, j + 2, ':') {
            j += 3;
        }
        let ty = ident(ts, j)?;
        if !LOCK_WRAPPERS.contains(&ty) || !is_punct(ts, j + 1, '<') {
            break ty;
        }
        // Into the wrapper, and into a slice: `Box < [ Mutex < T > ] >`.
        j += 2;
        if matches!(ts.get(j).map(|s| &s.tok), Some(Tok::LBracket)) {
            j += 1;
        }
    };
    if !LOCK_TYPES.contains(&ty) || !is_punct(ts, j + 1, '<') {
        return None;
    }
    let rank = if ty.starts_with("Ordered") { parse_rank_expr(ts, j + 2) } else { None };
    Some(FieldDecl { name: name.to_string(), line: ts[i].line, rank })
}

/// Fields of one parsed `struct` declaration, split into lock fields
/// and plain data fields.
struct StructFields {
    lock_fields: Vec<FieldDecl>,
    data_fields: Vec<FieldDecl>,
}

/// Type heads that are synchronization primitives or otherwise exempt
/// from shared-data-field tracking: atomics order their own accesses,
/// condvars carry no data, `PhantomData` is zero-sized.
fn exempt_data_type(head: &str) -> bool {
    head.starts_with("Atomic") || head == "Condvar" || head == "PhantomData"
}

/// Parses every `struct Name { ... }` body in the token stream into its
/// field lists. Tuple and unit structs are skipped (no named fields to
/// track). Nested groups inside field types — `OrderedMutex<T,
/// { rank::X }>`, arrays, fn types — are balanced over, and `<`/`>` are
/// tracked so commas inside generics don't split a field.
fn parse_struct_fields(ts: &[Sp], skip: &[(usize, usize)]) -> Vec<StructFields> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < ts.len() {
        if in_ranges(skip, i) || ident(ts, i) != Some("struct") || ident(ts, i + 1).is_none() {
            i += 1;
            continue;
        }
        // Find the body brace at angle-depth 0; bail on `;` (unit) or
        // `(` (tuple).
        let mut j = i + 2;
        let mut angle = 0i32;
        let body = loop {
            match ts.get(j).map(|s| &s.tok) {
                None => break None,
                Some(Tok::Punct('<')) => angle += 1,
                Some(Tok::Punct('>')) if j > 0 && !is_punct(ts, j - 1, '-') => angle -= 1,
                Some(Tok::LBrace) if angle == 0 => break Some(j + 1),
                Some(Tok::LParen) | Some(Tok::Punct(';')) if angle == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(mut k) = body else {
            i = j.max(i + 1);
            continue;
        };
        let mut sf = StructFields { lock_fields: Vec::new(), data_fields: Vec::new() };
        let mut grp = 0i32; // (), {}, [] depth inside the body
        angle = 0;
        let mut field_start = true;
        while k < ts.len() {
            match &ts[k].tok {
                Tok::LBrace | Tok::LParen | Tok::LBracket => grp += 1,
                Tok::RBrace | Tok::RParen | Tok::RBracket => {
                    if grp == 0 {
                        break; // closing brace of the struct body
                    }
                    grp -= 1;
                }
                Tok::Punct('<') if grp == 0 => angle += 1,
                Tok::Punct('>') if grp == 0 && !is_punct(ts, k - 1, '-') => angle -= 1,
                Tok::Punct(',') if grp == 0 && angle == 0 => field_start = true,
                Tok::Ident(name) if field_start && grp == 0 && angle == 0 => {
                    if name == "pub" {
                        // visibility; a following `(crate)` is grp > 0
                    } else if is_punct(ts, k + 1, ':') && !is_punct(ts, k + 2, ':') {
                        if let Some(d) = field_decl_at(ts, k) {
                            sf.lock_fields.push(d);
                        } else {
                            // Plain data field: strip the type's leading
                            // path to its head identifier.
                            let mut t = k + 2;
                            while is_punct(ts, t, '&') || ident(ts, t) == Some("mut") {
                                t += 1;
                            }
                            while ident(ts, t).is_some()
                                && is_punct(ts, t + 1, ':')
                                && is_punct(ts, t + 2, ':')
                            {
                                t += 3;
                            }
                            let head = ident(ts, t).unwrap_or("");
                            if !head.is_empty() && !exempt_data_type(head) {
                                sf.data_fields.push(FieldDecl {
                                    name: name.clone(),
                                    line: ts[k].line,
                                    rank: None,
                                });
                            }
                        }
                        field_start = false;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        out.push(sf);
        i = k + 1;
    }
    out
}

/// Pre-pass: the plain data fields of every struct that also declares a
/// lock field — the lockset rule's subjects. Unioned across a crate by
/// the caller, like [`lock_field_names`].
pub fn shared_data_field_names(src: &str) -> HashSet<String> {
    let ts = lex(src);
    let skip = cfg_test_ranges(&ts);
    parse_struct_fields(&ts, &skip)
        .into_iter()
        .filter(|sf| !sf.lock_fields.is_empty())
        .flat_map(|sf| sf.data_fields.into_iter().map(|d| d.name))
        .collect()
}

/// Pre-pass: just the lock field *names* declared in `src`. The caller
/// unions these across a crate so acquisition detection sees fields
/// declared in sibling files (`journal/frame.rs` declares `state`;
/// `journal/lib.rs` acquires it).
pub fn lock_field_names(src: &str) -> HashSet<String> {
    let ts = lex(src);
    let skip = cfg_test_ranges(&ts);
    let mut out = HashSet::new();
    for i in 0..ts.len() {
        if in_ranges(&skip, i) {
            continue;
        }
        if let Some(d) = field_decl_at(&ts, i) {
            out.insert(d.name);
        }
    }
    out
}

/// Scans one file into facts. `crate_lock_fields` is the union of lock
/// field names declared anywhere in the same crate (see
/// [`lock_field_names`]); `crate_data_fields` likewise for shared data
/// fields (see [`shared_data_field_names`]).
pub fn scan_file(
    crate_name: &str,
    rel_path: &str,
    src: &str,
    crate_lock_fields: &HashSet<String>,
    crate_data_fields: &HashSet<String>,
) -> FileFacts {
    let ts = lex(src);
    let mut allows = collect_allows(src);
    let skip = cfg_test_ranges(&ts);
    // Annotations inside `#[cfg(test)]` items (including annotation-shaped
    // text in test string literals) are out of scope, like the code that
    // carries them — otherwise every one would read as a stale allow.
    let skip_lines: Vec<(u32, u32)> = skip
        .iter()
        .filter_map(|&(a, b)| {
            let end = b.min(ts.len().saturating_sub(1));
            ts.get(a).map(|s| (s.line, ts[end].line))
        })
        .collect();
    allows.retain(|line, _| !skip_lines.iter().any(|&(a, b)| *line >= a && *line <= b));

    let data_fields: Vec<FieldDecl> = parse_struct_fields(&ts, &skip)
        .into_iter()
        .filter(|sf| !sf.lock_fields.is_empty())
        .flat_map(|sf| sf.data_fields)
        .collect();

    let mut facts = FileFacts {
        crate_name: crate_name.to_string(),
        path: rel_path.to_string(),
        fields: Vec::new(),
        data_fields,
        rank_consts: HashMap::new(),
        fns: Vec::new(),
        std_sync_sites: Vec::new(),
        raw_lock_sites: Vec::new(),
        allows,
    };

    // --- flat pass: rank consts, std::sync sites, lock field decls ---
    let mut i = 0;
    while i < ts.len() {
        if in_ranges(&skip, i) {
            i += 1;
            continue;
        }
        // `const NAME: u16 = N ;`
        if ident(&ts, i) == Some("const")
            && ident(&ts, i + 3) == Some("u16")
            && is_punct(&ts, i + 2, ':')
            && is_punct(&ts, i + 4, '=')
        {
            if let (Some(name), Some(Tok::Num(v))) = (ident(&ts, i + 1), ts.get(i + 5).map(|s| &s.tok))
            {
                if let Ok(v) = v.replace('_', "").parse::<u16>() {
                    facts.rank_consts.insert(name.to_string(), v);
                }
            }
        }
        // `std :: sync :: {Mutex,RwLock,Condvar}` — rule (d)
        if ident(&ts, i) == Some("std")
            && is_punct(&ts, i + 1, ':')
            && is_punct(&ts, i + 2, ':')
            && ident(&ts, i + 3) == Some("sync")
            && is_punct(&ts, i + 4, ':')
            && is_punct(&ts, i + 5, ':')
        {
            if let Some(t) = ident(&ts, i + 6) {
                if matches!(t, "Mutex" | "RwLock" | "Condvar") {
                    facts.std_sync_sites.push((ts[i].line, t.to_string()));
                }
            }
        }
        // `parking_lot :: Lock` or `parking_lot :: { …, Lock, … }`: a raw
        // lock named in non-test code.
        if ident(&ts, i) == Some("parking_lot")
            && is_punct(&ts, i + 1, ':')
            && is_punct(&ts, i + 2, ':')
        {
            let mut j = i + 3;
            let group = matches!(ts.get(j).map(|s| &s.tok), Some(Tok::LBrace));
            loop {
                if let Some(t) = ident(&ts, j).filter(|t| RAW_LOCK_TYPES.contains(t)) {
                    facts.raw_lock_sites.push((ts[j].line, t.to_string()));
                }
                j += 1;
                if !group || matches!(ts.get(j).map(|s| &s.tok), None | Some(Tok::RBrace)) {
                    break;
                }
            }
        }
        // Lock field decl: `name : [path ::]* LockType <` — records the
        // field and, for Ordered* types, its rank expression.
        if let Some(d) = field_decl_at(&ts, i) {
            facts.fields.push(d);
        }
        i += 1;
    }

    // --- structural pass: functions ---
    let mut i = 0;
    while i < ts.len() {
        if in_ranges(&skip, i) {
            i += 1;
            continue;
        }
        if ident(&ts, i) == Some("fn") {
            if let Some(name) = ident(&ts, i + 1) {
                let fn_line = ts[i].line;
                // Find the body: first `{` at paren-depth 0, or `;` (no body).
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut body_start = None;
                while j < ts.len() {
                    match ts[j].tok {
                        Tok::LParen | Tok::LBracket => paren += 1,
                        Tok::RParen | Tok::RBracket => paren -= 1,
                        Tok::LBrace if paren == 0 => {
                            body_start = Some(j);
                            break;
                        }
                        Tok::Punct(';') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(bs) = body_start {
                    // Matching close brace.
                    let mut depth = 0usize;
                    let mut be = bs;
                    while be < ts.len() {
                        match ts[be].tok {
                            Tok::LBrace => depth += 1,
                            Tok::RBrace => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        be += 1;
                    }
                    let mut lock_fields: HashSet<&str> =
                        facts.fields.iter().map(|f| f.name.as_str()).collect();
                    lock_fields.extend(crate_lock_fields.iter().map(|s| s.as_str()));
                    let mut data_fields: HashSet<&str> =
                        facts.data_fields.iter().map(|f| f.name.as_str()).collect();
                    data_fields.extend(crate_data_fields.iter().map(|s| s.as_str()));
                    let mut f = analyze_body(
                        name,
                        fn_line,
                        &ts[i + 2..bs],
                        &ts[bs..=be.min(ts.len() - 1)],
                        &lock_fields,
                        &data_fields,
                    );
                    f.is_pub = is_pub_fn(&ts, i);
                    if let Some(rules) = facts.allows.get(&fn_line) {
                        f.audited = rules.clone();
                    }
                    facts.fns.push(f);
                    i = be + 1;
                    continue;
                }
            }
        }
        i += 1;
    }

    facts
}

/// Parses the rank expression of `OrderedMutex<T, HERE>` starting just
/// inside the `<`. Recognises `{ rank :: NAME }`, `{ NAME }`, and a
/// literal `N` after the type parameter, scanning a bounded window.
fn parse_rank_expr(ts: &[Sp], start: usize) -> Option<RankExpr> {
    let mut depth = 1i32; // inside one `<`
    let mut j = start;
    let limit = (start + 64).min(ts.len());
    while j < limit && depth > 0 {
        match &ts[j].tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => depth -= 1,
            Tok::LBrace if depth == 1 => {
                if ident(ts, j + 1) == Some("rank")
                    && is_punct(ts, j + 2, ':')
                    && is_punct(ts, j + 3, ':')
                {
                    if let Some(name) = ident(ts, j + 4) {
                        return Some(RankExpr::Const(name.to_string()));
                    }
                }
                if let Some(Tok::Num(v)) = ts.get(j + 1).map(|s| &s.tok) {
                    if let Ok(v) = v.replace('_', "").parse::<u16>() {
                        return Some(RankExpr::Literal(v));
                    }
                }
                if let Some(name) = ident(ts, j + 1) {
                    if matches!(ts.get(j + 2).map(|s| &s.tok), Some(Tok::RBrace)) {
                        return Some(RankExpr::Const(name.to_string()));
                    }
                }
            }
            Tok::Punct(',') if depth == 1 => {
                if let Some(Tok::Num(v)) = ts.get(j + 1).map(|s| &s.tok) {
                    if let Ok(v) = v.replace('_', "").parse::<u16>() {
                        return Some(RankExpr::Literal(v));
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// True if the `fn` at `fn_idx` carries any `pub` visibility (looking
/// back over `pub(crate)` groups and `async`/`unsafe`/`const`/`extern`
/// qualifiers).
fn is_pub_fn(ts: &[Sp], fn_idx: usize) -> bool {
    let mut k = fn_idx;
    let mut steps = 0;
    while k > 0 && steps < 8 {
        k -= 1;
        steps += 1;
        match &ts[k].tok {
            Tok::Ident(id) if matches!(id.as_str(), "async" | "unsafe" | "const" | "extern") => {}
            Tok::Ident(id) if id == "pub" => return true,
            Tok::RParen => {
                // Walk over a `pub(crate)` / `pub(in path)` group.
                let mut d = 1;
                while k > 0 && d > 0 {
                    k -= 1;
                    match ts[k].tok {
                        Tok::RParen => d += 1,
                        Tok::LParen => d -= 1,
                        _ => {}
                    }
                }
            }
            _ => return false,
        }
    }
    false
}

/// Receiver kind from the signature tokens (everything between the fn
/// name and the body brace). The parameter list is the first `(` at
/// angle-depth 0 — parens inside generic bounds (`F: Fn() -> T`) sit at
/// depth ≥ 1.
fn self_kind_of_sig(sig: &[Sp]) -> SelfKind {
    let mut angle = 0i32;
    let mut k = 0;
    let params = loop {
        match sig.get(k).map(|s| &s.tok) {
            None => return SelfKind::None,
            Some(Tok::Punct('<')) => angle += 1,
            Some(Tok::Punct('>')) if k > 0 && !is_punct(sig, k - 1, '-') => angle -= 1,
            Some(Tok::LParen) if angle == 0 => break k + 1,
            _ => {}
        }
        k += 1;
    };
    // Lifetimes are stripped by the lexer, so `&'a mut self` shows as
    // `& mut self`.
    if is_punct(sig, params, '&') {
        if ident(sig, params + 1) == Some("mut") && ident(sig, params + 2) == Some("self") {
            SelfKind::RefMut
        } else if ident(sig, params + 1) == Some("self") {
            SelfKind::Ref
        } else {
            SelfKind::None
        }
    } else if ident(sig, params) == Some("self")
        || (ident(sig, params) == Some("mut") && ident(sig, params + 1) == Some("self"))
    {
        SelfKind::Value
    } else {
        SelfKind::None
    }
}

/// What a projection starting just after a field (or just after a
/// temporary guard's `()`) does with the value.
enum Proj {
    /// Observed: read, passed to a method, or compared.
    Read,
    /// Compared against something (`==`, `!=`, `<`, `>`): the
    /// revalidate-after-reacquire idiom's check.
    Compare,
    /// Assigned (`=`, compound `+=`, indexed store); `eq` is the token
    /// index of the final `=` so the RHS can be inspected.
    Write { line: u32, eq: usize },
}

/// Classifies the projection at `j` (the token after the field name):
/// walks over index groups (`[..]`) and field chains (`.a.b`), stopping
/// at a method call (mutation through `&mut` methods is invisible —
/// counted as a read, an accepted recall loss), an assignment operator,
/// or a comparison.
fn classify_after(body: &[Sp], mut j: usize) -> Proj {
    loop {
        match body.get(j).map(|s| &s.tok) {
            Some(Tok::LBracket) => {
                let mut d = 0i32;
                while j < body.len() {
                    match body[j].tok {
                        Tok::LBracket => d += 1,
                        Tok::RBracket => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
            Some(Tok::Punct('.')) => match body.get(j + 1).map(|s| &s.tok) {
                Some(Tok::Ident(_)) => {
                    if matches!(body.get(j + 2).map(|s| &s.tok), Some(Tok::LParen)) {
                        return Proj::Read;
                    }
                    j += 2;
                }
                Some(Tok::Num(_)) => j += 2, // tuple index
                _ => return Proj::Read,
            },
            Some(Tok::Punct('=')) => {
                if matches!(body.get(j + 1).map(|s| &s.tok), Some(Tok::Punct('='))) {
                    return Proj::Compare;
                }
                return Proj::Write { line: body[j].line, eq: j };
            }
            Some(Tok::Punct(op))
                if matches!(op, '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^')
                    && matches!(body.get(j + 1).map(|s| &s.tok), Some(Tok::Punct('='))) =>
            {
                return Proj::Write { line: body[j].line, eq: j + 1 };
            }
            Some(Tok::Punct('!'))
                if matches!(body.get(j + 1).map(|s| &s.tok), Some(Tok::Punct('='))) =>
            {
                return Proj::Compare;
            }
            Some(Tok::Punct('<')) | Some(Tok::Punct('>')) => return Proj::Compare,
            _ => return Proj::Read,
        }
    }
}

/// True when the tokens from `j` are a method call, `.name(`.
fn method_call(body: &[Sp], j: usize) -> bool {
    is_punct(body, j, '.')
        && ident(body, j + 1).is_some()
        && matches!(body.get(j + 2).map(|s| &s.tok), Some(Tok::LParen))
}

/// True when token `i` is in the condition of an `if`, `while` or
/// `match`: one of those keywords comes before it, after the last `;`,
/// `{` or `}`.
fn in_condition(body: &[Sp], i: usize) -> bool {
    body[..i]
        .iter()
        .rev()
        .find_map(|s| match &s.tok {
            Tok::Ident(k) if matches!(k.as_str(), "if" | "while" | "match") => Some(true),
            Tok::Punct(';') | Tok::LBrace | Tok::RBrace => Some(false),
            _ => None,
        })
        .unwrap_or(false)
}

/// True when the `=` at `eq` is the tail of a compound operator
/// (`+=`, `|=`, …): the store re-reads the current value, so it can
/// never write back a stale pre-gap snapshot.
fn compound_assign(body: &[Sp], eq: usize) -> bool {
    matches!(
        body.get(eq.wrapping_sub(1)).map(|s| &s.tok),
        Some(Tok::Punct('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'))
    )
}

/// True if the assignment RHS starting after token `eq` mentions
/// `name.` before the statement ends — the write merges in state
/// re-read from the fresh guard (`log.tail = log.tail.max(tail)`),
/// which the lock-gap rule accepts as revalidation.
fn rhs_mentions(body: &[Sp], eq: usize, name: &str) -> bool {
    let lim = (eq + 120).min(body.len());
    for j in eq + 1..lim {
        match &body[j].tok {
            Tok::Punct(';') => return false,
            Tok::Ident(id) if id == name && is_punct(body, j + 1, '.') => return true,
            _ => {}
        }
    }
    false
}

/// A guard live in some scope.
struct Guard {
    name: Option<String>,
    field: String,
    line: u32,
    /// Index of this guard's entry in `FnFacts::acquisitions`.
    acq: usize,
    /// A `lo: &mut LoGuard` parameter: the caller's guard, lent. Passing
    /// it on reborrows it; it stays live here afterwards.
    param: bool,
}

/// Dotted identifier path before the token at `idx`: for `a.b.c` with
/// `idx` at `c`, returns `"a.b"`; empty when there is no receiver.
fn dotted_receiver(body: &[Sp], idx: usize) -> String {
    if idx < 1 || !is_punct(body, idx - 1, '.') {
        return String::new();
    }
    let mut k = idx - 1;
    let mut parts: Vec<String> = Vec::new();
    while k >= 1 {
        if let Some(p) = ident(body, k - 1) {
            if is_punct(body, k, '.') {
                parts.push(p.to_string());
                if k < 2 {
                    break;
                }
                k -= 2;
                continue;
            }
        }
        break;
    }
    parts.reverse();
    parts.join(".")
}

/// Token index and name of the field an acquisition method at `method`
/// is called on: `field.lock()`, or `field[i].lock()` for a field that
/// holds its locks in a `Vec` or slice.
fn lock_receiver(body: &[Sp], method: usize) -> Option<(usize, &str)> {
    let before = method.checked_sub(2)?;
    if !matches!(body[before].tok, Tok::RBracket) {
        return ident(body, before).map(|f| (before, f));
    }
    let mut depth = 0usize;
    let mut k = before;
    loop {
        match body[k].tok {
            Tok::RBracket => depth += 1,
            Tok::LBracket => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        k = k.checked_sub(1)?;
    }
    let field = k.checked_sub(1)?;
    ident(body, field).map(|f| (field, f))
}

/// Acquisition index of the innermost live guard named `name`.
fn guard_acq(scopes: &[Vec<Guard>], name: &str) -> Option<usize> {
    scopes
        .iter()
        .rev()
        .find_map(|s| s.iter().rev().find(|g| g.name.as_deref() == Some(name)))
        .map(|g| g.acq)
}

/// Removes the innermost live guard named `name`, if any.
fn guard_remove(scopes: &mut [Vec<Guard>], name: &str) {
    for s in scopes.iter_mut().rev() {
        if let Some(pos) = s.iter().rposition(|g| g.name.as_deref() == Some(name)) {
            s.remove(pos);
            return;
        }
    }
}

/// Walks one fn body tracking guard liveness per lexical scope.
fn analyze_body(
    name: &str,
    fn_line: u32,
    sig: &[Sp],
    body: &[Sp],
    lock_fields: &HashSet<&str>,
    data_fields: &HashSet<&str>,
) -> FnFacts {
    let mut f = FnFacts {
        name: name.to_string(),
        line: fn_line,
        self_kind: self_kind_of_sig(sig),
        is_pub: false,
        acquisitions: Vec::new(),
        calls: Vec::new(),
        accesses: Vec::new(),
        audited: HashSet::new(),
    };
    // Acquisition indices whose guard state has been compared against
    // something since the acquisition — a later first write through the
    // same guard counts as revalidated.
    let mut compared: HashSet<usize> = HashSet::new();
    let mut scopes: Vec<Vec<Guard>> = vec![Vec::new()];
    // `NAME: &mut LoGuard` parameters — the client's wrapper around a
    // vnode's `lo` guard, lent by the caller — are live `lo` guards from
    // the first line on: what this fn does under them is audited here,
    // since the lender is not charged for it (see the call arm below).
    // Their acquisition records only carry the guard bookkeeping and are
    // dropped again at the end: the fn acquires nothing.
    let mut k = 0;
    while lock_fields.contains("lo") && k + 4 < sig.len() {
        if let (Some(n), true, true, Some("mut"), Some("LoGuard")) = (
            ident(sig, k),
            is_punct(sig, k + 1, ':'),
            is_punct(sig, k + 2, '&'),
            ident(sig, k + 3),
            ident(sig, k + 4),
        ) {
            let (name, field, acq) = (Some(n.to_string()), "lo".to_string(), f.acquisitions.len());
            f.acquisitions.push(Acquisition {
                field: field.clone(),
                line: fn_line,
                held: Vec::new(),
                receiver: String::new(),
                reads: false,
                writes: false,
                write_line: 0,
                revalidated: false,
            });
            scopes[0].push(Guard { name, field, line: fn_line, acq, param: true });
        }
        k += 1;
    }
    let lent_params = f.acquisitions.len();
    // `g.unlocked(..)` in progress: the guard it releases, the scope it
    // came from, and the token index at which it is held again.
    let mut released: Option<(Guard, usize, usize)> = None;
    // Per-statement binding state.
    let mut pending_binding: Option<String> = None;
    let mut binding_used = false;
    let mut value_projected = false; // `let x = *m.lock()` — x is not a guard
    let mut stmt_start = true;

    let held_fields = |scopes: &Vec<Vec<Guard>>| -> Vec<(String, u32)> {
        scopes
            .iter()
            .flat_map(|s| s.iter().map(|g| (g.field.clone(), g.line)))
            .collect()
    };

    let mut i = 0;
    while i < body.len() {
        if released.as_ref().is_some_and(|r| i >= r.2) {
            let (guard, level, _) = released.take().unwrap();
            scopes[level].push(guard);
        }
        match &body[i].tok {
            Tok::LBrace => {
                scopes.push(Vec::new());
                pending_binding = None;
                stmt_start = true;
                i += 1;
            }
            Tok::RBrace => {
                scopes.pop();
                if scopes.is_empty() {
                    scopes.push(Vec::new());
                }
                pending_binding = None;
                stmt_start = true;
                i += 1;
            }
            Tok::Punct(';') => {
                pending_binding = None;
                binding_used = false;
                value_projected = false;
                stmt_start = true;
                i += 1;
            }
            Tok::Ident(id) if id == "let" && stmt_start => {
                // `let [mut] NAME =` — only the immediate-`=` form binds.
                let mut j = i + 1;
                if ident(body, j) == Some("mut") {
                    j += 1;
                }
                if let Some(n) = ident(body, j) {
                    if is_punct(body, j + 1, '=') && !is_punct(body, j + 2, '=') {
                        pending_binding = Some(n.to_string());
                        binding_used = false;
                        value_projected = matches!(
                            body.get(j + 2).map(|s| &s.tok),
                            Some(Tok::Punct('*')) | Some(Tok::Punct('&'))
                        );
                        i = j + 2;
                        stmt_start = false;
                        continue;
                    }
                }
                stmt_start = false;
                i += 1;
            }
            Tok::Ident(id)
                if stmt_start
                    && is_punct(body, i + 1, '=')
                    && !is_punct(body, i + 2, '=')
                    && !KEYWORDS.contains(&id.as_str()) =>
            {
                // Re-assignment: `guard = field.lock();`
                pending_binding = Some(id.clone());
                binding_used = false;
                value_projected = matches!(
                    body.get(i + 2).map(|s| &s.tok),
                    Some(Tok::Punct('*')) | Some(Tok::Punct('&'))
                );
                stmt_start = false;
                i += 2;
            }
            Tok::Ident(id) if id == "drop" && matches!(body.get(i + 1).map(|s| &s.tok), Some(Tok::LParen)) => {
                if let Some(n) = ident(body, i + 2) {
                    if matches!(body.get(i + 3).map(|s| &s.tok), Some(Tok::RParen)) {
                        for s in scopes.iter_mut().rev() {
                            if let Some(pos) =
                                s.iter().rposition(|g| g.name.as_deref() == Some(n))
                            {
                                s.remove(pos);
                                break;
                            }
                        }
                        i += 4;
                        stmt_start = false;
                        continue;
                    }
                }
                i += 1;
                stmt_start = false;
            }
            Tok::Ident(m)
                if ACQUIRE_METHODS.contains(&m.as_str())
                    && is_punct(body, i.wrapping_sub(1), '.')
                    && matches!(body.get(i + 1).map(|s| &s.tok), Some(Tok::LParen))
                    && matches!(body.get(i + 2).map(|s| &s.tok), Some(Tok::RParen))
                    && lock_receiver(body, i).is_some_and(|(_, f)| lock_fields.contains(f)) =>
            {
                let (at, base) = lock_receiver(body, i).unwrap();
                // `lock_all()` holds every shard of a sharded field at
                // once; the `#*` suffix marks that for the shard-order
                // rule while `base` remains the declared field.
                let field =
                    if m == "lock_all" { format!("{base}#*") } else { base.to_string() };
                let line = body[i].line;
                let acq_idx = f.acquisitions.len();
                f.acquisitions.push(Acquisition {
                    field: field.clone(),
                    line,
                    held: held_fields(&scopes),
                    receiver: dotted_receiver(body, at),
                    reads: false,
                    writes: false,
                    write_line: 0,
                    revalidated: false,
                });
                // Guard binding: `let g = x.f.lock();` — the call result
                // must be the whole RHS (next token `;`) and not deref'd.
                let binds = pending_binding.is_some()
                    && !binding_used
                    && !value_projected
                    && is_punct(body, i + 3, ';');
                if binds {
                    binding_used = true;
                    let gname = pending_binding.clone();
                    if let Some(n) = gname.as_deref() {
                        // Rebinding a name ends the guard it previously held.
                        guard_remove(&mut scopes, n);
                    }
                    scopes
                        .last_mut()
                        .unwrap()
                        .push(Guard { name: gname, field, line, acq: acq_idx, param: false });
                } else {
                    // Statement temporary (`self.f.lock().x += 1`): the guard
                    // lives only for this expression — classify what it does.
                    let a = &mut f.acquisitions[acq_idx];
                    match classify_after(body, i + 3) {
                        Proj::Write { line: wl, eq } => {
                            a.writes = true;
                            a.write_line = wl;
                            a.revalidated = compound_assign(body, eq);
                        }
                        Proj::Read | Proj::Compare => a.reads = true,
                    }
                }
                i += 3;
                stmt_start = false;
            }
            // `field.lock(idx)` on a sharded lock: the shard index joins
            // the lock identity — `field#3` for a literal, `field#?` when
            // the index is computed (runtime `acquire_indexed` judges
            // those) — so the shard-order rule can check same-field
            // nesting statically where the index is knowable.
            Tok::Ident(m)
                if m == "lock"
                    && is_punct(body, i.wrapping_sub(1), '.')
                    && matches!(body.get(i + 1).map(|s| &s.tok), Some(Tok::LParen))
                    && !matches!(body.get(i + 2).map(|s| &s.tok), Some(Tok::RParen))
                    && lock_receiver(body, i).is_some_and(|(_, f)| lock_fields.contains(f)) =>
            {
                // Matching close paren of the argument list.
                let mut d = 0i32;
                let mut close = i + 1;
                while close < body.len() {
                    match body[close].tok {
                        Tok::LParen | Tok::LBracket | Tok::LBrace => d += 1,
                        Tok::RParen | Tok::RBracket | Tok::RBrace => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    close += 1;
                }
                let (at, base) = lock_receiver(body, i).unwrap();
                let field = match (close == i + 3, body.get(i + 2).map(|s| &s.tok)) {
                    (true, Some(Tok::Num(n))) => format!("{base}#{n}"),
                    _ => format!("{base}#?"),
                };
                let line = body[i].line;
                let acq_idx = f.acquisitions.len();
                f.acquisitions.push(Acquisition {
                    field: field.clone(),
                    line,
                    held: held_fields(&scopes),
                    receiver: dotted_receiver(body, at),
                    reads: false,
                    writes: false,
                    write_line: 0,
                    revalidated: false,
                });
                let binds = pending_binding.is_some()
                    && !binding_used
                    && !value_projected
                    && is_punct(body, close + 1, ';');
                if binds {
                    binding_used = true;
                    let gname = pending_binding.clone();
                    if let Some(n) = gname.as_deref() {
                        guard_remove(&mut scopes, n);
                    }
                    scopes
                        .last_mut()
                        .unwrap()
                        .push(Guard { name: gname, field, line, acq: acq_idx, param: false });
                } else {
                    let a = &mut f.acquisitions[acq_idx];
                    match classify_after(body, close + 1) {
                        Proj::Write { line: wl, eq } => {
                            a.writes = true;
                            a.write_line = wl;
                            a.revalidated = compound_assign(body, eq);
                        }
                        Proj::Read | Proj::Compare => a.reads = true,
                    }
                }
                i = close + 1;
                stmt_start = false;
            }
            // `x.lock_lo()` — the client's wrapper around the vnode `lo`
            // mutex: counts as an acquisition of `lo` itself (same
            // receiver semantics as a bare `lo.lock()`), keeping the
            // lock-order / lock-gap pairing intact.
            Tok::Ident(m)
                if m == "lock_lo"
                    && is_punct(body, i.wrapping_sub(1), '.')
                    && matches!(body.get(i + 1).map(|s| &s.tok), Some(Tok::LParen))
                    && matches!(body.get(i + 2).map(|s| &s.tok), Some(Tok::RParen))
                    && lock_fields.contains("lo") =>
            {
                let field = "lo".to_string();
                let line = body[i].line;
                let acq_idx = f.acquisitions.len();
                f.acquisitions.push(Acquisition {
                    field: field.clone(),
                    line,
                    held: held_fields(&scopes),
                    receiver: dotted_receiver(body, i),
                    reads: false,
                    writes: false,
                    write_line: 0,
                    revalidated: false,
                });
                let binds = pending_binding.is_some()
                    && !binding_used
                    && !value_projected
                    && is_punct(body, i + 3, ';');
                if binds {
                    binding_used = true;
                    let gname = pending_binding.clone();
                    if let Some(n) = gname.as_deref() {
                        guard_remove(&mut scopes, n);
                    }
                    scopes
                        .last_mut()
                        .unwrap()
                        .push(Guard { name: gname, field, line, acq: acq_idx, param: false });
                } else {
                    let a = &mut f.acquisitions[acq_idx];
                    match classify_after(body, i + 3) {
                        Proj::Write { line: wl, eq } => {
                            a.writes = true;
                            a.write_line = wl;
                            a.revalidated = compound_assign(body, eq);
                        }
                        Proj::Read | Proj::Compare => a.reads = true,
                    }
                }
                i += 3;
                stmt_start = false;
            }
            // `g.field …` / `*g = …` — an access through a live named guard:
            // feeds the guard's acquisition record (reads, writes, and the
            // revalidate-after-reacquire idiom for lock-gap).
            Tok::Ident(id)
                if !is_punct(body, i.wrapping_sub(1), '.')
                    && (is_punct(body, i + 1, '.') || is_punct(body, i.wrapping_sub(1), '*'))
                    && guard_acq(&scopes, id).is_some() =>
            {
                let acq = guard_acq(&scopes, id).unwrap();
                match classify_after(body, i + 1) {
                    Proj::Write { line, eq } => {
                        // A write is "revalidated" when the guard's state was
                        // compared since reacquisition (`if st.version == v`)
                        // or the RHS re-reads the fresh guard
                        // (`log.tail = log.tail.max(tail)`).
                        let reval = compared.contains(&acq)
                            || compound_assign(body, eq)
                            || rhs_mentions(body, eq, id);
                        let a = &mut f.acquisitions[acq];
                        if !a.writes {
                            a.writes = true;
                            a.write_line = line;
                            a.revalidated = reval;
                        }
                    }
                    Proj::Compare => {
                        compared.insert(acq);
                        f.acquisitions[acq].reads = true;
                    }
                    Proj::Read => {
                        // A method of the fresh guard in a condition
                        // (`if !lo.dir_trusted() { lo.listing = None }`)
                        // checks its state as a comparison does.
                        if method_call(body, i + 1) && in_condition(body, i) {
                            compared.insert(acq);
                        }
                        f.acquisitions[acq].reads = true;
                    }
                }
                i += 1;
                stmt_start = false;
            }
            // A bare guard passed by value (`helper(g)`): ownership moves into
            // the callee, which becomes responsible for unlocking — the guard
            // is no longer live here (the journal's unlock-for-I/O pattern).
            Tok::Ident(id)
                if !is_punct(body, i + 1, '.')
                    && matches!(
                        body.get(i.wrapping_sub(1)).map(|s| &s.tok),
                        Some(Tok::LParen) | Some(Tok::Punct(','))
                    )
                    && matches!(
                        body.get(i + 1).map(|s| &s.tok),
                        Some(Tok::RParen) | Some(Tok::Punct(','))
                    )
                    && guard_acq(&scopes, id).is_some() =>
            {
                // (A lent guard passed on is reborrowed, not moved.)
                let lent = scopes.iter().flatten().any(|g| g.param && g.name.as_deref() == Some(id));
                if !lent {
                    guard_remove(&mut scopes, id);
                }
                i += 1;
                stmt_start = false;
            }
            // `self.field` — access to a plain data field that lives beside a
            // lock field in the same struct (lockset analysis input).
            Tok::Ident(id)
                if is_punct(body, i.wrapping_sub(1), '.')
                    && ident(body, i.wrapping_sub(2)) == Some("self")
                    && !matches!(body.get(i + 1).map(|s| &s.tok), Some(Tok::LParen))
                    && data_fields.contains(id.as_str())
                    && !lock_fields.contains(id.as_str()) =>
            {
                let borrowed_mut = ident(body, i.wrapping_sub(3)) == Some("mut")
                    && is_punct(body, i.wrapping_sub(4), '&');
                let write =
                    borrowed_mut || matches!(classify_after(body, i + 1), Proj::Write { .. });
                f.accesses.push(Access {
                    field: id.clone(),
                    line: body[i].line,
                    write,
                    held: held_fields(&scopes),
                });
                i += 1;
                stmt_start = false;
            }
            Tok::Ident(callee)
                if matches!(body.get(i + 1).map(|s| &s.tok), Some(Tok::LParen))
                    && !KEYWORDS.contains(&callee.as_str())
                    && !CALL_STOPLIST.contains(&callee.as_str())
                    && !callee.chars().next().map(char::is_uppercase).unwrap_or(true)
                    // `Path::assoc(..)` calls don't resolve by bare name:
                    // the path names a type, not a workspace function.
                    && !is_punct(body, i.wrapping_sub(1), ':') =>
            {
                // Method or free-fn call. Build a receiver hint from the
                // dotted path immediately before the name.
                let recv = dotted_receiver(body, i);
                let direct_rpc = callee == "call" && recv.contains("net");
                // A guard passed by value as a direct argument moves
                // into the callee, which owns unlocking it: the caller
                // does not hold it across this call. Nor does it hold a
                // `lo` guard it lends `&mut`: the callee may release and
                // re-take it (`LoGuard::unlocked`), and is audited with
                // the parameter as a live guard of its own.
                let lo_guard = |n: &str| {
                    scopes.iter().flatten().any(|g| g.field == "lo" && g.name.as_deref() == Some(n))
                };
                let mut moved: Vec<&str> = Vec::new();
                let mut depth = 0usize;
                let mut close = body.len();
                for j in i + 1..body.len() {
                    let arg_edge = |k: usize| {
                        body.get(k).is_some_and(|s| {
                            matches!(s.tok, Tok::LParen | Tok::RParen | Tok::Punct(','))
                        })
                    };
                    match &body[j].tok {
                        Tok::LParen => depth += 1,
                        Tok::RParen if depth == 1 => {
                            close = j;
                            break;
                        }
                        Tok::RParen => depth -= 1,
                        Tok::Ident(id) if depth == 1 && arg_edge(j - 1) && arg_edge(j + 1) => {
                            moved.push(id)
                        }
                        Tok::Ident(id)
                            if depth == 1
                                && arg_edge(j + 1)
                                && ident(body, j - 1) == Some("mut")
                                && is_punct(body, j - 2, '&')
                                && arg_edge(j - 3)
                                && lo_guard(id) =>
                        {
                            moved.push(id)
                        }
                        _ => {}
                    }
                }
                let held = scopes
                    .iter()
                    .flatten()
                    .filter(|g| !g.name.as_deref().is_some_and(|n| moved.contains(&n)))
                    .map(|g| (g.field.clone(), g.line))
                    .collect();
                // `g.unlocked(..)` runs its argument with `g` released:
                // what the argument calls is not made under `g`.
                if callee == "unlocked" && released.is_none() && lo_guard(&recv) {
                    let level = scopes
                        .iter()
                        .rposition(|s| s.iter().any(|g| g.name.as_deref() == Some(recv.as_str())))
                        .unwrap();
                    let pos = scopes[level]
                        .iter()
                        .rposition(|g| g.name.as_deref() == Some(recv.as_str()))
                        .unwrap();
                    released = Some((scopes[level].remove(pos), level, close));
                }
                f.calls.push(Call {
                    callee: callee.clone(),
                    line: body[i].line,
                    held,
                    receiver: recv,
                    direct_rpc,
                });
                i += 1;
                stmt_start = false;
            }
            Tok::Ident(_) | Tok::Num(_) => {
                stmt_start = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    f.acquisitions.drain(..lent_params);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|s| match s.tok {
                Tok::Ident(i) => Some(i),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lexer_strips_strings_comments_and_lifetimes() {
        let src = r##"
            // line comment with lock()
            /* block /* nested */ still comment */
            let s = "a.lock()"; let r = r#"raw.lock()"#;
            fn f<'a>(x: &'a str) -> char { 'x' }
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"lock".to_string()));
        // the lifetime 'a must not eat the following tokens
        assert!(ids.contains(&"str".to_string()));
        assert!(ids.contains(&"char".to_string()));
    }

    #[test]
    fn lexer_distinguishes_char_literal_from_lifetime() {
        // 'x' is a char literal; 'a in <'a> is a lifetime. Both must
        // leave the surrounding identifiers intact.
        let ids = idents("let c = 'x'; struct S<'a> { f: &'a u8 }");
        assert!(ids.contains(&"struct".to_string()));
        assert!(ids.contains(&"u8".to_string()));
        assert!(!ids.contains(&"x".to_string()));
    }

    #[test]
    fn lexer_tracks_lines_across_multiline_comments() {
        let ts = lex("/* one\ntwo\nthree */ marker");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].line, 3);
    }

    #[test]
    fn allow_on_own_line_targets_next_code_line_skipping_attrs() {
        let src = "\n// dfs-lint: allow(guard-across-rpc)\n#[inline]\nfn f() {}\n";
        let allows = collect_allows(src);
        // comment on line 2, attribute on line 3, code on line 4
        assert!(allows.get(&4).is_some_and(|s| s.contains("guard-across-rpc")));
        assert!(!allows.contains_key(&3));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "fn f() {} // dfs-lint: allow(lock-order, double-lock)\n";
        let allows = collect_allows(src);
        let set = allows.get(&1).expect("line 1 annotated");
        assert!(set.contains("lock-order") && set.contains("double-lock"));
    }

    #[test]
    fn drop_ends_guard_liveness() {
        let src = "
pub struct S { a: parking_lot::Mutex<u32>, b: parking_lot::Mutex<u32> }
impl S {
    fn f(&self) {
        let g = self.b.lock();
        drop(g);
        let h = self.a.lock();
        let _ = h;
    }
}
";
        let fields = lock_field_names(src);
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        let f = &facts.fns[0];
        let a = f.acquisitions.iter().find(|a| a.field == "a").unwrap();
        assert!(a.held.is_empty(), "drop(g) must release b: {:?}", a.held);
    }

    #[test]
    fn statement_temporary_is_not_a_live_guard() {
        let src = "
pub struct S { a: parking_lot::Mutex<u32>, b: parking_lot::Mutex<u32> }
impl S {
    fn f(&self) {
        *self.b.lock() += 1;
        let h = self.a.lock();
        let _ = h;
    }
}
";
        let fields = lock_field_names(src);
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        let a = facts.fns[0].acquisitions.iter().find(|a| a.field == "a").unwrap();
        assert!(a.held.is_empty(), "temporary must not be held: {:?}", a.held);
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "
pub struct S { a: parking_lot::Mutex<u32> }
#[cfg(test)]
mod tests {
    fn f(s: &super::S) {
        let g = s.a.lock();
        let h = s.a.lock();
        let _ = (g, h);
    }
}
";
        let fields = lock_field_names(src);
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        assert!(facts.fns.is_empty(), "test fns must be skipped: {:?}", facts.fns);
    }

    #[test]
    fn sibling_data_fields_exclude_locks_and_atomics() {
        let src = "
pub struct S {
    hdr: parking_lot::Mutex<u32>,
    len: u32,
    hits: std::sync::atomic::AtomicU64,
}
pub struct NoLocks { plain: u32 }
";
        let data = shared_data_field_names(src);
        assert!(data.contains("len"), "plain sibling is a data field: {data:?}");
        assert!(!data.contains("hdr"), "lock fields are not data fields");
        assert!(!data.contains("hits"), "atomics synchronize themselves");
        assert!(!data.contains("plain"), "lock-free structs are out of scope");
    }

    #[test]
    fn accesses_record_write_kind_and_held_guards() {
        let src = "
pub struct S { hdr: parking_lot::Mutex<u32>, len: u32 }
impl S {
    fn covered(&self) {
        let g = self.hdr.lock();
        self.len = self.len + 1;
        drop(g);
    }
    fn bare(&self) -> u32 {
        self.len
    }
    fn exclusive(&mut self) {
        self.len = 0;
    }
}
";
        let fields = lock_field_names(src);
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        let covered = facts.fns.iter().find(|f| f.name == "covered").unwrap();
        let (w, r): (Vec<_>, Vec<_>) = covered.accesses.iter().partition(|a| a.write);
        assert_eq!((w.len(), r.len()), (1, 1), "one write + one RHS read");
        assert!(w[0].held.iter().any(|(f, _)| f == "hdr"), "write holds hdr");
        let bare = facts.fns.iter().find(|f| f.name == "bare").unwrap();
        assert!(bare.accesses[0].held.is_empty() && !bare.accesses[0].write);
        let exclusive = facts.fns.iter().find(|f| f.name == "exclusive").unwrap();
        assert_eq!(exclusive.self_kind, SelfKind::RefMut, "&mut self detected");
    }

    #[test]
    fn guard_reads_writes_and_revalidation_are_tracked() {
        let src = "
pub struct F { state: parking_lot::Mutex<u32> }
impl F {
    fn gap(&self) {
        let snap = 0;
        {
            let st = self.state.lock();
            let _ = st.data;
        }
        let mut st = self.state.lock();
        st.dirty = false;
        let _ = snap;
    }
    fn fixed(&self, version: u32) {
        let mut st = self.state.lock();
        if st.version == version {
            st.dirty = false;
        }
    }
    fn counter(&self) {
        let mut st = self.state.lock();
        st.n += 1;
    }
}
";
        let fields = lock_field_names(src);
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        let gap = facts.fns.iter().find(|f| f.name == "gap").unwrap();
        assert!(gap.acquisitions[0].reads && !gap.acquisitions[0].writes);
        assert!(gap.acquisitions[1].writes && !gap.acquisitions[1].revalidated);
        let fixed = facts.fns.iter().find(|f| f.name == "fixed").unwrap();
        assert!(fixed.acquisitions[0].writes && fixed.acquisitions[0].revalidated);
        let counter = facts.fns.iter().find(|f| f.name == "counter").unwrap();
        assert!(counter.acquisitions[0].revalidated, "compound assign re-reads");
    }

    #[test]
    fn sharded_acquisitions_encode_their_index() {
        let src = "
pub struct S { shards: OrderedShardedMutex<u32, 122> }
impl S {
    fn f(&self) {
        let g = self.shards.lock(3);
        let h = self.shards.lock(self.pick(7));
        let all = self.shards.lock_all();
        let _ = (*g, *h, all.len());
    }
}
";
        let fields = lock_field_names(src);
        assert!(fields.contains("shards"), "sharded mutex is a lock field");
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        let names: Vec<&str> =
            facts.fns[0].acquisitions.iter().map(|a| a.field.as_str()).collect();
        assert_eq!(
            names,
            ["shards#3", "shards#?", "shards#*"],
            "literal index, computed index, and lock_all each get their own identity"
        );
    }

    #[test]
    fn lock_lo_counts_as_acquiring_lo() {
        let src = "
pub struct V { lo: OrderedMutex<u32, 30> }
impl V {
    fn take(&self, vn: &V) {
        let g = vn.lock_lo();
        let _ = g.status;
    }
}
";
        let fields = lock_field_names(src);
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        let a = &facts.fns[0].acquisitions[0];
        assert_eq!((a.field.as_str(), a.receiver.as_str()), ("lo", "vn"));
        assert!(a.reads, "projection through the bound guard is a read");
    }

    #[test]
    fn guard_moved_into_helper_ends_liveness() {
        let src = "
pub struct F { state: parking_lot::Mutex<u32>, other: parking_lot::Mutex<u32> }
impl F {
    fn f(&self) {
        let g = self.state.lock();
        audit_frame(&g, helper(g2));
        unlock_for_io(g);
        let h = self.other.lock();
        let _ = h;
    }
}
";
        let fields = lock_field_names(src);
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        let a = facts.fns[0].acquisitions.iter().find(|a| a.field == "other").unwrap();
        assert!(a.held.is_empty(), "moved-out guard must not be held: {:?}", a.held);
        // Nor is it held across the very call it moves into — while a
        // guard that call merely borrows still is.
        let held = |callee: &str| {
            facts.fns[0].calls.iter().find(|c| c.callee == callee).unwrap().held.len()
        };
        assert_eq!((held("audit_frame"), held("unlock_for_io")), (1, 0));
    }

    #[test]
    fn a_lent_lo_guard_is_the_callees_to_answer_for() {
        let src = "
pub struct V { lo: OrderedMutex<u32, 30>, other: parking_lot::Mutex<u32> }
impl V {
    fn owner(&self, vn: &V) {
        let mut lo = vn.lock_lo();
        spine(&mut lo, 1);
        look_at(&lo);
        let mut o = self.other.lock();
        helper(&mut o);
    }
    fn spine(&self, lo: &mut LoGuard<'_>, n: u32) {
        before(n);
        onward(lo, n);
        lo.unlocked(|| { inside(n) });
        after(n);
    }
    fn plain(&self, lo: &mut VnState) {
        unaudited(lo);
    }
}
";
        let fields = lock_field_names(src);
        let facts = scan_file("x", "x/src/lib.rs", src, &fields, &shared_data_field_names(src));
        let held = |func: usize, callee: &str| {
            let call = facts.fns[func].calls.iter().find(|c| c.callee == callee).unwrap();
            call.held.iter().map(|(f, _)| f.as_str()).collect::<Vec<_>>()
        };
        // The owner is not charged for what `spine` does with the `lo`
        // guard it lends `&mut`; a shared borrow, or a `&mut` of any
        // other guard, still counts as held.
        assert!(held(0, "spine").is_empty());
        assert_eq!(held(0, "look_at"), ["lo"]);
        assert_eq!(held(0, "helper"), ["lo", "other"]);
        // `spine` is: its `LoGuard` parameter is a live `lo` guard, still
        // live after being passed on, and released for exactly the span
        // of `unlocked`'s argument.
        assert_eq!(held(1, "before"), ["lo"]);
        assert!(held(1, "onward").is_empty());
        assert!(held(1, "inside").is_empty());
        assert_eq!(held(1, "after"), ["lo"]);
        assert!(facts.fns[1].acquisitions.is_empty(), "a parameter is not an acquisition");
        assert!(held(2, "unaudited").is_empty(), "only the guard type is a guard");
    }
}
