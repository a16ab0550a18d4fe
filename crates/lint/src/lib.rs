//! `xpath-lint`: a hand-rolled, token-level scanner enforcing the
//! workspace's concurrency and safety discipline.  No `syn`, no proc-macro
//! machinery — a small Rust lexer (comments, strings, raw strings,
//! char-vs-lifetime) plus token-pattern rules:
//!
//! * **unsafe-safety** — every `unsafe` keyword carries a `// SAFETY:`
//!   comment on or immediately above its line (all crates).
//! * **lock-unwrap** — no `.unwrap()`/`.expect(...)` whose receiver is a
//!   lock or I/O call (`lock`, `join`, `read_line`, `write_all`, ...) in
//!   non-test code of the serving crates (`crates/corpus`, `crates/wire`).
//!   Poison and I/O failure must be handled by policy, not by killing the
//!   worker.
//! * **raw-spawn** — no `std::thread::spawn` in non-test code outside the
//!   sanctioned modules (the bench daemon harness); servers use scoped
//!   threads through `xpath_sync::thread::scope` so nothing outlives its
//!   resources.
//! * **wire-read** — no unbounded read methods (`.read_line`,
//!   `.read_to_end`, `.read_until`, `.read_to_string`) in non-test
//!   `crates/corpus` code: wire input goes through the length-capped
//!   `protocol::Conn`.
//! * **std-sync-import** — crates ported to the `xpath_sync` facade
//!   (`crates/corpus`, `crates/pplbin`) must not name `std::sync` lock
//!   types (`Mutex`, `Condvar`, `RwLock`, guards) in non-test code;
//!   `Arc`, atomics, and `OnceLock` stay on `std`.
//!
//! Escapes go in the committed allowlist file `lint.allow` (one
//! `rule path` pair per line) — kept empty for `crates/corpus` and
//! `crates/wire` by acceptance criterion.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `unsafe-safety`).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Modules allowed to call `std::thread::spawn` in non-test code: the bench
/// daemon harness, which intentionally detaches server threads it later
/// shuts down over the wire.
const SANCTIONED_SPAWN_MODULES: &[&str] = &["crates/bench/src/regress.rs"];

/// Crates whose non-test code must route locking through `xpath_sync`.
const FACADE_PORTED_PREFIXES: &[&str] = &["crates/corpus/src/", "crates/pplbin/src/"];

/// Crates whose request paths must not `.unwrap()`/`.expect()` lock or I/O
/// results.
const NO_LOCK_UNWRAP_PREFIXES: &[&str] = &["crates/corpus/src/", "crates/wire/src/"];

/// Where the wire-read rule applies (the daemon/router request paths).
const BOUNDED_READ_PREFIXES: &[&str] = &["crates/corpus/src/"];

/// Receiver method names whose `Result` must not be `unwrap()`ed in serving
/// code: lock acquisition, thread joining, and the I/O calls on request
/// paths.
const RISKY_RECEIVERS: &[&str] = &[
    "lock",
    "join",
    "recv",
    "send",
    "accept",
    "read",
    "write",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_until",
    "write_all",
    "flush",
];

/// `std::sync` identifiers banned in facade-ported crates.
const BANNED_SYNC_IDENTS: &[&str] = &[
    "Mutex",
    "MutexGuard",
    "Condvar",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

/// Unbounded read methods (the wire-read rule).
const UNBOUNDED_READS: &[&str] = &["read_line", "read_to_end", "read_until", "read_to_string"];

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokKind {
    Ident,
    Punct(char),
    Literal,
}

#[derive(Debug, Clone)]
struct Tok {
    kind: TokKind,
    /// Identifier text (empty for puncts/literals).
    text: String,
    line: usize,
}

/// Token stream plus the comment lines (needed for `// SAFETY:` checks).
struct Lexed {
    toks: Vec<Tok>,
    /// (line, comment text) for every `//` and `/* */` comment.
    comments: Vec<(usize, String)>,
}

fn lex(source: &str) -> Lexed {
    let bytes: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = bytes.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            let start = i;
            while i < n && bytes[i] != '\n' {
                i += 1;
            }
            comments.push((line, bytes[start..i].iter().collect()));
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 0i32;
            while i < n {
                if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            comments.push((start_line, bytes[start..i.min(n)].iter().collect()));
            continue;
        }
        // Raw (and raw-byte) strings: r"..." / r#"..."# / br#"..."#.
        if (c == 'r' || c == 'b') && {
            let mut j = i;
            if bytes[j] == 'b' && j + 1 < n && bytes[j + 1] == 'r' {
                j += 1;
            }
            bytes[j] == 'r' && {
                let mut k = j + 1;
                while k < n && bytes[k] == '#' {
                    k += 1;
                }
                k < n && bytes[k] == '"'
            }
        } {
            let tok_line = line;
            if bytes[i] == 'b' {
                i += 1;
            }
            i += 1; // past 'r'
            let mut hashes = 0usize;
            while i < n && bytes[i] == '#' {
                hashes += 1;
                i += 1;
            }
            i += 1; // past opening quote
            while i < n {
                if bytes[i] == '\n' {
                    line += 1;
                } else if bytes[i] == '"' {
                    let mut k = i + 1;
                    let mut seen = 0usize;
                    while k < n && bytes[k] == '#' && seen < hashes {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        i = k;
                        break;
                    }
                }
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line: tok_line,
            });
            continue;
        }
        // Plain (and byte) strings.
        if c == '"' || (c == 'b' && i + 1 < n && bytes[i + 1] == '"') {
            let tok_line = line;
            if c == 'b' {
                i += 1;
            }
            i += 1; // past opening quote
            while i < n {
                match bytes[i] {
                    '\\' => i += 2,
                    '"' => {
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
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line: tok_line,
            });
            continue;
        }
        // Char literal vs lifetime: 'x' is a literal; 'x followed by
        // anything but a closing quote is a lifetime, lexed punct+ident.
        if c == '\'' {
            let is_char_lit = if i + 1 < n && bytes[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && bytes[i + 2] == '\'' && bytes[i + 1] != '\''
            };
            if is_char_lit {
                let tok_line = line;
                i += 1;
                while i < n {
                    match bytes[i] {
                        '\\' => i += 2,
                        '\'' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: tok_line,
                });
            } else {
                toks.push(Tok {
                    kind: TokKind::Punct('\''),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_cont(bytes[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: bytes[start..i].iter().collect(),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            // Numbers never matter to the rules; consume the alphanumeric
            // run so suffixes (1u64) don't turn into idents.
            while i < n && is_ident_cont(bytes[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
            });
            continue;
        }
        toks.push(Tok {
            kind: TokKind::Punct(c),
            text: String::new(),
            line,
        });
        i += 1;
    }

    Lexed { toks, comments }
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Line ranges (inclusive) covered by `#[cfg(test)] mod ... { ... }`.
fn test_line_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_cfg_test = toks[i].kind == TokKind::Punct('#')
            && matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct('[')))
            && toks.get(i + 2).is_some_and(|t| t.text == "cfg")
            && matches!(toks.get(i + 3).map(|t| &t.kind), Some(TokKind::Punct('(')))
            && toks.get(i + 4).is_some_and(|t| t.text == "test")
            && matches!(toks.get(i + 5).map(|t| &t.kind), Some(TokKind::Punct(')')))
            && matches!(toks.get(i + 6).map(|t| &t.kind), Some(TokKind::Punct(']')));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Allow further attributes between the cfg and the item, then
        // require a `mod` item with a brace body.
        let mut j = i + 7;
        while j < toks.len() && toks[j].kind == TokKind::Punct('#') {
            let mut depth = 0i32;
            j += 1;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !(j < toks.len() && toks[j].text == "mod") {
            i += 1;
            continue;
        }
        // Find the opening brace of the mod body, then its match.
        while j < toks.len() && toks[j].kind != TokKind::Punct('{') {
            j += 1;
        }
        let start_line = toks[i].line;
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end_line = toks.get(j).map_or(usize::MAX, |t| t.line);
        ranges.push((start_line, end_line));
        i = j + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Scan one file's source.  `path` must be repo-relative with forward
/// slashes (e.g. `crates/corpus/src/lib.rs`) — rule scoping keys off it.
pub fn scan_source(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let toks = &lexed.toks;
    let tests = test_line_ranges(toks);
    let mut findings = Vec::new();

    rule_unsafe_safety(path, toks, &lexed.comments, &mut findings);
    if NO_LOCK_UNWRAP_PREFIXES.iter().any(|p| path.starts_with(p)) {
        rule_lock_unwrap(path, toks, &tests, &mut findings);
    }
    if !SANCTIONED_SPAWN_MODULES.contains(&path) {
        rule_raw_spawn(path, toks, &tests, &mut findings);
    }
    if BOUNDED_READ_PREFIXES.iter().any(|p| path.starts_with(p)) {
        rule_wire_read(path, toks, &tests, &mut findings);
    }
    if FACADE_PORTED_PREFIXES.iter().any(|p| path.starts_with(p)) {
        rule_std_sync(path, toks, &tests, &mut findings);
    }

    findings.sort_by_key(|f| f.line);
    findings
}

/// Every `unsafe` token needs `// SAFETY:` on its own line or within the
/// three lines above (the contiguous-comment convention).
fn rule_unsafe_safety(
    path: &str,
    toks: &[Tok],
    comments: &[(usize, String)],
    findings: &mut Vec<Finding>,
) {
    for t in toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let documented = comments
            .iter()
            .any(|(line, text)| *line + 3 >= t.line && *line <= t.line && text.contains("SAFETY:"));
        if !documented {
            findings.push(Finding {
                rule: "unsafe-safety",
                file: path.to_string(),
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment on or directly above it"
                    .to_string(),
            });
        }
    }
}

/// `.unwrap()` / `.expect(` whose receiver call is a lock/join/io method.
fn rule_lock_unwrap(
    path: &str,
    toks: &[Tok],
    tests: &[(usize, usize)],
    findings: &mut Vec<Finding>,
) {
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "unwrap" && t.text != "expect") {
            continue;
        }
        if toks[i - 1].kind != TokKind::Punct('.') {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct('('))) {
            continue;
        }
        if in_ranges(tests, t.line) {
            continue;
        }
        let Some(recv) = receiver_method(toks, i - 1) else {
            continue;
        };
        if RISKY_RECEIVERS.contains(&recv.as_str()) {
            findings.push(Finding {
                rule: "lock-unwrap",
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "`.{}()` on the result of `{recv}()` in a serving path — handle poison/I/O \
                     failure by policy instead of killing the worker",
                    t.text
                ),
            });
        }
    }
}

/// The method name whose call result is consumed at `dot` (the index of a
/// `.` token): matches `name ( ... ) .` and returns `name`.
fn receiver_method(toks: &[Tok], dot: usize) -> Option<String> {
    if dot == 0 || toks[dot - 1].kind != TokKind::Punct(')') {
        return None;
    }
    let mut depth = 0i32;
    let mut j = dot - 1;
    loop {
        match toks[j].kind {
            TokKind::Punct(')') => depth += 1,
            TokKind::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    let name = &toks[j - 1];
    (name.kind == TokKind::Ident).then(|| name.text.clone())
}

/// `std::thread::spawn` (or bare `thread::spawn`) outside sanctioned
/// modules and tests.
fn rule_raw_spawn(path: &str, toks: &[Tok], tests: &[(usize, usize)], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if toks[i].text != "spawn" || in_ranges(tests, toks[i].line) {
            continue;
        }
        // Need `thread :: spawn` directly before — scope.spawn and the
        // model scheduler's virtual spawn don't match.
        let is_thread_path = i >= 3
            && toks[i - 1].kind == TokKind::Punct(':')
            && toks[i - 2].kind == TokKind::Punct(':')
            && toks[i - 3].text == "thread";
        if !is_thread_path {
            continue;
        }
        // `xpath_sync::thread` and `model::thread` are the facade, not std.
        let qualifier = if i >= 6
            && toks[i - 4].kind == TokKind::Punct(':')
            && toks[i - 5].kind == TokKind::Punct(':')
        {
            Some(toks[i - 6].text.as_str())
        } else {
            None
        };
        if qualifier == Some("xpath_sync") || qualifier == Some("model") {
            continue;
        }
        findings.push(Finding {
            rule: "raw-spawn",
            file: path.to_string(),
            line: toks[i].line,
            message: "raw `std::thread::spawn` outside sanctioned modules — use \
                      `xpath_sync::thread::scope` so threads cannot outlive their resources"
                .to_string(),
        });
    }
}

/// Unbounded read methods on daemon request paths.
fn rule_wire_read(path: &str, toks: &[Tok], tests: &[(usize, usize)], findings: &mut Vec<Finding>) {
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !UNBOUNDED_READS.contains(&t.text.as_str()) {
            continue;
        }
        // Method-call form only: `.read_line(` — path-qualified helpers like
        // `std::fs::read_to_string(path)` read local files, not the wire.
        if toks[i - 1].kind != TokKind::Punct('.') {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct('('))) {
            continue;
        }
        if in_ranges(tests, t.line) {
            continue;
        }
        findings.push(Finding {
            rule: "wire-read",
            file: path.to_string(),
            line: t.line,
            message: format!(
                "unbounded `.{}()` on a daemon request path — wire input must go through \
                 the length-capped `protocol::Conn`",
                t.text
            ),
        });
    }
}

/// `std::sync` lock types named in facade-ported crates.  Walks the path
/// segments (and `use`-tree braces) following each `std::sync` occurrence,
/// so `Arc<Mutex<..>>` with `Mutex` imported from `xpath_sync` is never a
/// false positive.
fn rule_std_sync(path: &str, toks: &[Tok], tests: &[(usize, usize)], findings: &mut Vec<Finding>) {
    let punct = |idx: usize, c: char| matches!(toks.get(idx).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c);
    let check = |tok: &Tok, findings: &mut Vec<Finding>| {
        if BANNED_SYNC_IDENTS.contains(&tok.text.as_str()) {
            findings.push(Finding {
                rule: "std-sync-import",
                file: path.to_string(),
                line: tok.line,
                message: format!(
                    "`std::sync::{}` in a crate ported to the `xpath_sync` facade — import it \
                     from `xpath_sync` instead",
                    tok.text
                ),
            });
        }
    };
    let mut i = 0usize;
    while i + 3 < toks.len() {
        if !(toks[i].text == "std"
            && punct(i + 1, ':')
            && punct(i + 2, ':')
            && toks[i + 3].text == "sync")
            || in_ranges(tests, toks[i].line)
        {
            i += 1;
            continue;
        }
        let mut j = i + 4;
        // Follow `:: segment` chains and a trailing `::{ ... }` use-tree.
        while punct(j, ':') && punct(j + 1, ':') {
            if let Some(tok) = toks.get(j + 2) {
                if tok.kind == TokKind::Ident {
                    check(tok, findings);
                    j += 3;
                    continue;
                }
            }
            if punct(j + 2, '{') {
                let mut depth = 0i32;
                let mut k = j + 2;
                while k < toks.len() {
                    match &toks[k].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        TokKind::Ident => check(&toks[k], findings),
                        _ => {}
                    }
                    k += 1;
                }
                j = k;
            }
            break;
        }
        i = j.max(i + 4);
    }
}

// ---------------------------------------------------------------------------
// Workspace walking and the allowlist
// ---------------------------------------------------------------------------

/// Parse the allowlist: one `rule path` pair per line; `#` comments and
/// blank lines ignored.
pub fn parse_allowlist(text: &str) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (rule, path) = l.split_once(char::is_whitespace)?;
            Some((rule.to_string(), path.trim().to_string()))
        })
        .collect()
}

/// Drop findings covered by the allowlist.
pub fn filter_allowed(findings: Vec<Finding>, allow: &[(String, String)]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !allow
                .iter()
                .any(|(rule, path)| rule == f.rule && path == &f.file)
        })
        .collect()
}

/// Every `.rs` file under the workspace's `crates/*/src` trees (library and
/// binary sources; `tests/` directories are integration tests and exempt).
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut stack = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            stack.push(src);
        }
    }
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scan the whole workspace rooted at `root`, applying `root/lint.allow`.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let allow = match fs::read_to_string(root.join("lint.allow")) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut findings = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = fs::read_to_string(&path)?;
        findings.extend(scan_source(&rel, &source));
    }
    Ok(filter_allowed(findings, &allow))
}

// ---------------------------------------------------------------------------
// Mutation self-tests: the lint must flag intentionally-broken snippets and
// pass their repaired twins.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_documented_unsafe_passes() {
        let bad = "
fn f(fd: i32) {
    unsafe { close(fd) };
}
";
        let found = scan_source("crates/corpus/src/reactor.rs", bad);
        assert_eq!(rules(&found), vec!["unsafe-safety"], "{found:?}");

        let good = "
fn f(fd: i32) {
    // SAFETY: fd is owned by this struct and closed exactly once.
    unsafe { close(fd) };
}
";
        assert!(scan_source("crates/corpus/src/reactor.rs", good).is_empty());
    }

    #[test]
    fn safety_comment_must_be_adjacent() {
        let stale = "
// SAFETY: this comment is too far away to cover the block below.




fn f(fd: i32) {
    unsafe { close(fd) };
}
";
        let found = scan_source("crates/corpus/src/reactor.rs", stale);
        assert_eq!(rules(&found), vec!["unsafe-safety"]);
    }

    #[test]
    fn lock_unwrap_in_serving_path_is_flagged() {
        let bad = "
fn f(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
";
        let found = scan_source("crates/corpus/src/router.rs", bad);
        assert_eq!(rules(&found), vec!["lock-unwrap"], "{found:?}");
        // expect() is equally banned.
        let bad2 = bad.replace("unwrap()", "expect(\"poisoned\")");
        let found2 = scan_source("crates/wire/src/lib.rs", &bad2);
        assert_eq!(rules(&found2), vec!["lock-unwrap"], "{found2:?}");
    }

    #[test]
    fn lock_unwrap_rule_is_scoped() {
        let src = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }\n";
        // Outside the serving crates: allowed.
        assert!(scan_source("crates/bench/src/lib.rs", src).is_empty());
        // Inside a test module: allowed.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(scan_source("crates/corpus/src/router.rs", &in_test).is_empty());
        // Recovery (no unwrap) is clean.
        let recovered =
            "fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock().unwrap_or_else(|p| p.into_inner())\n}\n";
        assert!(scan_source("crates/corpus/src/router.rs", recovered).is_empty());
        // unwrap on a non-risky receiver is clean.
        let benign =
            "fn f(v: Vec<u32>) -> u32 { v.first().unwrap() + v.last().expect(\"nonempty\") }\n";
        assert!(scan_source("crates/corpus/src/router.rs", benign).is_empty());
    }

    #[test]
    fn raw_spawn_is_flagged_outside_sanctioned_modules() {
        let bad = "fn f() { std::thread::spawn(|| {}); }\n";
        let found = scan_source("crates/corpus/src/server.rs", bad);
        assert_eq!(rules(&found), vec!["raw-spawn"], "{found:?}");
        // The bench daemon harness is sanctioned.
        assert!(scan_source("crates/bench/src/regress.rs", bad).is_empty());
        // Tests may spawn.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{bad}\n}}\n");
        assert!(scan_source("crates/corpus/src/server.rs", &in_test).is_empty());
        // The facade's own scoped spawn is fine.
        let facade = "fn f() { xpath_sync::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(scan_source("crates/corpus/src/server.rs", facade).is_empty());
    }

    #[test]
    fn unbounded_wire_read_is_flagged_in_corpus_only() {
        let bad =
            "fn f(r: &mut impl BufRead) { let mut s = String::new(); r.read_line(&mut s); }\n";
        let found = scan_source("crates/corpus/src/server.rs", bad);
        assert_eq!(rules(&found), vec!["wire-read"], "{found:?}");
        // Other crates are out of scope.
        assert!(scan_source("crates/wire/src/lib.rs", bad).is_empty());
        // Path-qualified filesystem reads are not wire input.
        let fs_read = "fn f() { let _ = std::fs::read_to_string(\"x\"); }\n";
        assert!(scan_source("crates/corpus/src/lib.rs", fs_read).is_empty());
    }

    #[test]
    fn std_sync_lock_imports_are_flagged_in_ported_crates() {
        let bad = "use std::sync::{Arc, Mutex};\n";
        let found = scan_source("crates/corpus/src/lib.rs", bad);
        assert_eq!(rules(&found), vec!["std-sync-import"], "{found:?}");
        // Inline qualification is equally banned.
        let inline = "fn f() { let m = std::sync::Mutex::new(0); }\n";
        let found2 = scan_source("crates/pplbin/src/store.rs", inline);
        assert_eq!(rules(&found2), vec!["std-sync-import"], "{found2:?}");
        // Arc, atomics, OnceLock stay on std.
        let ok = "use std::sync::Arc;\nuse std::sync::atomic::{AtomicUsize, Ordering};\nuse std::sync::OnceLock;\n";
        assert!(scan_source("crates/corpus/src/lib.rs", ok).is_empty());
        // `Arc<Mutex<..>>` with the facade's Mutex is not a false positive.
        let arc_of_mutex = "use std::sync::Arc;\nfn f(x: std::sync::Arc<Mutex<u32>>) -> usize { x.lock().map(|_| 1).unwrap_or(0) }\n";
        assert!(scan_source("crates/corpus/src/lib.rs", arc_of_mutex).is_empty());
        // Unported crates may use std::sync directly.
        assert!(scan_source("crates/core/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn lexer_ignores_strings_comments_and_lifetimes() {
        let tricky = r##"
// std::thread::spawn in a comment is fine
fn f<'a>(x: &'a str) -> usize {
    let s = "std::thread::spawn(|| {})";
    let r = r#"m.lock().unwrap()"#;
    let c = '\'';
    let b = b"use std::sync::Mutex;";
    x.len() + s.len() + r.len() + b.len() + (c as usize)
}
"##;
        assert!(scan_source("crates/corpus/src/lib.rs", tricky).is_empty());
    }

    #[test]
    fn allowlist_suppresses_exact_rule_file_pairs() {
        let bad = "fn f() { std::thread::spawn(|| {}); }\n";
        let findings = scan_source("crates/corpus/src/server.rs", bad);
        let allow = parse_allowlist("# comment\nraw-spawn crates/corpus/src/server.rs\n");
        assert!(filter_allowed(findings.clone(), &allow).is_empty());
        let wrong = parse_allowlist("raw-spawn crates/corpus/src/router.rs\n");
        assert_eq!(filter_allowed(findings, &wrong).len(), 1);
    }

    /// Acceptance criterion: the workspace scans clean with the committed
    /// allowlist, and the allowlist stays empty for corpus and wire.
    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = scan_workspace(&root).expect("workspace scan");
        assert!(
            findings.is_empty(),
            "lint violations:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let allow_text = std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
        for (_, path) in parse_allowlist(&allow_text) {
            assert!(
                !path.starts_with("crates/corpus/") && !path.starts_with("crates/wire/"),
                "allowlist must stay empty for corpus and wire: {path}"
            );
        }
    }
}
