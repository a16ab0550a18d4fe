//! The sans-IO half of the `pplxd` wire protocol.
//!
//! Everything in this module is transport-agnostic: [`parse_command`] turns
//! a request line into a [`Command`], [`execute_command`] runs one command
//! against a [`Corpus`] and returns payload lines, [`render_response`]
//! serialises a result into wire bytes, and [`Conn`] is a per-connection
//! state machine that is *fed raw bytes* and yields parsed commands while
//! queueing rendered response bytes — framing, pipelining, response
//! ordering and backpressure with no sockets in sight.
//!
//! The serving loop sits on top: [`crate::server::serve`] runs the Linux
//! epoll reactor, which drives one [`Conn`] per client and hands each
//! parsed command to a [`crate::server::Service`] — the corpus (through
//! [`execute_command`]) or the sharding router.
//!
//! # Pipelining and response ordering
//!
//! A client may write many request lines without waiting for answers.
//! [`Conn::feed`] assigns each parsed request a sequence number and keeps a
//! slot for it; [`Conn::complete`] may be called in *any* order (workers
//! finish when they finish), but response bytes are released strictly in
//! request order — a slow `QUERYALL` holds back the bytes of a later cheap
//! `STATS`, never reorders them.
//!
//! # Backpressure
//!
//! [`Conn::wants_read`] turns false while the connection has more than
//! [`DEFAULT_MAX_PIPELINE`] requests in flight or more than the write
//! high-water mark of buffered response bytes.  The reactor then stops
//! reading that socket: the kernel receive buffer and, eventually, the
//! client's send call absorb the excess instead of daemon memory.

use crate::{Corpus, CorpusError, DocEdit};
use std::collections::VecDeque;
use xpath_tree::{EditKind, Tree};

// The wire encoding itself (status-line framing) lives in `xpath_wire`,
// shared with the router and the `pplx --connect` client; re-exported here
// so the serving loops keep one import path for the whole protocol.
pub use xpath_wire::{parse_status, render_response};

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `LOAD <name> <xml>` — ingest an XML document.
    Load {
        /// Document name.
        name: String,
        /// The document, as one line of XML.
        xml: String,
    },
    /// `LOADTERMS <name> <terms>` — ingest a term-syntax document.
    LoadTerms {
        /// Document name.
        name: String,
        /// The document in compact term syntax.
        terms: String,
    },
    /// `QUERY <name> <expr> [-> vars]` — answer over one document.
    Query {
        /// Target document.
        name: String,
        /// Core XPath 2.0 source.
        query: String,
        /// Output variables.
        vars: Vec<String>,
    },
    /// `QUERYALL <expr> [-> vars]` — answer over every document.
    QueryAll {
        /// Core XPath 2.0 source.
        query: String,
        /// Output variables.
        vars: Vec<String>,
    },
    /// `MUTATE <name> INSERT|DELETE|RELABEL …` — edit a live document.
    Mutate {
        /// Target document.
        name: String,
        /// The parsed edit operation.
        spec: MutateSpec,
    },
    /// `STATS` — report the corpus counters.
    Stats,
    /// `EVICT [<name>]` — drop one session (or all sessions).
    Evict(Option<String>),
    /// `QUIT` — close this connection.
    Quit,
    /// `SHUTDOWN` — stop the daemon.
    Shutdown,
}

/// One edit operation of a `MUTATE` request.
///
/// The numeric arguments are validated at parse time (a non-numeric node id
/// answers `ERR usage: …` without touching the corpus); the `INSERT` subtree
/// stays as term-syntax text until execution, so [`Command`] remains cheap
/// to clone and compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateSpec {
    /// Splice a subtree under `parent` before its `index`-th child.
    Insert {
        /// Preorder id of the parent node.
        parent: u32,
        /// Child position to insert at (`0..=child_count`).
        index: usize,
        /// The subtree, in compact term syntax.
        terms: String,
    },
    /// Remove the subtree rooted at `node`.
    Delete {
        /// Preorder id of the subtree root.
        node: u32,
    },
    /// Rename one node, keeping the tree shape.
    Relabel {
        /// Preorder id of the node.
        node: u32,
        /// The new label.
        label: String,
    },
}

/// Default cap on one request line, in bytes (16 MiB).
///
/// `LOAD` carries a whole XML document on one line, so the cap is generous —
/// but without *some* bound a malicious (or just confused) client can feed
/// an endless newline-free stream and grow the connection's line buffer
/// until the daemon is OOM-killed.  Configurable per server (`pplxd
/// --max-line`).
pub const DEFAULT_MAX_LINE: usize = 16 << 20;

/// Default write-buffer high-water mark, in bytes (256 KiB).  A connection
/// holding more rendered-but-unsent response bytes than this stops being
/// read until the peer drains it.
pub const DEFAULT_HIGH_WATER: usize = 256 << 10;

/// Default cap on in-flight pipelined requests per connection.  Reading
/// pauses (backpressure) rather than queueing more work than this.
pub const DEFAULT_MAX_PIPELINE: usize = 256;

/// Split an optional trailing ` -> v1,v2` variable suffix off a query
/// expression.
///
/// Only a *whitespace-delimited* `->` token introduces the suffix: the last
/// `->` in the expression that has whitespace on both sides (or whitespace
/// before and end-of-string after).  An arrow embedded in the query text —
/// `child::a->b` — is part of the query, not a separator; `rsplit_once`
/// used to mis-split exactly that form and silently drop the query's tail
/// into the variable list.
fn split_vars(expr: &str) -> (String, Vec<String>) {
    let expr = expr.trim();
    let bytes = expr.as_bytes();
    let mut search_end = expr.len();
    while let Some(pos) = expr[..search_end].rfind("->") {
        let delimited_before = pos > 0 && bytes[pos - 1].is_ascii_whitespace();
        let after = pos + 2;
        let delimited_after = after == expr.len() || bytes[after].is_ascii_whitespace();
        if delimited_before && delimited_after {
            let vars = expr[after..]
                .split(',')
                .map(|s| s.trim().trim_start_matches('$').to_string())
                .filter(|s| !s.is_empty())
                .collect();
            return (expr[..pos].trim().to_string(), vars);
        }
        search_end = pos;
    }
    (expr.to_string(), Vec::new())
}

/// Parse one request line into a [`Command`].
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((verb, rest)) => (verb, rest.trim()),
        None => (line, ""),
    };
    let two_args = |rest: &str, usage: &str| -> Result<(String, String), String> {
        rest.split_once(char::is_whitespace)
            .map(|(a, b)| (a.to_string(), b.trim().to_string()))
            .filter(|(a, b)| !a.is_empty() && !b.is_empty())
            .ok_or_else(|| format!("usage: {usage}"))
    };
    match verb.to_ascii_uppercase().as_str() {
        "LOAD" => {
            let (name, xml) = two_args(rest, "LOAD <name> <xml>")?;
            Ok(Command::Load { name, xml })
        }
        "LOADTERMS" => {
            let (name, terms) = two_args(rest, "LOADTERMS <name> <terms>")?;
            Ok(Command::LoadTerms { name, terms })
        }
        "QUERY" => {
            let (name, expr) = two_args(rest, "QUERY <name> <expr> [-> vars]")?;
            let (query, vars) = split_vars(&expr);
            Ok(Command::Query { name, query, vars })
        }
        "QUERYALL" => {
            if rest.is_empty() {
                return Err("usage: QUERYALL <expr> [-> vars]".into());
            }
            let (query, vars) = split_vars(rest);
            Ok(Command::QueryAll { query, vars })
        }
        "MUTATE" => {
            const USAGE: &str =
                "MUTATE <name> INSERT <parent> <index> <terms> | DELETE <node> | RELABEL <node> <label>";
            let usage = || format!("usage: {USAGE}");
            let (name, rest) = two_args(rest, USAGE)?;
            let (op, args) = match rest.split_once(char::is_whitespace) {
                Some((op, args)) => (op.to_string(), args.trim().to_string()),
                None => (rest.clone(), String::new()),
            };
            let parse_id = |s: &str| -> Result<u32, String> {
                s.parse::<u32>()
                    .map_err(|_| format!("invalid node id '{s}': {}", usage()))
            };
            let spec = match op.to_ascii_uppercase().as_str() {
                "INSERT" => {
                    let (parent, rest) = args.split_once(char::is_whitespace).ok_or_else(usage)?;
                    let (index, terms) = rest
                        .trim()
                        .split_once(char::is_whitespace)
                        .ok_or_else(usage)?;
                    let terms = terms.trim();
                    if terms.is_empty() {
                        return Err(usage());
                    }
                    MutateSpec::Insert {
                        parent: parse_id(parent)?,
                        index: index
                            .parse::<usize>()
                            .map_err(|_| format!("invalid child index '{index}': {}", usage()))?,
                        terms: terms.to_string(),
                    }
                }
                "DELETE" => {
                    if args.is_empty() || args.contains(char::is_whitespace) {
                        return Err(usage());
                    }
                    MutateSpec::Delete {
                        node: parse_id(&args)?,
                    }
                }
                "RELABEL" => {
                    let (node, label) = args.split_once(char::is_whitespace).ok_or_else(usage)?;
                    let label = label.trim();
                    if label.is_empty() {
                        return Err(usage());
                    }
                    MutateSpec::Relabel {
                        node: parse_id(node)?,
                        label: label.to_string(),
                    }
                }
                _ => return Err(usage()),
            };
            Ok(Command::Mutate { name, spec })
        }
        "STATS" => Ok(Command::Stats),
        "EVICT" => Ok(Command::Evict(if rest.is_empty() {
            None
        } else {
            Some(rest.to_string())
        })),
        "QUIT" => Ok(Command::Quit),
        "SHUTDOWN" => Ok(Command::Shutdown),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Render one answer tuple as `label#preorder,label#preorder,…`.
fn render_tuple(tree: &Tree, tuple: &[xpath_tree::NodeId]) -> String {
    tuple
        .iter()
        .map(|&n| format!("{}#{}", tree.label_str(n), tree.preorder(n)))
        .collect::<Vec<_>>()
        .join(",")
}

fn corpus_err(e: &CorpusError) -> String {
    e.to_string().replace('\n', " | ")
}

/// Payload lines of one `QUERY` answer: a header plus one line per tuple
/// (or a `satisfiable=` header for arity-0 queries).
fn answer_lines(tree: &Tree, vars: &[String], answers: &ppl_xpath::AnswerSet) -> Vec<String> {
    let mut lines = Vec::with_capacity(answers.len() + 1);
    if vars.is_empty() {
        lines.push(format!("satisfiable={}", !answers.is_empty()));
        return lines;
    }
    lines.push(format!("vars={} tuples={}", vars.join(","), answers.len()));
    for tuple in answers.tuples() {
        lines.push(render_tuple(tree, tuple));
    }
    lines
}

/// Execute one command against the corpus.  Returns the payload lines, or
/// an error message for an `ERR` response.  `Quit`/`Shutdown` are handled
/// by the connection layer, not here.
///
/// `QUERYALL` never fails as a whole: each document reports its own
/// outcome, a healthy `doc=<name> …` block or a single `doc=<name>
/// error=<msg>` line, so one failing document no longer silences every
/// other answer.
pub fn execute_command(corpus: &Corpus, command: &Command) -> Result<Vec<String>, String> {
    match command {
        Command::Load { name, xml } => {
            let nodes = corpus.insert_xml(name, xml).map_err(|e| corpus_err(&e))?;
            Ok(vec![format!(
                "loaded {name} nodes={nodes} documents={}",
                corpus.len()
            )])
        }
        Command::LoadTerms { name, terms } => {
            let nodes = corpus
                .insert_terms(name, terms)
                .map_err(|e| corpus_err(&e))?;
            Ok(vec![format!(
                "loaded {name} nodes={nodes} documents={}",
                corpus.len()
            )])
        }
        Command::Query { name, query, vars } => {
            let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
            // answer_tagged carries the tree snapshot the node ids index —
            // looking the document up again here would race with a
            // concurrent LOAD replacing it.
            let doc = corpus
                .answer_tagged(name, query, &var_refs)
                .map_err(|e| corpus_err(&e))?;
            Ok(answer_lines(&doc.tree, vars, &doc.answers))
        }
        Command::QueryAll { query, vars } => {
            let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
            let per_doc = corpus.answer_all_detailed(query, &var_refs);
            let mut lines = Vec::new();
            for (name, result) in &per_doc {
                let doc = match result {
                    Ok(doc) => doc,
                    Err(e) => {
                        lines.push(format!("doc={name} error={}", corpus_err(e)));
                        continue;
                    }
                };
                if vars.is_empty() {
                    lines.push(format!(
                        "doc={} satisfiable={}",
                        doc.name,
                        !doc.answers.is_empty()
                    ));
                    continue;
                }
                lines.push(format!("doc={} tuples={}", doc.name, doc.answers.len()));
                for tuple in doc.answers.tuples() {
                    lines.push(render_tuple(&doc.tree, tuple));
                }
            }
            Ok(lines)
        }
        Command::Mutate { name, spec } => {
            let edit = match spec {
                MutateSpec::Insert {
                    parent,
                    index,
                    terms,
                } => DocEdit::Insert {
                    parent: *parent,
                    index: *index,
                    subtree: Tree::from_terms(terms).map_err(|e| e.to_string())?,
                },
                MutateSpec::Delete { node } => DocEdit::Delete { node: *node },
                MutateSpec::Relabel { node, label } => DocEdit::Relabel {
                    node: *node,
                    label: label.clone(),
                },
            };
            let outcome = corpus.mutate(name, &edit).map_err(|e| corpus_err(&e))?;
            let kind = match outcome.kind {
                EditKind::Insert => "insert",
                EditKind::Delete => "delete",
                EditKind::Relabel => "relabel",
            };
            Ok(vec![format!(
                "mutated {name} kind={kind} nodes={} epoch={} rows_invalidated={} mode={}",
                outcome.nodes,
                outcome.epoch,
                outcome.stats.rows_invalidated,
                if outcome.incremental {
                    "incremental"
                } else {
                    "full"
                },
            )])
        }
        Command::Stats => {
            let stats = corpus.stats();
            Ok(vec![
                format!("documents={}", stats.documents),
                format!("live_sessions={}", stats.live_sessions),
                format!("pool_bytes={}", stats.pool_bytes),
                format!(
                    "memory_budget={}",
                    corpus
                        .config()
                        .memory_budget
                        .map_or("unbounded".to_string(), |b| b.to_string())
                ),
                format!("admissions={}", stats.admissions),
                format!("rebuilds={}", stats.rebuilds),
                format!("cache_evictions={}", stats.cache_evictions),
                format!("session_evictions={}", stats.session_evictions),
                format!("plan_hits={}", stats.plan_hits),
                format!("plan_misses={}", stats.plan_misses),
                format!("edits={}", stats.edits),
                format!("edits_incremental={}", stats.edits_incremental),
                format!("edits_full={}", stats.edits_full),
                format!("edit_rows_invalidated={}", stats.edit_rows_invalidated),
            ])
        }
        Command::Evict(Some(name)) => Ok(vec![format!("evicted={}", corpus.evict(name))]),
        Command::Evict(None) => Ok(vec![format!("evicted={}", corpus.evict_all())]),
        Command::Quit | Command::Shutdown => Ok(vec!["bye".to_string()]),
    }
}

/// What [`Conn::feed`] asks the IO driver to do.
#[derive(Debug, PartialEq, Eq)]
pub enum ConnEvent {
    /// Run this command (on a worker) and report back via
    /// [`Conn::complete`] with the same sequence number.
    Execute {
        /// Response slot to complete.
        seq: u64,
        /// The trimmed request line the command was parsed from (the
        /// router forwards it to shards verbatim).
        line: String,
        /// The parsed command.
        command: Command,
    },
    /// The client sent `SHUTDOWN`: its response is already queued; the
    /// driver should begin daemon shutdown.
    ShutdownRequested,
}

/// Sans-IO state machine for one client connection.
///
/// The IO driver feeds raw bytes in ([`Conn::feed`]), executes the returned
/// commands however it likes, reports results back ([`Conn::complete`]) and
/// drains wire bytes out ([`Conn::pending_output`] /
/// [`Conn::advance_output`]).  The `Conn` owns framing (bounded lines),
/// parsing, response ordering under pipelining, and the backpressure
/// accounting ([`Conn::wants_read`]).  Protocol errors — overlong lines,
/// parse failures — complete their response slot immediately and never
/// reach the driver.
#[derive(Debug)]
pub struct Conn {
    max_line: usize,
    high_water: usize,
    max_pipeline: usize,
    /// Bytes of the current, still-unterminated request line.
    in_buf: Vec<u8>,
    /// Discarding the rest of an overlong line (its error is already queued).
    skipping: bool,
    next_seq: u64,
    /// One slot per in-flight request, in request order; `None` until the
    /// result arrives.
    slots: VecDeque<(u64, Option<Vec<u8>>)>,
    out: Vec<u8>,
    out_pos: usize,
    /// `QUIT`/`SHUTDOWN` seen: ignore further input, close once flushed.
    closing: bool,
}

impl Conn {
    /// A connection with the given request-line cap and default pipelining
    /// limits.
    pub fn new(max_line: usize) -> Conn {
        Conn::with_limits(max_line, DEFAULT_HIGH_WATER, DEFAULT_MAX_PIPELINE)
    }

    /// A connection with explicit write high-water mark and in-flight
    /// pipeline cap (both clamped to at least 1).
    pub fn with_limits(max_line: usize, high_water: usize, max_pipeline: usize) -> Conn {
        Conn {
            max_line: max_line.max(1),
            high_water: high_water.max(1),
            max_pipeline: max_pipeline.max(1),
            in_buf: Vec::new(),
            skipping: false,
            next_seq: 0,
            slots: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            closing: false,
        }
    }

    /// Feed raw bytes from the socket; returns the commands the driver must
    /// execute (plus a shutdown notice, if requested).  Blank lines are
    /// ignored; malformed and overlong lines answer `ERR` without involving
    /// the driver.
    pub fn feed(&mut self, data: &[u8]) -> Vec<ConnEvent> {
        let mut events = Vec::new();
        let mut rest = data;
        while !rest.is_empty() && !self.closing {
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let (head, tail) = rest.split_at(pos);
                    rest = &tail[1..];
                    if self.skipping {
                        // Tail of an already-reported overlong line.
                        self.skipping = false;
                    } else if self.in_buf.len() + head.len() > self.max_line {
                        self.overlong();
                    } else {
                        self.in_buf.extend_from_slice(head);
                        let line = std::mem::take(&mut self.in_buf);
                        self.handle_line(&line, &mut events);
                    }
                    self.in_buf.clear();
                }
                None => {
                    if !self.skipping {
                        if self.in_buf.len() + rest.len() > self.max_line {
                            self.overlong();
                            self.skipping = true;
                            self.in_buf.clear();
                        } else {
                            self.in_buf.extend_from_slice(rest);
                        }
                    }
                    break;
                }
            }
        }
        events
    }

    /// Report the result of an executed command.  Completion order is
    /// arbitrary; output bytes are released strictly in request order.
    pub fn complete(&mut self, seq: u64, result: Result<Vec<String>, String>) {
        let bytes = render_response(&result);
        match self.slots.iter_mut().find(|(s, _)| *s == seq) {
            Some(slot) if slot.1.is_none() => slot.1 = Some(bytes),
            _ => return, // unknown or duplicate completion: ignore
        }
        while matches!(self.slots.front(), Some((_, Some(_)))) {
            let (_, bytes) = self.slots.pop_front().expect("front exists");
            self.out
                .extend_from_slice(&bytes.expect("front is complete"));
        }
    }

    /// Rendered response bytes not yet written to the socket.
    pub fn pending_output(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// Record that `n` bytes of [`Conn::pending_output`] were written.
    pub fn advance_output(&mut self, n: usize) {
        self.out_pos = (self.out_pos + n).min(self.out.len());
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Any response bytes waiting to be written?
    pub fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Should the driver keep reading this socket?  False while closing, or
    /// while the connection is over its write high-water mark or pipeline
    /// cap — the backpressure signal.
    pub fn wants_read(&self) -> bool {
        !self.closing
            && self.out.len() - self.out_pos < self.high_water
            && self.slots.len() < self.max_pipeline
    }

    /// Number of requests awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// Stop reading; flush what is pending, then finish.  Used by the
    /// driver for daemon-wide shutdown.
    pub fn begin_close(&mut self) {
        self.closing = true;
    }

    /// The connection is done: closing, no in-flight requests, nothing left
    /// to write.  The driver should drop the socket.
    pub fn is_finished(&self) -> bool {
        self.closing && self.slots.is_empty() && !self.has_output()
    }

    fn overlong(&mut self) {
        let seq = self.begin_request();
        self.complete(
            seq,
            Err(format!("line too long (max {} bytes)", self.max_line)),
        );
    }

    fn begin_request(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back((seq, None));
        seq
    }

    fn handle_line(&mut self, line: &[u8], events: &mut Vec<ConnEvent>) {
        // Non-UTF-8 bytes only ever reach parse_command, which will reject
        // the verb; mangling them lossily beats killing the connection.
        let line = String::from_utf8_lossy(line);
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let seq = self.begin_request();
        match parse_command(line) {
            Err(message) => self.complete(seq, Err(message)),
            Ok(Command::Quit) => {
                self.complete(seq, Ok(vec!["bye".to_string()]));
                self.closing = true;
            }
            Ok(Command::Shutdown) => {
                self.complete(seq, Ok(vec!["bye".to_string()]));
                self.closing = true;
                events.push(ConnEvent::ShutdownRequested);
            }
            Ok(command) => events.push(ConnEvent::Execute {
                seq,
                line: line.to_string(),
                command,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec_seqs(events: &[ConnEvent]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                ConnEvent::Execute { seq, .. } => Some(*seq),
                ConnEvent::ShutdownRequested => None,
            })
            .collect()
    }

    #[test]
    fn split_vars_only_splits_a_whitespace_delimited_suffix() {
        // The plain form.
        assert_eq!(
            split_vars("descendant::author[. is $a] -> a"),
            (
                "descendant::author[. is $a]".to_string(),
                vec!["a".to_string()]
            )
        );
        // `->` embedded in the query text is not a separator (the old
        // rsplit_once dropped `b[. is $x]` into the vars list here).
        assert_eq!(
            split_vars("child::a->b[. is $x]"),
            ("child::a->b[. is $x]".to_string(), Vec::new())
        );
        // An embedded arrow plus a real suffix: only the trailing
        // whitespace-delimited arrow splits.
        assert_eq!(
            split_vars("descendant::a->b[. is $x] -> x"),
            (
                "descendant::a->b[. is $x]".to_string(),
                vec!["x".to_string()]
            )
        );
        // Multiple delimited arrows: the last one wins.
        assert_eq!(
            split_vars("a -> b -> c"),
            ("a -> b".to_string(), vec!["c".to_string()])
        );
        // Missing whitespace on either side keeps the arrow in the query.
        assert_eq!(split_vars("q-> x"), ("q-> x".to_string(), Vec::new()));
        assert_eq!(split_vars("q ->x"), ("q ->x".to_string(), Vec::new()));
        // Variable lists still strip `$`, spaces and empty entries.
        assert_eq!(
            split_vars("child::b -> $x, ,y"),
            (
                "child::b".to_string(),
                vec!["x".to_string(), "y".to_string()]
            )
        );
        // A trailing delimited arrow with no vars is an empty suffix.
        assert_eq!(
            split_vars("child::b ->"),
            ("child::b".to_string(), Vec::new())
        );
    }

    #[test]
    fn query_with_embedded_arrow_parses_whole_expression() {
        assert_eq!(
            parse_command("QUERY d child::a->b[. is $x]").unwrap(),
            Command::Query {
                name: "d".into(),
                query: "child::a->b[. is $x]".into(),
                vars: vec![]
            }
        );
        assert_eq!(
            parse_command("QUERYALL descendant::a->b[. is $x] -> x").unwrap(),
            Command::QueryAll {
                query: "descendant::a->b[. is $x]".into(),
                vars: vec!["x".into()]
            }
        );
    }

    #[test]
    fn feed_splits_lines_across_arbitrary_chunk_boundaries() {
        let mut conn = Conn::new(1024);
        let wire = b"STATS\nEVICT bib\n";
        for split in 0..wire.len() {
            let mut conn2 = Conn::new(1024);
            let mut events = conn2.feed(&wire[..split]);
            events.extend(conn2.feed(&wire[split..]));
            let seqs = exec_seqs(&events);
            assert_eq!(seqs, vec![0, 1], "split at {split}");
            assert!(matches!(
                &events[0],
                ConnEvent::Execute {
                    command: Command::Stats,
                    ..
                }
            ));
        }
        let events = conn.feed(wire);
        assert_eq!(exec_seqs(&events), vec![0, 1]);
    }

    #[test]
    fn out_of_order_completion_releases_bytes_in_request_order() {
        let mut conn = Conn::new(1024);
        let events = conn.feed(b"STATS\nEVICT a\nEVICT b\n");
        assert_eq!(exec_seqs(&events), vec![0, 1, 2]);
        assert_eq!(conn.in_flight(), 3);
        // Complete the *last* request first: nothing is released.
        conn.complete(2, Ok(vec!["evicted=false".into()]));
        assert!(!conn.has_output());
        // Completing the head releases it — and only it.
        conn.complete(0, Err("boom".into()));
        assert_eq!(conn.pending_output(), b"ERR boom\n");
        // The middle completion releases the rest, in order.
        conn.complete(1, Ok(vec!["evicted=true".into()]));
        assert_eq!(
            conn.pending_output(),
            b"ERR boom\nOK 1\nevicted=true\nOK 1\nevicted=false\n" as &[u8]
        );
        assert_eq!(conn.in_flight(), 0);
        // Partial writes advance; a full drain resets the buffer.
        let n = conn.pending_output().len();
        conn.advance_output(9);
        assert_eq!(&conn.pending_output()[..4], b"OK 1");
        conn.advance_output(n - 9);
        assert!(!conn.has_output());
    }

    #[test]
    fn parse_errors_and_blank_lines_complete_without_the_driver() {
        let mut conn = Conn::new(1024);
        let events = conn.feed(b"\n  \nFROB x\nSTATS\n");
        // Only STATS reaches the driver; the parse error answered inline.
        assert_eq!(exec_seqs(&events), vec![1]);
        assert!(String::from_utf8_lossy(conn.pending_output()).starts_with("ERR unknown command"));
        // The inline error does not jump the queue: it is seq 0, so it is
        // already released; STATS (seq 1) follows once completed.
        conn.complete(1, Ok(vec![]));
        assert!(String::from_utf8_lossy(conn.pending_output()).ends_with("OK 0\n"));
    }

    #[test]
    fn overlong_lines_err_inline_and_stay_in_sync() {
        let mut conn = Conn::new(8);
        let mut events = conn.feed(b"0123456789abcdef");
        assert!(events.is_empty());
        assert_eq!(conn.pending_output(), b"ERR line too long (max 8 bytes)\n");
        // The rest of the flood is discarded without re-reporting.
        events.extend(conn.feed(b"more flood"));
        events.extend(conn.feed(b" end\nSTATS\n"));
        assert_eq!(exec_seqs(&events), vec![1]);
        conn.complete(1, Ok(vec![]));
        assert_eq!(
            conn.pending_output(),
            b"ERR line too long (max 8 bytes)\nOK 0\n" as &[u8]
        );
    }

    #[test]
    fn quit_and_shutdown_close_after_flushing() {
        let mut conn = Conn::new(1024);
        let events = conn.feed(b"STATS\nQUIT\nSTATS\n");
        // The post-QUIT STATS is never parsed.
        assert_eq!(exec_seqs(&events), vec![0]);
        assert!(!conn.wants_read());
        assert!(!conn.is_finished(), "STATS still in flight");
        conn.complete(0, Ok(vec![]));
        assert!(!conn.is_finished(), "bye not yet flushed");
        assert_eq!(conn.pending_output(), b"OK 0\nOK 1\nbye\n");
        let n = conn.pending_output().len();
        conn.advance_output(n);
        assert!(conn.is_finished());

        let mut conn = Conn::new(1024);
        let events = conn.feed(b"SHUTDOWN\n");
        assert_eq!(events, vec![ConnEvent::ShutdownRequested]);
        assert_eq!(conn.pending_output(), b"OK 1\nbye\n");
    }

    #[test]
    fn backpressure_trips_on_pipeline_depth_and_write_buffer() {
        let mut conn = Conn::with_limits(1024, 16, 2);
        let events = conn.feed(b"STATS\nSTATS\nSTATS\n");
        // All already-fed bytes parse, but the conn asks reading to stop.
        assert_eq!(exec_seqs(&events), vec![0, 1, 2]);
        assert!(!conn.wants_read(), "pipeline cap of 2 exceeded");
        conn.complete(0, Ok(vec![]));
        conn.complete(1, Ok(vec![]));
        assert!(conn.wants_read(), "back under the cap, small output");
        // A fat response trips the write high-water mark instead.
        conn.complete(2, Ok(vec!["x".repeat(64)]));
        assert!(!conn.wants_read(), "write buffer over high-water mark");
        let n = conn.pending_output().len();
        conn.advance_output(n);
        assert!(conn.wants_read());
    }

    /// An oversized line fed one byte at a time must report `ERR` exactly
    /// once, discard the whole tail across every subsequent feed, and
    /// resynchronise at the next newline.
    #[test]
    fn oversized_line_discard_survives_byte_at_a_time_feeds() {
        let mut conn = Conn::with_limits(8, DEFAULT_HIGH_WATER, DEFAULT_MAX_PIPELINE);
        let mut events = Vec::new();
        for byte in b"0123456789abcdefghij" {
            events.extend(conn.feed(&[*byte]));
        }
        assert!(events.is_empty());
        assert_eq!(
            conn.pending_output(),
            b"ERR line too long (max 8 bytes)\n",
            "the flood must be reported once, not once per feed"
        );
        // The newline ends the discard; the next request parses normally.
        events.extend(conn.feed(b"\n"));
        for byte in b"STATS\n" {
            events.extend(conn.feed(&[*byte]));
        }
        assert_eq!(exec_seqs(&events), vec![1]);
        conn.complete(1, Ok(vec![]));
        assert_eq!(
            conn.pending_output(),
            b"ERR line too long (max 8 bytes)\nOK 0\n" as &[u8]
        );
    }

    /// The cap counts the line body, not its newline: a request of exactly
    /// `max_line` bytes is served, one byte more is rejected — in one feed
    /// or split at every boundary.
    #[test]
    fn line_exactly_at_the_cap_is_served_not_rejected() {
        // "EVICT ab" is exactly 8 bytes.
        for split in 0..=8 {
            let mut conn = Conn::with_limits(8, DEFAULT_HIGH_WATER, DEFAULT_MAX_PIPELINE);
            let wire = b"EVICT ab\n";
            let mut events = conn.feed(&wire[..split]);
            events.extend(conn.feed(&wire[split..]));
            assert_eq!(exec_seqs(&events), vec![0], "split at {split}");
            assert!(
                matches!(
                    &events[0],
                    ConnEvent::Execute { command: Command::Evict(Some(name)), .. } if name == "ab"
                ),
                "split at {split}: {events:?}"
            );
        }
        // One byte over the cap errs inline and stays in sync.
        let mut conn = Conn::with_limits(8, DEFAULT_HIGH_WATER, DEFAULT_MAX_PIPELINE);
        let events = conn.feed(b"EVICT abc\nSTATS\n");
        assert_eq!(exec_seqs(&events), vec![1]);
        assert!(String::from_utf8_lossy(conn.pending_output()).starts_with("ERR line too long"));
    }

    /// CRLF terminates like LF (the CR is trimmed); a lone CR is *not* a
    /// terminator — the line stays pending until a real newline arrives.
    #[test]
    fn crlf_and_cr_only_terminators() {
        let mut conn = Conn::new(1024);
        let events = conn.feed(b"STATS\r\n");
        assert_eq!(exec_seqs(&events), vec![0]);
        assert!(matches!(
            &events[0],
            ConnEvent::Execute {
                command: Command::Stats,
                ..
            }
        ));

        // CR without LF: nothing parses yet, nothing is answered.
        let mut conn = Conn::new(1024);
        assert!(conn.feed(b"EVICT ab\r").is_empty());
        assert_eq!(conn.in_flight(), 0);
        assert!(!conn.has_output());
        // The newline completes the request; the stray CR trims away.
        let events = conn.feed(b"\n");
        assert!(
            matches!(
                &events[0],
                ConnEvent::Execute { command: Command::Evict(Some(name)), .. } if name == "ab"
            ),
            "{events:?}"
        );
    }

    /// Output exactly at the high-water mark trips backpressure; draining a
    /// single byte releases it.
    #[test]
    fn high_water_boundary_is_inclusive() {
        let mut conn = Conn::with_limits(1024, 8, DEFAULT_MAX_PIPELINE);
        let events = conn.feed(b"STATS\n");
        assert_eq!(exec_seqs(&events), vec![0]);
        // "OK 1\nxx\n" is exactly 8 bytes of pending output.
        conn.complete(0, Ok(vec!["xx".into()]));
        assert_eq!(conn.pending_output().len(), 8);
        assert!(!conn.wants_read(), "at the mark counts as over it");
        conn.advance_output(1);
        assert!(conn.wants_read(), "7 pending bytes are under the mark");
    }

    /// Feeding past the pipeline cap (the driver may hold already-read
    /// bytes when backpressure trips) must not desync the slot queue:
    /// every request still answers, in order, and reads resume once the
    /// queue drains.  Bogus completions — unknown or duplicate sequence
    /// numbers — are ignored without disturbing the queue.
    #[test]
    fn pipeline_overflow_recovers_without_slot_desync() {
        let mut conn = Conn::with_limits(1024, 4096, 2);
        let events = conn.feed(b"EVICT a\nEVICT b\nEVICT c\nEVICT d\n");
        assert_eq!(exec_seqs(&events), vec![0, 1, 2, 3]);
        assert_eq!(conn.in_flight(), 4, "already-fed bytes all parse");
        assert!(!conn.wants_read(), "over the cap of 2");

        // Completions for slots that do not exist (never issued) or that
        // already completed must be ignored.
        conn.complete(99, Ok(vec!["phantom".into()]));
        conn.complete(3, Ok(vec!["evicted=false".into()]));
        conn.complete(3, Ok(vec!["duplicate".into()]));
        assert!(!conn.has_output(), "head of queue is still pending");

        conn.complete(1, Err("boom".into()));
        conn.complete(0, Ok(vec!["evicted=true".into()]));
        conn.complete(2, Ok(vec!["evicted=true".into()]));
        assert_eq!(
            String::from_utf8_lossy(conn.pending_output()),
            "OK 1\nevicted=true\nERR boom\nOK 1\nevicted=true\nOK 1\nevicted=false\n",
            "responses must release in request order with no phantom bytes"
        );
        assert_eq!(conn.in_flight(), 0);
        assert!(conn.wants_read(), "drained queue resumes reading");
        // The connection is still in protocol sync for the next request.
        let events = conn.feed(b"STATS\n");
        assert_eq!(exec_seqs(&events), vec![4]);
    }

    #[test]
    fn queryall_reports_per_document_errors_next_to_healthy_answers() {
        let corpus = Corpus::new();
        corpus.insert_terms("good", "r(a(b),a(b))").unwrap();
        corpus.insert_terms("sick", "r(a(b))").unwrap();
        corpus.panic_docs.lock().unwrap().insert("sick".to_string());
        let lines = execute_command(
            &corpus,
            &parse_command("QUERYALL descendant::b[. is $x] -> x").unwrap(),
        )
        .expect("fan-out must not fail as a whole");
        // The healthy document still answers in full…
        assert_eq!(lines[0], "doc=good tuples=2");
        assert_eq!(lines[1], "b#2");
        assert_eq!(lines[2], "b#4");
        // …and the failing one reports its own error line.
        assert_eq!(lines.len(), 4);
        assert!(
            lines[3].starts_with("doc=sick error="),
            "expected a per-document error line, got: {:?}",
            lines[3]
        );
    }

    #[test]
    fn mutate_parses_all_three_operations_and_rejects_malformed_forms() {
        assert_eq!(
            parse_command("MUTATE bib INSERT 0 2 book(author,title)").unwrap(),
            Command::Mutate {
                name: "bib".into(),
                spec: MutateSpec::Insert {
                    parent: 0,
                    index: 2,
                    terms: "book(author,title)".into()
                }
            }
        );
        assert_eq!(
            parse_command("mutate bib delete 4").unwrap(),
            Command::Mutate {
                name: "bib".into(),
                spec: MutateSpec::Delete { node: 4 }
            }
        );
        assert_eq!(
            parse_command("MUTATE bib RELABEL 3 subtitle").unwrap(),
            Command::Mutate {
                name: "bib".into(),
                spec: MutateSpec::Relabel {
                    node: 3,
                    label: "subtitle".into()
                }
            }
        );
        for bad in [
            "MUTATE",
            "MUTATE bib",
            "MUTATE bib FROB 1",
            "MUTATE bib INSERT 0 2",
            "MUTATE bib INSERT zero 2 a",
            "MUTATE bib DELETE",
            "MUTATE bib DELETE 1 2",
            "MUTATE bib DELETE x",
            "MUTATE bib RELABEL 3",
        ] {
            assert!(parse_command(bad).is_err(), "must reject: {bad}");
        }
    }

    /// The `xpath_wire` request builders and the daemon parser agree on the
    /// MUTATE grammar.
    #[test]
    fn wire_mutate_builders_round_trip_through_the_parser() {
        use xpath_wire::{mutate_delete_line, mutate_insert_line, mutate_relabel_line};
        assert_eq!(
            parse_command(&mutate_insert_line("bib", 0, 2, "book(author)")).unwrap(),
            Command::Mutate {
                name: "bib".into(),
                spec: MutateSpec::Insert {
                    parent: 0,
                    index: 2,
                    terms: "book(author)".into()
                }
            }
        );
        assert_eq!(
            parse_command(&mutate_delete_line("bib", 4)).unwrap(),
            Command::Mutate {
                name: "bib".into(),
                spec: MutateSpec::Delete { node: 4 }
            }
        );
        assert_eq!(
            parse_command(&mutate_relabel_line("bib", 3, "subtitle")).unwrap(),
            Command::Mutate {
                name: "bib".into(),
                spec: MutateSpec::Relabel {
                    node: 3,
                    label: "subtitle".into()
                }
            }
        );
    }

    #[test]
    fn mutate_executes_and_queries_see_the_edited_document() {
        let corpus = Corpus::new();
        corpus
            .insert_terms("bib", "bib(book(author,title),book(author))")
            .unwrap();
        let lines = execute_command(
            &corpus,
            &parse_command("MUTATE bib INSERT 0 2 book(author,title)").unwrap(),
        )
        .unwrap();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("mutated bib kind=insert nodes=9 epoch=1 rows_invalidated="),
            "unexpected info line: {:?}",
            lines[0]
        );
        assert!(lines[0].ends_with("mode=incremental") || lines[0].ends_with("mode=full"));
        let lines = execute_command(
            &corpus,
            &parse_command("QUERY bib descendant::author[. is $x] -> x").unwrap(),
        )
        .unwrap();
        assert_eq!(lines[0], "vars=x tuples=3");

        // A structurally invalid edit is an ERR, not a protocol failure…
        let err =
            execute_command(&corpus, &parse_command("MUTATE bib DELETE 99").unwrap()).unwrap_err();
        assert!(err.contains("cannot edit document 'bib'"), "{err}");
        // …and so is a subtree that does not parse.
        let err = execute_command(
            &corpus,
            &parse_command("MUTATE bib INSERT 0 0 a((").unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("syntax"), "{err}");
        let err =
            execute_command(&corpus, &parse_command("MUTATE nope DELETE 1").unwrap()).unwrap_err();
        assert!(err.contains("unknown document"), "{err}");
    }

    #[test]
    fn stats_reports_the_edit_counters() {
        let corpus = Corpus::new();
        corpus.insert_terms("d", "r(a,b)").unwrap();
        execute_command(&corpus, &parse_command("MUTATE d RELABEL 2 c").unwrap()).unwrap();
        let lines = execute_command(&corpus, &Command::Stats).unwrap();
        assert_eq!(lines.len(), 14, "STATS must report 14 counters: {lines:?}");
        assert!(lines.contains(&"edits=1".to_string()), "{lines:?}");
        assert!(lines.contains(&"edits_full=1".to_string()), "{lines:?}");
        assert!(
            lines.contains(&"edits_incremental=0".to_string()),
            "{lines:?}"
        );
        assert!(
            lines.contains(&"edit_rows_invalidated=0".to_string()),
            "{lines:?}"
        );
    }

    #[test]
    fn queryall_reports_compile_errors_per_document() {
        let corpus = Corpus::new();
        corpus.insert_terms("d1", "r(a)").unwrap();
        corpus.insert_terms("d2", "r(b)").unwrap();
        let lines = execute_command(&corpus, &parse_command("QUERYALL child::(").unwrap())
            .expect("fan-out must not fail as a whole");
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("doc=d1 error="), "{:?}", lines[0]);
        assert!(lines[1].starts_with("doc=d2 error="), "{:?}", lines[1]);
    }
}
