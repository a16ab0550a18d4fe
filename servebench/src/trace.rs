//! The traced run: a single-threaded, in-process replay of a workload's
//! seeded request sequence that splits every request into the public calls
//! the daemon makes, and the per-layer metrics derived from it.
//!
//! Two passes replay one request sequence (load, warm-up, then
//! [`REPLAY_PER_CONN`] requests of every connection's stream of the
//! workload's own traffic, interleaved), each on its own corpus configured
//! like the daemon, alternating request by request so that machine noise
//! hits both alike:
//!
//! * pass A runs `parse_command` → `execute_command` → `render_response`,
//!   untraced;
//! * pass B runs the same request decomposed into `parse_command` →
//!   `Corpus::session` → plan on first sight → the engine's calls →
//!   `Corpus::maintain` → render, one span per call.
//!
//! Then the engine table times every eligible engine once per distinct
//! (query, document) pair on warm sessions.
//!
//! Pass B's responses must equal pass A's byte for byte, and its call spans
//! must cover pass A's time within [`COVERAGE`].  Three calls run *inside*
//! other public calls and have no entry point of their own there:
//! `check_ppl` and `ppl_to_hcl` inside `Planner::plan_with`, and the tree
//! edit and `Session::fork_edited` inside `Corpus::mutate`.  The trace
//! times them as *shadow* calls on the same inputs just before the enclosing
//! call, and reports the enclosing layer as the difference.

use crate::check::{daemon_config, fnv, Expected};
use crate::workload::{Traffic, Workload, CONNECTIONS};
use crate::{metric, quantile, Metric, Window};
use ppl_xpath::{Engine, Planner, QueryPlan, Session};
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;
use xpath_acq::{answer_acq, hcl_to_acq, hcl_to_union_acq};
use xpath_ast::{check_ppl, parse_path, Var};
use xpath_corpus::protocol::{
    execute_command, parse_command, render_response, Command, MutateSpec,
};
use xpath_corpus::{Corpus, DocEdit};
use xpath_hcl::oracle::intern_atoms;
use xpath_hcl::{ppl_to_hcl, AnswerStream, EquationSystem, PplBinAtoms};
use xpath_naive::answer_nary;
use xpath_tree::{EditKind, NodeId, Tree};
use xpath_xml::{parse_with, ParseOptions};

/// Requests of each connection's stream replayed in process.
const REPLAY_PER_CONN: usize = 1000;
/// The naive engine is timed only where its cost estimate
/// (`|t|^(n+1)·|P|`) is at most this; above it one run takes seconds.
const NAIVE_COST_CAP: u128 = 1_000_000;
/// Pass B's call spans must sum to this share of pass A's time.
const COVERAGE: (f64, f64) = (0.8, 1.25);

/// Daemon-side counters of the traced run's untraced window.
pub struct DaemonStats<'a> {
    pub window: &'a Window,
    pub before: HashMap<String, f64>,
    pub after: HashMap<String, f64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Replay,
}

struct Request {
    line: String,
    phase: Phase,
}

/// The request sequence of both passes.
fn sequence(w: &Workload) -> Vec<Request> {
    let mut seq: Vec<Request> = w
        .load_lines()
        .into_iter()
        .chain(w.warmup.iter().cloned())
        .map(|line| Request {
            line,
            phase: Phase::Setup,
        })
        .collect();
    let mut streams: Vec<_> = (0..CONNECTIONS)
        .map(|c| w.stream(c, w.query_traffic()))
        .collect();
    for _ in 0..REPLAY_PER_CONN {
        for stream in &mut streams {
            seq.push(Request {
                line: stream.next_line().to_string(),
                phase: Phase::Replay,
            });
        }
    }
    seq
}

/// Plan-cache key, as `Corpus` builds it: (query, variables, size band).
type PlanKey = (String, String, u32);

fn size_band(nodes: usize) -> u32 {
    usize::BITS - nodes.leading_zeros()
}

// -- pass A --------------------------------------------------------------

/// Pass A: the daemon's own calls, untimed inside.
struct Untraced {
    corpus: Corpus,
    /// parse + execute + render, per request.
    total_ns: Vec<u64>,
    /// `execute_command` alone, per request.
    exec_ns: Vec<u64>,
    hashes: Vec<u64>,
}

impl Untraced {
    fn request(&mut self, line: &str) {
        let t0 = Instant::now();
        let command = parse_command(line);
        let t1 = Instant::now();
        let result = command.and_then(|c| execute_command(&self.corpus, &c));
        let t2 = Instant::now();
        let bytes = render_response(&result);
        self.total_ns.push(t0.elapsed().as_nanos() as u64);
        self.exec_ns.push((t2 - t1).as_nanos() as u64);
        self.hashes.push(fnv(&bytes));
    }
}

// -- pass B --------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum SpanKind {
    /// The request itself (the root of its spans).
    Request,
    /// A public call the daemon makes for this request.
    Call,
    /// A call repeated standalone to split the enclosing call.
    Shadow,
    /// The tracer's own bookkeeping (counter snapshots, drops).
    Overhead,
}

struct Span {
    req: u32,
    id: u32,
    parent: u32,
    name: &'static str,
    start: u64,
    end: u64,
    kind: SpanKind,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    req: u32,
    root: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, name: &'static str, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let result = f();
        let end = self.now();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            req: self.req,
            id,
            parent: self.root,
            name,
            start,
            end,
            kind,
        });
        result
    }

    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, SpanKind::Call, f)
    }

    fn shadow<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, SpanKind::Shadow, f)
    }

    fn overhead<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.span("trace.counters", SpanKind::Overhead, f)
    }

    /// Open request `req`'s root span; returns its index.
    fn begin(&mut self, req: u32) -> usize {
        self.req = req;
        let start = self.now();
        self.spans.push(Span {
            req,
            id: self.spans.len() as u32 + 1,
            parent: 0,
            name: "request",
            start,
            end: start,
            kind: SpanKind::Request,
        });
        self.root = self.spans.len() as u32;
        self.spans.len() - 1
    }

    fn end(&mut self, index: usize) {
        self.spans[index].end = self.now();
    }
}

/// What pass B learns about each request besides its spans.
#[derive(Default, Clone)]
struct Outcome {
    hash: u64,
    query: bool,
    engine: Option<Engine>,
    tuples: usize,
    bytes: usize,
    cache_hits: u64,
    cache_misses: u64,
    dense_ops: u64,
    rows_invalidated: u64,
    rows_total: u64,
    nodes_loaded: usize,
}

struct Traced {
    corpus: Corpus,
    plans: HashMap<PlanKey, QueryPlan>,
    tr: Tracer,
    /// Each document's session as of its latest query.
    sessions: HashMap<String, Session>,
}

fn dense_ops(k: &xpath_pplbin::KernelStats) -> u64 {
    k.step_dense
        + k.product_dense
        + k.product_dense_threaded
        + k.union_dense
        + k.intersect_dense
        + k.complement_ops
}

/// The payload lines `execute_command` renders for a `QUERY` (the
/// protocol's renderer is private; the byte-for-byte comparison with pass A
/// keeps this copy honest).
fn answer_lines(tree: &Tree, vars: &[String], tuples: &BTreeSet<Vec<NodeId>>) -> Vec<String> {
    if vars.is_empty() {
        return vec![format!("satisfiable={}", !tuples.is_empty())];
    }
    let mut lines = Vec::with_capacity(tuples.len() + 1);
    lines.push(format!("vars={} tuples={}", vars.join(","), tuples.len()));
    for tuple in tuples {
        let cells: Vec<String> = tuple
            .iter()
            .map(|&n| format!("{}#{}", tree.label_str(n), tree.preorder(n)))
            .collect();
        lines.push(cells.join(","));
    }
    lines
}

fn corpus_err(e: impl std::fmt::Display) -> String {
    e.to_string().replace('\n', " | ")
}

impl Traced {
    fn request(&mut self, req: u32, line: &str) -> Outcome {
        let root = self.tr.begin(req);
        let mut outcome = Outcome::default();
        let result = match self.tr.call("protocol.parse", || parse_command(line)) {
            Err(message) => Err(message),
            Ok(Command::Query { name, query, vars }) => {
                outcome.query = true;
                self.query(&name, &query, &vars, &mut outcome)
            }
            Ok(Command::Mutate { name, spec }) => self.mutate(&name, spec, &mut outcome),
            Ok(Command::Load { name, xml }) => {
                let corpus = &self.corpus;
                match self
                    .tr
                    .call("xml.parse", || parse_with(&xml, &ParseOptions::default()))
                {
                    Ok(tree) => {
                        let nodes = tree.len();
                        outcome.nodes_loaded = nodes;
                        let documents = self.tr.call("corpus.insert", || {
                            corpus.insert_tree(&name, tree);
                            corpus.len()
                        });
                        Ok(vec![format!(
                            "loaded {name} nodes={nodes} documents={documents}"
                        )])
                    }
                    Err(e) => Err(format!("cannot ingest document '{name}': {e}")),
                }
            }
            Ok(other) => {
                let corpus = &self.corpus;
                self.tr
                    .call("corpus.execute", || execute_command(corpus, &other))
            }
        };
        let bytes = self.tr.call("protocol.render", || render_response(&result));
        self.tr.end(root);
        outcome.hash = fnv(&bytes);
        outcome.bytes = bytes.len();
        outcome
    }

    /// `QUERY`: the calls of `Corpus::answer_tagged` and the engine, then
    /// the rendering of `execute_command`.
    fn query(
        &mut self,
        name: &str,
        query: &str,
        vars: &[String],
        outcome: &mut Outcome,
    ) -> Result<Vec<String>, String> {
        let corpus = &self.corpus;
        let tr = &mut self.tr;
        let session = tr
            .call("corpus.session", || corpus.session(name))
            .map_err(corpus_err)?;
        let key: PlanKey = (query.to_string(), vars.join(","), size_band(session.len()));
        let plans = &mut self.plans;
        let plan = match tr.call("corpus.plan_cache", || plans.get(&key).cloned()) {
            Some(plan) => plan,
            None => {
                let path = tr
                    .call("ast.parse", || parse_path(query))
                    .map_err(|e| format!("query does not compile: {e}"))?;
                if tr.shadow("ast.check", || check_ppl(&path)).is_ok() {
                    let _ = tr.shadow("hcl.translate", || ppl_to_hcl(&path));
                }
                let output: Vec<Var> = vars.iter().map(|v| Var::new(v)).collect();
                let plan = tr
                    .call("core.plan", || {
                        Planner::default().plan_with(&session, path, output, None)
                    })
                    .map_err(|e| format!("query does not compile: {e}"))?;
                tr.call("corpus.plan_cache", || plans.insert(key, plan.clone()));
                plan
            }
        };
        outcome.engine = Some(plan.engine());
        let store = session.store();
        let before = tr.overhead(|| store.stats());
        let tuples = answer(tr, &session, &plan)
            .map_err(|e| format!("query failed on document '{name}': {e}"))?;
        let after = tr.overhead(|| store.stats());
        outcome.cache_hits = after.hits - before.hits.min(after.hits);
        outcome.cache_misses = after.misses - before.misses.min(after.misses);
        outcome.dense_ops = dense_ops(&after.kernels).saturating_sub(dense_ops(&before.kernels));
        outcome.tuples = tuples.len();
        tr.call("corpus.budget", || corpus.maintain());
        let lines = tr.call("protocol.render", || {
            answer_lines(session.tree(), vars, &tuples)
        });
        self.sessions.insert(name.to_string(), session);
        Ok(lines)
    }

    /// `MUTATE`: `Corpus::mutate`, with the tree edit and the session fork
    /// it performs shadowed on the same snapshot.
    fn mutate(
        &mut self,
        name: &str,
        spec: MutateSpec,
        outcome: &mut Outcome,
    ) -> Result<Vec<String>, String> {
        let corpus = &self.corpus;
        let tr = &mut self.tr;
        let edit = match spec {
            MutateSpec::Insert {
                parent,
                index,
                terms,
            } => DocEdit::Insert {
                parent,
                index,
                subtree: tr
                    .call("tree.from_terms", || Tree::from_terms(&terms))
                    .map_err(|e| e.to_string())?,
            },
            MutateSpec::Delete { node } => DocEdit::Delete { node },
            MutateSpec::Relabel { node, label } => DocEdit::Relabel { node, label },
        };
        // The shadows start from the session this pass's last query on the
        // document holds, which is the snapshot `Corpus::mutate` forks; the
        // entry is dropped at every edit, so an edit with no query since
        // has no shadows.  `Corpus::session` would always give one, but it
        // touches the pool (recency, budget, a rebuild of an evicted
        // session) and could change what pass B's edit then reports.
        if let Some(session) = self.sessions.get(name) {
            let tree = session.shared_tree();
            let edited = tr.shadow("tree.edit", || match &edit {
                DocEdit::Insert {
                    parent,
                    index,
                    subtree,
                } => tree.insert_subtree(NodeId(*parent), *index, subtree),
                DocEdit::Delete { node } => tree.delete_subtree(NodeId(*node)),
                DocEdit::Relabel { node, label } => tree.relabel(NodeId(*node), label),
            });
            if let Ok((new_tree, delta)) = edited {
                let fork = tr.shadow("pplbin.fork", || {
                    session.fork_edited(Arc::new(new_tree), &delta)
                });
                tr.overhead(|| drop(fork));
            }
        }
        // Let the corpus drop the replaced session inside `mutate`, as it
        // does in pass A.
        self.sessions.remove(name);
        let outcome_ = tr
            .call("corpus.mutate", || corpus.mutate(name, &edit))
            .map_err(corpus_err)?;
        outcome.rows_invalidated = outcome_.stats.rows_invalidated;
        outcome.rows_total = outcome_.stats.rows_total;
        let kind = match outcome_.kind {
            EditKind::Insert => "insert",
            EditKind::Delete => "delete",
            EditKind::Relabel => "relabel",
        };
        Ok(vec![format!(
            "mutated {name} kind={kind} nodes={} epoch={} rows_invalidated={} mode={}",
            outcome_.nodes,
            outcome_.epoch,
            outcome_.stats.rows_invalidated,
            if outcome_.incremental {
                "incremental"
            } else {
                "full"
            },
        )])
    }
}

/// The engine's public calls for one plan, as its `Executor` makes them.
fn answer(
    tr: &mut Tracer,
    session: &Session,
    plan: &QueryPlan,
) -> Result<BTreeSet<Vec<NodeId>>, String> {
    let tree = session.tree();
    let output = plan.output();
    let hcl = match (plan.engine(), plan.hcl()) {
        (Engine::NaiveEnumeration, _) => {
            return tr
                .call("naive.answer", || answer_nary(tree, plan.source(), output))
                .map_err(|e| e.to_string())
        }
        (_, Some(hcl)) => hcl,
        (_, None) => return Err("the plan has no HCL image".into()),
    };
    if plan.engine() == Engine::Acq {
        return if hcl.is_union_free() {
            let (cq, db) = tr
                .call("acq.build", || hcl_to_acq(tree, hcl, output))
                .map_err(|e| e.to_string())?;
            tr.call("acq.answer", || answer_acq(&cq, &db))
                .map_err(|e| e.to_string())
        } else {
            let union = tr
                .call("acq.build", || {
                    hcl_to_union_acq(tree, hcl, output, plan.acq_disjunct_budget())
                })
                .map_err(|e| e.to_string())?;
            tr.call("acq.answer", || union.answer())
                .map_err(|e| e.to_string())
        };
    }
    // Fig. 8 (`ppl` through the shared store, `hcl` cold).
    let (interned, atoms) = tr
        .call("hcl.normalise", || {
            hcl.check_no_sharing().map(|()| intern_atoms(hcl))
        })
        .map_err(|vars| format!("variable sharing for {vars:?}"))?;
    let compiled = if plan.engine() == Engine::Ppl {
        tr.call("pplbin.compile", || {
            PplBinAtoms::try_compile_with_shared(tree, &atoms, session.store())
        })
        .map_err(|e| e.to_string())?
    } else {
        tr.call("pplbin.compile", || PplBinAtoms::compile(tree, &atoms))
    };
    let eq = tr.call("hcl.normalise", || EquationSystem::from_hcl(&interned));
    let stream = tr.call("hcl.mc", || {
        AnswerStream::new(eq, compiled, output.to_vec())
    });
    Ok(tr.call("hcl.answer", || stream.collect()))
}

// -- engine table ---------------------------------------------------------

struct PairTiming {
    line: String,
    chosen: Engine,
    /// µs per engine, in `Engine::ALL` order; `None` = not eligible.
    times: [Option<f64>; 4],
}

/// Time every eligible engine once per distinct (query, document) pair,
/// forced through `Planner::plan_with`, on warm sessions of the unedited
/// documents, and check that all of them agree.
fn engine_table(
    w: &Workload,
    plans: &HashMap<PlanKey, QueryPlan>,
) -> Result<Vec<PairTiming>, String> {
    let sessions: HashMap<&str, Session> = w
        .docs
        .iter()
        .map(|d| {
            (
                d.name.as_str(),
                Session::from_shared_tree(Arc::clone(&d.tree)),
            )
        })
        .collect();
    let mut table = Vec::new();
    for line in &w.warmup {
        let Ok(Command::Query { name, query, vars }) = parse_command(line) else {
            continue;
        };
        let session = &sessions[name.as_str()];
        let key: PlanKey = (query.clone(), vars.join(","), size_band(session.len()));
        let chosen = plans
            .get(&key)
            .map(QueryPlan::engine)
            .ok_or_else(|| format!("no plan was cached for `{line}`"))?;
        let path = parse_path(&query).map_err(|e| e.to_string())?;
        let output: Vec<Var> = vars.iter().map(|v| Var::new(v)).collect();
        let mut times = [None; 4];
        let mut reference = None;
        for (i, &engine) in Engine::ALL.iter().enumerate() {
            let plan = Planner::default()
                .plan_with(session, path.clone(), output.clone(), Some(engine))
                .map_err(|e| e.to_string())?;
            let eligible = match engine {
                Engine::NaiveEnumeration => plan.features().naive_cost() <= NAIVE_COST_CAP,
                _ => plan.features().ppl,
            };
            if !eligible {
                continue;
            }
            if engine == Engine::Ppl {
                session.execute(&plan).map_err(|e| e.to_string())?;
            }
            let start = Instant::now();
            let answers = session.execute(&plan).map_err(|e| e.to_string())?;
            times[i] = Some(start.elapsed().as_secs_f64() * 1e6);
            match &reference {
                None => reference = Some(answers),
                Some(r) if *r != answers => {
                    return Err(format!("engine {} disagrees on `{line}`", engine.name()))
                }
                Some(_) => {}
            }
        }
        table.push(PairTiming {
            line: line.clone(),
            chosen,
            times,
        });
    }
    Ok(table)
}

// -- metrics --------------------------------------------------------------

fn engine_index(engine: Engine) -> usize {
    Engine::ALL
        .iter()
        .position(|&e| e == engine)
        .expect("ALL lists every engine")
}

fn write_spans(path: &std::path::Path, seq: &[Request], spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "req\tspan\tparent\tname\tkind\tstart_ns\tend_ns\tphase"
    )?;
    for s in spans {
        let kind = match s.kind {
            SpanKind::Request => "request",
            SpanKind::Call => "call",
            SpanKind::Shadow => "shadow",
            SpanKind::Overhead => "overhead",
        };
        let phase = match seq[s.req as usize].phase {
            Phase::Setup => "setup",
            Phase::Replay => "replay",
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{kind}\t{}\t{}\t{phase}",
            s.req, s.id, s.parent, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// Run both passes and the engine table, and derive every per-layer metric.
pub fn per_layer(
    w: &Workload,
    expected: &Expected,
    daemon: &DaemonStats<'_>,
    spans_path: &std::path::Path,
) -> Result<Vec<Metric>, String> {
    let seq = sequence(w);
    let mut a = Untraced {
        corpus: Corpus::with_config(daemon_config(expected.budget)),
        total_ns: Vec::with_capacity(seq.len()),
        exec_ns: Vec::with_capacity(seq.len()),
        hashes: Vec::with_capacity(seq.len()),
    };

    let mut b = Traced {
        corpus: Corpus::with_config(daemon_config(expected.budget)),
        plans: HashMap::new(),
        tr: Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(seq.len() * 12),
            req: 0,
            root: 0,
        },
        sessions: HashMap::new(),
    };
    let mut outcomes = Vec::with_capacity(seq.len());
    let mut replay_ns = 0u64;
    let mut store_bytes = 0usize;
    let mut store_nodes = 0usize;
    for (i, r) in seq.iter().enumerate() {
        if i % 2 == 0 {
            a.request(&r.line);
        }
        let start = Instant::now();
        outcomes.push(b.request(i as u32, &r.line));
        let traced_ns = start.elapsed().as_nanos() as u64;
        if i % 2 == 1 {
            a.request(&r.line);
        }
        if r.phase == Phase::Replay {
            replay_ns += traced_ns;
            if seq
                .get(i + 1)
                .is_none_or(|next| next.phase != Phase::Replay)
            {
                for session in b.sessions.values() {
                    store_bytes += session.store().approx_bytes();
                    store_nodes += session.len();
                }
            }
        }
    }

    // Correctness: pass B equals pass A request by request, and pass A
    // equals the expected responses where they are known.
    for (i, r) in seq.iter().enumerate() {
        if outcomes[i].hash != a.hashes[i] {
            return Err(format!(
                "traced decomposition answers `{}` differently",
                r.line
            ));
        }
        // Queries on unedited documents: the warm-up and read traffic.
        let unedited = r.phase == Phase::Setup || w.query_traffic() == Traffic::Read;
        let known = match r.line.starts_with("QUERY") && unedited {
            true => expected.by_line.get(&r.line),
            false => None,
        };
        if known.is_some_and(|&h| h != a.hashes[i]) {
            return Err(format!("in-process replay answers `{}` wrongly", r.line));
        }
    }

    // Span totals (ns) by name, over requests matching a predicate.
    let spans = &b.tr.spans;
    let in_replay_query =
        |req: u32| seq[req as usize].phase == Phase::Replay && outcomes[req as usize].query;
    let total = |name: &str, pred: &dyn Fn(u32) -> bool| -> (f64, usize) {
        spans
            .iter()
            .filter(|s| s.name == name && s.kind != SpanKind::Request && pred(s.req))
            .fold((0.0, 0), |(ns, n), s| {
                (ns + (s.end - s.start) as f64, n + 1)
            })
    };
    let any = |_: u32| true;
    let replay_queries: Vec<usize> = (0..seq.len())
        .filter(|&i| in_replay_query(i as u32))
        .collect();
    let nq = replay_queries.len().max(1) as f64;
    let per_query_us = |name: &str| total(name, &in_replay_query).0 / 1e3 / nq;
    let per_call_us = |name: &str| {
        let (ns, n) = total(name, &any);
        ns / 1e3 / n.max(1) as f64
    };

    // Coverage and uncovered time over the replay phase.
    let replay = |req: u32| seq[req as usize].phase == Phase::Replay;
    let mut calls_ns = 0.0;
    let mut children_ns = 0.0;
    let mut roots_ns = 0.0;
    for s in spans.iter().filter(|s| replay(s.req)) {
        let d = (s.end - s.start) as f64;
        match s.kind {
            SpanKind::Request => roots_ns += d,
            SpanKind::Call => {
                calls_ns += d;
                children_ns += d;
            }
            SpanKind::Shadow | SpanKind::Overhead => children_ns += d,
        }
    }
    let untraced_ns: f64 = (0..seq.len())
        .filter(|&i| replay(i as u32))
        .map(|i| a.total_ns[i] as f64)
        .sum();
    let nreplay = (0..seq.len()).filter(|&i| replay(i as u32)).count().max(1) as f64;
    let coverage = calls_ns / untraced_ns;

    // core.plan_us: Planner::plan_with minus the shadowed check and
    // translation it performs.
    let (plan_ns, plan_calls) = total("core.plan", &any);
    let plan_self_ns = plan_ns - total("ast.check", &any).0 - total("hcl.translate", &any).0;
    // corpus.mutate_us, tree.edit_us, pplbin.fork_us: per MUTATE.
    let (mutate_ns, mutates) = total("corpus.mutate", &any);

    let sum = |f: &dyn Fn(&Outcome) -> u64| -> u64 {
        replay_queries.iter().map(|&i| f(&outcomes[i])).sum()
    };
    let hits = sum(&|o| o.cache_hits);
    let misses = sum(&|o| o.cache_misses);
    let mut engine_counts = [0u64; 4];
    for &i in &replay_queries {
        if let Some(engine) = outcomes[i].engine {
            engine_counts[engine_index(engine)] += 1;
        }
    }
    let (rows_inv, rows_tot) = outcomes.iter().fold((0u64, 0u64), |(a, t), o| {
        (a + o.rows_invalidated, t + o.rows_total)
    });
    let knodes = outcomes.iter().map(|o| o.nodes_loaded).sum::<usize>() as f64 / 1e3;

    // serve.overhead_us: the daemon's client latency per line minus pass
    // A's in-process time for the same line.
    let mut in_process: HashMap<&str, (f64, u64)> = HashMap::new();
    for (i, r) in seq.iter().enumerate().filter(|(i, _)| replay(*i as u32)) {
        let slot = in_process.entry(r.line.as_str()).or_insert((0.0, 0));
        slot.0 += a.total_ns[i] as f64 / 1e3;
        slot.1 += 1;
    }
    let (mut overhead_us, mut overhead_n) = (0.0, 0u64);
    for (line, ms) in &daemon.window.per_line {
        if let Some((a_us, a_n)) = in_process.get(line.as_str()) {
            let n = ms.len() as u64;
            overhead_us += ms.iter().sum::<f64>() * 1e3 - n as f64 * (a_us / *a_n as f64);
            overhead_n += n;
        }
    }

    // The daemon's counters cover the query window only; the edit counters
    // come from pass B, like the other replay figures.
    let edit_stats = b.corpus.stats();
    let table = engine_table(w, &b.plans)?;
    let mut log_regret = Vec::new();
    let mut naive_us = Vec::new();
    eprintln!("engine table (µs, one run each; -> marks the planner's cached choice):");
    for pair in &table {
        let best = pair
            .times
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if let Some(chosen) = pair.times[engine_index(pair.chosen)] {
            log_regret.push((chosen / best).ln());
        }
        naive_us.extend(pair.times[engine_index(Engine::NaiveEnumeration)]);
        let cells: Vec<String> = Engine::ALL
            .iter()
            .zip(&pair.times)
            .map(|(e, t)| {
                let mark = if *e == pair.chosen { "->" } else { "" };
                t.map_or(format!("{mark}{}=-", e.name()), |t| {
                    format!("{mark}{}={t:.0}", e.name())
                })
            })
            .collect();
        eprintln!("  {:<44} {}", cells.join(" "), crate::shown(&pair.line));
    }
    let regret = (log_regret.iter().sum::<f64>() / log_regret.len().max(1) as f64).exp();

    let stat = |m: &HashMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let kq = daemon.window.queries.len().max(1) as f64 / 1e3;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let delta = |k: &str| stat(&daemon.after, k) - stat(&daemon.before, k);
    let query_exec_us = replay_queries
        .iter()
        .map(|&i| a.exec_ns[i] as f64)
        .sum::<f64>()
        / 1e3
        / nq;

    let metrics = vec![
        metric(
            "serve.overhead_us",
            ratio(overhead_us, overhead_n as f64),
            "us",
        ),
        metric("protocol.parse_us", per_query_us("protocol.parse"), "us"),
        metric("protocol.execute_us", query_exec_us, "us"),
        metric("protocol.render_us", per_query_us("protocol.render"), "us"),
        metric(
            "protocol.response_bytes",
            sum(&|o| o.bytes as u64) as f64 / nq,
            "bytes",
        ),
        metric("corpus.session_us", per_query_us("corpus.session"), "us"),
        metric(
            "corpus.plan_cache_us",
            per_query_us("corpus.plan_cache"),
            "us",
        ),
        metric("corpus.budget_us", per_query_us("corpus.budget"), "us"),
        metric(
            "corpus.cache_evictions_per_kq",
            delta("cache_evictions") / kq,
            "count/kq",
        ),
        metric("corpus.rebuilds_per_kq", delta("rebuilds") / kq, "count/kq"),
        metric(
            "corpus.pool_mb",
            stat(&daemon.after, "pool_bytes") / 1e6,
            "MB",
        ),
        metric(
            "corpus.plan_hit_ratio",
            ratio(
                stat(&daemon.after, "plan_hits"),
                stat(&daemon.after, "plan_hits") + stat(&daemon.after, "plan_misses"),
            ),
            "ratio",
        ),
        metric(
            "corpus.mutate_us",
            mutate_ns / 1e3 / mutates.max(1) as f64,
            "us",
        ),
        metric(
            "corpus.incremental_edit_ratio",
            ratio(edit_stats.edits_incremental as f64, edit_stats.edits as f64),
            "ratio",
        ),
        metric(
            "core.plan_us",
            plan_self_ns / 1e3 / plan_calls.max(1) as f64,
            "us",
        ),
        metric(
            "core.engine_share.ppl",
            engine_counts[engine_index(Engine::Ppl)] as f64 / nq,
            "ratio",
        ),
        metric(
            "core.engine_share.acq",
            engine_counts[engine_index(Engine::Acq)] as f64 / nq,
            "ratio",
        ),
        metric(
            "core.engine_share.hcl",
            engine_counts[engine_index(Engine::Hcl)] as f64 / nq,
            "ratio",
        ),
        metric(
            "core.engine_share.naive",
            engine_counts[engine_index(Engine::NaiveEnumeration)] as f64 / nq,
            "ratio",
        ),
        metric("core.planner_regret", regret, "ratio"),
        metric("ast.parse_us", per_call_us("ast.parse"), "us"),
        metric("ast.check_us", per_call_us("ast.check"), "us"),
        metric("hcl.translate_us", per_call_us("hcl.translate"), "us"),
        metric("hcl.normalise_us", per_query_us("hcl.normalise"), "us"),
        metric("hcl.mc_us", per_query_us("hcl.mc"), "us"),
        metric("hcl.answer_us", per_query_us("hcl.answer"), "us"),
        metric("hcl.tuples", sum(&|o| o.tuples as u64) as f64 / nq, "count"),
        metric("pplbin.compile_us", per_query_us("pplbin.compile"), "us"),
        metric(
            "pplbin.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        metric(
            "pplbin.dense_ops",
            sum(&|o| o.dense_ops) as f64 / nq * 1e3,
            "count/kq",
        ),
        metric(
            "pplbin.store_bytes_per_node",
            ratio(store_bytes as f64, store_nodes as f64),
            "bytes",
        ),
        metric("pplbin.fork_us", per_call_us("pplbin.fork"), "us"),
        metric(
            "pplbin.rows_invalidated_ratio",
            ratio(rows_inv as f64, rows_tot as f64),
            "ratio",
        ),
        metric("acq.build_us", per_query_us("acq.build"), "us"),
        metric("acq.answer_us", per_query_us("acq.answer"), "us"),
        metric(
            "naive.answer_us",
            naive_us.iter().sum::<f64>() / naive_us.len().max(1) as f64,
            "us",
        ),
        metric("tree.edit_us", per_call_us("tree.edit"), "us"),
        metric(
            "xml.parse_us_per_knode",
            total("xml.parse", &any).0 / 1e3 / knodes.max(1e-9),
            "us",
        ),
        metric("trace.coverage", coverage, "ratio"),
        metric(
            "trace.uncovered_us",
            (roots_ns - children_ns) / 1e3 / nreplay,
            "us",
        ),
        metric(
            "trace.overhead_ratio",
            replay_ns as f64 / untraced_ns,
            "ratio",
        ),
    ];

    // Where the time of a replayed request goes, by layer (self time).
    let layers: [(&str, &[&str]); 7] = [
        ("protocol", &["protocol.parse", "protocol.render"]),
        (
            "corpus",
            &["corpus.session", "corpus.plan_cache", "corpus.budget"],
        ),
        ("core", &["core.plan"]),
        ("pplbin", &["pplbin.compile"]),
        ("hcl", &["hcl.normalise", "hcl.mc", "hcl.answer"]),
        ("acq", &["acq.build", "acq.answer"]),
        ("naive", &["naive.answer"]),
    ];
    let query_root_us: f64 = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Request && in_replay_query(s.req))
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .sum::<f64>()
        / nq;
    eprintln!("stage split of a replayed QUERY ({query_root_us:.1} µs traced, {nq} requests):");
    for (layer, names) in layers {
        let us: f64 = names.iter().map(|n| per_query_us(n)).sum();
        eprintln!(
            "  {layer:<10} {us:>10.1} µs  {:>5.1}%",
            100.0 * us / query_root_us
        );
    }
    if mutates > 0 {
        let edit = total("tree.edit", &any).0;
        let fork = total("pplbin.fork", &any).0;
        let per = |ns: f64| ns / 1e3 / mutates as f64;
        eprintln!(
            "split of a MUTATE ({:.1} µs in Corpus::mutate): tree {:.1} µs, pplbin fork {:.1} µs, corpus rest {:.1} µs",
            per(mutate_ns),
            per(edit),
            per(fork),
            per(mutate_ns - edit - fork)
        );
    }
    eprintln!(
        "coverage: call spans {:.1} ms vs untraced {:.1} ms = {coverage:.3} (bound {}..{}); p50 traced request {:.1} µs",
        calls_ns / 1e6,
        untraced_ns / 1e6,
        COVERAGE.0,
        COVERAGE.1,
        quantile(
            &spans
                .iter()
                .filter(|s| s.kind == SpanKind::Request && replay(s.req))
                .map(|s| (s.end - s.start) as f64 / 1e3)
                .collect::<Vec<_>>(),
            0.5
        ),
    );

    write_spans(spans_path, &seq, spans)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    eprintln!("spans written to {}", spans_path.display());

    if !(COVERAGE.0..=COVERAGE.1).contains(&coverage) {
        return Err(format!(
            "trace coverage {coverage:.3} is outside {}..{}: a layer is missing from the trace",
            COVERAGE.0, COVERAGE.1
        ));
    }
    Ok(metrics)
}
