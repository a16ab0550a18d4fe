//! The perf-regression sweep behind `experiments --bench` and the
//! `BENCH_*.json` trajectory files.
//!
//! One fixed workload — a suite of PPL queries over random trees of swept
//! sizes, repeated to model multi-query traffic against a shared document —
//! is answered by every engine:
//!
//! * `ppl_cached` — `Session::answer_batch` over forced-`ppl` plans,
//!   compiling PPLbin matrices through the session's shared store (steps
//!   and hash-consed subterms shared across queries and repeats);
//! * `ppl_cold`   — forced-`hcl` plans executed one by one, recompiling
//!   every matrix from scratch (the pre-cache behaviour);
//! * `naive`      — `Engine::NaiveEnumeration`, the exponential Fig. 2
//!   baseline (restricted to small trees, one workload pass);
//! * `acq`        — Yannakakis on the ACQ image (union-free queries only).
//!
//! The output is a single JSON document (see EXPERIMENTS.md for the schema)
//! with one row per (engine, tree size) cell and a `summary` comparing the
//! cached and cold medians at the largest swept size.  `--smoke` shrinks
//! every dimension so CI can validate the emitted file in milliseconds.

use crate::json::Json;
use crate::{forced_plan, time_median};
use ppl_xpath::{Engine, Planner, QueryPlan, Session};
use std::time::Duration;
use xpath_acq::{answer_acq, hcl_to_acq};
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::{parse_path, BinExpr, PathExpr, Var};
use xpath_pplbin::{KernelMode, MatrixStore};
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_tree::Tree;

/// Schema identifier written into every emitted file.
pub const SCHEMA: &str = "ppl-xpath-bench/v1";

/// Keys every result row must carry (checked by [`validate_bench_json`]).
pub const ROW_KEYS: [&str; 6] = [
    "experiment",
    "engine",
    "tree_size",
    "workload_queries",
    "workload_repeats",
    "median_us",
];

/// Sweep dimensions.
#[derive(Debug, Clone)]
pub struct RegressConfig {
    /// Node counts of the swept trees.
    pub tree_sizes: Vec<usize>,
    /// How often the query suite is repeated per workload.
    pub repeats: usize,
    /// Timed runs per cell (the median is recorded).
    pub runs: usize,
    /// Largest tree the exponential naive baseline is run on.
    pub naive_max_size: usize,
}

impl RegressConfig {
    /// The full sweep used to produce `BENCH_*.json`.
    pub fn full() -> RegressConfig {
        RegressConfig {
            tree_sizes: vec![60, 120, 240, 480],
            repeats: 8,
            runs: 5,
            naive_max_size: 60,
        }
    }

    /// Tiny sizes for CI smoke validation.
    pub fn smoke() -> RegressConfig {
        RegressConfig {
            tree_sizes: vec![12, 24],
            repeats: 2,
            runs: 2,
            naive_max_size: 24,
        }
    }
}

/// Sweep dimensions of the E11 kernel ablation.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Node counts of the swept trees (larger than E10: no exponential
    /// baseline runs here).
    pub tree_sizes: Vec<usize>,
    /// Timed runs per (mode, size) cell; the median is recorded.
    pub runs: usize,
}

impl KernelConfig {
    /// The full ablation used to produce `BENCH_3.json` (≥ 960 nodes at the
    /// top as required by EXPERIMENTS.md E11).
    pub fn full() -> KernelConfig {
        KernelConfig {
            tree_sizes: vec![120, 240, 480, 960],
            runs: 7,
        }
    }

    /// Tiny sizes for CI smoke validation.
    pub fn smoke() -> KernelConfig {
        KernelConfig {
            tree_sizes: vec![16, 32],
            runs: 2,
        }
    }
}

/// The kernel modes swept by E11, with their row names.
pub const KERNEL_MODES: [(KernelMode, &str); 3] = [
    (KernelMode::Dense, "kernel_dense"),
    (KernelMode::Adaptive, "kernel_adaptive"),
    (KernelMode::AdaptiveThreaded, "kernel_adaptive_threaded"),
];

/// Sweep dimensions of the E12 planner/concurrency experiment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Tree size of the planner comparison (auto vs forced engines over the
    /// `planner_mix_suite`; the exponential naive engine is excluded, E4
    /// covers it).
    pub planner_tree_size: usize,
    /// Tree size of the concurrent-serving sweep.
    pub serve_tree_size: usize,
    /// Serving thread counts (ascending; the last is the headline).
    pub threads: Vec<usize>,
    /// Suite repeats per serving workload.
    pub repeats: usize,
    /// Timed runs per cell (median recorded).
    pub runs: usize,
}

impl ServeConfig {
    /// The full E12 sweep used to produce `BENCH_4.json`.
    pub fn full() -> ServeConfig {
        ServeConfig {
            planner_tree_size: 180,
            serve_tree_size: 480,
            threads: vec![1, 2, 4, 8],
            repeats: 8,
            runs: 5,
        }
    }

    /// Tiny sizes for CI smoke validation.
    pub fn smoke() -> ServeConfig {
        ServeConfig {
            planner_tree_size: 16,
            serve_tree_size: 24,
            threads: vec![1, 2],
            repeats: 2,
            runs: 2,
        }
    }
}

/// The planner modes swept by E12, with their row names (`None` = auto).
pub const PLANNER_MODES: [(Option<Engine>, &str); 4] = [
    (None, "planner_auto"),
    (Some(Engine::Ppl), "planner_ppl"),
    (Some(Engine::Acq), "planner_acq"),
    (Some(Engine::Hcl), "planner_hcl"),
];

/// Sweep dimensions of the E13 corpus-serving experiment.
#[derive(Debug, Clone)]
pub struct CorpusBenchConfig {
    /// Documents in the corpus (three size bands, see
    /// `xpath_workload::corpus_documents`).
    pub docs: usize,
    /// Base tree size; bands are `base`, `2·base`, `3·base`.
    pub base_size: usize,
    /// How often the E10 query suite is fanned out over the whole corpus
    /// per workload.
    pub repeats: usize,
    /// Timed runs per cell (median recorded).
    pub runs: usize,
    /// Fan-out worker threads of the corpus under test.
    pub threads: usize,
}

impl CorpusBenchConfig {
    /// The full sweep used to produce `BENCH_5.json`.
    pub fn full() -> CorpusBenchConfig {
        CorpusBenchConfig {
            docs: 6,
            base_size: 100,
            repeats: 6,
            runs: 5,
            threads: 4,
        }
    }

    /// Tiny sizes for CI smoke validation.
    pub fn smoke() -> CorpusBenchConfig {
        CorpusBenchConfig {
            docs: 3,
            base_size: 14,
            repeats: 2,
            runs: 2,
            threads: 2,
        }
    }
}

/// The corpus serving modes swept by E13, with their row names.  Budget
/// fractions are relative to the measured warm working set (`None` =
/// unbounded).
pub const CORPUS_MODES: [(Option<f64>, &str); 3] = [
    (None, "corpus_pool"),
    (Some(0.5), "corpus_budget_half"),
    (Some(0.25), "corpus_budget_quarter"),
];

/// Sweep dimensions of the E14 lazy large-document experiment.
#[derive(Debug, Clone)]
pub struct LazyBenchConfig {
    /// Node counts of the swept DBLP-style documents.  Every size is
    /// answered by the lazy pipeline; this is the band the eager kernels
    /// cannot reach.
    pub tree_sizes: Vec<usize>,
    /// Largest size the eager comparison (`kernel_adaptive_threaded`) is
    /// run at — the speedup pin lives here.
    pub eager_max_size: usize,
    /// Timed runs per (mode, size) cell; the median is recorded.
    pub runs: usize,
}

impl LazyBenchConfig {
    /// The full sweep used to produce `BENCH_6.json` (|t| ∈ {10k, 100k},
    /// two orders of magnitude past the BENCH_3 ablation top of 960).
    pub fn full() -> LazyBenchConfig {
        LazyBenchConfig {
            tree_sizes: vec![10_000, 100_000],
            eager_max_size: 10_000,
            runs: 5,
        }
    }

    /// CI smoke validation: the |t|=10k band only (release builds answer it
    /// in well under a second per run), fewer runs.
    pub fn smoke() -> LazyBenchConfig {
        LazyBenchConfig {
            tree_sizes: vec![10_000],
            eager_max_size: 10_000,
            runs: 2,
        }
    }
}

/// The kernel modes swept by E14, with their row names.  Lazy runs at every
/// size; the eager comparison stops at [`LazyBenchConfig::eager_max_size`].
pub const LAZY_MODES: [(KernelMode, &str); 2] = [
    (KernelMode::Lazy, "kernel_lazy"),
    (KernelMode::AdaptiveThreaded, "kernel_adaptive_threaded"),
];

/// Sweep dimensions of the E15 daemon-serving experiment (Linux only: the
/// daemon's serving loop is the epoll reactor).
#[derive(Debug, Clone)]
pub struct DaemonBenchConfig {
    /// Concurrent client connections per cell.
    pub connections: Vec<usize>,
    /// Pipelined requests per window: each client writes this many request
    /// lines in one flush before reading the window's responses.
    pub pipeline: usize,
    /// Target total requests per cell; each connection sends
    /// `max(pipeline, total_requests / connections)` requests.
    pub total_requests: usize,
    /// Timed runs per cell (median recorded).
    pub runs: usize,
    /// Worker threads of the daemon under test.
    pub workers: usize,
}

impl DaemonBenchConfig {
    /// The full sweep used to produce `BENCH_7.json`: 1 / 64 / 1024
    /// concurrent pipelined connections.
    pub fn full() -> DaemonBenchConfig {
        DaemonBenchConfig {
            connections: vec![1, 64, 1024],
            pipeline: 32,
            total_requests: 16384,
            runs: 5,
            workers: 4,
        }
    }

    /// Tiny sizes for CI smoke validation.
    pub fn smoke() -> DaemonBenchConfig {
        DaemonBenchConfig {
            connections: vec![1, 8],
            pipeline: 8,
            total_requests: 512,
            runs: 2,
            workers: 2,
        }
    }
}

/// The row name of E15's serving loop.
pub const DAEMON_ROW: &str = "daemon_epoll";

/// Sweep dimensions of the E16 sharded-router experiment.
#[derive(Debug, Clone)]
pub struct RouterBenchConfig {
    /// Backend daemons behind the router.
    pub shards: usize,
    /// Copies of each document across the shards.
    pub replication: usize,
    /// Concurrent client connections driving the front door (router or
    /// single daemon — both phases use the same traffic).
    pub connections: usize,
    /// Pipelined requests per window in the throughput phases.
    pub pipeline: usize,
    /// Target total requests per phase.
    pub total_requests: usize,
    /// Timed runs per throughput phase (median recorded).
    pub runs: usize,
    /// Preloaded documents the QUERY traffic rotates over.
    pub docs: usize,
}

impl RouterBenchConfig {
    /// The full sweep used to produce `BENCH_8.json`: a 4-shard router
    /// versus one daemon under 64 pipelined connections.
    pub fn full() -> RouterBenchConfig {
        RouterBenchConfig {
            shards: 4,
            replication: 2,
            connections: 64,
            pipeline: 16,
            total_requests: 16384,
            runs: 3,
            docs: 16,
        }
    }

    /// Tiny sizes for CI smoke validation.
    pub fn smoke() -> RouterBenchConfig {
        RouterBenchConfig {
            shards: 2,
            replication: 2,
            connections: 4,
            pipeline: 4,
            total_requests: 512,
            runs: 2,
            docs: 4,
        }
    }
}

/// The arms of the E16 sweep, as row names: the router fleet, the
/// single-daemon baseline, and the mid-bench shard-kill phase.
pub const ROUTER_MODES: [&str; 3] = ["router", "single_daemon", "router_kill"];

/// Sweep dimensions of the E17 incremental-maintenance experiment.
#[derive(Debug, Clone)]
pub struct IncrBenchConfig {
    /// Node counts of the swept DBLP-style documents.  The first entry is
    /// the pin size the summary speedup is computed at.
    pub tree_sizes: Vec<usize>,
    /// Sizes at or above this compile with the lazy kernels (the eager
    /// adaptive kernels stop being viable for full recompiles there, see
    /// E14); smaller sizes use `KernelMode::AdaptiveThreaded`.
    pub lazy_min_size: usize,
    /// Timed runs per (arm, size) cell; the median is recorded.
    pub runs: usize,
}

impl IncrBenchConfig {
    /// The full sweep used to produce `BENCH_9.json`: |t| ∈ {10k, 100k},
    /// the two bands E14 established for the eager and lazy kernels.
    pub fn full() -> IncrBenchConfig {
        IncrBenchConfig {
            tree_sizes: vec![10_000, 100_000],
            lazy_min_size: 100_000,
            runs: 5,
        }
    }

    /// CI smoke validation: the pin size only, fewer runs (like E14's
    /// smoke, the 10k documents are sized for the release-built harness).
    pub fn smoke() -> IncrBenchConfig {
        IncrBenchConfig {
            tree_sizes: vec![10_000],
            lazy_min_size: 100_000,
            runs: 2,
        }
    }
}

/// The arms of the E17 sweep, as row names: matrices carried through the
/// edit vs a from-scratch session per edit.
pub const INCR_MODES: [&str; 2] = ["edit_incremental", "edit_full"];

/// The filter bodies of the E10 suite: variable-free compositions of
/// `except`-complemented relations.  Each complement is *dense* (≈`|t|²`
/// pairs), so the `/` between them is a genuinely cubic `|t|³/64` Boolean
/// product — the cost profile Theorem 1 attributes to PPLbin compilation.
/// Wrapped in `not(…)` they evaluate to partial identities (≤`|t|` pairs),
/// so answering stays cheap and compilation dominates a cold run.
const DENSE_FILTERS: [&str; 3] = [
    "(descendant::* except child::l0)/(descendant::* except child::l1)\
     /(descendant::* except child::l2)/(ancestor::* except child::l1)",
    "(descendant::* except child::l0)/(descendant::* except child::l1)\
     /(ancestor::* except child::l0)/(descendant::* except child::l2)",
    "(descendant::* except child::l2)/(ancestor::* except child::l1)\
     /(descendant::* except child::l0)/(ancestor::* except child::l2)",
];

/// The fixed query suite: PPL queries over the `l0…l2` generator alphabet.
///
/// The workload models the traffic the cache is built for: each query
/// carries one or two `DENSE_FILTERS` (compile-heavy, answer-light —
/// Fig. 4 collapses maximal variable-free subexpressions into single PPLbin
/// atoms), the filters repeat across queries on purpose so the hash-consing
/// layer has shared subterms to merge, arities are mixed, and the last
/// query exercises an HCL-level union (both branches bind `$x`).
///
/// Returns the parsed queries with their output variables;
/// [`suite_plans`] prepares them against a session.
pub fn suite() -> Vec<(PathExpr, Vec<Var>)> {
    let [f1, f2, f3] = DENSE_FILTERS;
    let specs: [(String, &[&str]); 6] = [
        (format!("descendant::l0[not({f1})][. is $x]"), &["x"]),
        (
            format!("descendant::l1[not({f1})][not({f2})][. is $x]"),
            &["x"],
        ),
        (format!("descendant::l2[not({f2})][. is $x]"), &["x"]),
        (
            format!("descendant::l0[not({f3})][child::l1[. is $x] and child::l2[. is $y]]"),
            &["x", "y"],
        ),
        (
            format!("descendant::l0[. is $x]/child::l1[not({f2})][. is $y]"),
            &["x", "y"],
        ),
        (
            format!(
                "descendant::l0[not({f1})][. is $x] union descendant::l1[not({f3})][. is $x]"
            ),
            &["x"],
        ),
    ];
    specs
        .iter()
        .map(|(src, vars)| {
            let path = parse_path(src)
                .unwrap_or_else(|e| panic!("suite query {src:?} failed to parse: {e}"));
            (path, vars.iter().map(|n| Var::new(n)).collect())
        })
        .collect()
}

/// The [`suite`] prepared against `session` with `engine` forced.
pub fn suite_plans(session: &Session, engine: Engine) -> Vec<QueryPlan> {
    suite()
        .into_iter()
        .map(|(path, output)| forced_plan(session, path, output, engine))
        .collect()
}

/// The axis-heavy E11 suite: variable-free PPLbin compositions dominated by
/// raw axis steps, the shapes the adaptive representations are built for —
/// `child`/`parent`/sibling chains (CSR gathers), `descendant` compositions
/// (interval merges), and mixed sparse×interval products.  No `except`:
/// complements are dense under every kernel and would only dilute the
/// ablation signal (E10 keeps covering them).
const AXIS_SUITE: [&str; 10] = [
    "child::*/child::*/child::*",
    "parent::*/parent::*",
    "descendant::*/child::l0",
    "child::l0/descendant::*",
    "descendant::*/descendant::*",
    "descendant::l1/ancestor::*",
    "following_sibling::*/child::l1",
    "descendant::*[child::l0]",
    "(child::l0 union child::l1)/descendant::l2",
    "ancestor::*/following_sibling::*",
];

/// Parse the E11 suite into PPLbin expressions.
pub fn axis_suite() -> Vec<BinExpr> {
    AXIS_SUITE
        .iter()
        .map(|src| {
            from_variable_free_path(&parse_path(src).expect("suite query parses"))
                .expect("suite query is variable-free")
        })
        .collect()
}

/// Run the E11 kernel ablation: the axis-heavy suite compiled cold through
/// a [`MatrixStore`] per timed run, once per kernel mode and tree size.
/// Returns the result rows plus `(largest_size, dense_us, adaptive_us,
/// threaded_us)` for the summary.
fn run_kernel_ablation(cfg: &KernelConfig) -> (Vec<Json>, (usize, f64, f64, f64)) {
    let suite = axis_suite();
    let mut rows: Vec<Json> = Vec::new();
    let mut summary = None;
    for &size in &cfg.tree_sizes {
        let tree = sweep_tree(size);
        let mut mode_us = [0.0f64; KERNEL_MODES.len()];
        let mut reference_pairs: Option<usize> = None;
        for (i, &(mode, name)) in KERNEL_MODES.iter().enumerate() {
            let (t, pairs) = time_median(cfg.runs, || {
                let mut store = MatrixStore::with_mode(tree.len(), mode);
                suite
                    .iter()
                    .map(|b| store.eval_relation(&tree, b).count_pairs())
                    .sum::<usize>()
            });
            match reference_pairs {
                None => reference_pairs = Some(pairs),
                Some(p) => assert_eq!(
                    p, pairs,
                    "kernel mode {name} disagrees with dense at |t|={size}"
                ),
            }
            mode_us[i] = us(t);
            // Kernel dispatch counters, measured outside the timer.
            let mut store = MatrixStore::with_mode(tree.len(), mode);
            for b in &suite {
                store.eval_relation(&tree, b);
            }
            let k = store.kernel_stats();
            rows.push(Json::Obj(vec![
                ("experiment".to_string(), Json::Str("kernel_ablation".into())),
                ("engine".to_string(), Json::Str(name.into())),
                ("tree_size".to_string(), Json::Num(size as f64)),
                ("workload_queries".to_string(), Json::Num(suite.len() as f64)),
                ("workload_repeats".to_string(), Json::Num(1.0)),
                ("median_us".to_string(), Json::Num(us(t))),
                ("answers".to_string(), Json::Num(pairs as f64)),
                (
                    "kernel_steps_structured".to_string(),
                    Json::Num((k.step_identity + k.step_interval + k.step_sparse) as f64),
                ),
                ("kernel_steps_dense".to_string(), Json::Num(k.step_dense as f64)),
                (
                    "kernel_products_structured".to_string(),
                    Json::Num((k.product_trivial + k.product_interval + k.product_sparse) as f64),
                ),
                ("kernel_products_dense".to_string(), Json::Num(k.product_dense as f64)),
                (
                    "kernel_products_threaded".to_string(),
                    Json::Num(k.product_dense_threaded as f64),
                ),
            ]));
        }
        summary = Some((size, mode_us[0], mode_us[1], mode_us[2]));
    }
    (rows, summary.expect("at least one tree size"))
}

/// Prepare the E12 planner suite against a session, with an optional forced
/// engine.
fn planner_suite_plans(session: &Session, engine: Option<Engine>) -> Vec<QueryPlan> {
    let planner = Planner::default();
    xpath_workload::planner_mix_suite()
        .iter()
        .map(|(src, vars)| {
            let path = parse_path(src).expect("suite query parses");
            let output: Vec<Var> = vars.iter().map(|n| Var::new(n)).collect();
            planner
                .plan_with(session, path, output, engine)
                .expect("suite query plans")
        })
        .collect()
}

/// The old serving architecture, modelled faithfully: `workers` threads,
/// each owning a *private* session (thread-local cache, as the `!Sync`
/// `RefCell` store forced), the workload split into contiguous chunks —
/// each worker serves the whole query mix, so each private cache compiles
/// every distinct matrix itself.  Returns the total answer count.
fn serve_isolated(tree: &Tree, plans: &[QueryPlan], workers: usize) -> usize {
    let chunk = plans.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .chunks(chunk.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    let session = Session::from_tree(tree.clone());
                    chunk
                        .iter()
                        .map(|p| session.execute(p).expect("suite plan answers").len())
                        .sum::<usize>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).sum()
    })
}

/// Run the E12 planner/concurrency sweep.  Returns the result rows plus the
/// summary members to merge into the document summary.
fn run_planner_concurrency(cfg: &ServeConfig) -> (Vec<Json>, Vec<(String, Json)>) {
    let mut rows: Vec<Json> = Vec::new();

    // -- planner comparison: auto vs forced engines, cold per run ----------
    let planner_tree = sweep_tree(cfg.planner_tree_size);
    let plan_session = Session::from_tree(planner_tree.clone());
    let suite_len = xpath_workload::planner_mix_suite().len();
    let mut reference_answers: Option<usize> = None;
    let mut auto_us = 0.0f64;
    let mut auto_choices = String::new();
    for (engine, name) in PLANNER_MODES {
        let plans = planner_suite_plans(&plan_session, engine);
        let (t, answers) = time_median(cfg.runs, || {
            let fresh = Session::from_tree(planner_tree.clone());
            plans
                .iter()
                .map(|p| fresh.execute(p).expect("suite plan answers").len())
                .sum::<usize>()
        });
        match reference_answers {
            None => reference_answers = Some(answers),
            Some(r) => assert_eq!(r, answers, "{name} disagrees on the E12 planner suite"),
        }
        let mut extra = Vec::new();
        if engine.is_none() {
            auto_us = us(t);
            let mut counts: Vec<(String, usize)> = Vec::new();
            for p in &plans {
                let key = p.engine().name().to_string();
                match counts.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((key, 1)),
                }
            }
            auto_choices = counts
                .iter()
                .map(|(k, n)| format!("{k}:{n}"))
                .collect::<Vec<_>>()
                .join(",");
            extra.push(("chosen_engines".to_string(), Json::Str(auto_choices.clone())));
        }
        rows.push({
            let mut members = vec![
                ("experiment".to_string(), Json::Str("planner".into())),
                ("engine".to_string(), Json::Str(name.into())),
                ("tree_size".to_string(), Json::Num(cfg.planner_tree_size as f64)),
                ("workload_queries".to_string(), Json::Num(suite_len as f64)),
                ("workload_repeats".to_string(), Json::Num(1.0)),
                ("median_us".to_string(), Json::Num(us(t))),
                ("answers".to_string(), Json::Num(answers as f64)),
            ];
            members.extend(extra);
            Json::Obj(members)
        });
    }

    // -- concurrent serving: one shared session vs isolated workers --------
    // The workload is the compile-heavy E10 suite repeated `repeats` times,
    // prepared once as forced-ppl plans: the serving comparison isolates the
    // store architecture, not the engine choice.
    let serve_tree = sweep_tree(cfg.serve_tree_size);
    let serve_session = Session::from_tree(serve_tree.clone());
    let workload: Vec<QueryPlan> = (0..cfg.repeats)
        .flat_map(|_| suite_plans(&serve_session, Engine::Ppl))
        .collect();

    let mut serve_reference: Option<usize> = None;
    let mut shared_by_threads: Vec<(usize, f64)> = Vec::new();
    let mut isolated_by_threads: Vec<(usize, f64)> = Vec::new();
    for &threads in &cfg.threads {
        let (shared_t, shared_answers) = time_median(cfg.runs, || {
            let fresh = Session::from_tree(serve_tree.clone());
            fresh
                .answer_batch_parallel(&workload, threads)
                .expect("workload answers")
                .iter()
                .map(|a| a.len())
                .sum::<usize>()
        });
        let (iso_t, iso_answers) =
            time_median(cfg.runs, || serve_isolated(&serve_tree, &workload, threads));
        assert_eq!(shared_answers, iso_answers, "serving architectures disagree");
        match serve_reference {
            None => serve_reference = Some(shared_answers),
            Some(r) => assert_eq!(r, shared_answers, "thread counts disagree"),
        }
        for (name, t, answers) in [
            ("serve_shared", shared_t, shared_answers),
            ("serve_isolated", iso_t, iso_answers),
        ] {
            rows.push(Json::Obj(vec![
                ("experiment".to_string(), Json::Str("concurrent_serving".into())),
                ("engine".to_string(), Json::Str(name.into())),
                ("tree_size".to_string(), Json::Num(cfg.serve_tree_size as f64)),
                ("workload_queries".to_string(), Json::Num(suite().len() as f64)),
                ("workload_repeats".to_string(), Json::Num(cfg.repeats as f64)),
                ("threads".to_string(), Json::Num(threads as f64)),
                ("median_us".to_string(), Json::Num(us(t))),
                ("answers".to_string(), Json::Num(answers as f64)),
            ]));
        }
        shared_by_threads.push((threads, us(shared_t)));
        isolated_by_threads.push((threads, us(iso_t)));
    }

    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let (t1, shared_t1) = shared_by_threads[0];
    assert_eq!(t1, 1, "the first swept thread count must be 1");
    let &(tmax, shared_tmax) = shared_by_threads.last().expect("threads non-empty");
    let &(_, isolated_tmax) = isolated_by_threads.last().expect("threads non-empty");
    let summary = vec![
        ("planner_tree_size".to_string(), Json::Num(cfg.planner_tree_size as f64)),
        ("planner_auto_us".to_string(), Json::Num(auto_us)),
        ("planner_auto_choices".to_string(), Json::Str(auto_choices)),
        ("serve_tree_size".to_string(), Json::Num(cfg.serve_tree_size as f64)),
        ("serve_max_threads".to_string(), Json::Num(tmax as f64)),
        ("serve_shared_t1_us".to_string(), Json::Num(shared_t1)),
        ("serve_shared_tmax_us".to_string(), Json::Num(shared_tmax)),
        ("serve_isolated_tmax_us".to_string(), Json::Num(isolated_tmax)),
        // The headline: under tmax-thread load, one shared Session vs the
        // pre-Session architecture (tmax isolated single-threaded workers,
        // each recompiling its own matrices).
        (
            "shared_vs_isolated_speedup".to_string(),
            Json::Num(round2(isolated_tmax / shared_tmax.max(0.1))),
        ),
        // Wall-clock thread scaling of the shared path itself (≈1.0 on a
        // single hardware thread; >1 with real cores).
        (
            "thread_scaling".to_string(),
            Json::Num(round2(shared_t1 / shared_tmax.max(0.1))),
        ),
    ];
    (rows, summary)
}

fn sweep_tree(size: usize) -> Tree {
    random_tree(&TreeGenConfig {
        size,
        shape: TreeShape::BoundedBranching { max_children: 4 },
        alphabet: 3,
        seed: 0xBE7C_0000 + size as u64,
    })
}

fn us(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6 * 10.0).round() / 10.0
}

fn row(
    engine: &str,
    tree_size: usize,
    queries: usize,
    repeats: usize,
    median: Duration,
    answers: usize,
    extra: Vec<(String, Json)>,
) -> Json {
    let mut members = vec![
        ("experiment".to_string(), Json::Str("repeated_query_workload".into())),
        ("engine".to_string(), Json::Str(engine.into())),
        ("tree_size".to_string(), Json::Num(tree_size as f64)),
        ("workload_queries".to_string(), Json::Num(queries as f64)),
        ("workload_repeats".to_string(), Json::Num(repeats as f64)),
        ("median_us".to_string(), Json::Num(us(median))),
        ("answers".to_string(), Json::Num(answers as f64)),
    ];
    members.extend(extra);
    Json::Obj(members)
}

/// Run the E10 sweep and return the JSON document to be written to
/// `BENCH_*.json`.
pub fn run_regression(cfg: &RegressConfig) -> Json {
    run_regression_impl(cfg, None, None)
}

/// Run the E10 sweep *and* the E11 kernel ablation in one document (the
/// shape committed as `BENCH_3.json`).
pub fn run_regression_with_kernels(cfg: &RegressConfig, kernels: &KernelConfig) -> Json {
    run_regression_impl(cfg, Some(kernels), None)
}

/// Run the E10 sweep, the E11 kernel ablation *and* the E12
/// planner/concurrency sweep in one document (the shape committed as
/// `BENCH_4.json`).
pub fn run_regression_full(
    cfg: &RegressConfig,
    kernels: &KernelConfig,
    serve: &ServeConfig,
) -> Json {
    run_regression_impl(cfg, Some(kernels), Some(serve))
}

fn run_regression_impl(
    cfg: &RegressConfig,
    kernels: Option<&KernelConfig>,
    serve: Option<&ServeConfig>,
) -> Json {
    let mut results: Vec<Json> = Vec::new();
    let mut summary: Option<(usize, f64, f64)> = None;

    for &size in &cfg.tree_sizes {
        let tree = sweep_tree(size);

        // Workload: the suite repeated `repeats` times against one document,
        // prepared outside the timers as forced-ppl (cached) and forced-hcl
        // (cold) plans.
        let plan_session = Session::from_tree(tree.clone());
        let suite = suite_plans(&plan_session, Engine::Ppl);
        let repeated = |plans: &[QueryPlan]| -> Vec<QueryPlan> {
            (0..cfg.repeats)
                .flat_map(|_| plans.iter().cloned())
                .collect()
        };
        let workload = repeated(&suite);
        let cold_workload = repeated(&suite_plans(&plan_session, Engine::Hcl));
        let union_free: Vec<&QueryPlan> = suite
            .iter()
            .filter(|p| p.features().union_free)
            .collect();

        // ppl_cached — answer_batch over a fresh session each run, so each
        // timed run pays exactly one compilation of each distinct subterm.
        let (cached_t, cached_answers) = time_median(cfg.runs, || {
            let session = Session::from_tree(tree.clone());
            let answers = session.answer_batch(&workload).expect("suite queries answer");
            answers.iter().map(|a| a.len()).sum::<usize>()
        });
        // Cache counters for the same workload, measured outside the timer.
        let stats_session = Session::from_tree(tree.clone());
        stats_session.answer_batch(&workload).expect("suite queries answer");
        let stats = stats_session.cache_stats();
        results.push(row(
            "ppl_cached",
            size,
            suite.len(),
            cfg.repeats,
            cached_t,
            cached_answers,
            vec![
                ("cache_hits".to_string(), Json::Num(stats.hits as f64)),
                ("cache_misses".to_string(), Json::Num(stats.misses as f64)),
            ],
        ));

        // ppl_cold — per-query recompilation, same workload.
        let (cold_t, cold_answers) = time_median(cfg.runs, || {
            let session = Session::from_tree(tree.clone());
            cold_workload
                .iter()
                .map(|p| session.execute(p).expect("suite queries answer").len())
                .sum::<usize>()
        });
        assert_eq!(
            cached_answers, cold_answers,
            "cached and cold engines disagree at |t|={size}"
        );
        results.push(row(
            "ppl_cold",
            size,
            suite.len(),
            cfg.repeats,
            cold_t,
            cold_answers,
            vec![],
        ));
        summary = Some((size, us(cold_t), us(cached_t)));

        // acq — Yannakakis over the ACQ image, union-free queries only,
        // recompiled per call like the cold engine.
        let (acq_t, acq_answers) = time_median(cfg.runs, || {
            (0..cfg.repeats)
                .flat_map(|_| union_free.iter())
                .map(|p| {
                    let hcl = p.hcl().expect("forced-ppl plans carry their image");
                    let (cq, db) = hcl_to_acq(&tree, hcl, p.output()).expect("union-free image");
                    answer_acq(&cq, &db).expect("acyclic query answers").len()
                })
                .sum::<usize>()
        });
        results.push(row(
            "acq",
            size,
            union_free.len(),
            cfg.repeats,
            acq_t,
            acq_answers,
            vec![],
        ));

        // naive — exponential baseline, one workload pass, small trees only.
        if size <= cfg.naive_max_size {
            let session = Session::from_tree(tree.clone());
            let (naive_t, naive_answers) = time_median(1, || {
                suite
                    .iter()
                    .map(|p| {
                        Engine::NaiveEnumeration
                            .answer(&session, p.source(), p.output())
                            .expect("naive answers suite queries")
                            .len()
                    })
                    .sum::<usize>()
            });
            assert_eq!(
                naive_answers * cfg.repeats,
                cold_answers,
                "naive engine disagrees at |t|={size}"
            );
            results.push(row("naive", size, suite.len(), 1, naive_t, naive_answers, vec![]));
        }
    }

    let (largest, cold_us, cached_us) = summary.expect("at least one tree size");
    let mut summary_members = vec![
        ("largest_tree_size".to_string(), Json::Num(largest as f64)),
        ("cold_median_us".to_string(), Json::Num(cold_us)),
        ("cached_median_us".to_string(), Json::Num(cached_us)),
        (
            "cached_speedup".to_string(),
            Json::Num(((cold_us / cached_us.max(0.1)) * 100.0).round() / 100.0),
        ),
    ];
    if let Some(kcfg) = kernels {
        let (kernel_rows, (ksize, dense_us, adaptive_us, threaded_us)) =
            run_kernel_ablation(kcfg);
        results.extend(kernel_rows);
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        summary_members.extend([
            ("kernel_largest_tree_size".to_string(), Json::Num(ksize as f64)),
            ("kernel_dense_median_us".to_string(), Json::Num(dense_us)),
            ("kernel_adaptive_median_us".to_string(), Json::Num(adaptive_us)),
            (
                "kernel_adaptive_threaded_median_us".to_string(),
                Json::Num(threaded_us),
            ),
            (
                "adaptive_speedup".to_string(),
                Json::Num(round2(dense_us / adaptive_us.max(0.1))),
            ),
            (
                "adaptive_threaded_speedup".to_string(),
                Json::Num(round2(dense_us / threaded_us.max(0.1))),
            ),
        ]);
    }
    if let Some(scfg) = serve {
        let (serve_rows, serve_summary) = run_planner_concurrency(scfg);
        results.extend(serve_rows);
        summary_members.extend(serve_summary);
    }
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("experiment_doc".to_string(), Json::Str("EXPERIMENTS.md".into())),
        (
            "tree_sizes".to_string(),
            Json::Arr(cfg.tree_sizes.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("suite_queries".to_string(), Json::Num(suite().len() as f64)),
        ("workload_repeats".to_string(), Json::Num(cfg.repeats as f64)),
        ("runs_per_cell".to_string(), Json::Num(cfg.runs as f64)),
        ("results".to_string(), Json::Arr(results)),
        ("summary".to_string(), Json::Obj(summary_members)),
    ])
}

/// Run the E13 corpus-serving sweep: the E10 compile-heavy suite fanned out
/// over a multi-document corpus, served by (a) a warm unbounded session
/// pool, (b) memory-budgeted pools at half and a quarter of the measured
/// working set (eviction-thrashing), and (c) the per-request cold-rebuild
/// architecture a corpus layer replaces (fresh `Session` per document per
/// request).  Returns a standalone `BENCH_5.json`-shaped document.
pub fn run_corpus_bench(cfg: &CorpusBenchConfig) -> Json {
    use xpath_corpus::{Corpus, CorpusConfig};

    let documents = xpath_workload::corpus_documents(cfg.docs, cfg.base_size, 0xC0B5);
    let total_nodes: usize = documents.iter().map(|(_, t)| t.len()).sum();
    let parsed = suite();
    let specs: Vec<(String, Vec<String>)> = parsed
        .iter()
        .map(|(path, output)| {
            (
                path.to_string(),
                output.iter().map(|v| v.name().to_string()).collect(),
            )
        })
        .collect();

    let make_corpus = |budget: Option<usize>| {
        let corpus = Corpus::with_config(CorpusConfig {
            memory_budget: budget,
            threads: cfg.threads,
            queue_capacity: cfg.threads.max(1) * 2,
            // Forced ppl on both sides: the comparison isolates the session
            // pool against per-request rebuilds, not the engine choice.
            engine: Some(Engine::Ppl),
            ..CorpusConfig::default()
        });
        for (name, tree) in &documents {
            corpus.insert_tree(name, tree.clone());
        }
        corpus
    };
    let run_workload = |corpus: &Corpus| -> usize {
        let mut answers = 0usize;
        for _ in 0..cfg.repeats {
            for (source, vars) in &specs {
                let var_refs: Vec<&str> = vars.iter().map(String::as_str).collect();
                for doc in corpus
                    .answer_all(source, &var_refs)
                    .expect("suite queries answer over the corpus")
                {
                    answers += doc.answers.len();
                }
            }
        }
        answers
    };

    // Measure the warm working set once: it anchors the budget fractions.
    let warm = make_corpus(None);
    let reference_answers = run_workload(&warm);
    let working_set = warm.stats().pool_bytes.max(1);

    let corpus_row = |engine: &str, t: Duration, answers: usize, stats: xpath_corpus::CorpusStats| {
        Json::Obj(vec![
            ("experiment".to_string(), Json::Str("corpus_serving".into())),
            ("engine".to_string(), Json::Str(engine.into())),
            ("tree_size".to_string(), Json::Num(total_nodes as f64)),
            ("docs".to_string(), Json::Num(cfg.docs as f64)),
            ("workload_queries".to_string(), Json::Num(specs.len() as f64)),
            ("workload_repeats".to_string(), Json::Num(cfg.repeats as f64)),
            ("threads".to_string(), Json::Num(cfg.threads as f64)),
            ("median_us".to_string(), Json::Num(us(t))),
            ("answers".to_string(), Json::Num(answers as f64)),
            ("pool_bytes".to_string(), Json::Num(stats.pool_bytes as f64)),
            ("cache_evictions".to_string(), Json::Num(stats.cache_evictions as f64)),
            (
                "session_evictions".to_string(),
                Json::Num(stats.session_evictions as f64),
            ),
            ("rebuilds".to_string(), Json::Num(stats.rebuilds as f64)),
            ("plan_hits".to_string(), Json::Num(stats.plan_hits as f64)),
        ])
    };

    let mut rows: Vec<Json> = Vec::new();
    let mut pool_us = 0.0f64;
    let mut budget_summary: Vec<(String, Json)> = Vec::new();
    for (fraction, name) in CORPUS_MODES {
        let budget = fraction.map(|f| ((working_set as f64 * f) as usize).max(1));
        let (t, answers) = time_median(cfg.runs, || {
            let corpus = make_corpus(budget);
            run_workload(&corpus)
        });
        assert_eq!(
            answers, reference_answers,
            "{name} disagrees with the unbounded pool"
        );
        // Pool counters for the same workload, measured outside the timer.
        let stats_corpus = make_corpus(budget);
        run_workload(&stats_corpus);
        let stats = stats_corpus.stats();
        if let Some(budget) = budget {
            assert!(
                stats.cache_evictions + stats.session_evictions > 0,
                "{name}: a budget of {budget} bytes under a {working_set}-byte working set must evict"
            );
        }
        rows.push(corpus_row(name, t, answers, stats));
        if fraction.is_none() {
            pool_us = us(t);
        } else {
            budget_summary.push((format!("{name}_us"), Json::Num(us(t))));
            budget_summary.push((
                format!("{name}_evictions"),
                Json::Num((stats.cache_evictions + stats.session_evictions) as f64),
            ));
        }
    }

    // The pre-corpus architecture: every request builds a fresh session —
    // plan + full matrix compilation per (document, query, repeat).
    let (cold_t, cold_answers) = time_median(cfg.runs, || {
        let planner = Planner::default();
        let mut answers = 0usize;
        for _ in 0..cfg.repeats {
            for (path, output) in &parsed {
                for (_, tree) in &documents {
                    let session = Session::from_tree(tree.clone());
                    let plan = planner
                        .plan_with(&session, path.clone(), output.clone(), Some(Engine::Ppl))
                        .expect("suite queries plan");
                    answers += session.execute(&plan).expect("suite queries answer").len();
                }
            }
        }
        answers
    });
    assert_eq!(
        cold_answers, reference_answers,
        "cold rebuild disagrees with the corpus pool"
    );
    rows.push(corpus_row(
        "cold_rebuild",
        cold_t,
        cold_answers,
        xpath_corpus::CorpusStats::default(),
    ));

    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let mut summary = vec![
        ("corpus_docs".to_string(), Json::Num(cfg.docs as f64)),
        ("corpus_total_nodes".to_string(), Json::Num(total_nodes as f64)),
        (
            "corpus_working_set_bytes".to_string(),
            Json::Num(working_set as f64),
        ),
        ("corpus_pool_us".to_string(), Json::Num(pool_us)),
        ("corpus_cold_us".to_string(), Json::Num(us(cold_t))),
        // The headline, pinned in CI: pooled sessions vs per-request
        // rebuild on the same workload and engine.
        (
            "corpus_speedup".to_string(),
            Json::Num(round2(us(cold_t) / pool_us.max(0.1))),
        ),
    ];
    summary.extend(budget_summary);

    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("experiment_doc".to_string(), Json::Str("EXPERIMENTS.md".into())),
        ("corpus_docs".to_string(), Json::Num(cfg.docs as f64)),
        ("suite_queries".to_string(), Json::Num(specs.len() as f64)),
        ("workload_repeats".to_string(), Json::Num(cfg.repeats as f64)),
        ("runs_per_cell".to_string(), Json::Num(cfg.runs as f64)),
        ("results".to_string(), Json::Arr(rows)),
        ("summary".to_string(), Json::Obj(summary)),
    ])
}

/// Run the E14 lazy large-document sweep: the DBLP-style suite over
/// `xpath_tree::generate::dblp` documents at sizes far past the eager
/// kernels' |t|≈960 band.  The lazy pipeline (symbolic relation algebra +
/// per-row densification) answers every size; the eager adaptive-threaded
/// kernels answer up to [`LazyBenchConfig::eager_max_size`] as the speedup
/// baseline.  Returns a standalone `BENCH_6.json`-shaped document whose
/// summary carries the two CI-pinned claims: `lazy_speedup` (eager/lazy at
/// the pin size) and `lazy_bytes_per_node` (store occupancy ceiling).
pub fn run_lazy_bench(cfg: &LazyBenchConfig) -> Json {
    let specs = xpath_workload::dblp_suite();
    let planner = Planner::default();
    let round2 = |x: f64| (x * 100.0).round() / 100.0;

    let mut rows: Vec<Json> = Vec::new();
    // (size, lazy_us, eager_us) at the pin size; (size, bytes/node) maxima.
    let mut pin: Option<(usize, f64, f64)> = None;
    let mut largest_lazy: Option<(usize, f64)> = None;
    let mut worst_bytes_per_node = 0.0f64;

    for &size in &cfg.tree_sizes {
        let tree = xpath_tree::generate::dblp(size, 0xE14);
        assert_eq!(tree.len(), size, "dblp generator missed the target size");

        // Plans are engine + HCL only — independent of the kernel mode the
        // executing session compiles with — so prepare them once per size.
        let plan_session = Session::from_tree(tree.clone());
        let plans: Vec<QueryPlan> = specs
            .iter()
            .map(|(src, vars)| {
                let path = parse_path(src).expect("dblp suite query parses");
                let output: Vec<Var> = vars.iter().map(|n| Var::new(n)).collect();
                planner
                    .plan_with(&plan_session, path, output, Some(Engine::Ppl))
                    .expect("dblp suite query plans")
            })
            .collect();

        let mut reference: Option<usize> = None;
        let mut size_us = [None::<f64>; LAZY_MODES.len()];
        for (i, &(mode, name)) in LAZY_MODES.iter().enumerate() {
            if mode != KernelMode::Lazy && size > cfg.eager_max_size {
                continue; // eager kernels stop at the pin size by design
            }
            let (t, answers) = time_median(cfg.runs, || {
                let session = Session::from_tree(tree.clone());
                session.set_kernel_mode(mode);
                plans
                    .iter()
                    .map(|p| session.execute(p).expect("dblp suite answers").len())
                    .sum::<usize>()
            });
            match reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(
                    r, answers,
                    "{name} disagrees with the lazy pipeline at |t|={size}"
                ),
            }
            assert!(answers > 0, "dblp suite selected nothing at |t|={size}");
            size_us[i] = Some(us(t));

            // Store occupancy after the full workload, measured outside the
            // timer: this is the honest `approx_bytes` the lazy layer is
            // accountable to (symbolic forms + materialised rows).
            let session = Session::from_tree(tree.clone());
            session.set_kernel_mode(mode);
            for p in &plans {
                session.execute(p).expect("dblp suite answers");
            }
            let bytes = session.store().approx_bytes();
            let bytes_per_node = bytes as f64 / size as f64;
            if mode == KernelMode::Lazy {
                worst_bytes_per_node = worst_bytes_per_node.max(bytes_per_node);
                largest_lazy = Some((size, us(t)));
            }
            rows.push(Json::Obj(vec![
                ("experiment".to_string(), Json::Str("lazy_large_documents".into())),
                ("engine".to_string(), Json::Str(name.into())),
                ("tree_size".to_string(), Json::Num(size as f64)),
                ("workload_queries".to_string(), Json::Num(specs.len() as f64)),
                ("workload_repeats".to_string(), Json::Num(1.0)),
                ("median_us".to_string(), Json::Num(us(t))),
                ("answers".to_string(), Json::Num(answers as f64)),
                ("store_bytes".to_string(), Json::Num(bytes as f64)),
                (
                    "bytes_per_node".to_string(),
                    Json::Num(round2(bytes_per_node)),
                ),
            ]));
        }
        if size <= cfg.eager_max_size {
            if let [Some(lazy_us), Some(eager_us)] = size_us {
                pin = Some((size, lazy_us, eager_us));
            }
        }
    }

    let (pin_size, lazy_pin_us, eager_pin_us) =
        pin.expect("at least one size within the eager comparison band");
    let (largest, lazy_largest_us) = largest_lazy.expect("at least one lazy row");
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("experiment_doc".to_string(), Json::Str("EXPERIMENTS.md".into())),
        (
            "tree_sizes".to_string(),
            Json::Arr(cfg.tree_sizes.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("suite_queries".to_string(), Json::Num(specs.len() as f64)),
        ("workload_repeats".to_string(), Json::Num(1.0)),
        ("runs_per_cell".to_string(), Json::Num(cfg.runs as f64)),
        ("results".to_string(), Json::Arr(rows)),
        (
            "summary".to_string(),
            Json::Obj(vec![
                ("lazy_largest_tree_size".to_string(), Json::Num(largest as f64)),
                ("lazy_largest_us".to_string(), Json::Num(lazy_largest_us)),
                ("lazy_pin_tree_size".to_string(), Json::Num(pin_size as f64)),
                ("lazy_pin_us".to_string(), Json::Num(lazy_pin_us)),
                ("eager_pin_us".to_string(), Json::Num(eager_pin_us)),
                // The two CI-pinned claims of BENCH_6.json.
                (
                    "lazy_speedup".to_string(),
                    Json::Num(round2(eager_pin_us / lazy_pin_us.max(0.1))),
                ),
                (
                    "lazy_bytes_per_node".to_string(),
                    Json::Num(round2(worst_bytes_per_node)),
                ),
            ]),
        ),
    ])
}

/// Run the E17 incremental-maintenance sweep: a warm session absorbs a
/// single-node edit — one record's `title` is relabelled — and re-answers
/// the E14 [`xpath_workload::dblp_suite`].  The `edit_incremental` arm
/// carries the compiled matrices through the edit with
/// [`Session::fork_edited`] (only entries whose label footprint contains
/// the edited labels recompile; the dense `except`/`not` complements of
/// the suite are untouched); the `edit_full` arm builds a fresh session,
/// replaying the full compilation the suite needs.
/// Returns a standalone `BENCH_9.json`-shaped document whose summary
/// carries the CI-pinned claims: `incr_speedup` (full / incremental at the
/// pin size) and `incr_rows_fraction` (rows recomputed over rows cached —
/// the row-range-invalidation locality claim).
pub fn run_incr_bench(cfg: &IncrBenchConfig) -> Json {
    use std::sync::Arc;
    let specs = xpath_workload::dblp_suite();
    let planner = Planner::default();
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let round4 = |x: f64| (x * 10_000.0).round() / 10_000.0;

    let mut rows: Vec<Json> = Vec::new();
    // Per size: (incr_us, full_us, rows_invalidated, rows_total).
    let mut cells: Vec<(usize, f64, f64, u64, u64)> = Vec::new();

    for &size in &cfg.tree_sizes {
        let mode = if size >= cfg.lazy_min_size {
            KernelMode::Lazy
        } else {
            KernelMode::AdaptiveThreaded
        };
        let tree = xpath_tree::generate::dblp(size, 0xE17);
        assert_eq!(tree.len(), size, "dblp generator missed the target size");

        // The single-subtree edit of the pinned claim — the scenario that
        // motivates the subsystem: one record's `title` is renamed on a
        // warm document.  Ids do not move, so only the entries whose label
        // footprint contains `title` are recompiled; the expensive dense
        // complements of the suite are untouched.  The tree-edit cost
        // itself is identical in both arms and excluded from the timers,
        // which measure matrix maintenance + re-answering only.
        let victim = (0..tree.len() as u32)
            .map(xpath_tree::NodeId)
            .find(|&n| tree.label_str(n) == "title")
            .expect("dblp documents have titles");
        let (edited, delta) = tree.relabel(victim, "note").expect("relabel is valid");
        let edited = Arc::new(edited);

        // Plans for the edited tree, prepared once outside the timers (both
        // arms execute the same plans over the same tree).
        let plans_for = |t: &Arc<Tree>| -> Vec<QueryPlan> {
            let plan_session = Session::from_shared_tree(Arc::clone(t));
            specs
                .iter()
                .map(|(src, vars)| {
                    let path = parse_path(src).expect("dblp suite query parses");
                    let output: Vec<Var> = vars.iter().map(|n| Var::new(n)).collect();
                    planner
                        .plan_with(&plan_session, path, output, Some(Engine::Ppl))
                        .expect("dblp suite query plans")
                })
                .collect()
        };
        let plans = plans_for(&edited);

        // The warm base session the incremental arm forks from.
        let warm = Session::from_tree(tree.clone());
        warm.set_kernel_mode(mode);
        for p in &plans_for(&warm.shared_tree()) {
            warm.execute(p).expect("dblp suite answers on the base document");
        }
        assert!(warm.cache_stats().compiled > 0, "base session must be warm");

        // Edit-maintenance stats, measured once outside the timers.
        let (_, stats) = warm.fork_edited(Arc::clone(&edited), &delta);
        assert!(stats.rows_total > 0, "the warm cache must be carried through the edit");

        let mut answers_reference: Option<usize> = None;
        let mut arm_us = [0.0f64; 2];
        for (arm, name) in INCR_MODES.iter().enumerate() {
            let (t, answers) = time_median(cfg.runs, || {
                let session = if arm == 0 {
                    warm.fork_edited(Arc::clone(&edited), &delta).0
                } else {
                    let cold = Session::from_shared_tree(Arc::clone(&edited));
                    cold.set_kernel_mode(mode);
                    cold
                };
                plans
                    .iter()
                    .map(|p| session.execute(p).expect("dblp suite answers").len())
                    .sum::<usize>()
            });
            match answers_reference {
                None => answers_reference = Some(answers),
                Some(r) => assert_eq!(
                    r, answers,
                    "{name} disagrees with the incremental arm at |t|={size}"
                ),
            }
            assert!(answers > 0, "dblp suite selected nothing at |t|={size}");
            arm_us[arm] = us(t);
            let mut row = vec![
                ("experiment".to_string(), Json::Str("incr_maintenance".into())),
                ("engine".to_string(), Json::Str((*name).into())),
                ("tree_size".to_string(), Json::Num(size as f64)),
                ("workload_queries".to_string(), Json::Num(specs.len() as f64)),
                ("workload_repeats".to_string(), Json::Num(1.0)),
                ("median_us".to_string(), Json::Num(us(t))),
                ("answers".to_string(), Json::Num(answers as f64)),
                ("edits".to_string(), Json::Num(1.0)),
                (
                    "kernel".to_string(),
                    Json::Str(if mode == KernelMode::Lazy { "lazy" } else { "adaptive_threaded" }.into()),
                ),
            ];
            if arm == 0 {
                row.push((
                    "rows_invalidated".to_string(),
                    Json::Num(stats.rows_invalidated as f64),
                ));
                row.push(("rows_total".to_string(), Json::Num(stats.rows_total as f64)));
            }
            rows.push(Json::Obj(row));
        }
        cells.push((size, arm_us[0], arm_us[1], stats.rows_invalidated, stats.rows_total));
    }

    let &(pin_size, incr_pin_us, full_pin_us, invalidated, total) =
        cells.first().expect("at least one swept size");
    let &(largest, incr_largest_us, full_largest_us, ..) =
        cells.last().expect("at least one swept size");
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("experiment_doc".to_string(), Json::Str("EXPERIMENTS.md".into())),
        (
            "tree_sizes".to_string(),
            Json::Arr(cfg.tree_sizes.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("suite_queries".to_string(), Json::Num(specs.len() as f64)),
        ("workload_repeats".to_string(), Json::Num(1.0)),
        ("runs_per_cell".to_string(), Json::Num(cfg.runs as f64)),
        ("results".to_string(), Json::Arr(rows)),
        (
            "summary".to_string(),
            Json::Obj(vec![
                ("incr_pin_tree_size".to_string(), Json::Num(pin_size as f64)),
                ("incr_pin_us".to_string(), Json::Num(incr_pin_us)),
                ("full_pin_us".to_string(), Json::Num(full_pin_us)),
                (
                    "incr_speedup".to_string(),
                    Json::Num(round2(full_pin_us / incr_pin_us.max(0.1))),
                ),
                ("incr_rows_invalidated".to_string(), Json::Num(invalidated as f64)),
                ("incr_rows_total".to_string(), Json::Num(total as f64)),
                (
                    "incr_rows_fraction".to_string(),
                    Json::Num(round4(invalidated as f64 / (total as f64).max(1.0))),
                ),
                ("incr_largest_tree_size".to_string(), Json::Num(largest as f64)),
                ("incr_largest_us".to_string(), Json::Num(incr_largest_us)),
                (
                    "incr_largest_speedup".to_string(),
                    Json::Num(round2(full_largest_us / incr_largest_us.max(0.1))),
                ),
            ]),
        ),
    ])
}

/// Run the E15 daemon-serving sweep: sustained request throughput of a live
/// `pplxd` serving loop under 1/64/1024 concurrent pipelined connections.
/// Each client writes [`DaemonBenchConfig::pipeline`]-request windows in
/// one flush (mostly `STATS` with a `QUERY` against a preloaded document
/// mixed in) and reads the window's responses back in order.  Returns a
/// standalone `BENCH_7.json`-shaped document whose summary carries the
/// QPS at the pin connection count.
///
/// Linux only: the serving loop is the epoll reactor.
pub fn run_daemon_bench(cfg: &DaemonBenchConfig) -> Json {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;
    use xpath_corpus::server::{bind, serve, ServeOptions};
    use xpath_corpus::Corpus;

    if !cfg!(target_os = "linux") {
        panic!("the E15 daemon sweep runs the epoll serving loop and is Linux-only");
    }

    // The preloaded document every QUERY in the mix runs against; small on
    // purpose — E15 measures protocol and multiplexing overhead, not query
    // evaluation (E10–E14 own that).
    const DOC_SHAPE: &str = "r(a(b,c),a(b),c(a(b)))";
    const DOC_NODES: usize = 9;
    let request_line = |i: usize| -> &'static str {
        // 1-in-8 QUERY keeps the worker pool honest without the cell
        // degenerating into a query benchmark.
        if i % 8 == 7 {
            "QUERY bench descendant::b"
        } else {
            "STATS"
        }
    };
    let read_response = |reader: &mut BufReader<TcpStream>| {
        let mut status = String::new();
        assert!(
            reader.read_line(&mut status).expect("daemon response") > 0,
            "daemon closed the connection mid-bench"
        );
        assert!(status.starts_with("OK "), "daemon answered {status:?}");
        let payload: usize = status[3..].trim().parse().expect("payload count");
        let mut line = String::new();
        for _ in 0..payload {
            line.clear();
            assert!(reader.read_line(&mut line).expect("payload line") > 0);
        }
    };

    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let mut rows: Vec<Json> = Vec::new();
    // qps per connection count, for the summary pin.
    let mut cells: Vec<(usize, f64)> = Vec::new();

    for &conns in &cfg.connections {
        let per_conn = (cfg.total_requests / conns.max(1)).max(cfg.pipeline);
        let window = cfg.pipeline.min(per_conn);
        let total = per_conn * conns;

        let (listener, addr) = bind("127.0.0.1:0").expect("bench daemon binds");
        let options = ServeOptions {
            workers: cfg.workers,
            ..ServeOptions::default()
        };
        let server =
            std::thread::spawn(move || serve(listener, &Corpus::new(), &options));

        // Preload the queried document before any timing.
        let control = TcpStream::connect(addr).expect("bench control connection");
        let mut control_reader = BufReader::new(control.try_clone().unwrap());
        let mut control_writer = BufWriter::new(control);
        writeln!(control_writer, "LOADTERMS bench {DOC_SHAPE}").unwrap();
        control_writer.flush().unwrap();
        read_response(&mut control_reader);

        // Sustained throughput: connections are established and client
        // threads parked on a barrier before the clock starts, so the
        // cell measures pipelined request traffic, not thread-spawn and
        // connect setup.  Client threads are capped at 64, each
        // multiplexing a slice of the connections — the generator must
        // not itself become the scheduler load it is measuring on the
        // daemon side.
        let client_threads = conns.min(64);
        let mut durations: Vec<Duration> = Vec::with_capacity(cfg.runs);
        for _ in 0..cfg.runs {
            let barrier = std::sync::Arc::new(std::sync::Barrier::new(client_threads + 1));
            let clients: Vec<_> = (0..client_threads)
                .map(|k| {
                    let barrier = std::sync::Arc::clone(&barrier);
                    // Thread k owns connections k, k+threads, k+2*threads, …
                    let owned = (conns - k).div_ceil(client_threads);
                    std::thread::spawn(move || {
                        let mut sockets: Vec<_> = (0..owned)
                            .map(|_| {
                                let stream =
                                    TcpStream::connect(addr).expect("bench client connects");
                                stream.set_nodelay(true).unwrap();
                                let reader = BufReader::new(stream.try_clone().unwrap());
                                (reader, BufWriter::new(stream))
                            })
                            .collect();
                        barrier.wait();
                        let mut sent = 0usize;
                        while sent < per_conn {
                            let burst = window.min(per_conn - sent);
                            for (_, writer) in sockets.iter_mut() {
                                for i in 0..burst {
                                    writeln!(writer, "{}", request_line(sent + i)).unwrap();
                                }
                                writer.flush().unwrap();
                            }
                            for (reader, _) in sockets.iter_mut() {
                                for _ in 0..burst {
                                    read_response(reader);
                                }
                            }
                            sent += burst;
                        }
                    })
                })
                .collect();
            barrier.wait();
            let start = std::time::Instant::now();
            for client in clients {
                client.join().expect("bench client must not panic");
            }
            durations.push(start.elapsed());
        }
        durations.sort_unstable();
        let t = durations[durations.len() / 2];
        let qps = total as f64 / t.as_secs_f64().max(1e-9);

        writeln!(control_writer, "SHUTDOWN").unwrap();
        control_writer.flush().unwrap();
        read_response(&mut control_reader);
        server
            .join()
            .expect("daemon thread must not panic")
            .expect("daemon shuts down cleanly");

        rows.push(Json::Obj(vec![
            ("experiment".to_string(), Json::Str("daemon_serving".into())),
            ("engine".to_string(), Json::Str(DAEMON_ROW.into())),
            ("tree_size".to_string(), Json::Num(DOC_NODES as f64)),
            ("workload_queries".to_string(), Json::Num(total as f64)),
            ("workload_repeats".to_string(), Json::Num(window as f64)),
            ("median_us".to_string(), Json::Num(us(t))),
            ("connections".to_string(), Json::Num(conns as f64)),
            ("workers".to_string(), Json::Num(cfg.workers as f64)),
            ("qps".to_string(), Json::Num(round2(qps))),
        ]));
        cells.push((conns, qps));
    }

    // The pin lives at the largest swept cell (>= 64 connections in the
    // full sweep): the event loop's claim is scalability with connection
    // count.
    let pin_conns = cfg
        .connections
        .iter()
        .copied()
        .filter(|&c| c >= 64)
        .max()
        .or_else(|| cfg.connections.iter().copied().max())
        .expect("at least one connection count");
    let pin_qps = cells
        .iter()
        .find(|&&(c, _)| c == pin_conns)
        .map(|&(_, qps)| qps)
        .expect("pin cell was swept");

    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("experiment_doc".to_string(), Json::Str("EXPERIMENTS.md".into())),
        (
            "connections".to_string(),
            Json::Arr(cfg.connections.iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
        ("pipeline".to_string(), Json::Num(cfg.pipeline as f64)),
        ("workers".to_string(), Json::Num(cfg.workers as f64)),
        ("runs_per_cell".to_string(), Json::Num(cfg.runs as f64)),
        ("results".to_string(), Json::Arr(rows)),
        (
            "summary".to_string(),
            Json::Obj(vec![
                ("daemon_pin_conns".to_string(), Json::Num(pin_conns as f64)),
                ("daemon_epoll_pin_qps".to_string(), Json::Num(round2(pin_qps))),
            ]),
        ),
    ])
}

/// Run the E16 sharded-router sweep: the same pipelined QUERY traffic is
/// driven against (a) one `pplxd` daemon and (b) a router fronting
/// [`RouterBenchConfig::shards`] backend daemons, giving the
/// `router_efficiency` pin — the extra network hop must not cost more than
/// a bounded fraction of single-daemon QPS.  A third phase re-runs the
/// workload and kills one shard a quarter of the way in (a permanent
/// `FaultAction::KillConn` on every request to it — the in-process
/// equivalent of `kill -9`), asserting the fleet degrades instead of
/// failing: requests issued after the router has had a probe interval to
/// react must almost all succeed (`router_kill_failure_rate` pin).
///
/// Returns a standalone `BENCH_8.json`-shaped document.
pub fn run_router_bench(cfg: &RouterBenchConfig) -> Json {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier, Mutex};
    use xpath_corpus::router::{FaultAction, Router, RouterConfig};
    use xpath_corpus::server::{bind, serve, ServeOptions};
    use xpath_corpus::Corpus;

    // Every document is the same medium tree: 72 subtrees of 5 nodes.  Big
    // enough that answering and rendering cost real backend work per
    // request (the router's relay overhead amortises), small enough that
    // E16 measures serving architecture, not query evaluation.
    let doc_shape = format!("r({})", vec!["a(b,b,c(b))"; 72].join(","));
    const DOC_NODES: usize = 361;
    let doc_name = |k: usize| format!("bench_d{k}");
    let docs = cfg.docs.max(1);
    let request_line = move |i: usize| format!(
        "QUERY bench_d{} descendant::b[. is $x] -> x",
        i % docs
    );

    let read_response = |reader: &mut BufReader<TcpStream>| -> bool {
        let mut status = String::new();
        assert!(
            reader.read_line(&mut status).expect("front-door response") > 0,
            "front door closed the connection mid-bench"
        );
        let ok = status.starts_with("OK ");
        let payload: usize = if ok {
            status[3..].trim().parse().expect("payload count")
        } else {
            assert!(status.starts_with("ERR "), "malformed response {status:?}");
            0
        };
        let mut line = String::new();
        for _ in 0..payload {
            line.clear();
            assert!(reader.read_line(&mut line).expect("payload line") > 0);
        }
        ok
    };

    let spawn_backend = || {
        let (listener, addr) = bind("127.0.0.1:0").expect("bench backend binds");
        let handle = std::thread::spawn(move || {
            serve(listener, &Corpus::new(), &ServeOptions::default())
        });
        (addr, handle)
    };

    // One scripted control request against a front door.
    let control_request = |addr: SocketAddr, line: &str| {
        let stream = TcpStream::connect(addr).expect("bench control connection");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        assert!(read_response(&mut reader), "control request {line:?} failed");
    };

    let preload = |addr: SocketAddr| {
        let stream = TcpStream::connect(addr).expect("bench control connection");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        for k in 0..docs {
            writeln!(writer, "LOADTERMS {} {doc_shape}", doc_name(k)).unwrap();
            writer.flush().unwrap();
            assert!(read_response(&mut reader), "preload of {} failed", doc_name(k));
        }
    };

    // Pipelined sustained-throughput phase against one front door, E15
    // style: connections up and threads parked on a barrier before the
    // clock starts.  Returns the median wall time over `cfg.runs`.
    let per_conn = (cfg.total_requests / cfg.connections.max(1)).max(cfg.pipeline);
    let window = cfg.pipeline.min(per_conn);
    let total = per_conn * cfg.connections;
    let timed_phase = |addr: SocketAddr| -> Duration {
        let client_threads = cfg.connections.min(64);
        let mut durations: Vec<Duration> = Vec::with_capacity(cfg.runs);
        for _ in 0..cfg.runs {
            let barrier = Arc::new(Barrier::new(client_threads + 1));
            let clients: Vec<_> = (0..client_threads)
                .map(|k| {
                    let barrier = Arc::clone(&barrier);
                    let owned = (cfg.connections - k).div_ceil(client_threads);
                    std::thread::spawn(move || {
                        let mut sockets: Vec<_> = (0..owned)
                            .map(|_| {
                                let stream =
                                    TcpStream::connect(addr).expect("bench client connects");
                                stream.set_nodelay(true).unwrap();
                                let reader = BufReader::new(stream.try_clone().unwrap());
                                (reader, BufWriter::new(stream))
                            })
                            .collect();
                        barrier.wait();
                        let mut sent = 0usize;
                        while sent < per_conn {
                            let burst = window.min(per_conn - sent);
                            for (_, writer) in sockets.iter_mut() {
                                for i in 0..burst {
                                    writeln!(writer, "{}", request_line(sent + i)).unwrap();
                                }
                                writer.flush().unwrap();
                            }
                            for (reader, _) in sockets.iter_mut() {
                                for _ in 0..burst {
                                    assert!(
                                        read_response(reader),
                                        "healthy-fleet request must not fail"
                                    );
                                }
                            }
                            sent += burst;
                        }
                    })
                })
                .collect();
            barrier.wait();
            let start = std::time::Instant::now();
            for client in clients {
                client.join().expect("bench client must not panic");
            }
            durations.push(start.elapsed());
        }
        durations.sort_unstable();
        durations[durations.len() / 2]
    };

    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let round4 = |x: f64| (x * 10000.0).round() / 10000.0;

    // ---- Phase 1: single-daemon baseline. -------------------------------
    let (addr, server) = spawn_backend();
    preload(addr);
    let single_t = timed_phase(addr);
    control_request(addr, "SHUTDOWN");
    server.join().unwrap().expect("baseline daemon shuts down");
    let single_qps = total as f64 / single_t.as_secs_f64().max(1e-9);

    // A router fleet: backends, a Router over them, and a serving thread.
    let probe_interval = Duration::from_millis(100);
    let spawn_fleet = || {
        let backends: Vec<_> = (0..cfg.shards.max(1)).map(|_| spawn_backend()).collect();
        let router = Arc::new(Router::new(RouterConfig {
            backends: backends.iter().map(|(a, _)| a.to_string()).collect(),
            replication: cfg.replication,
            shard_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(500),
            fail_threshold: 2,
            probe_interval,
        }));
        let (listener, addr) = bind("127.0.0.1:0").expect("bench router binds");
        let serving = Arc::clone(&router);
        let handle = std::thread::spawn(move || {
            serve(listener, &serving, &ServeOptions::default())
        });
        (backends, router, addr, handle)
    };
    let teardown_fleet =
        |backends: Vec<(SocketAddr, std::thread::JoinHandle<std::io::Result<()>>)>,
         addr: SocketAddr,
         handle: std::thread::JoinHandle<std::io::Result<()>>| {
            // The router answers SHUTDOWN, drains, then fans it out to
            // every shard.
            control_request(addr, "SHUTDOWN");
            handle.join().unwrap().expect("router shuts down");
            for (_, backend) in backends {
                backend.join().unwrap().expect("backend shuts down");
            }
        };

    // ---- Phase 2: the router, healthy. ----------------------------------
    let (backends, _router, router_addr, router_handle) = spawn_fleet();
    preload(router_addr);
    let router_t = timed_phase(router_addr);
    teardown_fleet(backends, router_addr, router_handle);
    let router_qps = total as f64 / router_t.as_secs_f64().max(1e-9);

    // ---- Phase 3: kill one shard mid-bench. -----------------------------
    // Unpipelined so every response attributes to one request, with a
    // timestamp: failures are only *counted* once the router has had a full
    // probe interval to notice the corpse — transient errors during the
    // transition are reported separately, not pinned.
    let (backends, router, router_addr, router_handle) = spawn_fleet();
    preload(router_addr);
    let dead = Arc::new(AtomicBool::new(false));
    {
        let dead = Arc::clone(&dead);
        router.set_fault_hook(Arc::new(move |shard, _command| {
            if shard == 0 && dead.load(Ordering::Relaxed) {
                FaultAction::KillConn
            } else {
                FaultAction::None
            }
        }));
    }
    let completed = Arc::new(AtomicUsize::new(0));
    let killed_at: Arc<Mutex<Option<std::time::Instant>>> = Arc::new(Mutex::new(None));
    let kill_after = total / 4;
    let recovery_gate = probe_interval * 2;
    let client_threads = cfg.connections.min(64);
    let barrier = Arc::new(Barrier::new(client_threads + 1));
    let clients: Vec<_> = (0..client_threads)
        .map(|k| {
            let barrier = Arc::clone(&barrier);
            let dead = Arc::clone(&dead);
            let completed = Arc::clone(&completed);
            let killed_at = Arc::clone(&killed_at);
            let owned = (cfg.connections - k).div_ceil(client_threads);
            std::thread::spawn(move || {
                let mut sockets: Vec<_> = (0..owned)
                    .map(|_| {
                        let stream = TcpStream::connect(router_addr).expect("kill-phase connect");
                        stream.set_nodelay(true).unwrap();
                        let reader = BufReader::new(stream.try_clone().unwrap());
                        (reader, BufWriter::new(stream))
                    })
                    .collect();
                barrier.wait();
                // (failed, after_recovery) counters for this thread.
                let mut failed = 0usize;
                let mut failed_after = 0usize;
                let mut after = 0usize;
                for i in 0..per_conn {
                    for (reader, writer) in sockets.iter_mut() {
                        let started = std::time::Instant::now();
                        writeln!(writer, "{}", request_line(i)).unwrap();
                        writer.flush().unwrap();
                        let ok = read_response(reader);
                        let recovered = killed_at
                            .lock()
                            .unwrap()
                            .map(|at| started >= at + recovery_gate)
                            .unwrap_or(false);
                        if recovered {
                            after += 1;
                        }
                        if !ok {
                            failed += 1;
                            if recovered {
                                failed_after += 1;
                            }
                        }
                        let n = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if n >= kill_after && !dead.swap(true, Ordering::Relaxed) {
                            *killed_at.lock().unwrap() = Some(std::time::Instant::now());
                        }
                    }
                }
                (failed, failed_after, after)
            })
        })
        .collect();
    barrier.wait();
    let kill_start = std::time::Instant::now();
    let mut kill_failed = 0usize;
    let mut kill_failed_after = 0usize;
    let mut kill_after_recovery = 0usize;
    for client in clients {
        let (failed, failed_after, after) = client.join().expect("kill-phase client");
        kill_failed += failed;
        kill_failed_after += failed_after;
        kill_after_recovery += after;
    }
    let kill_t = kill_start.elapsed();
    assert!(
        kill_after_recovery > 0,
        "the kill phase must issue requests after the recovery gate"
    );
    // Let the teardown SHUTDOWN reach shard 0 again (it is not actually
    // dead — only every router request to it was killed).
    dead.store(false, Ordering::Relaxed);
    teardown_fleet(backends, router_addr, router_handle);
    let kill_qps = total as f64 / kill_t.as_secs_f64().max(1e-9);
    let failure_rate = kill_failed_after as f64 / kill_after_recovery as f64;

    let row = |engine: &str, shards: usize, t: Duration, qps: f64| {
        Json::Obj(vec![
            ("experiment".to_string(), Json::Str("router_serving".into())),
            ("engine".to_string(), Json::Str(engine.into())),
            ("tree_size".to_string(), Json::Num(DOC_NODES as f64)),
            ("workload_queries".to_string(), Json::Num(total as f64)),
            ("workload_repeats".to_string(), Json::Num(window as f64)),
            ("median_us".to_string(), Json::Num(us(t))),
            ("connections".to_string(), Json::Num(cfg.connections as f64)),
            ("shards".to_string(), Json::Num(shards as f64)),
            ("replication".to_string(), Json::Num(cfg.replication as f64)),
            ("docs".to_string(), Json::Num(docs as f64)),
            ("qps".to_string(), Json::Num(round2(qps))),
        ])
    };
    let mut kill_row = row("router_kill", cfg.shards, kill_t, kill_qps);
    if let Json::Obj(fields) = &mut kill_row {
        fields.push(("failed_requests".to_string(), Json::Num(kill_failed as f64)));
        fields.push((
            "requests_after_recovery".to_string(),
            Json::Num(kill_after_recovery as f64),
        ));
        fields.push((
            "failed_after_recovery".to_string(),
            Json::Num(kill_failed_after as f64),
        ));
        fields.push(("failure_rate".to_string(), Json::Num(round4(failure_rate))));
    }

    Json::Obj(vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("experiment_doc".to_string(), Json::Str("EXPERIMENTS.md".into())),
        ("shards".to_string(), Json::Num(cfg.shards as f64)),
        ("replication".to_string(), Json::Num(cfg.replication as f64)),
        ("connections".to_string(), Json::Num(cfg.connections as f64)),
        ("pipeline".to_string(), Json::Num(cfg.pipeline as f64)),
        ("runs_per_cell".to_string(), Json::Num(cfg.runs as f64)),
        (
            "results".to_string(),
            Json::Arr(vec![
                row("single_daemon", 1, single_t, single_qps),
                row("router", cfg.shards, router_t, router_qps),
                kill_row,
            ]),
        ),
        (
            "summary".to_string(),
            Json::Obj(vec![
                ("router_shards".to_string(), Json::Num(cfg.shards as f64)),
                ("router_qps".to_string(), Json::Num(round2(router_qps))),
                ("single_daemon_qps".to_string(), Json::Num(round2(single_qps))),
                // CI pin 1: the fleet keeps a bounded fraction of
                // single-daemon throughput despite the extra hop.
                (
                    "router_efficiency".to_string(),
                    Json::Num(round4(router_qps / single_qps.max(1e-9))),
                ),
                // CI pin 2: almost no failures once the router has had a
                // probe interval to absorb the shard kill.
                (
                    "router_kill_failure_rate".to_string(),
                    Json::Num(round4(failure_rate)),
                ),
                (
                    "router_kill_failed_total".to_string(),
                    Json::Num(kill_failed as f64),
                ),
            ]),
        ),
    ])
}

/// Validate an emitted `BENCH_*.json` document: it must parse, carry the
/// schema marker, and every result row must have the expected keys.  Used by
/// `experiments --check` (and so by CI) to keep the harness honest.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("missing or wrong \"schema\" (expected {SCHEMA:?})"));
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing \"results\" array")?;
    if results.is_empty() {
        return Err("\"results\" is empty".into());
    }
    let mut engines_seen: Vec<String> = Vec::new();
    for (i, row) in results.iter().enumerate() {
        for key in ROW_KEYS {
            row.get(key).ok_or(format!("results[{i}] is missing {key:?}"))?;
        }
        let median = row
            .get("median_us")
            .and_then(Json::as_f64)
            .ok_or(format!("results[{i}].median_us is not a number"))?;
        if !median.is_finite() || median < 0.0 {
            return Err(format!("results[{i}].median_us = {median} is not a valid timing"));
        }
        if let Some(engine) = row.get("engine").and_then(Json::as_str) {
            if !engines_seen.iter().any(|e| e == engine) {
                engines_seen.push(engine.to_string());
            }
        }
    }
    let experiment_of = |row: &Json| {
        row.get("experiment")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let has_e10 = results
        .iter()
        .any(|r| experiment_of(r).as_deref() == Some("repeated_query_workload"));
    let corpus_rows: Vec<&Json> = results
        .iter()
        .filter(|r| experiment_of(r).as_deref() == Some("corpus_serving"))
        .collect();
    let lazy_rows: Vec<&Json> = results
        .iter()
        .filter(|r| experiment_of(r).as_deref() == Some("lazy_large_documents"))
        .collect();
    let daemon_rows: Vec<&Json> = results
        .iter()
        .filter(|r| experiment_of(r).as_deref() == Some("daemon_serving"))
        .collect();
    let router_rows: Vec<&Json> = results
        .iter()
        .filter(|r| experiment_of(r).as_deref() == Some("router_serving"))
        .collect();
    let incr_rows: Vec<&Json> = results
        .iter()
        .filter(|r| experiment_of(r).as_deref() == Some("incr_maintenance"))
        .collect();
    if has_e10 as usize
        + (!corpus_rows.is_empty()) as usize
        + (!lazy_rows.is_empty()) as usize
        + (!daemon_rows.is_empty()) as usize
        + (!router_rows.is_empty()) as usize
        + (!incr_rows.is_empty()) as usize
        == 0
    {
        return Err(
            "no repeated_query_workload, corpus_serving, lazy_large_documents, \
             daemon_serving, router_serving or incr_maintenance rows in \"results\""
                .into(),
        );
    }
    let summary = doc.get("summary").ok_or("missing \"summary\"")?;
    if has_e10 {
        for required in ["ppl_cached", "ppl_cold"] {
            if !engines_seen.iter().any(|e| e == required) {
                return Err(format!("no {required:?} rows in \"results\""));
            }
        }
        for key in ["largest_tree_size", "cold_median_us", "cached_median_us", "cached_speedup"] {
            summary
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("summary.{key} missing or not a number"))?;
        }
    }
    // E13 corpus documents must sweep the pooled, budgeted and cold-rebuild
    // serving modes, tag every row with the document count, and summarise
    // the pooled-vs-cold ratio.
    if !corpus_rows.is_empty() {
        for required in ["corpus_pool", "cold_rebuild", "corpus_budget_half", "corpus_budget_quarter"] {
            if !engines_seen.iter().any(|e| e == required) {
                return Err(format!("corpus rows present but no {required:?} rows"));
            }
        }
        for (i, row) in corpus_rows.iter().enumerate() {
            for key in ["docs", "threads", "answers", "pool_bytes"] {
                let value = row
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("corpus row {i} is missing \"{key}\""))?;
                if !value.is_finite() || value < 0.0 {
                    return Err(format!("corpus row {i} has invalid {key} = {value}"));
                }
            }
        }
        for key in [
            "corpus_docs",
            "corpus_working_set_bytes",
            "corpus_pool_us",
            "corpus_cold_us",
            "corpus_speedup",
            "corpus_budget_half_us",
            "corpus_budget_quarter_us",
            "corpus_budget_quarter_evictions",
        ] {
            let value = summary
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("summary.{key} missing or not a number"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!("summary.{key} = {value} is not valid"));
            }
        }
    }
    // E14 lazy documents must carry both the lazy rows and the eager
    // baseline, account store occupancy per row, and summarise the two
    // pinned claims (speedup at the pin size, bytes/node ceiling).
    if !lazy_rows.is_empty() {
        for (_, required) in LAZY_MODES {
            if !engines_seen.iter().any(|e| e == required) {
                return Err(format!("lazy rows present but no {required:?} rows"));
            }
        }
        for (i, row) in lazy_rows.iter().enumerate() {
            for key in ["answers", "store_bytes", "bytes_per_node"] {
                let value = row
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("lazy row {i} is missing \"{key}\""))?;
                if !value.is_finite() || value < 0.0 {
                    return Err(format!("lazy row {i} has invalid {key} = {value}"));
                }
            }
        }
        for key in [
            "lazy_largest_tree_size",
            "lazy_pin_tree_size",
            "lazy_pin_us",
            "eager_pin_us",
            "lazy_speedup",
            "lazy_bytes_per_node",
        ] {
            let value = summary
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("summary.{key} missing or not a number"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!("summary.{key} = {value} is not valid"));
            }
        }
    }
    // E15 daemon documents must sweep the serving loop, tag every row with
    // its connection count and throughput, and summarise the QPS pin.
    if !daemon_rows.is_empty() {
        if !engines_seen.iter().any(|e| e == DAEMON_ROW) {
            return Err(format!("daemon rows present but no {DAEMON_ROW:?} rows"));
        }
        for (i, row) in daemon_rows.iter().enumerate() {
            for key in ["connections", "workers", "qps"] {
                let value = row
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("daemon row {i} is missing \"{key}\""))?;
                if !value.is_finite() || value <= 0.0 {
                    return Err(format!("daemon row {i} has invalid {key} = {value}"));
                }
            }
        }
        for key in ["daemon_pin_conns", "daemon_epoll_pin_qps"] {
            let value = summary
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("summary.{key} missing or not a number"))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("summary.{key} = {value} is not valid"));
            }
        }
    }
    // E16 router documents must carry the single-daemon baseline, the
    // healthy router row and the shard-kill row, tag every row with its
    // shard count and throughput, and summarise the efficiency and
    // failure-rate pins.
    if !router_rows.is_empty() {
        for required in ROUTER_MODES {
            if !engines_seen.iter().any(|e| e == required) {
                return Err(format!("router rows present but no {required:?} rows"));
            }
        }
        for (i, row) in router_rows.iter().enumerate() {
            for key in ["connections", "shards", "qps"] {
                let value = row
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("router row {i} is missing \"{key}\""))?;
                if !value.is_finite() || value <= 0.0 {
                    return Err(format!("router row {i} has invalid {key} = {value}"));
                }
            }
            if row.get("engine").and_then(Json::as_str) == Some("router_kill") {
                for key in ["failed_requests", "requests_after_recovery", "failure_rate"] {
                    let value = row
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or(format!("router kill row is missing \"{key}\""))?;
                    if !value.is_finite() || value < 0.0 {
                        return Err(format!("router kill row has invalid {key} = {value}"));
                    }
                }
            }
        }
        for key in [
            "router_shards",
            "router_qps",
            "single_daemon_qps",
            "router_efficiency",
            "router_kill_failure_rate",
        ] {
            let value = summary
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("summary.{key} missing or not a number"))?;
            // The kill failure rate is legitimately 0.0; everything else
            // must be strictly positive.
            let floor_ok =
                value >= 0.0 && (key == "router_kill_failure_rate" || value > 0.0);
            if !value.is_finite() || !floor_ok {
                return Err(format!("summary.{key} = {value} is not valid"));
            }
        }
    }
    // E17 incremental-maintenance documents must carry both arms, count
    // answers and edits per row, account the invalidated-row locality on the
    // incremental rows, and summarise the speedup and row-fraction pins.
    if !incr_rows.is_empty() {
        for required in INCR_MODES {
            if !engines_seen.iter().any(|e| e == required) {
                return Err(format!("incr rows present but no {required:?} rows"));
            }
        }
        for (i, row) in incr_rows.iter().enumerate() {
            for key in ["answers", "edits"] {
                let value = row
                    .get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("incr row {i} is missing \"{key}\""))?;
                if !value.is_finite() || value <= 0.0 {
                    return Err(format!("incr row {i} has invalid {key} = {value}"));
                }
            }
            if row.get("engine").and_then(Json::as_str) == Some("edit_incremental") {
                for key in ["rows_invalidated", "rows_total"] {
                    let value = row
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or(format!("incr row {i} is missing \"{key}\""))?;
                    if !value.is_finite() || value < 0.0 {
                        return Err(format!("incr row {i} has invalid {key} = {value}"));
                    }
                }
            }
        }
        for key in [
            "incr_pin_tree_size",
            "incr_pin_us",
            "full_pin_us",
            "incr_speedup",
            "incr_rows_invalidated",
            "incr_rows_total",
            "incr_rows_fraction",
            "incr_largest_speedup",
        ] {
            let value = summary
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("summary.{key} missing or not a number"))?;
            // Row invalidation counts can legitimately be 0 on a relabel-only
            // round; the timings and the speedups must be strictly positive.
            let floor_ok = value >= 0.0
                && (key.starts_with("incr_rows") || value > 0.0);
            if !value.is_finite() || !floor_ok {
                return Err(format!("summary.{key} = {value} is not valid"));
            }
        }
    }
    // Documents carrying E12 planner rows must sweep auto plus every forced
    // engine; serving rows must come in shared/isolated pairs with a
    // threads column, and the summary must carry the serving ratios.
    let has_planner = results.iter().any(|r| {
        r.get("experiment").and_then(Json::as_str) == Some("planner")
    });
    if has_planner {
        for (_, required) in PLANNER_MODES {
            if !engines_seen.iter().any(|e| e == required) {
                return Err(format!("planner rows present but no {required:?} rows"));
            }
        }
    }
    let serving: Vec<&Json> = results
        .iter()
        .filter(|r| r.get("experiment").and_then(Json::as_str) == Some("concurrent_serving"))
        .collect();
    if !serving.is_empty() {
        for required in ["serve_shared", "serve_isolated"] {
            if !engines_seen.iter().any(|e| e == required) {
                return Err(format!("serving rows present but no {required:?} rows"));
            }
        }
        for (i, row) in serving.iter().enumerate() {
            let threads = row
                .get("threads")
                .and_then(Json::as_f64)
                .ok_or(format!("serving row {i} is missing \"threads\""))?;
            if threads < 1.0 {
                return Err(format!("serving row {i} has invalid threads = {threads}"));
            }
        }
        let summary = doc.get("summary").ok_or("missing \"summary\"")?;
        for key in [
            "serve_max_threads",
            "serve_shared_t1_us",
            "serve_shared_tmax_us",
            "serve_isolated_tmax_us",
            "shared_vs_isolated_speedup",
            "thread_scaling",
        ] {
            let value = summary
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("summary.{key} missing or not a number"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!("summary.{key} = {value} is not valid"));
            }
        }
    }
    // Documents carrying E11 kernel-ablation rows must sweep every kernel
    // mode and summarise the adaptive-vs-dense ratio.
    let has_ablation = results.iter().any(|r| {
        r.get("experiment").and_then(Json::as_str) == Some("kernel_ablation")
    });
    if has_ablation {
        for (_, required) in KERNEL_MODES {
            if !engines_seen.iter().any(|e| e == required) {
                return Err(format!("kernel ablation rows present but no {required:?} rows"));
            }
        }
        for key in ["kernel_largest_tree_size", "adaptive_speedup", "adaptive_threaded_speedup"] {
            let value = summary
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("summary.{key} missing or not a number"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!("summary.{key} = {value} is not a valid ratio"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_compiles_and_mixes_arities() {
        let suite = suite_plans(&Session::from_tree(sweep_tree(20)), Engine::Ppl);
        assert_eq!(suite.len(), 6);
        assert!(suite.iter().any(|q| q.output().len() == 2));
        assert!(suite.iter().any(|q| q.output().len() == 1));
        // At least one union-bearing query (excluded from the ACQ engine)
        // and at least four union-free ones.
        let union_free = suite.iter().filter(|q| q.features().union_free).count();
        assert!(union_free >= 4);
        assert!(union_free < suite.len());
    }

    #[test]
    fn smoke_regression_emits_a_valid_document() {
        let doc = run_regression(&RegressConfig::smoke());
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        // The smoke sweep must exercise every engine, including naive.
        let parsed = Json::parse(&text).unwrap();
        let engines: Vec<&str> = parsed
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|r| r.get("engine").and_then(Json::as_str))
            .collect();
        for required in ["ppl_cached", "ppl_cold", "acq", "naive"] {
            assert!(engines.contains(&required), "missing engine {required}");
        }
        // Cached rows expose the cache counters.
        let cached_row = parsed
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|r| r.get("engine").and_then(Json::as_str) == Some("ppl_cached"))
            .unwrap();
        assert!(cached_row.get("cache_hits").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn axis_suite_compiles_and_exercises_structured_kernels() {
        let suite = axis_suite();
        assert_eq!(suite.len(), AXIS_SUITE.len());
        // Compiling the suite on a smoke-sized tree must dispatch interval
        // and sparse kernels (the whole point of the ablation) and agree
        // with the dense baseline pair-for-pair.
        let tree = sweep_tree(32);
        let mut adaptive = MatrixStore::with_mode(tree.len(), KernelMode::Adaptive);
        let mut dense = MatrixStore::with_mode(tree.len(), KernelMode::Dense);
        for b in &suite {
            assert_eq!(
                adaptive.eval_relation(&tree, b).pairs(),
                dense.eval_relation(&tree, b).pairs(),
            );
        }
        let k = adaptive.kernel_stats();
        assert!(k.step_interval > 0, "{k:?}");
        assert!(k.step_sparse > 0, "{k:?}");
        assert!(k.product_sparse + k.product_interval > 0, "{k:?}");
        let kd = dense.kernel_stats();
        assert_eq!(kd.step_identity + kd.step_interval + kd.step_sparse, 0, "{kd:?}");
    }

    #[test]
    fn smoke_regression_with_kernels_emits_ablation_rows() {
        let doc = run_regression_with_kernels(&RegressConfig::smoke(), &KernelConfig::smoke());
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let engines: Vec<&str> = parsed
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|r| r.get("experiment").and_then(Json::as_str) == Some("kernel_ablation"))
            .filter_map(|r| r.get("engine").and_then(Json::as_str))
            .collect();
        for (_, name) in KERNEL_MODES {
            assert!(engines.contains(&name), "missing {name} rows");
        }
        let summary = parsed.get("summary").unwrap();
        assert!(summary.get("adaptive_speedup").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn smoke_full_regression_emits_planner_and_serving_rows() {
        let doc = run_regression_full(
            &RegressConfig::smoke(),
            &KernelConfig::smoke(),
            &ServeConfig::smoke(),
        );
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let rows = parsed.get("results").unwrap().as_arr().unwrap();
        for (_, name) in PLANNER_MODES {
            assert!(
                rows.iter().any(|r| r.get("engine").and_then(Json::as_str) == Some(name)),
                "missing {name} rows"
            );
        }
        let serving: Vec<_> = rows
            .iter()
            .filter(|r| {
                r.get("experiment").and_then(Json::as_str) == Some("concurrent_serving")
            })
            .collect();
        // shared + isolated at every swept thread count.
        assert_eq!(serving.len(), 2 * ServeConfig::smoke().threads.len());
        // All serving cells agree on the answer total.
        let answers: Vec<f64> = serving
            .iter()
            .filter_map(|r| r.get("answers").and_then(Json::as_f64))
            .collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
        let summary = parsed.get("summary").unwrap();
        assert!(summary.get("shared_vs_isolated_speedup").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(summary.get("thread_scaling").and_then(Json::as_f64).unwrap() > 0.0);
        let choices = summary.get("planner_auto_choices").and_then(Json::as_str).unwrap();
        assert!(!choices.is_empty());
    }

    #[test]
    fn validator_rejects_serving_rows_without_summary_keys() {
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [\
             {{\"experiment\": \"repeated_query_workload\", \"engine\": \"ppl_cached\", \
               \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
               \"median_us\": 1.0}},\
             {{\"experiment\": \"repeated_query_workload\", \"engine\": \"ppl_cold\", \
               \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
               \"median_us\": 1.0}},\
             {{\"experiment\": \"concurrent_serving\", \"engine\": \"serve_shared\", \
               \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
               \"threads\": 1, \"median_us\": 1.0}},\
             {{\"experiment\": \"concurrent_serving\", \"engine\": \"serve_isolated\", \
               \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
               \"threads\": 1, \"median_us\": 1.0}}],\
             \"summary\": {{\"largest_tree_size\": 1, \"cold_median_us\": 1, \
             \"cached_median_us\": 1, \"cached_speedup\": 1}}}}"
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("serve") || err.contains("shared"), "{err}");
        // A serving row without a threads column is rejected too.
        let no_threads = doc.replace("\"threads\": 1, ", "");
        let err = validate_bench_json(&no_threads).unwrap_err();
        assert!(err.contains("threads"), "{err}");
    }

    #[test]
    fn validator_rejects_kernel_documents_without_summary_ratios() {
        // An ablation row without the kernel summary keys must fail.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [\
             {{\"experiment\": \"repeated_query_workload\", \"engine\": \"ppl_cached\", \
               \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
               \"median_us\": 1.0}},\
             {{\"experiment\": \"repeated_query_workload\", \"engine\": \"ppl_cold\", \
               \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
               \"median_us\": 1.0}},\
             {{\"experiment\": \"kernel_ablation\", \"engine\": \"kernel_dense\", \
               \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
               \"median_us\": 1.0}}],\
             \"summary\": {{\"largest_tree_size\": 1, \"cold_median_us\": 1, \
             \"cached_median_us\": 1, \"cached_speedup\": 1}}}}"
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("kernel"), "{err}");
    }

    #[test]
    fn smoke_corpus_bench_emits_a_valid_document() {
        let doc = run_corpus_bench(&CorpusBenchConfig::smoke());
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let rows = parsed.get("results").unwrap().as_arr().unwrap();
        for (_, name) in CORPUS_MODES {
            assert!(
                rows.iter().any(|r| r.get("engine").and_then(Json::as_str) == Some(name)),
                "missing {name} rows"
            );
        }
        // All serving modes agree on the answer total.
        let answers: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.get("answers").and_then(Json::as_f64))
            .collect();
        assert_eq!(answers.len(), CORPUS_MODES.len() + 1, "corpus modes + cold_rebuild");
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
        // Budgeted rows must actually evict.
        let quarter = rows
            .iter()
            .find(|r| r.get("engine").and_then(Json::as_str) == Some("corpus_budget_quarter"))
            .unwrap();
        let evictions = quarter.get("cache_evictions").and_then(Json::as_f64).unwrap()
            + quarter.get("session_evictions").and_then(Json::as_f64).unwrap();
        assert!(evictions > 0.0, "a quarter budget must evict");
        let summary = parsed.get("summary").unwrap();
        assert!(summary.get("corpus_speedup").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(summary.get("corpus_working_set_bytes").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn validator_rejects_corpus_documents_without_summary_keys() {
        let row = |engine: &str| {
            format!(
                "{{\"experiment\": \"corpus_serving\", \"engine\": \"{engine}\", \
                 \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
                 \"docs\": 1, \"threads\": 1, \"answers\": 1, \"pool_bytes\": 0, \
                 \"median_us\": 1.0}}"
            )
        };
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}, {}, {}, {}], \
             \"summary\": {{\"corpus_docs\": 1}}}}",
            row("corpus_pool"),
            row("corpus_budget_half"),
            row("corpus_budget_quarter"),
            row("cold_rebuild"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("corpus_"), "{err}");
        // A corpus document missing a serving mode is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}], \
             \"summary\": {{\"corpus_docs\": 1}}}}",
            row("corpus_pool"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("cold_rebuild"), "{err}");
        // A document with neither E10 nor corpus rows is rejected outright.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [\
             {{\"experiment\": \"other\", \"engine\": \"x\", \"tree_size\": 1, \
               \"workload_queries\": 1, \"workload_repeats\": 1, \"median_us\": 1.0}}], \
             \"summary\": {{}}}}"
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("corpus_serving"), "{err}");
    }

    #[test]
    fn lazy_bench_emits_a_valid_document_at_tiny_sizes() {
        // Not `LazyBenchConfig::smoke()` — its 10k documents are sized for
        // the release-built CI harness, not the debug test profile.
        let cfg = LazyBenchConfig {
            tree_sizes: vec![300, 600],
            eager_max_size: 300,
            runs: 1,
        };
        let doc = run_lazy_bench(&cfg);
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let rows = parsed.get("results").unwrap().as_arr().unwrap();
        // Lazy at both sizes, eager only at the pin size.
        let engine_sizes: Vec<(&str, f64)> = rows
            .iter()
            .map(|r| {
                (
                    r.get("engine").and_then(Json::as_str).unwrap(),
                    r.get("tree_size").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        assert!(engine_sizes.contains(&("kernel_lazy", 300.0)));
        assert!(engine_sizes.contains(&("kernel_lazy", 600.0)));
        assert!(engine_sizes.contains(&("kernel_adaptive_threaded", 300.0)));
        assert!(!engine_sizes.contains(&("kernel_adaptive_threaded", 600.0)));
        // Every row accounts its store occupancy.
        for row in rows {
            assert!(row.get("store_bytes").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(row.get("bytes_per_node").and_then(Json::as_f64).unwrap() > 0.0);
        }
        let summary = parsed.get("summary").unwrap();
        assert_eq!(
            summary.get("lazy_largest_tree_size").and_then(Json::as_f64),
            Some(600.0)
        );
        assert_eq!(summary.get("lazy_pin_tree_size").and_then(Json::as_f64), Some(300.0));
        assert!(summary.get("lazy_speedup").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(summary.get("lazy_bytes_per_node").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn validator_rejects_lazy_documents_without_summary_keys() {
        let row = |engine: &str| {
            format!(
                "{{\"experiment\": \"lazy_large_documents\", \"engine\": \"{engine}\", \
                 \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
                 \"answers\": 1, \"store_bytes\": 1, \"bytes_per_node\": 1, \
                 \"median_us\": 1.0}}"
            )
        };
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}, {}], \
             \"summary\": {{\"lazy_largest_tree_size\": 1}}}}",
            row("kernel_lazy"),
            row("kernel_adaptive_threaded"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("lazy_"), "{err}");
        // A lazy document without the eager baseline is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}], \
             \"summary\": {{\"lazy_largest_tree_size\": 1}}}}",
            row("kernel_lazy"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("kernel_adaptive_threaded"), "{err}");
        // A lazy row without store accounting is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}, {}], \
             \"summary\": {{\"lazy_largest_tree_size\": 1, \"lazy_pin_tree_size\": 1, \
             \"lazy_pin_us\": 1, \"eager_pin_us\": 1, \"lazy_speedup\": 1, \
             \"lazy_bytes_per_node\": 1}}}}",
            row("kernel_lazy").replace("\"store_bytes\": 1, ", ""),
            row("kernel_adaptive_threaded"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("store_bytes"), "{err}");
    }

    #[test]
    fn incr_bench_emits_a_valid_document_at_tiny_sizes() {
        // Not `IncrBenchConfig::smoke()` — its documents are sized for the
        // release-built CI harness, not the debug test profile.
        let cfg = IncrBenchConfig {
            tree_sizes: vec![300],
            lazy_min_size: 100_000,
            runs: 1,
        };
        let doc = run_incr_bench(&cfg);
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let rows = parsed.get("results").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), INCR_MODES.len());
        for (row, name) in rows.iter().zip(INCR_MODES) {
            assert_eq!(row.get("engine").and_then(Json::as_str), Some(name));
            assert!(row.get("answers").and_then(Json::as_f64).unwrap() > 0.0);
            assert_eq!(row.get("edits").and_then(Json::as_f64), Some(1.0));
        }
        // Only the incremental arm accounts row invalidation, and it must be
        // a small fraction of the carried cache.
        let incr = &rows[0];
        let invalidated = incr.get("rows_invalidated").and_then(Json::as_f64).unwrap();
        let total = incr.get("rows_total").and_then(Json::as_f64).unwrap();
        assert!(total > 0.0);
        assert!(invalidated < total, "{invalidated} of {total} rows dirty");
        assert!(rows[1].get("rows_total").is_none());
        let summary = parsed.get("summary").unwrap();
        assert_eq!(summary.get("incr_pin_tree_size").and_then(Json::as_f64), Some(300.0));
        assert!(summary.get("incr_speedup").and_then(Json::as_f64).unwrap() > 0.0);
        let fraction = summary.get("incr_rows_fraction").and_then(Json::as_f64).unwrap();
        assert!((0.0..1.0).contains(&fraction), "{fraction}");
    }

    #[test]
    fn validator_rejects_incr_documents_without_summary_keys() {
        let row = |engine: &str, locality: &str| {
            format!(
                "{{\"experiment\": \"incr_maintenance\", \"engine\": \"{engine}\", \
                 \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
                 \"answers\": 1, \"edits\": 3, {locality}\"median_us\": 1.0}}"
            )
        };
        let rows = format!(
            "{}, {}",
            row("edit_incremental", "\"rows_invalidated\": 1, \"rows_total\": 10, "),
            row("edit_full", ""),
        );
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{rows}], \
             \"summary\": {{\"incr_pin_tree_size\": 1}}}}"
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("incr_"), "{err}");
        // An incr document without the full-recompile baseline is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}], \
             \"summary\": {{\"incr_pin_tree_size\": 1}}}}",
            row("edit_incremental", "\"rows_invalidated\": 1, \"rows_total\": 10, "),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("edit_full"), "{err}");
        // An incremental row without locality accounting is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}, {}], \
             \"summary\": {{\"incr_pin_tree_size\": 1, \"incr_pin_us\": 1, \
             \"full_pin_us\": 1, \"incr_speedup\": 1, \"incr_rows_invalidated\": 1, \
             \"incr_rows_total\": 10, \"incr_rows_fraction\": 0.1, \
             \"incr_largest_speedup\": 1}}}}",
            row("edit_incremental", ""),
            row("edit_full", ""),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("rows_invalidated"), "{err}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn smoke_daemon_bench_emits_a_valid_document() {
        let doc = run_daemon_bench(&DaemonBenchConfig::smoke());
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let rows = parsed.get("results").unwrap().as_arr().unwrap();
        // One serving-loop row per swept connection count.
        assert_eq!(rows.len(), DaemonBenchConfig::smoke().connections.len());
        for row in rows {
            assert_eq!(row.get("engine").and_then(Json::as_str), Some(DAEMON_ROW));
            assert!(row.get("qps").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(row.get("connections").and_then(Json::as_f64).unwrap() >= 1.0);
        }
        let summary = parsed.get("summary").unwrap();
        assert_eq!(summary.get("daemon_pin_conns").and_then(Json::as_f64), Some(8.0));
        assert!(summary.get("daemon_epoll_pin_qps").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(summary.get("daemon_speedup").is_none(), "no threads baseline is run");
    }

    #[test]
    fn validator_rejects_daemon_documents_without_summary_keys() {
        let row = |engine: &str| {
            format!(
                "{{\"experiment\": \"daemon_serving\", \"engine\": \"{engine}\", \
                 \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
                 \"connections\": 1, \"workers\": 1, \"qps\": 1, \"median_us\": 1.0}}"
            )
        };
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}, {}], \
             \"summary\": {{\"daemon_pin_conns\": 1}}}}",
            row("daemon_epoll"),
            row("daemon_threads"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("daemon_"), "{err}");
        // A daemon document without serving-loop rows is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}], \
             \"summary\": {{\"daemon_pin_conns\": 1, \"daemon_epoll_pin_qps\": 1}}}}",
            row("daemon_threads"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("daemon_epoll"), "{err}");
        // A daemon row without a throughput column is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}], \
             \"summary\": {{\"daemon_pin_conns\": 1, \"daemon_epoll_pin_qps\": 1}}}}",
            row("daemon_epoll").replace("\"qps\": 1, ", ""),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("qps"), "{err}");
    }

    #[test]
    fn smoke_router_bench_emits_a_valid_document() {
        let doc = run_router_bench(&RouterBenchConfig::smoke());
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let rows = parsed.get("results").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), ROUTER_MODES.len());
        for name in ROUTER_MODES {
            assert!(
                rows.iter().any(|r| r.get("engine").and_then(Json::as_str) == Some(name)),
                "missing {name} row"
            );
        }
        for row in rows {
            assert!(row.get("qps").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(row.get("shards").and_then(Json::as_f64).unwrap() >= 1.0);
        }
        let kill = rows
            .iter()
            .find(|r| r.get("engine").and_then(Json::as_str) == Some("router_kill"))
            .unwrap();
        assert!(kill.get("requests_after_recovery").and_then(Json::as_f64).unwrap() > 0.0);
        let summary = parsed.get("summary").unwrap();
        assert!(summary.get("router_efficiency").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(summary.get("router_kill_failure_rate").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn validator_rejects_router_documents_without_summary_keys() {
        let row = |engine: &str| {
            format!(
                "{{\"experiment\": \"router_serving\", \"engine\": \"{engine}\", \
                 \"tree_size\": 1, \"workload_queries\": 1, \"workload_repeats\": 1, \
                 \"connections\": 1, \"shards\": 1, \"qps\": 1, \"median_us\": 1.0, \
                 \"failed_requests\": 0, \"requests_after_recovery\": 1, \
                 \"failure_rate\": 0}}"
            )
        };
        let rows = format!("{}, {}, {}", row("router"), row("single_daemon"), row("router_kill"));
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{rows}], \
             \"summary\": {{\"router_shards\": 1}}}}"
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("router_"), "{err}");
        // A router document without the kill phase is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}, {}], \
             \"summary\": {{\"router_shards\": 1}}}}",
            row("router"),
            row("single_daemon"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("router_kill"), "{err}");
        // A kill row without its failure accounting is rejected.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{}, {}, {}], \
             \"summary\": {{\"router_shards\": 1, \"router_qps\": 1, \
             \"single_daemon_qps\": 1, \"router_efficiency\": 1, \
             \"router_kill_failure_rate\": 0}}}}",
            row("router"),
            row("single_daemon"),
            row("router_kill").replace("\"failure_rate\": 0", "\"unrelated\": 0"),
        );
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("failure_rate"), "{err}");
        // A full summary with all five keys passes.
        let doc = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{rows}], \
             \"summary\": {{\"router_shards\": 1, \"router_qps\": 1, \
             \"single_daemon_qps\": 1, \"router_efficiency\": 1, \
             \"router_kill_failure_rate\": 0}}}}"
        );
        validate_bench_json(&doc).unwrap();
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").is_err());
        assert!(
            validate_bench_json(&format!("{{\"schema\": \"{SCHEMA}\", \"results\": []}}"))
                .is_err()
        );
        let missing_key = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{{\"engine\": \"ppl_cached\"}}]}}"
        );
        let err = validate_bench_json(&missing_key).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }
}
