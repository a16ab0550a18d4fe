//! The regression sweeps behind `experiments --bench` (E10–E17 of
//! EXPERIMENTS.md), the `BENCH_*.json` documents they write, and the one
//! table every such document is checked against.
//!
//! * [`SWEEPS`] — the runners: E10, the repeated-query workload (with the
//!   E11 kernel ablation and the E12 planner/serving sweep in the same
//!   document), and E13, E14, E16, E17.  `--smoke` shrinks every dimension.
//! * [`EXPERIMENTS`] — one entry per row tag: the engines, the row and
//!   summary keys, and whether rows at one tree size agree on `answers`.
//!   Every `--bench` run checks its document against it before writing.
//! * [`CLAIMS`] — what the committed files claim, `{file, key, op, bound}`,
//!   checked by `experiments --check` and by this module's tests.

use crate::json::Json;
use crate::{forced_plan, time_median};
use ppl_xpath::{Engine, Planner, QueryPlan, Session};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use xpath_acq::{answer_acq, hcl_to_acq};
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::{parse_path, BinExpr, PathExpr, Var};
use xpath_pplbin::{KernelMode, MatrixStore};
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_tree::Tree;

/// Schema identifier written into every emitted file.
pub const SCHEMA: &str = "ppl-xpath-bench/v1";

/// The two sizes of a sweep's dimensions.
pub trait Sizes {
    /// The full sweep, the one that produced the committed `BENCH_*.json`.
    fn full() -> Self;
    /// Tiny sizes, for smoke runs in CI and in tests.
    fn smoke() -> Self;
}

/// The `--smoke` sizes if `smoke`, else the full ones.
fn pick<C: Sizes>(smoke: bool) -> C {
    if smoke {
        C::smoke()
    } else {
        C::full()
    }
}

/// Sweep dimensions of the E10 repeated-query workload.
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

impl Sizes for RegressConfig {
    fn full() -> RegressConfig {
        RegressConfig {
            tree_sizes: vec![60, 120, 240, 480],
            repeats: 8,
            runs: 5,
            naive_max_size: 60,
        }
    }

    fn smoke() -> RegressConfig {
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

impl Sizes for KernelConfig {
    /// The full ablation used to produce `BENCH_3.json` (≥ 960 nodes at the
    /// top as required by EXPERIMENTS.md E11).
    fn full() -> KernelConfig {
        KernelConfig {
            tree_sizes: vec![120, 240, 480, 960],
            runs: 7,
        }
    }

    fn smoke() -> KernelConfig {
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

impl Sizes for ServeConfig {
    /// The full E12 sweep used to produce `BENCH_4.json`.
    fn full() -> ServeConfig {
        ServeConfig {
            planner_tree_size: 180,
            serve_tree_size: 480,
            threads: vec![1, 2, 4, 8],
            repeats: 8,
            runs: 5,
        }
    }

    fn smoke() -> ServeConfig {
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

impl Sizes for CorpusBenchConfig {
    /// The full sweep used to produce `BENCH_5.json`.
    fn full() -> CorpusBenchConfig {
        CorpusBenchConfig {
            docs: 6,
            base_size: 100,
            repeats: 6,
            runs: 5,
            threads: 4,
        }
    }

    fn smoke() -> CorpusBenchConfig {
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

impl Sizes for LazyBenchConfig {
    /// The full sweep used to produce `BENCH_6.json` (|t| ∈ {10k, 100k},
    /// two orders of magnitude past the BENCH_3 ablation top of 960).
    fn full() -> LazyBenchConfig {
        LazyBenchConfig {
            tree_sizes: vec![10_000, 100_000],
            eager_max_size: 10_000,
            runs: 5,
        }
    }

    /// CI smoke validation: the |t|=10k band only (release builds answer it
    /// in well under a second per run), fewer runs.
    fn smoke() -> LazyBenchConfig {
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

impl Sizes for RouterBenchConfig {
    /// The full sweep used to produce `BENCH_8.json`: a 4-shard router
    /// versus one daemon under 64 pipelined connections.
    fn full() -> RouterBenchConfig {
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

    fn smoke() -> RouterBenchConfig {
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

/// Sweep dimensions of the E17 relabel experiment.
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

impl Sizes for IncrBenchConfig {
    /// The full sweep used to produce `BENCH_9.json`: |t| ∈ {10k, 100k},
    /// the two bands E14 established for the eager and lazy kernels.
    fn full() -> IncrBenchConfig {
        IncrBenchConfig {
            tree_sizes: vec![10_000, 100_000],
            lazy_min_size: 100_000,
            runs: 5,
        }
    }

    /// CI smoke validation: the pin size only, fewer runs (like E14's
    /// smoke, the 10k documents are sized for the release-built harness).
    fn smoke() -> IncrBenchConfig {
        IncrBenchConfig {
            tree_sizes: vec![10_000],
            lazy_min_size: 100_000,
            runs: 2,
        }
    }
}

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
            format!("descendant::l0[not({f1})][. is $x] union descendant::l1[not({f3})][. is $x]"),
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
/// Returns the result rows plus the summary members, taken at the largest
/// size.
fn run_kernel_ablation(cfg: &KernelConfig) -> (Vec<Json>, Vec<Member>) {
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
            agree(
                &mut reference_pairs,
                pairs,
                format_args!("{name} at |t|={size}"),
            );
            mode_us[i] = us(t);
            // Kernel dispatch counters, measured outside the timer.
            let mut store = MatrixStore::with_mode(tree.len(), mode);
            for b in &suite {
                store.eval_relation(&tree, b);
            }
            let k = store.kernel_stats();
            let structured_steps = k.step_identity + k.step_interval + k.step_sparse;
            let structured_products = k.product_trivial + k.product_interval + k.product_sparse;
            rows.push(row(
                "kernel_ablation",
                name,
                [size, suite.len(), 1],
                t,
                [
                    ("answers", Json::Num(pairs as f64)),
                    (
                        "kernel_steps_structured",
                        Json::Num(structured_steps as f64),
                    ),
                    ("kernel_steps_dense", Json::Num(k.step_dense as f64)),
                    (
                        "kernel_products_structured",
                        Json::Num(structured_products as f64),
                    ),
                    ("kernel_products_dense", Json::Num(k.product_dense as f64)),
                    (
                        "kernel_products_threaded",
                        Json::Num(k.product_dense_threaded as f64),
                    ),
                ],
            ));
        }
        summary = Some((size, mode_us[0], mode_us[1], mode_us[2]));
    }
    let (ksize, dense_us, adaptive_us, threaded_us) = summary.expect("at least one tree size");
    let summary = vec![
        ("kernel_largest_tree_size", Json::Num(ksize as f64)),
        ("kernel_dense_median_us", Json::Num(dense_us)),
        ("kernel_adaptive_median_us", Json::Num(adaptive_us)),
        ("kernel_adaptive_threaded_median_us", Json::Num(threaded_us)),
        (
            "adaptive_speedup",
            Json::Num(round2(dense_us / adaptive_us.max(0.1))),
        ),
        (
            "adaptive_threaded_speedup",
            Json::Num(round2(dense_us / threaded_us.max(0.1))),
        ),
    ];
    (rows, summary)
}

/// `specs` — (query, output variables) pairs of an `xpath_workload` suite —
/// planned against `session`, with `engine` forced unless `None`.
fn plan_specs(
    session: &Session,
    specs: &[(String, Vec<String>)],
    engine: Option<Engine>,
) -> Vec<QueryPlan> {
    let planner = Planner::default();
    specs
        .iter()
        .map(|(src, vars)| {
            let path = parse_path(src).expect("suite query parses");
            let output = vars.iter().map(|n| Var::new(n)).collect();
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
            .map(|chunk| scope.spawn(move || answer_all(&Session::from_tree(tree.clone()), chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    })
}

/// Run the E12 planner/concurrency sweep.  Returns the result rows plus the
/// summary members to merge into the document summary.
fn run_planner_concurrency(cfg: &ServeConfig) -> (Vec<Json>, Vec<Member>) {
    let mut rows: Vec<Json> = Vec::new();

    // -- planner comparison: auto vs forced engines, cold per run ----------
    let planner_tree = sweep_tree(cfg.planner_tree_size);
    let plan_session = Session::from_tree(planner_tree.clone());
    let suite_len = xpath_workload::planner_mix_suite().len();
    let mut reference_answers: Option<usize> = None;
    let mut auto_us = 0.0f64;
    let mut auto_choices = String::new();
    for (engine, name) in PLANNER_MODES {
        let plans = plan_specs(&plan_session, &xpath_workload::planner_mix_suite(), engine);
        let (t, answers) = time_median(cfg.runs, || {
            answer_all(&Session::from_tree(planner_tree.clone()), &plans)
        });
        agree(&mut reference_answers, answers, name);
        let mut extra = vec![("answers", Json::Num(answers as f64))];
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
            extra.push(("chosen_engines", Json::Str(auto_choices.clone())));
        }
        rows.push(row(
            "planner",
            name,
            [cfg.planner_tree_size, suite_len, 1],
            t,
            extra,
        ));
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
        assert_eq!(
            shared_answers, iso_answers,
            "serving architectures disagree"
        );
        agree(
            &mut serve_reference,
            shared_answers,
            format_args!("{threads} threads"),
        );
        for (name, t, answers) in [
            ("serve_shared", shared_t, shared_answers),
            ("serve_isolated", iso_t, iso_answers),
        ] {
            let shape = [cfg.serve_tree_size, suite().len(), cfg.repeats];
            rows.push(row(
                "concurrent_serving",
                name,
                shape,
                t,
                [
                    ("threads", Json::Num(threads as f64)),
                    ("answers", Json::Num(answers as f64)),
                ],
            ));
        }
        shared_by_threads.push((threads, us(shared_t)));
        isolated_by_threads.push((threads, us(iso_t)));
    }

    let (t1, shared_t1) = shared_by_threads[0];
    assert_eq!(t1, 1, "the first swept thread count must be 1");
    let &(tmax, shared_tmax) = shared_by_threads.last().expect("threads non-empty");
    let &(_, isolated_tmax) = isolated_by_threads.last().expect("threads non-empty");
    let summary = vec![
        ("planner_tree_size", Json::Num(cfg.planner_tree_size as f64)),
        ("planner_auto_us", Json::Num(auto_us)),
        ("planner_auto_choices", Json::Str(auto_choices)),
        ("serve_tree_size", Json::Num(cfg.serve_tree_size as f64)),
        ("serve_max_threads", Json::Num(tmax as f64)),
        ("serve_shared_t1_us", Json::Num(shared_t1)),
        ("serve_shared_tmax_us", Json::Num(shared_tmax)),
        ("serve_isolated_tmax_us", Json::Num(isolated_tmax)),
        // The headline: under tmax-thread load, one shared Session vs the
        // pre-Session architecture (tmax isolated single-threaded workers,
        // each recompiling its own matrices).
        (
            "shared_vs_isolated_speedup",
            Json::Num(round2(isolated_tmax / shared_tmax.max(0.1))),
        ),
        // Wall-clock thread scaling of the shared path itself (≈1.0 on a
        // single hardware thread; >1 with real cores).
        (
            "thread_scaling",
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

/// Execute every plan on `session`; returns the total answer count.
fn answer_all(session: &Session, plans: &[QueryPlan]) -> usize {
    plans
        .iter()
        .map(|p| session.execute(p).expect("suite plan answers").len())
        .sum()
}

/// Record the first answer count of a cell in `reference`; every later
/// count, from another engine or mode on the same input, must equal it.
fn agree(reference: &mut Option<usize>, answers: usize, what: impl std::fmt::Display) {
    let first = *reference.get_or_insert(answers);
    assert_eq!(first, answers, "{what} disagrees with the first cell");
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// A result row: the [`ROW_KEYS`] members, `[tree_size, workload_queries,
/// workload_repeats]` among them, then `extra`.
fn row(
    experiment: &str,
    engine: &str,
    [tree_size, queries, repeats]: [usize; 3],
    median: Duration,
    extra: impl IntoIterator<Item = Member>,
) -> Json {
    let members = [
        ("experiment", Json::Str(experiment.into())),
        ("engine", Json::Str(engine.into())),
        ("tree_size", Json::Num(tree_size as f64)),
        ("workload_queries", Json::Num(queries as f64)),
        ("workload_repeats", Json::Num(repeats as f64)),
        ("median_us", Json::Num(us(median))),
    ];
    Json::obj(members.into_iter().chain(extra))
}

/// A member of a document, a row or a summary.
type Member = (&'static str, Json);

/// A `BENCH_*.json` document: the schema, `header`, the rows and the summary.
fn document<K: Into<String>>(
    header: impl IntoIterator<Item = Member>,
    results: Vec<Json>,
    summary: impl IntoIterator<Item = (K, Json)>,
) -> Json {
    let mut members = vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("experiment_doc", Json::Str("EXPERIMENTS.md".into())),
    ];
    members.extend(header);
    members.push(("results", Json::Arr(results)));
    members.push(("summary", Json::obj(summary)));
    Json::obj(members)
}

/// The header of a tree-size sweep's document.
fn sweep_header(sizes: &[usize], queries: usize, repeats: usize, runs: usize) -> Vec<Member> {
    vec![
        (
            "tree_sizes",
            Json::Arr(sizes.iter().map(|&v| Json::Num(v as f64)).collect()),
        ),
        ("suite_queries", Json::Num(queries as f64)),
        ("workload_repeats", Json::Num(repeats as f64)),
        ("runs_per_cell", Json::Num(runs as f64)),
    ]
}

/// Run the E10 sweep — the [`suite`] answered by `ppl_cached`, `ppl_cold`,
/// `acq` and `naive` — the E11 kernel ablation and the E12
/// planner/concurrency sweep into one document (the shape committed as
/// `BENCH_4.json`; `BENCH_2.json` and `BENCH_3.json` predate E11 and E12).
pub fn run_regression(cfg: &RegressConfig, kernels: &KernelConfig, serve: &ServeConfig) -> Json {
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
            .filter(|p| p.hcl().is_some_and(|h| h.is_union_free()))
            .collect();

        // ppl_cached — answer_batch over a fresh session each run, so each
        // timed run pays exactly one compilation of each distinct subterm.
        let (cached_t, cached_answers) = time_median(cfg.runs, || {
            let session = Session::from_tree(tree.clone());
            let answers = session
                .answer_batch(&workload)
                .expect("suite queries answer");
            answers.iter().map(|a| a.len()).sum::<usize>()
        });
        // Cache counters for the same workload, measured outside the timer.
        let stats_session = Session::from_tree(tree.clone());
        stats_session
            .answer_batch(&workload)
            .expect("suite queries answer");
        let stats = stats_session.cache_stats();
        let e10 = |engine, queries, repeats, t, answers: usize, extra: Vec<_>| {
            let answers = ("answers", Json::Num(answers as f64));
            let extra = std::iter::once(answers).chain(extra);
            row(
                "repeated_query_workload",
                engine,
                [size, queries, repeats],
                t,
                extra,
            )
        };
        results.push(e10(
            "ppl_cached",
            suite.len(),
            cfg.repeats,
            cached_t,
            cached_answers,
            vec![
                ("cache_hits", Json::Num(stats.hits as f64)),
                ("cache_misses", Json::Num(stats.misses as f64)),
            ],
        ));

        // ppl_cold — per-query recompilation, same workload.
        let (cold_t, cold_answers) = time_median(cfg.runs, || {
            answer_all(&Session::from_tree(tree.clone()), &cold_workload)
        });
        agree(
            &mut Some(cached_answers),
            cold_answers,
            format_args!("ppl_cold at |t|={size}"),
        );
        results.push(e10(
            "ppl_cold",
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
        results.push(e10(
            "acq",
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
            let naive_total = naive_answers * cfg.repeats;
            agree(
                &mut Some(cold_answers),
                naive_total,
                format_args!("naive at |t|={size}"),
            );
            results.push(e10("naive", suite.len(), 1, naive_t, naive_answers, vec![]));
        }
    }

    let (largest, cold_us, cached_us) = summary.expect("at least one tree size");
    let mut summary_members = vec![
        ("largest_tree_size", Json::Num(largest as f64)),
        ("cold_median_us", Json::Num(cold_us)),
        ("cached_median_us", Json::Num(cached_us)),
        (
            "cached_speedup",
            Json::Num(round2(cold_us / cached_us.max(0.1))),
        ),
    ];
    for (rows, summary) in [run_kernel_ablation(kernels), run_planner_concurrency(serve)] {
        results.extend(rows);
        summary_members.extend(summary);
    }
    let header = sweep_header(&cfg.tree_sizes, suite().len(), cfg.repeats, cfg.runs);
    document(header, results, summary_members)
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
    let specs: Vec<(String, Vec<&str>)> = parsed
        .iter()
        .map(|(path, output)| (path.to_string(), output.iter().map(Var::name).collect()))
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
                let docs = corpus
                    .answer_all(source, vars)
                    .expect("suite queries answer");
                for doc in docs {
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

    let corpus_row =
        |engine: &str, t: Duration, answers: usize, stats: xpath_corpus::CorpusStats| {
            row(
                "corpus_serving",
                engine,
                [total_nodes, specs.len(), cfg.repeats],
                t,
                [
                    ("docs", Json::Num(cfg.docs as f64)),
                    ("threads", Json::Num(cfg.threads as f64)),
                    ("answers", Json::Num(answers as f64)),
                    ("pool_bytes", Json::Num(stats.pool_bytes as f64)),
                    ("cache_evictions", Json::Num(stats.cache_evictions as f64)),
                    (
                        "session_evictions",
                        Json::Num(stats.session_evictions as f64),
                    ),
                    ("rebuilds", Json::Num(stats.rebuilds as f64)),
                    ("plan_hits", Json::Num(stats.plan_hits as f64)),
                ],
            )
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
        agree(&mut Some(reference_answers), answers, name);
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
            let evictions = stats.cache_evictions + stats.session_evictions;
            budget_summary.push((format!("{name}_us"), Json::Num(us(t))));
            budget_summary.push((format!("{name}_evictions"), Json::Num(evictions as f64)));
        }
    }

    // The pre-corpus architecture: every request builds a fresh session —
    // plan + full matrix compilation per (document, query, repeat) — with
    // the kernels the corpus's own sessions use.
    let (cold_t, cold_answers) = time_median(cfg.runs, || {
        let planner = Planner::default();
        let mut answers = 0usize;
        for _ in 0..cfg.repeats {
            for (path, output) in &parsed {
                for (_, tree) in &documents {
                    let session = Session::from_tree(tree.clone());
                    session.store().set_mode(xpath_corpus::SESSION_KERNELS);
                    let plan = planner
                        .plan_with(&session, path.clone(), output.clone(), Some(Engine::Ppl))
                        .expect("suite queries plan");
                    answers += session.execute(&plan).expect("suite queries answer").len();
                }
            }
        }
        answers
    });
    agree(&mut Some(reference_answers), cold_answers, "cold_rebuild");
    rows.push(corpus_row(
        "cold_rebuild",
        cold_t,
        cold_answers,
        Default::default(),
    ));

    let summary = [
        ("corpus_docs", Json::Num(cfg.docs as f64)),
        ("corpus_total_nodes", Json::Num(total_nodes as f64)),
        ("corpus_working_set_bytes", Json::Num(working_set as f64)),
        ("corpus_pool_us", Json::Num(pool_us)),
        ("corpus_cold_us", Json::Num(us(cold_t))),
        // The headline, a committed claim: pooled sessions vs per-request
        // rebuild on the same workload and engine.
        (
            "corpus_speedup",
            Json::Num(round2(us(cold_t) / pool_us.max(0.1))),
        ),
    ];
    let summary = summary
        .map(|(k, v)| (k.to_string(), v))
        .into_iter()
        .chain(budget_summary);
    let header = [
        ("corpus_docs", Json::Num(cfg.docs as f64)),
        ("suite_queries", Json::Num(specs.len() as f64)),
        ("workload_repeats", Json::Num(cfg.repeats as f64)),
        ("runs_per_cell", Json::Num(cfg.runs as f64)),
    ];
    document(header, rows, summary)
}

/// Run the E14 lazy large-document sweep: the DBLP-style suite over
/// `xpath_tree::generate::dblp` documents at sizes far past the eager
/// kernels' |t|≈960 band.  The lazy pipeline (symbolic relation algebra +
/// per-row densification) answers every size; the eager adaptive-threaded
/// kernels answer up to [`LazyBenchConfig::eager_max_size`] as the speedup
/// baseline.  Returns a standalone `BENCH_6.json`-shaped document whose
/// summary carries the two claimed numbers: `lazy_speedup` (eager/lazy at
/// the pin size) and `lazy_bytes_per_node` (store occupancy ceiling).
pub fn run_lazy_bench(cfg: &LazyBenchConfig) -> Json {
    let specs = xpath_workload::dblp_suite();

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
        let plans = plan_specs(&Session::from_tree(tree.clone()), &specs, Some(Engine::Ppl));

        let mut reference: Option<usize> = None;
        let mut size_us = [None::<f64>; LAZY_MODES.len()];
        for (i, &(mode, name)) in LAZY_MODES.iter().enumerate() {
            if mode != KernelMode::Lazy && size > cfg.eager_max_size {
                continue; // eager kernels stop at the pin size by design
            }
            let (t, answers) = time_median(cfg.runs, || {
                let session = Session::from_tree(tree.clone());
                session.set_kernel_mode(mode);
                answer_all(&session, &plans)
            });
            agree(
                &mut reference,
                answers,
                format_args!("{name} at |t|={size}"),
            );
            assert!(answers > 0, "dblp suite selected nothing at |t|={size}");
            size_us[i] = Some(us(t));

            // Store occupancy after the full workload, measured outside the
            // timer: this is the honest `approx_bytes` the lazy layer is
            // accountable to (symbolic forms + materialised rows).
            let session = Session::from_tree(tree.clone());
            session.set_kernel_mode(mode);
            answer_all(&session, &plans);
            let bytes = session.store().approx_bytes();
            let bytes_per_node = bytes as f64 / size as f64;
            if mode == KernelMode::Lazy {
                worst_bytes_per_node = worst_bytes_per_node.max(bytes_per_node);
                largest_lazy = Some((size, us(t)));
            }
            rows.push(row(
                "lazy_large_documents",
                name,
                [size, specs.len(), 1],
                t,
                [
                    ("answers", Json::Num(answers as f64)),
                    ("store_bytes", Json::Num(bytes as f64)),
                    ("bytes_per_node", Json::Num(round2(bytes_per_node))),
                ],
            ));
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
    let header = sweep_header(&cfg.tree_sizes, specs.len(), 1, cfg.runs);
    document(
        header,
        rows,
        [
            ("lazy_largest_tree_size", Json::Num(largest as f64)),
            ("lazy_largest_us", Json::Num(lazy_largest_us)),
            ("lazy_pin_tree_size", Json::Num(pin_size as f64)),
            ("lazy_pin_us", Json::Num(lazy_pin_us)),
            ("eager_pin_us", Json::Num(eager_pin_us)),
            // The two headline claims of BENCH_6.json.
            (
                "lazy_speedup",
                Json::Num(round2(eager_pin_us / lazy_pin_us.max(0.1))),
            ),
            (
                "lazy_bytes_per_node",
                Json::Num(round2(worst_bytes_per_node)),
            ),
        ],
    )
}

/// Run the E17 relabel sweep: a warm session absorbs a single-node
/// relabel — one record's `title` — and re-answers the E14
/// [`xpath_workload::dblp_suite`].  The `edit_incremental` arm carries the
/// compiled matrices through the edit with [`Session::fork_edited`] (only
/// entries whose label footprint contains the edited labels recompile; the
/// dense `except`/`not` complements of the suite are untouched); the
/// `edit_full` arm builds a fresh session, replaying the full compilation
/// the suite needs.  Inserts and deletes are not swept: `fork_edited`
/// answers them with an empty store, which is the `edit_full` arm.
/// Returns a standalone `BENCH_9.json`-shaped document whose summary
/// carries `incr_speedup` (full / incremental at the pin size) and
/// `incr_rows_fraction` (rows of dropped entries over rows cached).
pub fn run_incr_bench(cfg: &IncrBenchConfig) -> Json {
    use std::sync::Arc;
    let specs = xpath_workload::dblp_suite();

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
        let plans_for = |session: &Session| plan_specs(session, &specs, Some(Engine::Ppl));
        let plans = plans_for(&Session::from_shared_tree(Arc::clone(&edited)));

        // The warm base session the incremental arm forks from.
        let warm = Session::from_tree(tree.clone());
        warm.set_kernel_mode(mode);
        answer_all(&warm, &plans_for(&warm));
        let warmed = warm.cache_stats();
        assert!(
            warmed.compiled + warmed.sets > 0,
            "base session must be warm"
        );

        // Edit-maintenance stats, measured once outside the timers.
        let (_, stats) = warm.fork_edited(Arc::clone(&edited), &delta);
        assert!(
            stats.rows_total > 0,
            "the warm cache must be carried through the edit"
        );

        let mut answers_reference: Option<usize> = None;
        let mut arm_us = [0.0f64; 2];
        for (arm, name) in ["edit_incremental", "edit_full"].into_iter().enumerate() {
            let (t, answers) = time_median(cfg.runs, || {
                let session = if arm == 0 {
                    warm.fork_edited(Arc::clone(&edited), &delta).0
                } else {
                    let cold = Session::from_shared_tree(Arc::clone(&edited));
                    cold.set_kernel_mode(mode);
                    cold
                };
                answer_all(&session, &plans)
            });
            agree(
                &mut answers_reference,
                answers,
                format_args!("{name} at |t|={size}"),
            );
            assert!(answers > 0, "dblp suite selected nothing at |t|={size}");
            arm_us[arm] = us(t);
            let kernel = if mode == KernelMode::Lazy {
                "lazy"
            } else {
                "adaptive_threaded"
            };
            let mut extra = vec![
                ("answers", Json::Num(answers as f64)),
                ("edits", Json::Num(1.0)),
                ("kernel", Json::Str(kernel.into())),
            ];
            if arm == 0 {
                extra.push(("rows_invalidated", Json::Num(stats.rows_invalidated as f64)));
                extra.push(("rows_total", Json::Num(stats.rows_total as f64)));
            }
            rows.push(row(
                "incr_maintenance",
                name,
                [size, specs.len(), 1],
                t,
                extra,
            ));
        }
        cells.push((
            size,
            arm_us[0],
            arm_us[1],
            stats.rows_invalidated,
            stats.rows_total,
        ));
    }

    let &(pin_size, incr_pin_us, full_pin_us, invalidated, total) =
        cells.first().expect("at least one swept size");
    let &(largest, incr_largest_us, full_largest_us, ..) =
        cells.last().expect("at least one swept size");
    let header = sweep_header(&cfg.tree_sizes, specs.len(), 1, cfg.runs);
    let fraction = invalidated as f64 / (total as f64).max(1.0);
    document(
        header,
        rows,
        [
            ("incr_pin_tree_size", Json::Num(pin_size as f64)),
            ("incr_pin_us", Json::Num(incr_pin_us)),
            ("full_pin_us", Json::Num(full_pin_us)),
            (
                "incr_speedup",
                Json::Num(round2(full_pin_us / incr_pin_us.max(0.1))),
            ),
            ("incr_rows_invalidated", Json::Num(invalidated as f64)),
            ("incr_rows_total", Json::Num(total as f64)),
            ("incr_rows_fraction", Json::Num(round4(fraction))),
            ("incr_largest_tree_size", Json::Num(largest as f64)),
            ("incr_largest_us", Json::Num(incr_largest_us)),
            (
                "incr_largest_speedup",
                Json::Num(round2(full_largest_us / incr_largest_us.max(0.1))),
            ),
        ],
    )
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
    use std::io::{BufRead, Write};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;
    use xpath_corpus::router::{FaultAction, Router, RouterConfig};
    use xpath_corpus::server::{bind, serve, ServeOptions};
    use xpath_corpus::Corpus;

    // Every document is the same medium tree: 72 subtrees of 5 nodes.  Big
    // enough that answering and rendering cost real backend work per
    // request (the router's relay overhead amortises), small enough that
    // E16 measures serving architecture, not query evaluation.
    let doc_shape = format!("r({})", vec!["a(b,b,c(b))"; 72].join(","));
    const DOC_NODES: usize = 361;
    let docs = cfg.docs.max(1);
    let request_line =
        move |i: usize| format!("QUERY bench_d{} descendant::b[. is $x] -> x", i % docs);

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
        let handle =
            std::thread::spawn(move || serve(listener, &Corpus::new(), &ServeOptions::default()));
        (addr, handle)
    };

    // Scripted control requests against a front door, on one connection;
    // each must succeed.
    let control = |addr: SocketAddr, lines: &[String]| {
        let stream = TcpStream::connect(addr).expect("bench control connection");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        for line in lines {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            assert!(
                read_response(&mut reader),
                "control request {line:?} failed"
            );
        }
    };
    let shutdown = |addr| control(addr, &["SHUTDOWN".to_string()]);
    let preload = |addr| {
        let loads: Vec<String> = (0..docs)
            .map(|k| format!("LOADTERMS bench_d{k} {doc_shape}"))
            .collect();
        control(addr, &loads)
    };

    // Pipelined sustained-throughput phase against one front door.
    // Returns the median wall time over `cfg.runs`.
    let per_conn = (cfg.total_requests / cfg.connections.max(1)).max(cfg.pipeline);
    let window = cfg.pipeline.min(per_conn);
    let total = per_conn * cfg.connections;
    let timed_phase = |addr: SocketAddr| -> Duration {
        let mut durations: Vec<Duration> = (0..cfg.runs)
            .map(|_| {
                let pipelined = |conns: &mut [Client]| {
                    let mut sent = 0usize;
                    while sent < per_conn {
                        let burst = window.min(per_conn - sent);
                        for (_, writer) in conns.iter_mut() {
                            for i in 0..burst {
                                writeln!(writer, "{}", request_line(sent + i)).unwrap();
                            }
                            writer.flush().unwrap();
                        }
                        for (reader, _) in conns.iter_mut() {
                            for _ in 0..burst {
                                assert!(read_response(reader), "healthy-fleet request failed");
                            }
                        }
                        sent += burst;
                    }
                };
                drive_clients(addr, cfg.connections, pipelined).1
            })
            .collect();
        durations.sort_unstable();
        durations[durations.len() / 2]
    };

    // ---- Phase 1: single-daemon baseline. -------------------------------
    let (addr, server) = spawn_backend();
    preload(addr);
    let single_t = timed_phase(addr);
    shutdown(addr);
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
        let handle =
            std::thread::spawn(move || serve(listener, &serving, &ServeOptions::default()));
        (backends, router, addr, handle)
    };
    let teardown_fleet =
        |backends: Vec<(SocketAddr, std::thread::JoinHandle<std::io::Result<()>>)>,
         addr: SocketAddr,
         handle: std::thread::JoinHandle<std::io::Result<()>>| {
            // The router answers SHUTDOWN, drains, then fans it out to
            // every shard.
            shutdown(addr);
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
    let completed = AtomicUsize::new(0);
    let killed_at: Mutex<Option<Instant>> = Mutex::new(None);
    let kill_after = total / 4;
    let recovery_gate = probe_interval * 2;
    let (counts, kill_t) = drive_clients(router_addr, cfg.connections, |conns| {
        // (failed, failed after recovery, issued after recovery) for this
        // thread's connections.
        let [mut failed, mut failed_after, mut after] = [0usize; 3];
        // The scripted requests, then more until this thread has issued one
        // past the recovery gate: a fast backend can finish the script
        // before the gate opens.
        let mut i = 0;
        while i < per_conn || after == 0 {
            for (reader, writer) in conns.iter_mut() {
                let started = Instant::now();
                writeln!(writer, "{}", request_line(i)).unwrap();
                writer.flush().unwrap();
                let ok = read_response(reader);
                let recovered = killed_at
                    .lock()
                    .unwrap()
                    .is_some_and(|at| started >= at + recovery_gate);
                after += recovered as usize;
                failed += !ok as usize;
                failed_after += (!ok && recovered) as usize;
                let n = completed.fetch_add(1, Ordering::Relaxed) + 1;
                if n >= kill_after && !dead.swap(true, Ordering::Relaxed) {
                    *killed_at.lock().unwrap() = Some(Instant::now());
                }
            }
            i += 1;
        }
        [failed, failed_after, after]
    });
    let [kill_failed, kill_failed_after, kill_after_recovery] =
        counts.iter().fold([0; 3], |sum, c| {
            [sum[0] + c[0], sum[1] + c[1], sum[2] + c[2]]
        });
    assert!(
        kill_after_recovery > 0,
        "the kill phase must issue requests after the recovery gate"
    );
    // Let the teardown SHUTDOWN reach shard 0 again (it is not actually
    // dead — only every router request to it was killed).
    dead.store(false, Ordering::Relaxed);
    teardown_fleet(backends, router_addr, router_handle);
    let kill_qps = completed.load(Ordering::Relaxed) as f64 / kill_t.as_secs_f64().max(1e-9);
    let failure_rate = kill_failed_after as f64 / kill_after_recovery as f64;

    let kill_accounting = [
        ("failed_requests", Json::Num(kill_failed as f64)),
        (
            "requests_after_recovery",
            Json::Num(kill_after_recovery as f64),
        ),
        ("failed_after_recovery", Json::Num(kill_failed_after as f64)),
        ("failure_rate", Json::Num(round4(failure_rate))),
    ];
    let results = [
        ("single_daemon", 1, single_t, single_qps),
        ("router", cfg.shards, router_t, router_qps),
        ("router_kill", cfg.shards, kill_t, kill_qps),
    ]
    .map(|(engine, shards, t, qps)| {
        let mut extra = vec![
            ("connections", Json::Num(cfg.connections as f64)),
            ("shards", Json::Num(shards as f64)),
            ("replication", Json::Num(cfg.replication as f64)),
            ("docs", Json::Num(docs as f64)),
            ("qps", Json::Num(round2(qps))),
        ];
        if engine == "router_kill" {
            extra.extend(kill_accounting.clone());
        }
        row(
            "router_serving",
            engine,
            [DOC_NODES, total, window],
            t,
            extra,
        )
    });
    let header = [
        ("shards", Json::Num(cfg.shards as f64)),
        ("replication", Json::Num(cfg.replication as f64)),
        ("connections", Json::Num(cfg.connections as f64)),
        ("pipeline", Json::Num(cfg.pipeline as f64)),
        ("runs_per_cell", Json::Num(cfg.runs as f64)),
    ];
    document(
        header,
        results.into(),
        [
            ("router_shards", Json::Num(cfg.shards as f64)),
            ("router_qps", Json::Num(round2(router_qps))),
            ("single_daemon_qps", Json::Num(round2(single_qps))),
            // Headline claim 1: the fleet keeps a bounded fraction of
            // single-daemon throughput despite the extra hop.
            (
                "router_efficiency",
                Json::Num(round4(router_qps / single_qps.max(1e-9))),
            ),
            // Headline claim 2: almost no failures once the router has had a
            // probe interval to absorb the shard kill.
            ("router_kill_failure_rate", Json::Num(round4(failure_rate))),
            ("router_kill_failed_total", Json::Num(kill_failed as f64)),
        ],
    )
}

/// One client connection of the E16 load generator.
type Client = (BufReader<TcpStream>, BufWriter<TcpStream>);

/// Open `connections` client connections to `addr`, spread over at most 64
/// threads (the generator must not itself become the scheduler load it
/// measures), park the threads on a barrier, then run `work` on each
/// thread's connections.  Returns every thread's result and the wall time
/// from the barrier to the last thread's end: connection setup is not
/// timed.
fn drive_clients<T: Send>(
    addr: SocketAddr,
    connections: usize,
    work: impl Fn(&mut [Client]) -> T + Sync,
) -> (Vec<T>, Duration) {
    let threads = connections.clamp(1, 64);
    let barrier = std::sync::Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|k| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    let mut conns: Vec<Client> = (0..(connections - k).div_ceil(threads))
                        .map(|_| {
                            let stream = TcpStream::connect(addr).expect("bench client connects");
                            stream.set_nodelay(true).unwrap();
                            (
                                BufReader::new(stream.try_clone().unwrap()),
                                BufWriter::new(stream),
                            )
                        })
                        .collect();
                    barrier.wait();
                    work(&mut conns)
                })
            })
            .collect();
        barrier.wait();
        let start = std::time::Instant::now();
        let results = clients
            .into_iter()
            .map(|c| c.join().expect("bench client must not panic"));
        (results.collect(), start.elapsed())
    })
}

/// A sweep `experiments --bench <id>` runs: its EXPERIMENTS.md id, the file
/// it writes unless `--out` says otherwise, and the runner at full or
/// `--smoke` sizes.
pub struct Sweep {
    pub id: &'static str,
    pub out: &'static str,
    pub run: fn(smoke: bool) -> Json,
}

/// Every sweep `experiments --bench` runs.  E10 writes one document with
/// E11 and E12 in it (the `BENCH_4.json` shape).  E15 is retired: its
/// committed `BENCH_7.json` stays in [`EXPERIMENTS`] and [`CLAIMS`].
pub const SWEEPS: [Sweep; 5] = [
    Sweep {
        id: "E10",
        out: "BENCH_4.json",
        run: |s| run_regression(&pick(s), &pick(s), &pick(s)),
    },
    Sweep {
        id: "E13",
        out: "BENCH_5.json",
        run: |s| run_corpus_bench(&pick(s)),
    },
    Sweep {
        id: "E14",
        out: "BENCH_6.json",
        run: |s| run_lazy_bench(&pick(s)),
    },
    Sweep {
        id: "E16",
        out: "BENCH_8.json",
        run: |s| run_router_bench(&pick(s)),
    },
    Sweep {
        id: "E17",
        out: "BENCH_9.json",
        run: |s| run_incr_bench(&pick(s)),
    },
];

/// How the table judges one row or summary value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// A finite number ≥ 0.
    Num,
    /// A finite number > 0.
    Pos,
    /// A finite number ≥ 0 and at most the same row's value of the named key.
    AtMost(&'static str),
    /// A string.
    Str,
    /// One of the listed strings.
    OneOf(&'static [&'static str]),
    /// The key must be absent.
    Absent,
}

impl Val {
    /// Why `value`, found in `row`, breaks this rule; `None` if it holds.
    fn violation(self, value: Option<&Json>, row: &Json) -> Option<String> {
        let Some(value) = value else {
            return (self != Val::Absent).then(|| "is missing".to_string());
        };
        let num = value.as_f64().filter(|v| v.is_finite());
        let (holds, expected) = match self {
            Val::Num => (num.is_some_and(|v| v >= 0.0), "a number >= 0".to_string()),
            Val::Pos => (num.is_some_and(|v| v > 0.0), "a number > 0".to_string()),
            Val::AtMost(key) => (
                num.zip(row.get(key).and_then(Json::as_f64))
                    .is_some_and(|(v, max)| (0.0..=max).contains(&v)),
                format!("a number in [0, {key}]"),
            ),
            Val::Str => (value.as_str().is_some(), "a string".to_string()),
            Val::OneOf(allowed) => (
                value.as_str().is_some_and(|s| allowed.contains(&s)),
                format!("one of {allowed:?}"),
            ),
            Val::Absent => (false, "absent".to_string()),
        };
        (!holds).then(|| format!("= {} is not {expected}", value.render().trim_end()))
    }
}

/// A key rows carry: every row of the experiment (`engine: None`) or the
/// rows of one engine.
#[derive(Debug, Clone, Copy)]
pub struct RowKey {
    pub engine: Option<&'static str>,
    pub key: &'static str,
    pub val: Val,
}

const fn every(key: &'static str, val: Val) -> RowKey {
    RowKey {
        engine: None,
        key,
        val,
    }
}

const fn only(engine: &'static str, key: &'static str, val: Val) -> RowKey {
    RowKey {
        engine: Some(engine),
        key,
        val,
    }
}

/// Keys every result row carries, whatever its experiment.
pub const ROW_KEYS: [RowKey; 6] = [
    every("experiment", Val::Str),
    every("engine", Val::Str),
    every("tree_size", Val::Num),
    every("workload_queries", Val::Num),
    every("workload_repeats", Val::Num),
    every("median_us", Val::Num),
];

/// One experiment of the `ppl-xpath-bench/v1` schema, as
/// [`validate_bench_json`] enforces it on the rows tagged with it.
#[derive(Debug)]
pub struct Experiment {
    /// The EXPERIMENTS.md id.
    pub id: &'static str,
    /// The rows' `experiment` value.
    pub tag: &'static str,
    /// The rows' `engine` values: each appears, and no other does.
    pub engines: &'static [&'static str],
    /// Row keys beyond [`ROW_KEYS`].
    pub row_keys: &'static [RowKey],
    /// Summary members of a document that has these rows.
    pub summary_keys: &'static [(&'static str, Val)],
    /// Whether rows at one `tree_size` report the same `answers`.
    pub answers_agree: bool,
}

/// The experiment table: one entry per row tag.  E12 tags two row kinds;
/// E15 is retired and kept for the committed `BENCH_7.json`.
pub const EXPERIMENTS: [Experiment; 9] = {
    use Val::*;
    [
        Experiment {
            id: "E10",
            tag: "repeated_query_workload",
            engines: &["ppl_cached", "ppl_cold", "acq", "naive"],
            row_keys: &[
                every("answers", Num),
                only("ppl_cached", "cache_hits", Num),
                only("ppl_cached", "cache_misses", Num),
            ],
            summary_keys: &[
                ("largest_tree_size", Pos),
                ("cold_median_us", Num),
                ("cached_median_us", Num),
                ("cached_speedup", Num),
            ],
            answers_agree: false,
        },
        Experiment {
            id: "E11",
            tag: "kernel_ablation",
            engines: &[
                "kernel_dense",
                "kernel_adaptive",
                "kernel_adaptive_threaded",
            ],
            row_keys: &[every("answers", Num)],
            summary_keys: &[
                ("kernel_largest_tree_size", Pos),
                ("kernel_dense_median_us", Num),
                ("kernel_adaptive_median_us", Num),
                ("kernel_adaptive_threaded_median_us", Num),
                ("adaptive_speedup", Num),
                ("adaptive_threaded_speedup", Num),
            ],
            answers_agree: true,
        },
        Experiment {
            id: "E12",
            tag: "planner",
            engines: &["planner_auto", "planner_ppl", "planner_acq", "planner_hcl"],
            row_keys: &[
                every("answers", Num),
                only("planner_auto", "chosen_engines", Str),
            ],
            summary_keys: &[
                ("planner_tree_size", Pos),
                ("planner_auto_us", Num),
                ("planner_auto_choices", Str),
            ],
            answers_agree: true,
        },
        Experiment {
            id: "E12",
            tag: "concurrent_serving",
            engines: &["serve_shared", "serve_isolated"],
            row_keys: &[every("threads", Pos), every("answers", Num)],
            summary_keys: &[
                ("serve_tree_size", Pos),
                ("serve_max_threads", Pos),
                ("serve_shared_t1_us", Num),
                ("serve_shared_tmax_us", Num),
                ("serve_isolated_tmax_us", Num),
                ("shared_vs_isolated_speedup", Num),
                ("thread_scaling", Num),
            ],
            answers_agree: true,
        },
        Experiment {
            id: "E13",
            tag: "corpus_serving",
            engines: &[
                "corpus_pool",
                "corpus_budget_half",
                "corpus_budget_quarter",
                "cold_rebuild",
            ],
            row_keys: &[
                every("docs", Pos),
                every("threads", Pos),
                every("answers", Num),
                every("pool_bytes", Num),
                every("cache_evictions", Num),
                every("session_evictions", Num),
            ],
            summary_keys: &[
                ("corpus_docs", Pos),
                ("corpus_working_set_bytes", Pos),
                ("corpus_pool_us", Num),
                ("corpus_cold_us", Num),
                ("corpus_speedup", Num),
                ("corpus_budget_half_us", Num),
                ("corpus_budget_quarter_us", Num),
                // The quarter-budget row's cache + session evictions: a
                // budget that small must evict.
                ("corpus_budget_quarter_evictions", Pos),
            ],
            answers_agree: true,
        },
        Experiment {
            id: "E14",
            tag: "lazy_large_documents",
            engines: &["kernel_lazy", "kernel_adaptive_threaded"],
            row_keys: &[
                every("answers", Num),
                every("store_bytes", Pos),
                every("bytes_per_node", Pos),
            ],
            summary_keys: &[
                ("lazy_largest_tree_size", Pos),
                ("lazy_largest_us", Num),
                ("lazy_pin_tree_size", Pos),
                ("lazy_pin_us", Num),
                ("eager_pin_us", Num),
                ("lazy_speedup", Num),
                ("lazy_bytes_per_node", Num),
            ],
            answers_agree: true,
        },
        Experiment {
            id: "E15",
            tag: "daemon_serving",
            engines: &["daemon_epoll", "daemon_threads"],
            row_keys: &[
                every("connections", Pos),
                every("workers", Pos),
                every("qps", Pos),
            ],
            summary_keys: &[
                ("daemon_pin_conns", Pos),
                ("daemon_epoll_pin_qps", Pos),
                ("daemon_threads_pin_qps", Pos),
                ("daemon_speedup", Pos),
            ],
            answers_agree: false,
        },
        Experiment {
            id: "E16",
            tag: "router_serving",
            engines: &["single_daemon", "router", "router_kill"],
            row_keys: &[
                every("connections", Pos),
                every("shards", Pos),
                every("qps", Pos),
                only("router_kill", "failed_requests", Num),
                only("router_kill", "requests_after_recovery", Pos),
                only(
                    "router_kill",
                    "failed_after_recovery",
                    AtMost("requests_after_recovery"),
                ),
                only("router_kill", "failure_rate", Num),
            ],
            summary_keys: &[
                ("router_shards", Pos),
                ("router_qps", Pos),
                ("single_daemon_qps", Pos),
                ("router_efficiency", Pos),
                ("router_kill_failure_rate", Num),
            ],
            answers_agree: false,
        },
        Experiment {
            id: "E17",
            tag: "incr_maintenance",
            engines: &["edit_incremental", "edit_full"],
            row_keys: &[
                every("answers", Pos),
                every("edits", Pos),
                every("kernel", OneOf(&["adaptive_threaded", "lazy"])),
                only("edit_incremental", "rows_total", Num),
                only("edit_incremental", "rows_invalidated", AtMost("rows_total")),
                only("edit_full", "rows_invalidated", Absent),
            ],
            summary_keys: &[
                ("incr_pin_tree_size", Pos),
                ("incr_pin_us", Pos),
                ("full_pin_us", Pos),
                ("incr_speedup", Pos),
                ("incr_rows_invalidated", Num),
                ("incr_rows_total", Num),
                ("incr_rows_fraction", Num),
                ("incr_largest_speedup", Pos),
            ],
            answers_agree: true,
        },
    ]
};

/// A comparison a [`Claim`] makes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Ge,
    Gt,
    Le,
    Lt,
}

impl Op {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Ge => value >= bound,
            Op::Gt => value > bound,
            Op::Le => value <= bound,
            Op::Lt => value < bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Ge => ">=",
            Op::Gt => ">",
            Op::Le => "<=",
            Op::Lt => "<",
        }
    }
}

/// A claim a committed file makes: `key op bound`.  `key` is a summary
/// member, `results[k=v,…]` (the number of rows matching every `k=v`), or
/// `results[k=v,…].field` (the least `field` over those rows).
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    pub file: &'static str,
    pub key: &'static str,
    pub op: Op,
    pub bound: f64,
}

const fn claim(file: &'static str, key: &'static str, op: Op, bound: f64) -> Claim {
    Claim {
        file,
        key,
        op,
        bound,
    }
}

/// The committed claims, keyed by file: a number in one `BENCH_*.json` says
/// nothing about another (`BENCH_4.json` measures `adaptive_speedup` 1.92,
/// so the ≥2× kernel claim is `BENCH_3.json`'s alone).
pub const CLAIMS: [Claim; 25] = {
    use Op::*;
    [
        claim("BENCH_2.json", "cached_speedup", Ge, 2.0),
        claim("BENCH_3.json", "adaptive_speedup", Ge, 2.0),
        claim("BENCH_3.json", "kernel_largest_tree_size", Ge, 960.0),
        claim("BENCH_4.json", "shared_vs_isolated_speedup", Ge, 1.3),
        claim("BENCH_4.json", "serve_max_threads", Ge, 8.0),
        claim("BENCH_5.json", "corpus_speedup", Ge, 1.5),
        claim("BENCH_5.json", "corpus_docs", Ge, 6.0),
        claim("BENCH_6.json", "lazy_speedup", Ge, 1.5),
        claim("BENCH_6.json", "lazy_bytes_per_node", Le, 512.0),
        claim("BENCH_6.json", "lazy_largest_tree_size", Ge, 100_000.0),
        claim("BENCH_6.json", "lazy_pin_tree_size", Ge, 10_000.0),
        claim(
            "BENCH_6.json",
            "results[engine=kernel_lazy,tree_size=10000]",
            Ge,
            1.0,
        ),
        claim(
            "BENCH_6.json",
            "results[engine=kernel_lazy,tree_size=100000]",
            Ge,
            1.0,
        ),
        claim("BENCH_7.json", "daemon_pin_conns", Ge, 64.0),
        claim("BENCH_7.json", "daemon_speedup", Ge, 1.5),
        claim("BENCH_7.json", "results[engine=daemon_epoll]", Ge, 1.0),
        claim("BENCH_7.json", "results[engine=daemon_threads]", Ge, 1.0),
        claim("BENCH_8.json", "router_shards", Ge, 4.0),
        claim("BENCH_8.json", "router_efficiency", Ge, 0.6),
        claim("BENCH_8.json", "router_kill_failure_rate", Lt, 0.01),
        claim(
            "BENCH_8.json",
            "results[engine=router_kill].requests_after_recovery",
            Gt,
            0.0,
        ),
        claim("BENCH_9.json", "incr_pin_tree_size", Ge, 10_000.0),
        claim("BENCH_9.json", "incr_speedup", Ge, 2.0),
        claim("BENCH_9.json", "incr_rows_fraction", Gt, 0.0),
        claim("BENCH_9.json", "incr_rows_fraction", Lt, 0.5),
    ]
};

/// Whether `row` matches every `k=v` of a claim's `results[…]` selector.
fn row_matches(row: &Json, selector: &str) -> bool {
    selector.split(',').all(|kv| {
        kv.split_once('=').is_some_and(|(k, v)| match row.get(k) {
            Some(Json::Str(s)) => s == v,
            Some(Json::Num(n)) => v.parse::<f64>() == Ok(*n),
            _ => false,
        })
    })
}

/// The value a claim's `key` names in `doc` (see [`Claim`]).
fn claim_value(doc: &Json, key: &str) -> Option<f64> {
    let Some(rest) = key.strip_prefix("results[") else {
        return doc.get("summary")?.get(key)?.as_f64();
    };
    let (selector, field) = rest.split_once(']')?;
    let rows = doc
        .get("results")?
        .as_arr()?
        .iter()
        .filter(|r| row_matches(r, selector));
    match field.strip_prefix('.') {
        None => Some(rows.count() as f64),
        Some(field) => rows.filter_map(|r| r.get(field)?.as_f64()).reduce(f64::min),
    }
}

/// Every way `doc` breaks the experiment table.
fn table_violations(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        errors.push(format!("missing or wrong \"schema\" (expected {SCHEMA:?})"));
    }
    let rows = match doc.get("results").and_then(Json::as_arr) {
        Some(rows) if !rows.is_empty() => rows,
        _ => {
            errors.push("missing or empty \"results\" array".into());
            return errors;
        }
    };
    fn text<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap_or("")
    }
    let mut present: Vec<&Experiment> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let (tag, engine) = (text(row, "experiment"), text(row, "engine"));
        let Some(exp) = EXPERIMENTS.iter().find(|e| e.tag == tag) else {
            errors.push(format!("results[{i}] has unknown experiment {tag:?}"));
            continue;
        };
        if !present.iter().any(|e| e.tag == tag) {
            present.push(exp);
        }
        if !exp.engines.contains(&engine) {
            errors.push(format!("results[{i}]: {engine:?} is not a {tag} engine"));
        }
        for rk in ROW_KEYS.iter().chain(exp.row_keys) {
            if rk.engine.is_none_or(|e| e == engine) {
                if let Some(why) = rk.val.violation(row.get(rk.key), row) {
                    errors.push(format!("results[{i}] ({tag}/{engine}).{} {why}", rk.key));
                }
            }
        }
    }
    let summary = doc.get("summary");
    for exp in present {
        let tagged: Vec<&Json> = rows
            .iter()
            .filter(|r| text(r, "experiment") == exp.tag)
            .collect();
        for engine in exp.engines {
            if !tagged.iter().any(|r| text(r, "engine") == *engine) {
                errors.push(format!("{} rows present but no {engine:?} rows", exp.tag));
            }
        }
        if exp.answers_agree {
            let mut first: Vec<(f64, f64)> = Vec::new();
            for r in &tagged {
                let (Some(size), Some(answers)) = (
                    r.get("tree_size").and_then(Json::as_f64),
                    r.get("answers").and_then(Json::as_f64),
                ) else {
                    continue;
                };
                match first.iter().find(|(s, _)| *s == size) {
                    None => first.push((size, answers)),
                    Some(&(_, a)) if a != answers => errors.push(format!(
                        "{} rows at tree_size {size} disagree on answers ({a} vs {answers})",
                        exp.tag
                    )),
                    Some(_) => {}
                }
            }
        }
        for &(key, val) in exp.summary_keys {
            if let Some(why) = val.violation(summary.and_then(|s| s.get(key)), &Json::Null) {
                errors.push(format!("summary.{key} {why}"));
            }
        }
    }
    errors
}

/// Check `text`, the contents of a file named `name`, against the table and
/// against every claim [`CLAIMS`] keys by `name`.  Returns the number of
/// claims checked, or every violation.
pub fn check_file(name: &str, text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let mut errors = table_violations(&doc);
    let claims: Vec<&Claim> = CLAIMS.iter().filter(|c| c.file == name).collect();
    for c in &claims {
        let stated = format!("claim {} {} {}", c.key, c.op.symbol(), c.bound);
        match claim_value(&doc, c.key) {
            None => errors.push(format!("{stated}: no such value")),
            Some(v) if !c.op.holds(v, c.bound) => errors.push(format!("{stated} fails: {v}")),
            Some(_) => {}
        }
    }
    match errors.is_empty() {
        true => Ok(claims.len()),
        false => Err(errors.join("; ")),
    }
}

/// Validate an emitted document against the experiment table (no claims):
/// what every `experiments --bench` run checks before it writes its file.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    check_file("", text).map(|_| ())
}

/// [`check_file`] on every `BENCH_*.json` in `dir` and on every file a claim
/// names, in name order: `experiments --check` with no path, run from the
/// repository root.
pub fn check_committed(dir: &std::path::Path) -> Vec<(String, Result<usize, String>)> {
    let mut names: Vec<String> = CLAIMS.iter().map(|c| c.file.to_string()).collect();
    if let Ok(entries) = std::fs::read_dir(dir) {
        names.extend(
            entries
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json")),
        );
    }
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let result = std::fs::read_to_string(dir.join(&name))
                .map_err(|e| format!("cannot read: {e}"))
                .and_then(|text| check_file(&name, &text));
            (name, result)
        })
        .collect()
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
        let union_free = suite
            .iter()
            .filter(|q| q.hcl().is_some_and(|h| h.is_union_free()))
            .count();
        assert!(union_free >= 4);
        assert!(union_free < suite.len());
    }

    /// `doc` rendered, validated against the table and parsed back.
    fn validated(doc: Json) -> Json {
        let text = doc.render();
        validate_bench_json(&text).unwrap();
        Json::parse(&text).unwrap()
    }

    fn smoke_regression() -> Json {
        let (cfg, kernels, serve) = (Sizes::smoke(), Sizes::smoke(), Sizes::smoke());
        validated(run_regression(&cfg, &kernels, &serve))
    }

    /// The [`EXPERIMENTS`] entry of row tag `tag`.
    fn experiment(tag: &str) -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.tag == tag).unwrap()
    }

    fn results(doc: &Json) -> &[Json] {
        doc.get("results").and_then(Json::as_arr).unwrap()
    }

    fn engine(row: &Json) -> &str {
        row.get("engine").and_then(Json::as_str).unwrap()
    }

    #[test]
    fn smoke_regression_emits_a_valid_document() {
        let parsed = smoke_regression();
        // The smoke sweep must exercise every engine, including naive.
        let engines: Vec<&str> = results(&parsed).iter().map(engine).collect();
        for required in ["ppl_cached", "ppl_cold", "acq", "naive"] {
            assert!(engines.contains(&required), "missing engine {required}");
        }
        // Cached rows expose the cache counters.
        let cached_row = results(&parsed)
            .iter()
            .find(|r| engine(r) == "ppl_cached")
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
        assert_eq!(
            kd.step_identity + kd.step_interval + kd.step_sparse,
            0,
            "{kd:?}"
        );
    }

    #[test]
    fn smoke_regression_with_kernels_emits_ablation_rows() {
        let parsed = smoke_regression();
        let engines: Vec<&str> = results(&parsed)
            .iter()
            .filter(|r| r.get("experiment").and_then(Json::as_str) == Some("kernel_ablation"))
            .map(engine)
            .collect();
        for (_, name) in KERNEL_MODES {
            assert!(engines.contains(&name), "missing {name} rows");
        }
        let summary = parsed.get("summary").unwrap();
        assert!(
            summary
                .get("adaptive_speedup")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn smoke_full_regression_emits_planner_and_serving_rows() {
        let parsed = smoke_regression();
        let rows = results(&parsed);
        for (_, name) in PLANNER_MODES {
            assert!(
                rows.iter().any(|r| engine(r) == name),
                "missing {name} rows"
            );
        }
        let serving: Vec<_> = rows
            .iter()
            .filter(|r| r.get("experiment").and_then(Json::as_str) == Some("concurrent_serving"))
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
        assert!(
            summary
                .get("shared_vs_isolated_speedup")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(
            summary
                .get("thread_scaling")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        let choices = summary
            .get("planner_auto_choices")
            .and_then(Json::as_str)
            .unwrap();
        assert!(!choices.is_empty());
    }

    #[test]
    fn smoke_corpus_bench_emits_a_valid_document() {
        let parsed = validated(run_corpus_bench(&CorpusBenchConfig::smoke()));
        let rows = results(&parsed);
        for (_, name) in CORPUS_MODES {
            assert!(
                rows.iter().any(|r| engine(r) == name),
                "missing {name} rows"
            );
        }
        // All serving modes agree on the answer total.
        let answers: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.get("answers").and_then(Json::as_f64))
            .collect();
        assert_eq!(
            answers.len(),
            CORPUS_MODES.len() + 1,
            "corpus modes + cold_rebuild"
        );
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
        // Budgeted rows must actually evict.
        let quarter = rows
            .iter()
            .find(|r| engine(r) == "corpus_budget_quarter")
            .unwrap();
        let evictions = quarter
            .get("cache_evictions")
            .and_then(Json::as_f64)
            .unwrap()
            + quarter
                .get("session_evictions")
                .and_then(Json::as_f64)
                .unwrap();
        assert!(evictions > 0.0, "a quarter budget must evict");
        let summary = parsed.get("summary").unwrap();
        assert!(
            summary
                .get("corpus_speedup")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(
            summary
                .get("corpus_working_set_bytes")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn lazy_bench_emits_a_valid_document_at_tiny_sizes() {
        // The `--smoke` sweep pins at the committed claim's |t| = 10k.
        let smoke = LazyBenchConfig::smoke();
        assert!(smoke.tree_sizes.contains(&10_000) && smoke.eager_max_size >= 10_000);
        // Not `LazyBenchConfig::smoke()` itself — its 10k documents are
        // sized for the release-built harness, not the debug test profile.
        let cfg = LazyBenchConfig {
            tree_sizes: vec![300, 600],
            eager_max_size: 300,
            runs: 1,
        };
        let parsed = validated(run_lazy_bench(&cfg));
        let rows = results(&parsed);
        // Lazy at both sizes, eager only at the pin size.
        let engine_sizes: Vec<(&str, f64)> = rows
            .iter()
            .map(|r| {
                (
                    engine(r),
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
        assert_eq!(
            summary.get("lazy_pin_tree_size").and_then(Json::as_f64),
            Some(300.0)
        );
        assert!(summary.get("lazy_speedup").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(
            summary
                .get("lazy_bytes_per_node")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn incr_bench_emits_a_valid_document_at_tiny_sizes() {
        // Not `IncrBenchConfig::smoke()` — its documents are sized for the
        // release-built harness, not the debug test profile.
        let cfg = IncrBenchConfig {
            tree_sizes: vec![300],
            lazy_min_size: 100_000,
            runs: 1,
        };
        let parsed = validated(run_incr_bench(&cfg));
        let rows = results(&parsed);
        let arms = experiment("incr_maintenance").engines;
        assert_eq!(rows.len(), arms.len());
        for (row, name) in rows.iter().zip(arms) {
            assert_eq!(engine(row), *name);
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
        assert_eq!(
            summary.get("incr_pin_tree_size").and_then(Json::as_f64),
            Some(300.0)
        );
        assert!(summary.get("incr_speedup").and_then(Json::as_f64).unwrap() > 0.0);
        let fraction = summary
            .get("incr_rows_fraction")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((0.0..1.0).contains(&fraction), "{fraction}");
    }

    #[test]
    fn smoke_router_bench_emits_a_valid_document() {
        let parsed = validated(run_router_bench(&RouterBenchConfig::smoke()));
        let rows = results(&parsed);
        let modes = experiment("router_serving").engines;
        assert_eq!(rows.len(), modes.len());
        for name in modes {
            assert!(
                rows.iter().any(|r| engine(r) == *name),
                "missing {name} row"
            );
        }
        for row in rows {
            assert!(row.get("qps").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(row.get("shards").and_then(Json::as_f64).unwrap() >= 1.0);
        }
        let kill = rows.iter().find(|r| engine(r) == "router_kill").unwrap();
        assert!(
            kill.get("requests_after_recovery")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        let summary = parsed.get("summary").unwrap();
        assert!(
            summary
                .get("router_efficiency")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(
            summary
                .get("router_kill_failure_rate")
                .and_then(Json::as_f64)
                .unwrap()
                >= 0.0
        );
    }

    /// Replace (`Some`) or drop (`None`) member `key` of an object.
    fn set(obj: &mut Json, key: &str, value: Option<Json>) {
        let Json::Obj(members) = obj else {
            panic!("not an object")
        };
        members.retain(|(k, _)| k != key);
        members.extend(value.map(|v| (key.to_string(), v)));
    }

    fn member<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(members) = obj else {
            panic!("not an object")
        };
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    fn rows(doc: &mut Json) -> &mut Vec<Json> {
        let Json::Arr(rows) = member(doc, "results") else {
            panic!("no results")
        };
        rows
    }

    /// A value that keeps `val` (`None`: the key stays absent).
    fn sample(val: Val) -> Option<Json> {
        match val {
            Val::Num | Val::Pos => Some(Json::Num(1.0)),
            Val::AtMost(_) => Some(Json::Num(0.0)),
            Val::Str => Some(Json::Str("x".into())),
            Val::OneOf(allowed) => Some(Json::Str(allowed[0].into())),
            Val::Absent => None,
        }
    }

    /// A value that breaks `val`.
    fn breaking(val: Val) -> Json {
        match val {
            Val::Num => Json::Num(-1.0),
            Val::Pos => Json::Num(0.0),
            Val::AtMost(_) => Json::Num(1e9),
            Val::Str => Json::Num(1.0),
            Val::OneOf(_) => Json::Str("bogus".into()),
            Val::Absent => Json::Num(0.0),
        }
    }

    /// The smallest document the table accepts for `exp`: one row per
    /// engine with every key it requires, and every summary key.
    fn minimal_document(exp: &Experiment) -> Json {
        let rows = exp
            .engines
            .iter()
            .map(|&engine| {
                let mut row = Json::obj([
                    ("experiment", Json::Str(exp.tag.into())),
                    ("engine", Json::Str(engine.into())),
                ]);
                for rk in ROW_KEYS[2..].iter().chain(exp.row_keys) {
                    if rk.engine.is_none_or(|e| e == engine) {
                        set(&mut row, rk.key, sample(rk.val));
                    }
                }
                row
            })
            .collect();
        let summary = exp
            .summary_keys
            .iter()
            .filter_map(|&(k, v)| Some((k, sample(v)?)));
        document([], rows, summary)
    }

    /// Every rule of the table entries tagged `tag` rejects a document
    /// that breaks it, and the error names what broke.
    fn assert_table_rejects_each_violation(tag: &str) {
        let exp = experiment(tag);
        let valid = minimal_document(exp);
        validate_bench_json(&valid.render()).unwrap();
        let rejects = |doc: &Json, needle: &str| {
            let err = validate_bench_json(&doc.render()).unwrap_err();
            assert!(err.contains(needle), "{tag}: expected {needle:?} in {err}");
        };
        for engine in exp.engines {
            let mut doc = valid.clone();
            rows(&mut doc).retain(|r| r.get("engine").and_then(Json::as_str) != Some(engine));
            rejects(&doc, &format!("no {engine:?} rows"));
        }
        let mut doc = valid.clone();
        let mut stray = rows(&mut doc)[0].clone();
        set(&mut stray, "engine", Some(Json::Str("bogus".into())));
        rows(&mut doc).push(stray);
        rejects(&doc, "\"bogus\" is not");
        for rk in exp.row_keys {
            let index = rk
                .engine
                .map_or(0, |e| exp.engines.iter().position(|&x| x == e).unwrap());
            if rk.val != Val::Absent {
                let mut doc = valid.clone();
                set(&mut rows(&mut doc)[index], rk.key, None);
                rejects(&doc, &format!(".{} is missing", rk.key));
            }
            let mut doc = valid.clone();
            set(&mut rows(&mut doc)[index], rk.key, Some(breaking(rk.val)));
            rejects(&doc, &format!(".{} =", rk.key));
        }
        for &(key, val) in exp.summary_keys {
            let mut doc = valid.clone();
            set(member(&mut doc, "summary"), key, None);
            rejects(&doc, &format!("summary.{key} is missing"));
            let mut doc = valid.clone();
            set(member(&mut doc, "summary"), key, Some(breaking(val)));
            rejects(&doc, &format!("summary.{key} ="));
        }
        if exp.answers_agree {
            let mut doc = valid.clone();
            set(
                rows(&mut doc).last_mut().unwrap(),
                "answers",
                Some(Json::Num(2.0)),
            );
            rejects(&doc, "disagree on answers");
        }
    }

    #[test]
    fn validator_rejects_serving_rows_without_summary_keys() {
        assert_table_rejects_each_violation("planner");
        assert_table_rejects_each_violation("concurrent_serving");
    }

    #[test]
    fn validator_rejects_kernel_documents_without_summary_ratios() {
        assert_table_rejects_each_violation("repeated_query_workload");
        assert_table_rejects_each_violation("kernel_ablation");
    }

    #[test]
    fn validator_rejects_corpus_documents_without_summary_keys() {
        assert_table_rejects_each_violation("corpus_serving");
    }

    #[test]
    fn validator_rejects_lazy_documents_without_summary_keys() {
        assert_table_rejects_each_violation("lazy_large_documents");
    }

    /// E15 no longer runs, but its entry still checks `BENCH_7.json`.
    #[test]
    fn validator_rejects_daemon_documents_without_summary_keys() {
        assert_table_rejects_each_violation("daemon_serving");
    }

    #[test]
    fn validator_rejects_router_documents_without_summary_keys() {
        assert_table_rejects_each_violation("router_serving");
    }

    #[test]
    fn validator_rejects_incr_documents_without_summary_keys() {
        assert_table_rejects_each_violation("incr_maintenance");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").is_err());
        assert!(
            validate_bench_json(&format!("{{\"schema\": \"{SCHEMA}\", \"results\": []}}")).is_err()
        );
        let missing_key =
            format!("{{\"schema\": \"{SCHEMA}\", \"results\": [{{\"engine\": \"ppl_cached\"}}]}}");
        let err = validate_bench_json(&missing_key).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        // Every key of ROW_KEYS is required on every row.
        let mut valid = minimal_document(&EXPERIMENTS[0]);
        validate_bench_json(&valid.render()).unwrap();
        for rk in &ROW_KEYS[2..] {
            let mut doc = valid.clone();
            set(&mut rows(&mut doc)[0], rk.key, None);
            let err = validate_bench_json(&doc.render()).unwrap_err();
            assert!(err.contains(&format!(".{} is missing", rk.key)), "{err}");
        }
        set(&mut valid, "schema", Some(Json::Str("other/v0".into())));
        assert!(validate_bench_json(&valid.render())
            .unwrap_err()
            .contains("schema"));
    }

    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn committed_bench_files_pass_the_table_and_every_claim() {
        let checked = check_committed(&repo_root());
        assert!(checked.len() >= 8, "{checked:?}");
        let mut claims = 0;
        for (name, result) in &checked {
            match result {
                Ok(n) => claims += n,
                Err(e) => panic!("{name}: {e}"),
            }
        }
        assert_eq!(claims, CLAIMS.len(), "every claim names a committed file");
    }

    #[test]
    fn every_claim_fails_once_pushed_past_its_bound() {
        for c in &CLAIMS {
            let text = std::fs::read_to_string(repo_root().join(c.file)).unwrap();
            let mut doc = Json::parse(&text).unwrap();
            let margin = 1e-3 * c.bound.abs().max(1.0);
            let past = match c.op {
                Op::Ge => c.bound - margin,
                Op::Le => c.bound + margin,
                Op::Gt | Op::Lt => c.bound,
            };
            match c
                .key
                .strip_prefix("results[")
                .and_then(|k| k.split_once(']'))
            {
                None => set(member(&mut doc, "summary"), c.key, Some(Json::Num(past))),
                // A row count: drop the rows it counts.
                Some((selector, "")) => rows(&mut doc).retain(|r| !row_matches(r, selector)),
                Some((selector, field)) => {
                    for row in rows(&mut doc)
                        .iter_mut()
                        .filter(|r| row_matches(r, selector))
                    {
                        set(row, &field[1..], Some(Json::Num(past)));
                    }
                }
            }
            let err = check_file(c.file, &doc.render()).unwrap_err();
            assert!(err.contains(&format!("claim {} ", c.key)), "{c:?}: {err}");
        }
    }
}
