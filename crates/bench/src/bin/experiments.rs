//! Deterministic experiment runner.
//!
//! With no arguments, prints one table per experiment of EXPERIMENTS.md
//! (E1–E9), each validating the *shape* of a complexity claim of the paper
//! (who wins, how the cost grows, where the crossover is).  Absolute
//! numbers depend on the machine; the shapes should not.
//!
//! Run with: `cargo run -p xpath_bench --bin experiments --release`
//!
//! ## Regression-harness modes
//!
//! * `--bench [--smoke] [--out <path>]` — run the E10 repeated-query sweep,
//!   the E11 kernel ablation (dense vs adaptive vs adaptive+threads
//!   relation kernels over the axis-heavy suite, trees up to 960 nodes)
//!   *and* the E12 planner/concurrency sweep (auto vs forced engines over
//!   the planner-mix suite; one shared `Session` vs isolated per-thread
//!   documents at 1/2/4/8 serving threads; see EXPERIMENTS.md) and write
//!   the result as `BENCH_*.json`-schema JSON to `<path>` (default
//!   `BENCH_4.json`).  `--smoke` shrinks every dimension for CI.
//! * `--bench-corpus [--smoke] [--out <path>]` — run the E13 corpus-serving
//!   sweep (pooled vs budgeted vs cold-rebuild serving) and write the result
//!   to `<path>` (default `BENCH_5.json`).
//! * `--bench-lazy [--smoke] [--out <path>]` — run the E14 lazy
//!   large-document sweep (DBLP-style trees at |t| ∈ {10k, 100k}, lazy
//!   relation algebra vs the eager adaptive kernels) and write the result to
//!   `<path>` (default `BENCH_6.json`).
//! * `--bench-daemon [--smoke] [--out <path>]` — run the E15 daemon-serving
//!   sweep (sustained pipelined QPS of the live `pplxd` serving loop at
//!   1/64/1024 concurrent connections; Linux-only) and write the result to
//!   `<path>` (default `BENCH_7.json`).
//! * `--bench-router [--smoke] [--out <path>]` — run the E16 sharded-router
//!   sweep (a router over N backend daemons vs one daemon under the same
//!   pipelined QUERY load, plus a mid-bench shard kill measuring the
//!   post-recovery failure rate) and write the result to `<path>` (default
//!   `BENCH_8.json`).
//! * `--bench-incr [--smoke] [--out <path>]` — run the E17 incremental
//!   maintenance sweep (a warm session absorbing a single-node relabel via
//!   `fork_edited` vs a from-scratch session, re-answering the E14 DBLP
//!   suite; |t| ∈ {10k, 100k}) and write the result to `<path>` (default
//!   `BENCH_9.json`).
//! * `--check <path>` — parse an emitted JSON file and validate the schema
//!   (exit non-zero on any missing key), so CI notices when the harness or
//!   the trajectory file rots.

use ppl_xpath::{Engine, Session};
use std::time::Duration;
use xpath_acq::{answer_acq, hcl_to_acq};
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::{parse_path, Var};
use xpath_bench::{fmt_us, forced_plan, ratio, time_median};
use xpath_fo::{fo_to_xpath, Formula};
use xpath_hcl::oracle::intern_atoms;
use xpath_hcl::{answer_hcl_pplbin, ppl_to_hcl, EquationSystem, Hcl};
use xpath_pplbin::{answer_binary, unary_from_root};
use xpath_tree::generate::{bibliography, random_tree, restaurants, TreeGenConfig, TreeShape};
use xpath_workload::{
    bibliography_pairs_query, encode_sat_query, encode_sat_tree, pplbin_suite, random_3sat,
    restaurant_query,
};

const RUNS: usize = 3;

fn header(id: &str, claim: &str) {
    println!();
    println!("=== {id} — {claim}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.is_empty() {
        std::process::exit(run_harness_mode(&args));
    }

    println!("PPL XPath reproduction — experiment runner (median of {RUNS} runs per cell)");

    e1_pplbin_tree_scaling();
    e2_pplbin_query_scaling();
    e3_ppl_nary();
    e4_naive_vs_ppl();
    e5_sat_hardness();
    e6_acq_vs_hcl();
    e7_sharing_normalisation();
    e8_fig7_translation();
    e9_fo_translation_and_corexpath1();

    println!("\nAll experiments completed.");
}

/// Handle `--bench`/`--check` invocations; returns the process exit code.
fn run_harness_mode(args: &[String]) -> i32 {
    const USAGE: &str =
        "usage: experiments [--bench [--smoke] [--out <path>]] \
         [--bench-corpus [--smoke] [--out <path>]] \
         [--bench-lazy [--smoke] [--out <path>]] \
         [--bench-daemon [--smoke] [--out <path>]] \
         [--bench-router [--smoke] [--out <path>]] \
         [--bench-incr [--smoke] [--out <path>]] [--check <path>]";
    let mut bench = false;
    let mut bench_corpus = false;
    let mut bench_lazy = false;
    let mut bench_daemon = false;
    let mut bench_router = false;
    let mut bench_incr = false;
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = true,
            "--bench-corpus" => bench_corpus = true,
            "--bench-lazy" => bench_lazy = true,
            "--bench-daemon" => bench_daemon = true,
            "--bench-router" => bench_router = true,
            "--bench-incr" => bench_incr = true,
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = Some(path.clone()),
                    None => {
                        eprintln!("missing value for --out\n{USAGE}");
                        return 2;
                    }
                }
            }
            "--check" => {
                i += 1;
                match args.get(i) {
                    Some(path) => check = Some(path.clone()),
                    None => {
                        eprintln!("missing value for --check\n{USAGE}");
                        return 2;
                    }
                }
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return 2;
            }
        }
        i += 1;
    }
    if !bench
        && !bench_corpus
        && !bench_lazy
        && !bench_daemon
        && !bench_router
        && !bench_incr
        && check.is_none()
    {
        eprintln!("{USAGE}");
        return 2;
    }
    if (bench as usize)
        + (bench_corpus as usize)
        + (bench_lazy as usize)
        + (bench_daemon as usize)
        + (bench_router as usize)
        + (bench_incr as usize)
        > 1
    {
        eprintln!(
            "--bench, --bench-corpus, --bench-lazy, --bench-daemon, --bench-router and \
             --bench-incr write different documents; run them separately"
        );
        return 2;
    }

    if bench_incr {
        let cfg = if smoke {
            xpath_bench::IncrBenchConfig::smoke()
        } else {
            xpath_bench::IncrBenchConfig::full()
        };
        let path = out.clone().unwrap_or_else(|| "BENCH_9.json".to_string());
        eprintln!(
            "running incremental-maintenance sweep (E17, {} mode): dblp trees {:?}, \
             lazy kernels from |t|={}, {} queries after a single-node relabel, {} runs/cell",
            if smoke { "smoke" } else { "full" },
            cfg.tree_sizes,
            cfg.lazy_min_size,
            xpath_workload::dblp_suite().len(),
            cfg.runs,
        );
        let doc = xpath_bench::run_incr_bench(&cfg);
        let text = doc.render();
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        if let Some(summary) = doc.get("summary") {
            let f = |key| summary.get(key).and_then(xpath_bench::Json::as_f64).unwrap_or(0.0);
            eprintln!(
                "wrote {path}: incremental {} us vs full recompile {} us at |t|={} \
                 (speedup x{}); {} of {} cached rows recomputed (fraction {}); \
                 x{} at |t|={}",
                f("incr_pin_us"),
                f("full_pin_us"),
                f("incr_pin_tree_size"),
                f("incr_speedup"),
                f("incr_rows_invalidated"),
                f("incr_rows_total"),
                f("incr_rows_fraction"),
                f("incr_largest_speedup"),
                f("incr_largest_tree_size"),
            );
        }
    }

    if bench_router {
        let cfg = if smoke {
            xpath_bench::RouterBenchConfig::smoke()
        } else {
            xpath_bench::RouterBenchConfig::full()
        };
        let path = out.clone().unwrap_or_else(|| "BENCH_8.json".to_string());
        eprintln!(
            "running sharded-router sweep (E16, {} mode): {} shards (replication {}), \
             {} connections x{} pipelined, ~{} requests/phase, {} docs, {} runs/cell, \
             plus a mid-bench shard kill",
            if smoke { "smoke" } else { "full" },
            cfg.shards,
            cfg.replication,
            cfg.connections,
            cfg.pipeline,
            cfg.total_requests,
            cfg.docs,
            cfg.runs,
        );
        let doc = xpath_bench::run_router_bench(&cfg);
        let text = doc.render();
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        if let Some(summary) = doc.get("summary") {
            let f = |key| summary.get(key).and_then(xpath_bench::Json::as_f64).unwrap_or(0.0);
            eprintln!(
                "wrote {path}: router over {} shards {} qps vs single daemon {} qps \
                 (efficiency x{}); shard-kill failure rate {} after recovery",
                f("router_shards"),
                f("router_qps"),
                f("single_daemon_qps"),
                f("router_efficiency"),
                f("router_kill_failure_rate"),
            );
        }
    }

    if bench_daemon {
        let cfg = if smoke {
            xpath_bench::DaemonBenchConfig::smoke()
        } else {
            xpath_bench::DaemonBenchConfig::full()
        };
        let path = out.clone().unwrap_or_else(|| "BENCH_7.json".to_string());
        eprintln!(
            "running daemon-serving sweep (E15, {} mode): {:?} connections x{} pipelined, \
             ~{} requests/cell, {} workers, {} runs/cell",
            if smoke { "smoke" } else { "full" },
            cfg.connections,
            cfg.pipeline,
            cfg.total_requests,
            cfg.workers,
            cfg.runs,
        );
        let doc = xpath_bench::run_daemon_bench(&cfg);
        let text = doc.render();
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        if let Some(summary) = doc.get("summary") {
            let f = |key| summary.get(key).and_then(xpath_bench::Json::as_f64).unwrap_or(0.0);
            eprintln!(
                "wrote {path}: {} qps at {} connections",
                f("daemon_epoll_pin_qps"),
                f("daemon_pin_conns"),
            );
        }
    }

    if bench_lazy {
        let cfg = if smoke {
            xpath_bench::LazyBenchConfig::smoke()
        } else {
            xpath_bench::LazyBenchConfig::full()
        };
        let path = out.clone().unwrap_or_else(|| "BENCH_6.json".to_string());
        eprintln!(
            "running lazy large-document sweep (E14, {} mode): dblp trees {:?}, \
             eager baseline up to |t|={}, {} queries, {} runs/cell",
            if smoke { "smoke" } else { "full" },
            cfg.tree_sizes,
            cfg.eager_max_size,
            xpath_workload::dblp_suite().len(),
            cfg.runs,
        );
        let doc = xpath_bench::run_lazy_bench(&cfg);
        let text = doc.render();
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        if let Some(summary) = doc.get("summary") {
            let f = |key| summary.get(key).and_then(xpath_bench::Json::as_f64).unwrap_or(0.0);
            eprintln!(
                "wrote {path}: lazy {} us vs eager {} us at |t|={} (speedup x{}); \
                 lazy reaches |t|={} in {} us at {} bytes/node",
                f("lazy_pin_us"),
                f("eager_pin_us"),
                f("lazy_pin_tree_size"),
                f("lazy_speedup"),
                f("lazy_largest_tree_size"),
                f("lazy_largest_us"),
                f("lazy_bytes_per_node"),
            );
        }
    }

    if bench_corpus {
        let cfg = if smoke {
            xpath_bench::CorpusBenchConfig::smoke()
        } else {
            xpath_bench::CorpusBenchConfig::full()
        };
        let path = out.clone().unwrap_or_else(|| "BENCH_5.json".to_string());
        eprintln!(
            "running corpus-serving sweep (E13, {} mode): {} docs (base |t|={}), \
             {} queries x{} repeats, {} fan-out threads, {} runs/cell",
            if smoke { "smoke" } else { "full" },
            cfg.docs,
            cfg.base_size,
            xpath_bench::regress::suite().len(),
            cfg.repeats,
            cfg.threads,
            cfg.runs,
        );
        let doc = xpath_bench::run_corpus_bench(&cfg);
        let text = doc.render();
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        if let Some(summary) = doc.get("summary") {
            let f = |key| summary.get(key).and_then(xpath_bench::Json::as_f64).unwrap_or(0.0);
            eprintln!(
                "wrote {path}: corpus pool {} us vs cold rebuild {} us over {} docs \
                 (speedup x{}, working set {} bytes; budget sweep half {} us / quarter {} us, \
                 {} evictions at quarter)",
                f("corpus_pool_us"),
                f("corpus_cold_us"),
                f("corpus_docs"),
                f("corpus_speedup"),
                f("corpus_working_set_bytes"),
                f("corpus_budget_half_us"),
                f("corpus_budget_quarter_us"),
                f("corpus_budget_quarter_evictions"),
            );
        }
    }

    if bench {
        let (cfg, kernels, serve) = if smoke {
            (
                xpath_bench::RegressConfig::smoke(),
                xpath_bench::regress::KernelConfig::smoke(),
                xpath_bench::regress::ServeConfig::smoke(),
            )
        } else {
            (
                xpath_bench::RegressConfig::full(),
                xpath_bench::regress::KernelConfig::full(),
                xpath_bench::regress::ServeConfig::full(),
            )
        };
        let path = out.unwrap_or_else(|| "BENCH_4.json".to_string());
        eprintln!(
            "running repeated-query regression sweep ({} mode): trees {:?}, {} queries x{} repeats, {} runs/cell",
            if smoke { "smoke" } else { "full" },
            cfg.tree_sizes,
            xpath_bench::regress::suite().len(),
            cfg.repeats,
            cfg.runs,
        );
        eprintln!(
            "running kernel ablation (E11): trees {:?}, {} axis-heavy queries, {} runs/cell",
            kernels.tree_sizes,
            xpath_bench::regress::axis_suite().len(),
            kernels.runs,
        );
        eprintln!(
            "running planner/concurrency sweep (E12): planner |t|={}, serving |t|={} x{} threads, {} runs/cell",
            serve.planner_tree_size,
            serve.serve_tree_size,
            serve
                .threads
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("/"),
            serve.runs,
        );
        let doc = xpath_bench::regress::run_regression_full(&cfg, &kernels, &serve);
        let text = doc.render();
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        if let Some(summary) = doc.get("summary") {
            let f = |key| summary.get(key).and_then(xpath_bench::Json::as_f64).unwrap_or(0.0);
            eprintln!(
                "wrote {path}: cold {} us vs cached {} us at |t|={} (speedup x{})",
                f("cold_median_us"),
                f("cached_median_us"),
                f("largest_tree_size"),
                f("cached_speedup"),
            );
            eprintln!(
                "kernels at |t|={}: dense {} us, adaptive {} us (x{}), adaptive+threads {} us (x{})",
                f("kernel_largest_tree_size"),
                f("kernel_dense_median_us"),
                f("kernel_adaptive_median_us"),
                f("adaptive_speedup"),
                f("kernel_adaptive_threaded_median_us"),
                f("adaptive_threaded_speedup"),
            );
            eprintln!(
                "serving at |t|={} x{} threads: shared session {} us vs isolated workers {} us \
                 (x{} from cache sharing; thread scaling x{})",
                f("serve_tree_size"),
                f("serve_max_threads"),
                f("serve_shared_tmax_us"),
                f("serve_isolated_tmax_us"),
                f("shared_vs_isolated_speedup"),
                f("thread_scaling"),
            );
        }
    }

    if let Some(path) = check {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return 1;
            }
        };
        if let Err(e) = xpath_bench::validate_bench_json(&text) {
            eprintln!("{path} failed schema validation: {e}");
            return 1;
        }
        eprintln!("{path}: valid {} document", xpath_bench::regress::SCHEMA);
    }
    0
}

/// E1 — Theorem 2: PPLbin answering scales polynomially (cubically) in |t|.
fn e1_pplbin_tree_scaling() {
    header("E1", "Thm. 2: PPLbin binary answering, scaling in |t| (expected ~cubic growth)");
    let queries: Vec<_> = [
        "child::*/child::*",
        "descendant::l0[child::l1]",
        "descendant::* except child::*",
        "(child::l0 union child::l1)/descendant::l2",
    ]
    .iter()
    .map(|s| from_variable_free_path(&parse_path(s).unwrap()).unwrap())
    .collect();
    println!("{:>8} | {:>10} | {:>8} | {:>10}", "|t|", "time (us)", "growth", "pairs");
    let mut prev: Option<Duration> = None;
    for &size in &[50usize, 100, 200, 400] {
        let tree = random_tree(&TreeGenConfig {
            size,
            shape: TreeShape::BoundedBranching { max_children: 4 },
            alphabet: 3,
            seed: 11,
        });
        let (t, pairs) = time_median(RUNS, || {
            queries
                .iter()
                .map(|q| answer_binary(&tree, q).count_pairs())
                .sum::<usize>()
        });
        let growth = prev.map(|p| format!("x{:.2}", ratio(t, p))).unwrap_or_else(|| "-".into());
        println!("{:>8} | {} | {:>8} | {:>10}", size, fmt_us(t), growth, pairs);
        prev = Some(t);
    }
    println!("(expected: well below the ~8x-per-doubling of the dense cubic bound — the adaptive relation kernels keep axis-shaped operands interval/CSR, so growth tracks the pair counts; the paper's |t|³ worst case survives only in dense operands, see E11)");
}

/// E2 — Theorem 2: linear scaling in |P| for a fixed tree.
fn e2_pplbin_query_scaling() {
    header("E2", "Thm. 2: PPLbin answering, scaling in |P| (expected ~linear growth)");
    let tree = random_tree(&TreeGenConfig {
        size: 150,
        shape: TreeShape::BoundedBranching { max_children: 4 },
        alphabet: 3,
        seed: 12,
    });
    println!("{:>8} | {:>10} | {:>8}", "|P|", "time (us)", "growth");
    let mut prev: Option<Duration> = None;
    for &levels in &[4usize, 8, 16, 32, 64] {
        let query = pplbin_suite(levels);
        let size = query.size();
        let (t, _) = time_median(RUNS, || answer_binary(&tree, &query).count_pairs());
        let growth = prev.map(|p| format!("x{:.2}", ratio(t, p))).unwrap_or_else(|| "-".into());
        println!("{:>8} | {} | {:>8}", size, fmt_us(t), growth);
        prev = Some(t);
    }
    println!("(expected: time roughly doubles when |P| doubles)");
}

/// E3 — Theorem 1: n-ary answering, output-sensitive polynomial cost.
fn e3_ppl_nary() {
    header("E3", "Thm. 1: PPL n-ary answering — scaling in |t|, in n, and in |A|");

    println!("-- scaling in |t| (bibliography, n = 2) --");
    println!("{:>8} | {:>8} | {:>10} | {:>8}", "|t|", "|A|", "time (us)", "growth");
    let (query, vars) = bibliography_pairs_query();
    let mut prev: Option<Duration> = None;
    for &books in &[20usize, 40, 80, 160] {
        let session = Session::from_tree(bibliography(books, 3));
        let plan = forced_plan(&session, query.clone(), vars.clone(), Engine::Ppl);
        let (t, answers) = time_median(RUNS, || session.execute(&plan).unwrap().len());
        let growth = prev.map(|p| format!("x{:.2}", ratio(t, p))).unwrap_or_else(|| "-".into());
        println!("{:>8} | {:>8} | {} | {:>8}", session.len(), answers, fmt_us(t), growth);
        prev = Some(t);
    }

    println!("-- scaling in tuple width n (restaurants, 40 records) --");
    println!("{:>8} | {:>8} | {:>10}", "n", "|A|", "time (us)");
    let session = Session::from_tree(restaurants(40, &xpath_tree::generate::RESTAURANT_ATTRIBUTES, 5));
    for &width in &[1usize, 3, 5, 7, 9, 11] {
        let (query, vars) = restaurant_query(width);
        let plan = forced_plan(&session, query, vars, Engine::Ppl);
        let (t, answers) = time_median(RUNS, || session.execute(&plan).unwrap().len());
        println!("{:>8} | {:>8} | {}", width, answers, fmt_us(t));
    }
    println!("(expected: polynomial growth in n — nothing like the |t|^n of the naive engine)");

    println!("-- output sensitivity (bibliography, 60 books, growing |A|) --");
    println!("{:>8} | {:>8} | {:>10}", "|t|", "|A|", "time (us)");
    let (query, vars) = bibliography_pairs_query();
    for &max_authors in &[1usize, 2, 4, 8] {
        let session = Session::from_tree(bibliography(60, max_authors));
        let plan = forced_plan(&session, query.clone(), vars.clone(), Engine::Ppl);
        let (t, answers) = time_median(RUNS, || session.execute(&plan).unwrap().len());
        println!("{:>8} | {:>8} | {}", session.len(), answers, fmt_us(t));
    }
    println!("(expected: time grows with |A| roughly linearly once |A| dominates)");
}

/// E4 — Prop. 1 / Cor. 1: the naive enumeration baseline is exponential in n.
fn e4_naive_vs_ppl() {
    header("E4", "naive assignment enumeration vs PPL engine (crossover in tuple width)");
    let session = Session::from_tree(restaurants(4, &xpath_tree::generate::RESTAURANT_ATTRIBUTES[..4], 3));
    println!("document: {} nodes", session.len());
    println!("{:>3} | {:>12} | {:>12} | {:>10}", "n", "ppl (us)", "naive (us)", "naive/ppl");
    for &width in &[1usize, 2, 3] {
        let (query, vars) = restaurant_query(width);
        let plan = forced_plan(&session, query.clone(), vars.clone(), Engine::Ppl);
        let (tp, a1) = time_median(RUNS, || session.execute(&plan).unwrap().len());
        let (tn, a2) = time_median(1, || {
            Engine::NaiveEnumeration
                .answer(&session, &query, &vars)
                .unwrap()
                .len()
        });
        assert_eq!(a1, a2);
        println!(
            "{:>3} | {} | {} | {:>10.1}",
            width,
            fmt_us(tp),
            fmt_us(tn),
            ratio(tn, tp)
        );
    }
    println!("(expected: the naive column grows by roughly a factor |t| per added variable; the PPL column stays flat)");
}

/// E5 — Prop. 3: SAT reduction, exponential naive cost, PPL rejection.
fn e5_sat_hardness() {
    header("E5", "Prop. 3: variable sharing makes non-emptiness NP-hard (SAT reduction)");
    println!("{:>5} | {:>8} | {:>12} | {:>6} | {:>9}", "vars", "|t|", "naive (us)", "sat?", "rejected");
    for &vars in &[2usize, 3, 4] {
        let instance = random_3sat(vars, vars + 2, 41 + vars as u64);
        let tree = encode_sat_tree(&instance);
        let (query, _) = encode_sat_query(&instance);
        let session = Session::from_tree(tree);
        let rejected = xpath_ast::ppl::check_ppl(&query).is_err();
        let (t, nonempty) = time_median(1, || {
            !Engine::NaiveEnumeration
                .answer(&session, &query, &[])
                .unwrap()
                .is_empty()
        });
        assert_eq!(nonempty, instance.brute_force_satisfiable());
        println!(
            "{:>5} | {:>8} | {} | {:>6} | {:>9}",
            vars,
            session.len(),
            fmt_us(t),
            nonempty,
            rejected
        );
    }
    println!("(expected: every query rejected by the PPL checker; naive time grows exponentially in the number of SAT variables)");
}

/// E6 — Prop. 7/8: Yannakakis on the ACQ image matches the HCL algorithm.
fn e6_acq_vs_hcl() {
    header("E6", "Prop. 7: Yannakakis (ACQ) vs the Fig. 8 HCL algorithm on union-free queries");
    println!("{:>8} | {:>8} | {:>12} | {:>12}", "|t|", "|A|", "hcl (us)", "yannakakis");
    let ppl = parse_path("descendant::book[child::author[. is $a]]/child::title[. is $t]").unwrap();
    let output = [Var::new("a"), Var::new("t")];
    let hcl = ppl_to_hcl(&ppl).unwrap();
    for &books in &[20usize, 40, 80] {
        let session = Session::from_tree(bibliography(books, 3));
        let (th, a1) = time_median(RUNS, || {
            answer_hcl_pplbin(session.tree(), &hcl, &output).unwrap().len()
        });
        let (ty, a2) = time_median(RUNS, || {
            let (cq, db) = hcl_to_acq(session.tree(), &hcl, &output).unwrap();
            answer_acq(&cq, &db).unwrap().len()
        });
        assert_eq!(a1, a2);
        println!("{:>8} | {:>8} | {} | {}", session.len(), a1, fmt_us(th), fmt_us(ty));
    }
    println!("(expected: same answers; both polynomial, with constant factors favouring either depending on |db| vs the matrix precompilation)");
}

/// E7 — Lemma 3: sharing normalisation is linear, naive distribution is not.
fn e7_sharing_normalisation() {
    header("E7", "Lemma 3: sharing-expression normalisation (linear) vs naive union distribution (exponential)");
    println!("{:>4} | {:>10} | {:>14} | {:>18}", "k", "|C|", "sharing |D|+|∆|", "distributed leaves");
    for &k in &[2usize, 4, 8, 16, 32] {
        let block = |i: usize| Hcl::Atom(format!("a{i}")).or(Hcl::Atom(format!("b{i}")));
        let mut expr = block(0);
        for i in 1..k {
            expr = expr.then(block(i));
        }
        let (interned, _) = intern_atoms(&expr);
        let eq = EquationSystem::from_hcl(&interned);
        // Distributing unions over the k-fold composition yields 2^k leaves.
        let distributed: u128 = 1u128 << k;
        println!(
            "{:>4} | {:>10} | {:>14} | {:>18}",
            k,
            expr.size(),
            eq.len(),
            distributed
        );
    }
    println!("(expected: the sharing column stays within a small constant of |C|, the distributed column doubles with every k)");
}

/// E8 — Prop. 5 / Fig. 7: linear-time translation preserving answers.
fn e8_fig7_translation() {
    header("E8", "Prop. 5: PPL → HCL⁻(PPLbin) translation is linear and preserves answers");
    println!("{:>8} | {:>8} | {:>12} | {:>10}", "|P|", "|HCL|", "time (us)", "answers ok");
    let session = Session::from_tree(bibliography(10, 3));
    for &filters in &[2usize, 5, 10, 20, 40] {
        let mut src = String::from("descendant::book");
        for i in 0..filters {
            src.push_str(&format!("[child::author[. is $v{i}]]"));
        }
        let ppl = parse_path(&src).unwrap();
        let (t, hcl) = time_median(RUNS, || ppl_to_hcl(&ppl).unwrap());
        // Answer preservation is only checked for small widths (the naive
        // baseline is exponential in the width).
        let answers_ok = if filters <= 2 {
            let vars: Vec<Var> = (0..filters).map(|i| Var::new(&format!("v{i}"))).collect();
            let fast = answer_hcl_pplbin(session.tree(), &hcl, &vars).unwrap();
            let slow = Engine::NaiveEnumeration.answer(&session, &ppl, &vars).unwrap();
            fast.len() == slow.len()
        } else {
            true
        };
        println!(
            "{:>8} | {:>8} | {} | {:>10}",
            ppl.size(),
            hcl.size(),
            fmt_us(t),
            answers_ok
        );
    }
    println!("(expected: |HCL| within a small constant of |P|, translation time linear)");
}

/// E9 — Lemma 1 translation linearity + Core XPath 1.0 linear-time contrast.
fn e9_fo_translation_and_corexpath1() {
    header("E9", "Lemma 1: FO → Core XPath 2.0 is linear; Core XPath 1.0 set evaluation vs cubic matrices");
    println!("-- FO translation --");
    println!("{:>8} | {:>8} | {:>12}", "|φ|", "|⟦φ⟧|", "time (us)");
    for &conjuncts in &[8usize, 16, 32, 64] {
        let mut phi = Formula::label("l0", "x0");
        for i in 1..conjuncts {
            phi = phi.and(Formula::ch_star(&format!("x{}", i - 1), &format!("x{i}")));
        }
        let (t, xp) = time_median(RUNS, || fo_to_xpath(&phi));
        println!("{:>8} | {:>8} | {}", phi.size(), xp.size(), fmt_us(t));
    }

    println!("-- Core XPath 1.0 set-based vs PPLbin matrix (unary query from the root) --");
    println!("{:>8} | {:>14} | {:>14} | {:>8}", "|t|", "sets (us)", "matrix (us)", "ratio");
    let query = from_variable_free_path(
        &parse_path("child::book[child::author]/child::title").unwrap(),
    )
    .unwrap();
    for &books in &[50usize, 100, 200] {
        let session = Session::from_tree(bibliography(books, 3));
        let (ts, a1) = time_median(RUNS, || unary_from_root(session.tree(), &query).unwrap().len());
        let (tm, a2) = time_median(RUNS, || {
            answer_binary(session.tree(), &query)
                .successors(session.root())
                .count()
        });
        assert_eq!(a1, a2);
        println!(
            "{:>8} | {} | {} | {:>8.1}",
            session.len(),
            fmt_us(ts),
            fmt_us(tm),
            ratio(tm, ts)
        );
    }
    println!("(expected: the set-based evaluator scales linearly and wins by a growing factor; `except` queries are outside its fragment and need the matrices)");
}
