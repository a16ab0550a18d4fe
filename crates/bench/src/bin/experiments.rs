//! Deterministic experiment runner.
//!
//! With no arguments, prints one table per experiment E1–E9 of
//! EXPERIMENTS.md, each validating the *shape* of a complexity claim of the
//! paper (who wins, how the cost grows, where the crossover is).  Absolute
//! numbers depend on the machine; the shapes should not.
//!
//! Run with: `cargo run -p xpath_bench --bin experiments --release`
//!
//! ## Regression-harness modes
//!
//! * `--bench <id> [--smoke] [--out <path>]` — run one sweep of
//!   [`xpath_bench::SWEEPS`] (`E10`, which also runs E11 and E12, `E13`,
//!   `E14`, `E16` or `E17`), check the document against the experiment
//!   table and write it to `<path>` (default: the sweep's committed
//!   `BENCH_*.json`).  `--smoke` shrinks every dimension for CI.
//! * `--check <path>` — check a file against the experiment table, and
//!   against the committed claims when it bears a committed file's name.
//! * `--check` — check every committed `BENCH_*.json` against the table
//!   and every claim (run from the repository root).

use ppl_xpath::{Engine, Session};
use std::path::Path;
use std::time::Duration;
use xpath_acq::{answer_acq, hcl_to_acq};
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::{parse_path, Var};
use xpath_bench::regress::SCHEMA;
use xpath_bench::{
    check_committed, check_file, fmt_us, forced_plan, ratio, time_median, validate_bench_json,
    Json, SWEEPS,
};
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
    let ids: Vec<&str> = SWEEPS.iter().map(|s| s.id).collect();
    let usage = format!(
        "usage: experiments [--bench <{}> [--smoke] [--out <path>]] [--check [<path>]]",
        ids.join("|")
    );
    let (mut bench, mut smoke, mut out, mut check) = (None, false, None, None);
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => match args
                .next()
                .and_then(|id| SWEEPS.iter().find(|s| s.id == id))
            {
                Some(sweep) => bench = Some(sweep),
                None => {
                    eprintln!("--bench takes one of {}\n{usage}", ids.join(", "));
                    return 2;
                }
            },
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("missing value for --out\n{usage}");
                    return 2;
                }
            },
            "--check" => check = Some(args.next_if(|a| !a.starts_with("--")).cloned()),
            other => {
                eprintln!("unknown argument '{other}'\n{usage}");
                return 2;
            }
        }
    }
    if bench.is_none() && check.is_none() {
        eprintln!("{usage}");
        return 2;
    }

    if let Some(sweep) = bench {
        let path = out.unwrap_or_else(|| sweep.out.to_string());
        eprintln!(
            "running {} ({} sizes)",
            sweep.id,
            if smoke { "smoke" } else { "full" }
        );
        let doc = (sweep.run)(smoke);
        let text = doc.render();
        if let Err(e) = validate_bench_json(&text) {
            eprintln!(
                "{} emitted an invalid document; {path} not written: {e}",
                sweep.id
            );
            return 1;
        }
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        let summary = match doc.get("summary") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(k, v)| format!("{k}={}", v.render().trim_end()))
                .collect::<Vec<_>>()
                .join(" "),
            _ => String::new(),
        };
        eprintln!("wrote {path}: {summary}");
    }

    let checked = match check {
        None => return 0,
        Some(None) => check_committed(Path::new(".")),
        Some(Some(path)) => {
            let name = Path::new(&path)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned());
            let result = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read: {e}"))
                .and_then(|text| check_file(name.as_deref().unwrap_or(""), &text));
            vec![(path, result)]
        }
    };
    let mut status = 0;
    for (name, result) in checked {
        match result {
            Ok(claims) => eprintln!("{name}: valid {SCHEMA} document, {claims} claims hold"),
            Err(e) => {
                eprintln!("{name}: FAILED: {e}");
                status = 1;
            }
        }
    }
    status
}

/// E1 — Theorem 2: PPLbin answering scales polynomially (cubically) in |t|.
fn e1_pplbin_tree_scaling() {
    header(
        "E1",
        "Thm. 2: PPLbin binary answering, scaling in |t| (expected ~cubic growth)",
    );
    let queries: Vec<_> = [
        "child::*/child::*",
        "descendant::l0[child::l1]",
        "descendant::* except child::*",
        "(child::l0 union child::l1)/descendant::l2",
    ]
    .iter()
    .map(|s| from_variable_free_path(&parse_path(s).unwrap()).unwrap())
    .collect();
    println!(
        "{:>8} | {:>10} | {:>8} | {:>10}",
        "|t|", "time (us)", "growth", "pairs"
    );
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
        let growth = prev
            .map(|p| format!("x{:.2}", ratio(t, p)))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>8} | {} | {:>8} | {:>10}",
            size,
            fmt_us(t),
            growth,
            pairs
        );
        prev = Some(t);
    }
    println!("(expected: well below the ~8x-per-doubling of the dense cubic bound — the adaptive relation kernels keep axis-shaped operands interval/CSR, so growth tracks the pair counts; the paper's |t|³ worst case survives only in dense operands, see E11)");
}

/// E2 — Theorem 2: linear scaling in |P| for a fixed tree.
fn e2_pplbin_query_scaling() {
    header(
        "E2",
        "Thm. 2: PPLbin answering, scaling in |P| (expected ~linear growth)",
    );
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
        let growth = prev
            .map(|p| format!("x{:.2}", ratio(t, p)))
            .unwrap_or_else(|| "-".into());
        println!("{:>8} | {} | {:>8}", size, fmt_us(t), growth);
        prev = Some(t);
    }
    println!("(expected: time roughly doubles when |P| doubles)");
}

/// E3 — Theorem 1: n-ary answering, output-sensitive polynomial cost.
fn e3_ppl_nary() {
    header(
        "E3",
        "Thm. 1: PPL n-ary answering — scaling in |t|, in n, and in |A|",
    );

    println!("-- scaling in |t| (bibliography, n = 2) --");
    println!(
        "{:>8} | {:>8} | {:>10} | {:>8}",
        "|t|", "|A|", "time (us)", "growth"
    );
    let (query, vars) = bibliography_pairs_query();
    let mut prev: Option<Duration> = None;
    for &books in &[20usize, 40, 80, 160] {
        let session = Session::from_tree(bibliography(books, 3));
        let plan = forced_plan(&session, query.clone(), vars.clone(), Engine::Ppl);
        let (t, answers) = time_median(RUNS, || session.execute(&plan).unwrap().len());
        let growth = prev
            .map(|p| format!("x{:.2}", ratio(t, p)))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>8} | {:>8} | {} | {:>8}",
            session.len(),
            answers,
            fmt_us(t),
            growth
        );
        prev = Some(t);
    }

    println!("-- scaling in tuple width n (restaurants, 40 records) --");
    println!("{:>8} | {:>8} | {:>10}", "n", "|A|", "time (us)");
    let session = Session::from_tree(restaurants(
        40,
        &xpath_tree::generate::RESTAURANT_ATTRIBUTES,
        5,
    ));
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
    header(
        "E4",
        "naive assignment enumeration vs PPL engine (crossover in tuple width)",
    );
    let session = Session::from_tree(restaurants(
        4,
        &xpath_tree::generate::RESTAURANT_ATTRIBUTES[..4],
        3,
    ));
    println!("document: {} nodes", session.len());
    println!(
        "{:>3} | {:>12} | {:>12} | {:>10}",
        "n", "ppl (us)", "naive (us)", "naive/ppl"
    );
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
    header(
        "E5",
        "Prop. 3: variable sharing makes non-emptiness NP-hard (SAT reduction)",
    );
    println!(
        "{:>5} | {:>8} | {:>12} | {:>6} | {:>9}",
        "vars", "|t|", "naive (us)", "sat?", "rejected"
    );
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
    header(
        "E6",
        "Prop. 7: Yannakakis (ACQ) vs the Fig. 8 HCL algorithm on union-free queries",
    );
    println!(
        "{:>8} | {:>8} | {:>12} | {:>12}",
        "|t|", "|A|", "hcl (us)", "yannakakis"
    );
    let ppl = parse_path("descendant::book[child::author[. is $a]]/child::title[. is $t]").unwrap();
    let output = [Var::new("a"), Var::new("t")];
    let hcl = ppl_to_hcl(&ppl).unwrap();
    for &books in &[20usize, 40, 80] {
        let session = Session::from_tree(bibliography(books, 3));
        let (th, a1) = time_median(RUNS, || {
            answer_hcl_pplbin(session.tree(), &hcl, &output)
                .unwrap()
                .len()
        });
        let (ty, a2) = time_median(RUNS, || {
            let (cq, db) = hcl_to_acq(session.tree(), &hcl, &output).unwrap();
            answer_acq(&cq, &db).unwrap().len()
        });
        assert_eq!(a1, a2);
        println!(
            "{:>8} | {:>8} | {} | {}",
            session.len(),
            a1,
            fmt_us(th),
            fmt_us(ty)
        );
    }
    println!("(expected: same answers; both polynomial, with constant factors favouring either depending on |db| vs the matrix precompilation)");
}

/// E7 — Lemma 3: sharing normalisation is linear, naive distribution is not.
fn e7_sharing_normalisation() {
    header("E7", "Lemma 3: sharing-expression normalisation (linear) vs naive union distribution (exponential)");
    println!(
        "{:>4} | {:>10} | {:>14} | {:>18}",
        "k", "|C|", "sharing |D|+|∆|", "distributed leaves"
    );
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
    header(
        "E8",
        "Prop. 5: PPL → HCL⁻(PPLbin) translation is linear and preserves answers",
    );
    println!(
        "{:>8} | {:>8} | {:>12} | {:>10}",
        "|P|", "|HCL|", "time (us)", "answers ok"
    );
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
            let slow = Engine::NaiveEnumeration
                .answer(&session, &ppl, &vars)
                .unwrap();
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
    header(
        "E9",
        "Lemma 1: FO → Core XPath 2.0 is linear; Core XPath 1.0 set evaluation vs cubic matrices",
    );
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
    println!(
        "{:>8} | {:>14} | {:>14} | {:>8}",
        "|t|", "sets (us)", "matrix (us)", "ratio"
    );
    let query =
        from_variable_free_path(&parse_path("child::book[child::author]/child::title").unwrap())
            .unwrap();
    for &books in &[50usize, 100, 200] {
        let session = Session::from_tree(bibliography(books, 3));
        let (ts, a1) = time_median(RUNS, || {
            unary_from_root(session.tree(), &query).unwrap().len()
        });
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
