//! E4/E5/E6/E9 — baseline comparisons.
//!
//! * `naive_vs_ppl` (E4): the exponential assignment-enumeration baseline
//!   against the polynomial engine as the tuple width grows (small
//!   documents so the baseline terminates) — the crossover is immediate and
//!   widens by roughly a factor `|t|` per added variable.
//! * `varsharing_sat` (E5): cost of naive non-emptiness checking for the
//!   Prop. 3 SAT encodings as the number of propositional variables grows.
//! * `acq_vs_hcl` (E6): Yannakakis on the ACQ image of a union-free query
//!   against the Fig. 8 HCL algorithm.
//! * `corexpath1_vs_matrix` (E9): the linear-time Core XPath 1.0 set
//!   evaluator against the cubic matrix engine on `except`-free unary
//!   queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppl_xpath::{Engine, Session};
use xpath_acq::{answer_acq, hcl_to_acq};
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::{parse_path, Var};
use xpath_bench::forced_plan;
use xpath_hcl::{answer_hcl_pplbin, ppl_to_hcl};
use xpath_pplbin::{answer_binary, unary_from_root};
use xpath_tree::generate::{bibliography, restaurants, RESTAURANT_ATTRIBUTES};
use xpath_tree::NodeSet;
use xpath_workload::{encode_sat_query, encode_sat_tree, random_3sat, restaurant_query};

fn naive_vs_ppl(c: &mut Criterion) {
    let mut group = c.benchmark_group("naive_vs_ppl");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // Small document so the naive engine terminates at width 2.
    let session = Session::from_tree(restaurants(4, &RESTAURANT_ATTRIBUTES[..4], 3));
    for &width in &[1usize, 2] {
        let (query, vars) = restaurant_query(width);
        let plan = forced_plan(&session, query.clone(), vars.clone(), Engine::Ppl);
        group.bench_with_input(BenchmarkId::new("ppl", width), &width, |b, _| {
            b.iter(|| session.execute(&plan).unwrap().len())
        });
        group.bench_with_input(BenchmarkId::new("naive", width), &width, |b, _| {
            b.iter(|| {
                Engine::NaiveEnumeration
                    .answer(&session, &query, &vars)
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

fn varsharing_sat(c: &mut Criterion) {
    let mut group = c.benchmark_group("varsharing_sat");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &vars in &[2usize, 3] {
        let instance = random_3sat(vars, vars + 2, 17);
        let tree = encode_sat_tree(&instance);
        let (query, _) = encode_sat_query(&instance);
        let session = Session::from_tree(tree);
        group.bench_with_input(BenchmarkId::new("naive_nonempty", vars), &vars, |b, _| {
            b.iter(|| {
                !Engine::NaiveEnumeration
                    .answer(&session, &query, &[])
                    .unwrap()
                    .is_empty()
            })
        });
    }
    group.finish();
}

fn acq_vs_hcl(c: &mut Criterion) {
    let mut group = c.benchmark_group("acq_vs_hcl");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let session = Session::from_tree(bibliography(80, 3));
    let ppl = parse_path(
        "descendant::book[child::author[. is $a]]/child::title[. is $t]",
    )
    .unwrap();
    let output = [Var::new("a"), Var::new("t")];
    let hcl = ppl_to_hcl(&ppl).unwrap();
    group.bench_function("hcl_fig8", |b| {
        b.iter(|| answer_hcl_pplbin(session.tree(), &hcl, &output).unwrap().len())
    });
    group.bench_function("yannakakis", |b| {
        b.iter(|| {
            let (cq, db) = hcl_to_acq(session.tree(), &hcl, &output).unwrap();
            answer_acq(&cq, &db).unwrap().len()
        })
    });
    group.finish();
}

fn corexpath1_vs_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("corexpath1_vs_matrix");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let session = Session::from_tree(bibliography(150, 3));
    let query = from_variable_free_path(
        &parse_path("child::book[child::author]/child::title").unwrap(),
    )
    .unwrap();
    group.bench_function("corexpath1_sets", |b| {
        b.iter(|| unary_from_root(session.tree(), &query).unwrap().len())
    });
    group.bench_function("matrix_cubic", |b| {
        b.iter(|| {
            answer_binary(session.tree(), &query)
                .successors(session.root())
                .count()
        })
    });
    group.bench_function("corexpath1_full_set", |b| {
        b.iter(|| {
            xpath_pplbin::succ_set(session.tree(), &query, &NodeSet::full(session.len()))
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    naive_vs_ppl,
    varsharing_sat,
    acq_vs_hcl,
    corexpath1_vs_matrix
);
criterion_main!(benches);
