//! E3 — Theorem 1: n-ary PPL query answering is
//! `O(|P|·|t|³ + n·|P|·|t|²·|A|)`.
//!
//! Three sweeps over the restaurant/bibliography workloads:
//!
//! * `ppl_nary_tree_scaling`: fixed width, growing document;
//! * `ppl_nary_width_scaling`: fixed document, tuple width `n` from 1 to 11
//!   (time grows polynomially — roughly linearly in `n·|A|` — never like
//!   `|t|ⁿ`);
//! * `ppl_nary_output_scaling`: fixed query and width, documents with
//!   increasing answer-set sizes (output sensitivity).
//!
//! `fig8_drain` isolates the second term of the bound: the `MC` table and
//! the Fig. 8 drain of one [`AnswerStream`] over precompiled atoms, on the
//! 2100-node random document of the serving benchmark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppl_xpath::{Engine, Session};
use xpath_ast::{parse_path, Var};
use xpath_bench::forced_plan;
use xpath_hcl::oracle::intern_atoms;
use xpath_hcl::{ppl_to_hcl, AnswerStream, EquationSystem, PplBinAtoms};
use xpath_tree::generate::{bibliography, restaurants, RESTAURANT_ATTRIBUTES};
use xpath_workload::{bibliography_pairs_query, corpus_documents, restaurant_query};

fn ppl_nary_tree_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppl_nary_tree_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let (query, vars) = bibliography_pairs_query();
    for &books in &[20usize, 40, 80, 160] {
        let session = Session::from_tree(bibliography(books, 3));
        let plan = forced_plan(&session, query.clone(), vars.clone(), Engine::Ppl);
        group.bench_with_input(BenchmarkId::new("books", books), &session, |b, s| {
            b.iter(|| s.execute(&plan).unwrap().len())
        });
    }
    group.finish();
}

fn ppl_nary_width_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppl_nary_width_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let session = Session::from_tree(restaurants(40, &RESTAURANT_ATTRIBUTES, 5));
    for &width in &[1usize, 3, 5, 7, 9, 11] {
        let (query, vars) = restaurant_query(width);
        let plan = forced_plan(&session, query, vars, Engine::Ppl);
        group.bench_with_input(BenchmarkId::new("width", width), &plan, |b, p| {
            b.iter(|| session.execute(p).unwrap().len())
        });
    }
    group.finish();
}

fn ppl_nary_output_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppl_nary_output_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // Same tree size, growing answer sets: more authors per book means more
    // (author, title) pairs while |t| stays comparable.
    let (query, vars) = bibliography_pairs_query();
    for &max_authors in &[1usize, 2, 4, 8] {
        let session = Session::from_tree(bibliography(60, max_authors));
        let plan = forced_plan(&session, query.clone(), vars.clone(), Engine::Ppl);
        let answers = session.execute(&plan).unwrap().len();
        group.bench_with_input(BenchmarkId::new("answers", answers), &session, |b, s| {
            b.iter(|| s.execute(&plan).unwrap().len())
        });
    }
    group.finish();
}

fn fig8_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_drain");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let (_, tree) = corpus_documents(3, 700, 2007).pop().unwrap();
    assert_eq!(tree.len(), 2100);
    let queries = [
        ("union", "descendant::l0[. is $x] union descendant::l2[. is $x]"),
        ("descendant", "descendant::l1[. is $x]"),
    ];
    for (name, src) in queries {
        let hcl = ppl_to_hcl(&parse_path(src).unwrap()).unwrap();
        let (interned, atoms) = intern_atoms(&hcl);
        let compiled = PplBinAtoms::compile(&tree, &atoms);
        let eq = EquationSystem::from_hcl(&interned);
        let output = vec![Var::new("x")];
        group.bench_function(BenchmarkId::new("t2100", name), |b| {
            b.iter(|| AnswerStream::new(eq.clone(), compiled.clone(), output.clone()).count())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ppl_nary_tree_scaling,
    ppl_nary_width_scaling,
    ppl_nary_output_scaling,
    fig8_drain
);
criterion_main!(benches);
