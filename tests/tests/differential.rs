//! Cross-engine differential fuzzing (see `xpath_tests::differential`).
//!
//! Hundreds of random (tree, PPL-query) pairs are answered by four distinct
//! pipelines — the polynomial PPL engine, the exponential specification
//! baseline, the Fig. 8 HCL algorithm, and ACQ/Yannakakis — which must agree
//! tuple-for-tuple. A second suite checks the Lemma 1 FO round trip. All
//! seeds are fixed, so failures reproduce deterministically.

use xpath_tests::differential::{
    run_batch_fuzz, run_fo_fuzz, run_kernel_mode_fuzz, run_lazy_fuzz, run_planner_fuzz,
    run_ppl_fuzz, FuzzConfig,
};

#[test]
fn fuzz_all_engines_agree_on_200_random_cases() {
    let report = run_ppl_fuzz(&FuzzConfig {
        seed: 0xD1FF_5EED,
        cases: 200,
        max_tree_size: 12,
        alphabet: 3,
        max_vars: 3,
    });
    assert_eq!(report.cases, 200);
    // Meta-assertions: the fuzz must exercise real behaviour, not vacuously
    // agree on empty sets. With the fixed seed these are deterministic.
    assert!(
        report.nonempty_answers > report.cases / 4,
        "too many empty answer sets: {report:?}"
    );
    assert!(report.total_tuples > 200, "too few tuples: {report:?}");
    assert!(
        report.union_queries > 10,
        "unions under-exercised: {report:?}"
    );
    assert!(
        report.max_arity >= 3,
        "wide tuples never generated: {report:?}"
    );
    assert!(
        report.acq_checked > report.cases * 3 / 4,
        "ACQ path skipped too often: {report:?}"
    );
}

#[test]
fn fuzz_single_label_alphabet_stresses_wildcard_overlap() {
    // One label + wildcards: every name test matches every node, maximising
    // answer-set sizes and intersect/except interactions.
    let report = run_ppl_fuzz(&FuzzConfig {
        seed: 0xA11_0B57,
        cases: 60,
        max_tree_size: 8,
        alphabet: 1,
        max_vars: 2,
    });
    assert_eq!(report.cases, 60);
    assert!(report.nonempty_answers > report.cases / 3, "{report:?}");
}

#[test]
fn fuzz_wide_alphabet_stresses_selective_queries() {
    // Many labels over small trees: most name tests miss, exercising empty
    // intermediate relations in the HCL/ACQ pipelines.
    let report = run_ppl_fuzz(&FuzzConfig {
        seed: 0x5E1EC7,
        cases: 60,
        max_tree_size: 10,
        alphabet: 6,
        max_vars: 2,
    });
    assert_eq!(report.cases, 60);
}

#[test]
fn fuzz_batch_api_agrees_with_cold_and_naive_answers() {
    // 40 random trees × 4 random queries each: the whole set is answered in
    // one `Session::answer_batch` call over a shared matrix cache, and each
    // answer is checked against a cold per-query run and the naive engine.
    let report = run_batch_fuzz(
        &FuzzConfig {
            seed: 0xBA7C_F00D,
            cases: 40,
            max_tree_size: 10,
            alphabet: 3,
            max_vars: 2,
        },
        4,
    );
    assert_eq!(report.trees, 40);
    assert_eq!(report.queries, 160);
    assert!(
        report.total_tuples > 100,
        "batches vacuously empty: {report:?}"
    );
    // Plain step atoms are tree views and never reach the cache, so only
    // batches with a composite atom can share matrices.
    assert!(
        report.cache_hits_seen > 10,
        "batches almost never shared matrices: {report:?}"
    );
}

#[test]
fn fuzz_planner_choices_agree_with_naive_enumeration() {
    // 80 random (tree, query) pairs: the auto plan, every forced-engine
    // plan, and the streaming drain must each agree tuple-for-tuple with
    // the ground truth; the report asserts the planner actually exercised
    // more than one engine choice.
    let report = run_planner_fuzz(&FuzzConfig {
        seed: 0x091A_77E5,
        cases: 80,
        max_tree_size: 14,
        alphabet: 3,
        max_vars: 2,
    });
    assert_eq!(report.cases, 80);
    assert_eq!(report.stream_checks, 80);
    assert!(report.total_tuples > 100, "vacuously empty: {report:?}");
    assert!(report.chose_naive > 0, "naive never chosen: {report:?}");
    assert!(
        report.chose_ppl + report.chose_acq > 0,
        "matrix engines never chosen: {report:?}"
    );
    // 4 forced engines per case, minus the rare acq budget skips.
    assert_eq!(
        report.forced_checks + report.acq_budget_skips,
        report.cases * 4
    );
    assert!(report.acq_budget_skips < report.cases / 4, "{report:?}");
}

#[test]
fn fuzz_fo_round_trip_agrees_with_naive_engine() {
    let tuples = run_fo_fuzz(0xF0F0, 100, 8, 3);
    assert!(tuples > 50, "FO fuzz produced almost no tuples ({tuples})");
}

#[test]
fn fuzz_relation_kernel_modes_agree_with_dense_baseline() {
    // Random variable-free PPLbin expressions under the dense, adaptive and
    // adaptive+threaded kernels must compile to identical matrices; trees
    // are larger here than in the engine fuzz since no exponential baseline
    // is involved.
    let pairs = run_kernel_mode_fuzz(0xADA_F7ED, 120, 40, 3);
    assert!(pairs > 1_000, "kernel fuzz vacuously empty ({pairs} pairs)");
}

#[test]
fn fuzz_lazy_algebra_agrees_with_eager_kernels() {
    // Random variable-free relations read row-by-row through a lazy store
    // (forced, per-row, `row_nonempty`, early-exit `row_any`) plus full PPL
    // queries answered end-to-end must all agree with the dense baseline,
    // the naive engine, and an eager adaptive store, tuple for tuple.
    let report = run_lazy_fuzz(0x1A2_F7ED, 80, 32, 3);
    assert_eq!(report.relation_cases, 80);
    assert_eq!(report.query_cases, 80);
    assert!(
        report.total_pairs > 1_000,
        "relation fuzz vacuously empty: {report:?}"
    );
    assert!(
        report.total_tuples > 50,
        "query fuzz vacuously empty: {report:?}"
    );
    assert!(
        report.deferred_complements > 10,
        "the symbolic complement path was barely exercised: {report:?}"
    );
}
