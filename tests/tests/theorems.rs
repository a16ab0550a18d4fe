//! Cross-crate integration tests, one section per result of the paper.
//!
//! Each test exercises the statement of a theorem, proposition or lemma
//! end-to-end across the workspace crates, using the naive specification
//! evaluators as the ground truth.

use ppl_xpath::{Engine, Session};
use std::collections::BTreeSet;
use xpath_acq::{answer_acq, brute_force_answer, gyo_join_forest, hcl_to_acq};
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::ppl::{check_ppl, check_pplbin};
use xpath_ast::{parse_path, Var};
use xpath_fo::{fo_answer_nary, fo_to_xpath, parse_formula};
use xpath_hcl::{answer_hcl_pplbin, hcl_to_ppl, ppl_to_hcl};
use xpath_naive::{answer_binary as naive_binary, answer_nary, Assignment};
use xpath_pplbin::answer_binary as matrix_binary;
use xpath_tree::generate::{bibliography, random_tree, TreeGenConfig, TreeShape};
use xpath_tree::{NodeId, Tree};
use xpath_workload::{encode_sat_query, encode_sat_tree, random_3sat};

fn sample_trees() -> Vec<Tree> {
    vec![
        Tree::from_terms("a").unwrap(),
        Tree::from_terms("bib(book(author,title),book(author,author,title),paper(title))").unwrap(),
        bibliography(6, 3),
        random_tree(&TreeGenConfig {
            size: 20,
            shape: TreeShape::BoundedBranching { max_children: 3 },
            alphabet: 3,
            seed: 99,
        }),
    ]
}

/// Theorem 2 (PPLbin): the Boolean-matrix engine computes exactly the binary
/// query of the specification semantics, for a suite of variable-free
/// expressions including `except` at arbitrary positions.
#[test]
fn theorem2_pplbin_matrix_engine_is_correct() {
    let suite = [
        "child::*/child::*",
        "descendant::author union child::paper/child::title",
        "descendant::* except child::*",
        "child::*[not(child::author)]/descendant::title",
        "(child::book intersect descendant::book)[child::author]",
        "self::bib/child::book[child::author[following_sibling::author]]",
    ];
    for tree in sample_trees() {
        for src in suite {
            let path = parse_path(src).unwrap();
            assert!(check_pplbin(&path).is_ok(), "{src} should be variable-free");
            let bin = from_variable_free_path(&path).unwrap();
            let fast = matrix_binary(&tree, &bin).pairs();
            let slow = naive_binary(&tree, &path).unwrap();
            assert_eq!(fast, slow, "{src} on {tree}");
        }
    }
}

/// Theorem 1 (PPL): the full pipeline — Definition 1 check, Fig. 7
/// translation, Lemma 3 normalisation, Fig. 8 answering — agrees with the
/// naive n-ary semantics on every query of the suite.
#[test]
fn theorem1_ppl_pipeline_is_correct() {
    let suite: Vec<(&str, Vec<&str>)> = vec![
        (
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
            vec!["y", "z"],
        ),
        ("descendant::author[. is $a]", vec!["a"]),
        (
            "descendant::author[. is $x] union descendant::title[. is $x]",
            vec!["x"],
        ),
        ("$s/child::*[. is $e]", vec!["s", "e"]),
        (
            "(descendant::* except descendant::author)[. is $n]",
            vec!["n"],
        ),
        ("descendant::*[not(child::*)][. is $leaf]", vec!["leaf"]),
    ];
    for tree in sample_trees() {
        let session = Session::from_tree(tree);
        for (src, outputs) in &suite {
            let vars: Vec<Var> = outputs.iter().map(|n| Var::new(n)).collect();
            let path = parse_path(src).unwrap();
            assert!(check_ppl(&path).is_ok(), "{src} should be in PPL");
            let fast: BTreeSet<Vec<NodeId>> = Engine::Ppl
                .answer(&session, &path, &vars)
                .unwrap()
                .tuples()
                .iter()
                .cloned()
                .collect();
            let slow = answer_nary(session.tree(), &path, &vars).unwrap();
            assert_eq!(fast, slow, "{src} on {}", session.tree().to_terms());
        }
    }
}

/// Proposition 5: the translations between PPL and HCL⁻(PPLbin) preserve
/// query answers in both directions.
#[test]
fn proposition5_translation_round_trips() {
    let suite = [
        "descendant::book[child::author[. is $y] and child::title[. is $z]]",
        "descendant::author[. is $x] union descendant::title[. is $x]",
        "$x/child::author[. is $y]",
        "descendant::*[$x is $y]",
    ];
    for tree in sample_trees() {
        for src in suite {
            let ppl = parse_path(src).unwrap();
            let vars: Vec<Var> = ppl.free_vars().into_iter().collect();
            let hcl = ppl_to_hcl(&ppl).unwrap();
            assert!(
                hcl.is_hcl_minus(),
                "Fig. 7 image must satisfy NVS(/): {src}"
            );
            let via_hcl = answer_hcl_pplbin(&tree, &hcl, &vars).unwrap();
            let via_naive = answer_nary(&tree, &ppl, &vars).unwrap();
            assert_eq!(via_hcl, via_naive, "forward direction broken for {src}");

            // Backward: the HCL expression mapped back to PPL is equivalent.
            let back = hcl_to_ppl(&hcl);
            let back_ans = answer_nary(&tree, &back, &vars).unwrap();
            assert_eq!(back_ans, via_naive, "backward direction broken for {src}");
        }
    }
}

/// Lemma 1 / Proposition 1: the FO → Core XPath 2.0 translation preserves
/// satisfaction and n-ary answers.
#[test]
fn lemma1_fo_translation_preserves_answers() {
    let formulas: Vec<(&str, Vec<&str>)> = vec![
        (
            "lab(book, x) and lab(title, y) and chstar(x, y)",
            vec!["x", "y"],
        ),
        (
            "exists b. lab(book, b) and chstar(b, x) and lab(author, x)",
            vec!["x"],
        ),
        (
            "lab(book, x) and nsstar(x, y) and lab(paper, y)",
            vec!["x", "y"],
        ),
        (
            "not (exists a. lab(author, a) and chstar(x, a)) and lab(book, x)",
            vec!["x"],
        ),
    ];
    for tree in sample_trees().into_iter().take(3) {
        for (src, outputs) in &formulas {
            let phi = parse_formula(src).unwrap();
            let vars: Vec<Var> = outputs.iter().map(|n| Var::new(n)).collect();
            let fo_side = fo_answer_nary(&tree, &phi, &vars);
            let xpath = fo_to_xpath(&phi);
            let xp_side = answer_nary(&tree, &xpath, &vars).unwrap();
            assert_eq!(fo_side, xp_side, "{src} on {tree}");
        }
    }
}

/// Proposition 3: the SAT reduction is faithful (non-emptiness iff
/// satisfiability) and its image is rejected by the PPL checker.
#[test]
fn proposition3_sat_reduction_is_faithful_and_rejected() {
    for seed in 0..4 {
        let instance = random_3sat(3, 5, seed);
        let tree = encode_sat_tree(&instance);
        let (query, vars) = encode_sat_query(&instance);
        assert!(
            check_ppl(&query).is_err(),
            "the encoding must share variables"
        );
        let session = Session::from_tree(tree);
        let nonempty = !Engine::NaiveEnumeration
            .answer(&session, &query, &[])
            .unwrap()
            .is_empty();
        assert_eq!(nonempty, instance.brute_force_satisfiable(), "seed {seed}");
        // Every answer over the assignment variables is a satisfying
        // assignment.
        let answers = Engine::NaiveEnumeration
            .answer(&session, &query, &vars)
            .unwrap();
        for tuple in answers.tuples() {
            let assignment: Vec<bool> = tuple.iter().map(|&n| session.label(n) == "true").collect();
            assert!(instance.evaluate(&assignment));
        }
    }
}

/// Propositions 7/8: on union-free HCL⁻ queries, Yannakakis over the ACQ
/// image agrees with the Fig. 8 algorithm (and with brute force).
#[test]
fn propositions7_8_yannakakis_matches_hcl() {
    use xpath_hcl::Hcl;
    let bin = |s: &str| from_variable_free_path(&parse_path(s).unwrap()).unwrap();
    let tree = bibliography(5, 3);
    let queries: Vec<(Hcl<_>, Vec<Var>)> = vec![
        (
            Hcl::Atom(bin("descendant::book"))
                .then(Hcl::Filter(Box::new(
                    Hcl::Atom(bin("child::author")).then(Hcl::Var(Var::new("a"))),
                )))
                .then(Hcl::Atom(bin("child::title")))
                .then(Hcl::Var(Var::new("t"))),
            vec![Var::new("a"), Var::new("t")],
        ),
        (
            Hcl::Atom(bin("child::*")).then(Hcl::Var(Var::new("b"))),
            vec![Var::new("b")],
        ),
    ];
    for (hcl, output) in queries {
        let via_hcl = answer_hcl_pplbin(&tree, &hcl, &output).unwrap();
        let (cq, db) = hcl_to_acq(&tree, &hcl, &output).unwrap();
        assert!(
            gyo_join_forest(&cq).is_some(),
            "HCL⁻ images must be acyclic"
        );
        let via_acq = answer_acq(&cq, &db).unwrap();
        let via_brute = brute_force_answer(&cq, &db);
        assert_eq!(via_acq, via_brute);
        assert_eq!(via_acq, via_hcl);
    }
}

/// Proposition 4 / Fig. 4: the embedding of variable-free Core XPath 2.0
/// into PPLbin preserves binary queries (including the corrected `[not P]`
/// case discussed in DESIGN.md).
#[test]
fn proposition4_variable_free_embedding() {
    let suite = [
        "child::*[not(child::author)]",
        "child::*[not(child::author and child::title)]",
        "child::*[not(not(child::author))]",
        "child::book intersect descendant::book",
        "descendant::* except descendant::*/descendant::*",
        "child::*[. is .]",
    ];
    for tree in sample_trees() {
        for src in suite {
            let path = parse_path(src).unwrap();
            let bin = from_variable_free_path(&path).unwrap();
            assert_eq!(
                matrix_binary(&tree, &bin).pairs(),
                naive_binary(&tree, &path).unwrap(),
                "{src} on {tree}"
            );
        }
    }
}

/// End-to-end sanity: XML round trip, query compile, answer, render.
#[test]
fn end_to_end_xml_pipeline() {
    let xml = xpath_xml::to_xml(&bibliography(8, 2));
    let session = Session::from_xml(&xml).unwrap();
    let q = session
        .plan(
            "descendant::book[child::author[. is $a] and child::title[. is $t]]",
            &["a", "t"],
        )
        .unwrap();
    let answers = session.execute(&q).unwrap();
    assert!(!answers.is_empty());
    // Model checking under an explicit assignment, through the naive
    // evaluator, agrees with membership in the answer set.
    let first = answers.tuples()[0].clone();
    let alpha = Assignment::from_pairs([(Var::new("a"), first[0]), (Var::new("t"), first[1])]);
    assert!(xpath_naive::boolean_query(session.tree(), q.source(), &alpha).unwrap());
}
