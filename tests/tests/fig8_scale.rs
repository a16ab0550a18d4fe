//! The Fig. 8 answering kernel at the document sizes the serving benchmark
//! uses: one 2000-node DBLP-style document under `dblp_suite`, and four
//! random `l0–l2` documents (700–2100 nodes) under `planner_mix_suite`.
//!
//! On every (query, document) pair, the `ppl` engine over a warm store, over
//! a cold store and over a lazy-kernel store, the cold `hcl` engine and the
//! `acq` engine must agree tuple for tuple.  A full `answers_stream` drain
//! must yield no duplicates, and a `take(3)` prefix must be a subset of the
//! answers.  The random documents are 9 to 18 levels deep, so a
//! `descendant::…`-headed query reaches each image node from many start
//! nodes: exploring images instead of start nodes is exercised for real.

use ppl_xpath::{Engine, KernelMode, Planner, Session};
use std::collections::BTreeSet;
use xpath_ast::{parse_path, Var};
use xpath_tree::generate::dblp;
use xpath_tree::{NodeId, Tree};
use xpath_workload::{corpus_documents, dblp_suite, planner_mix_suite};

type Tuples = BTreeSet<Vec<NodeId>>;

fn answers(session: &Session, src: &str, vars: &[String], engine: Engine) -> Tuples {
    let output: Vec<Var> = vars.iter().map(|v| Var::new(v)).collect();
    let plan = Planner::default()
        .plan_with(session, parse_path(src).unwrap(), output, Some(engine))
        .unwrap();
    let set = session
        .execute(&plan)
        .unwrap_or_else(|e| panic!("{engine} failed on {src}: {e}"));
    set.tuples().iter().cloned().collect()
}

fn check_pairs(name: &str, tree: &Tree, suite: &[(String, Vec<String>)]) {
    let warm = Session::from_tree(tree.clone());
    let lazy = Session::from_tree(tree.clone());
    lazy.set_kernel_mode(KernelMode::Lazy);
    for (src, vars) in suite {
        let ctx = format!("{src} on {name}");
        let cold = answers(&Session::from_tree(tree.clone()), src, vars, Engine::Ppl);
        answers(&warm, src, vars, Engine::Ppl);
        assert_eq!(
            answers(&warm, src, vars, Engine::Ppl),
            cold,
            "warm ppl: {ctx}"
        );
        assert_eq!(
            answers(&lazy, src, vars, Engine::Ppl),
            cold,
            "lazy ppl: {ctx}"
        );
        assert_eq!(answers(&warm, src, vars, Engine::Hcl), cold, "hcl: {ctx}");
        assert_eq!(answers(&warm, src, vars, Engine::Acq), cold, "acq: {ctx}");

        let output: Vec<Var> = vars.iter().map(|v| Var::new(v)).collect();
        let plan = Planner::default()
            .plan_with(&warm, parse_path(src).unwrap(), output, Some(Engine::Ppl))
            .unwrap();
        let drained: Vec<Vec<NodeId>> = warm.answers_stream(&plan).unwrap().collect();
        assert_eq!(drained.len(), cold.len(), "stream duplicates: {ctx}");
        assert_eq!(
            drained.into_iter().collect::<Tuples>(),
            cold,
            "stream: {ctx}"
        );
        let prefix: Tuples = warm.answers_stream(&plan).unwrap().take(3).collect();
        assert_eq!(prefix.len(), cold.len().min(3), "prefix size: {ctx}");
        assert!(prefix.is_subset(&cold), "prefix not a subset: {ctx}");
    }
}

#[test]
fn engines_agree_on_the_dblp_document() {
    check_pairs("dblp", &dblp(2000, 2007), &dblp_suite());
}

#[test]
fn engines_agree_on_the_random_documents() {
    let docs = corpus_documents(4, 700, 2007);
    assert!(docs.iter().all(|(_, tree)| tree.height() >= 9));
    assert!(docs.iter().any(|(_, tree)| tree.height() > 10));
    for (name, tree) in &docs {
        check_pairs(name, tree, &planner_mix_suite());
    }
}

/// A chain 10⁵ deep: the first `descendant::a` row holds the whole image of
/// the root leaf, so the row scan stops there instead of rereading every
/// node's descendants (quadratic in the depth).
#[test]
fn a_chain_a_hundred_thousand_deep_answers_its_pairs() {
    let depth = 100_000;
    let xml = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let session = Session::from_xml(&xml).unwrap();
    let vars = ["x".to_string(), "y".to_string()];
    let pairs = answers(
        &session,
        "descendant::a[. is $x]/child::a[. is $y]",
        &vars,
        Engine::Ppl,
    );
    assert_eq!(pairs.len(), depth - 2);
    assert!(pairs
        .iter()
        .all(|t| session.tree().parent(t[1]) == Some(t[0])));
}
