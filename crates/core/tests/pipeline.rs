//! End-to-end pipeline tests: XML in, answers out, plus the cross-engine
//! consistency checks between the PPLbin matrix engine, the Core XPath 1.0
//! set-based evaluator, the ACQ/Yannakakis path and the HCL algorithm.

use ppl_xpath::prelude::*;
use std::collections::BTreeSet;
use xpath_acq::{answer_acq, hcl_to_acq};
use xpath_ast::binexpr::from_variable_free_path;
use xpath_hcl::{answer_hcl_pplbin, ppl_to_hcl, Hcl};
use xpath_pplbin::{answer_binary, has_successor_set, succ_set};
use xpath_tree::NodeSet;

const BIB_XML: &str = r#"<?xml version="1.0"?>
<bib>
  <book><author/><title/><year/></book>
  <book><author/><author/><title/></book>
  <article><author/><title/></article>
</bib>"#;

#[test]
fn xml_to_answers_end_to_end() {
    let session = Session::from_xml(BIB_XML).unwrap();
    assert_eq!(session.label(session.root()), "bib");

    let answers = session
        .answer(
            "descendant::book[child::author[. is $a] and child::title[. is $t]]",
            &["a", "t"],
        )
        .unwrap();
    assert_eq!(answers.len(), 3); // 1 + 2 author-title pairs from the books
    for tuple in answers.iter() {
        assert_eq!(session.label(tuple[0]), "author");
        assert_eq!(session.label(tuple[1]), "title");
        let parent = |n: NodeId| session.tree().parent(n);
        assert_eq!(parent(tuple[0]), parent(tuple[1]));
        assert_eq!(session.label(parent(tuple[0]).unwrap()), "book");
    }

    // Including the article: select (publication, title) pairs for books OR
    // articles, exercising union with a shared variable.
    let any_pub = session
        .plan(
            "descendant::book[. is $p][child::title[. is $t]] \
             union descendant::article[. is $p][child::title[. is $t]]",
            &["p", "t"],
        )
        .unwrap();
    // Chained filters share no variables between base and test?  They do
    // here ($p in the base, $t in the test) — that is allowed; sharing the
    // *same* variable would not be.
    assert!(any_pub.features().ppl);
    let ans = session.execute(&any_pub).unwrap();
    assert_eq!(ans.len(), 3); // two books + one article, one title each
}

#[test]
fn binary_engines_agree_with_each_other() {
    let session = Session::from_xml(BIB_XML).unwrap();
    let tree = session.tree();
    for src in [
        "child::book/child::author",
        "descendant::title",
        "(child::book union child::article)/child::title",
        "child::*[child::author]/child::year",
    ] {
        let bin = from_variable_free_path(&xpath_ast::parse_path(src).unwrap()).unwrap();
        // Matrix engine (Theorem 2).
        let matrix = answer_binary(tree, &bin);
        // Core XPath 1.0 set-based evaluator (except-free fragment only).
        let full = NodeSet::full(tree.len());
        let reachable = succ_set(tree, &bin, &full).unwrap();
        let mut expected = NodeSet::empty(tree.len());
        for (_, v) in matrix.pairs() {
            expected.insert(v);
        }
        assert_eq!(reachable, expected, "{src}");
        let with_succ = has_successor_set(tree, &bin).unwrap();
        assert_eq!(with_succ, matrix.nonempty_rows(), "{src}");
        // The session's shared matrix store.
        assert_eq!(session.store().eval(&bin), matrix, "{src}");
    }
}

#[test]
fn yannakakis_agrees_with_the_hcl_algorithm_on_union_free_queries() {
    let session = Session::from_xml(BIB_XML).unwrap();
    let tree = session.tree();
    let bin = |s: &str| from_variable_free_path(&xpath_ast::parse_path(s).unwrap()).unwrap();
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
            Hcl::Atom(bin("child::*"))
                .then(Hcl::Var(Var::new("p")))
                .then(Hcl::Atom(bin("child::author")))
                .then(Hcl::Var(Var::new("a"))),
            vec![Var::new("p"), Var::new("a")],
        ),
    ];
    for (hcl, output) in queries {
        let via_hcl = answer_hcl_pplbin(tree, &hcl, &output).unwrap();
        let (cq, db) = hcl_to_acq(tree, &hcl, &output).unwrap();
        let via_acq = answer_acq(&cq, &db).unwrap();
        assert_eq!(via_hcl, via_acq, "{hcl}");
    }
}

#[test]
fn fig7_translation_round_trip_preserves_answers() {
    let session = Session::from_xml(BIB_XML).unwrap();
    let tree = session.tree();
    let sources = [
        "descendant::book[child::author[. is $a] and child::title[. is $t]]",
        "descendant::author[. is $x] union descendant::title[. is $x]",
        "$x/child::author[. is $y]",
    ];
    for src in sources {
        let ppl = xpath_ast::parse_path(src).unwrap();
        let vars: Vec<Var> = ppl.free_vars().into_iter().collect();
        let hcl = ppl_to_hcl(&ppl).unwrap();
        let direct = answer_hcl_pplbin(tree, &hcl, &vars).unwrap();
        // Translate back to PPL and through the facade pipeline again.
        let back = xpath_hcl::hcl_to_ppl(&hcl);
        let back_hcl = ppl_to_hcl(&back).unwrap();
        let round_tripped = answer_hcl_pplbin(tree, &back_hcl, &vars).unwrap();
        assert_eq!(direct, round_tripped, "{src}");
    }
}

#[test]
fn explain_and_render_produce_readable_reports() {
    let session = Session::from_xml(BIB_XML).unwrap();
    let plan = session
        .plan(
            "descendant::book[child::author[. is $a] and child::title[. is $t]]",
            &["a", "t"],
        )
        .unwrap();
    let explain = plan.explain();
    assert!(explain.contains("query        : descendant::book"));
    assert!(explain.contains("PPLbin atoms"));
    let rendered = session.execute(&plan).unwrap().render(&session);
    assert!(rendered.contains("$a=author#"));
    assert!(rendered.contains("$t=title#"));
}

#[test]
fn larger_document_smoke_test() {
    // A wider restaurant-guide document through the whole pipeline.
    let attrs = xpath_tree::generate::RESTAURANT_ATTRIBUTES;
    let tree = xpath_tree::generate::restaurants(25, &attrs, 7);
    let session = Session::from_tree(tree);
    let (query, vars) = xpath_workload::restaurant_query(4);
    let answers = Engine::Ppl.answer(&session, &query, &vars).unwrap();
    assert_eq!(answers.len(), 25);
    assert_eq!(answers.arity(), 4);
    // Selecting all 11 attributes: restaurants missing the last column drop
    // out (every 7th), so 25 - 3 = 22 rows.
    let (query11, vars11) = xpath_workload::restaurant_query(11);
    let answers11 = Engine::Ppl.answer(&session, &query11, &vars11).unwrap();
    assert_eq!(answers11.len(), 22);
    assert_eq!(answers11.arity(), 11);

    // Cross-check a sample of the unary projection with the binary engine.
    let names =
        from_variable_free_path(&parse_path("descendant::restaurant/child::name").unwrap())
            .unwrap();
    let name_nodes: BTreeSet<NodeId> = session
        .store()
        .eval(&names)
        .successors(session.root())
        .collect();
    let projected: BTreeSet<NodeId> = answers.iter().map(|t| t[0]).collect();
    assert!(projected.is_subset(&name_nodes));
}
