//! Differential tests: the polynomial PPL engine must agree tuple-for-tuple
//! with the exponential specification baseline (Fig. 2 semantics) on every
//! query of a representative suite, over documents of several shapes.

use ppl_xpath::prelude::*;
use ppl_xpath::Engine;
use xpath_tree::generate::{bibliography, random_tree, restaurants, TreeGenConfig, TreeShape};
use xpath_tree::Tree;

/// The PPL query suite used throughout the differential tests: a mix of the
/// paper's examples, wide-tuple queries, unions with shared variables,
/// variable-free operators and goto-style variables.
fn query_suite() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
            vec!["y", "z"],
        ),
        ("descendant::author[. is $a]", vec!["a"]),
        ("descendant::book[. is $b]/child::title[. is $t]", vec!["b", "t"]),
        ("child::*[. is $x]/child::*[. is $y]", vec!["x", "y"]),
        (
            "descendant::author[. is $x] union descendant::title[. is $x]",
            vec!["x"],
        ),
        (
            "descendant::book[child::author[. is $x] or child::title[. is $x]]",
            vec!["x"],
        ),
        ("(descendant::* except descendant::author)[. is $n]", vec!["n"]),
        ("descendant::*[not(child::*)][. is $leaf]", vec!["leaf"]),
        ("$x/child::*[. is $y]", vec!["x", "y"]),
        ("descendant::*[$x is $y]", vec!["x", "y"]),
        (
            "descendant::book[child::author[. is $a]]/following_sibling::book[child::title[. is $t]]",
            vec!["a", "t"],
        ),
        ("descendant::book", vec![]),
        ("descendant::publisher[. is $p]", vec!["p"]),
    ]
}

fn check_all_queries(session: &Session) {
    for (src, outputs) in query_suite() {
        let query = xpath_ast::parse_path(src).unwrap();
        let vars: Vec<Var> = outputs.iter().map(|n| Var::new(n)).collect();
        let fast = Engine::Ppl.answer(session, &query, &vars).unwrap();
        let slow = Engine::NaiveEnumeration
            .answer(session, &query, &vars)
            .unwrap();
        assert_eq!(
            fast,
            slow,
            "engines disagree on {src:?} over {}",
            session.tree().to_terms()
        );
    }
}

#[test]
fn engines_agree_on_the_bibliography_document() {
    let session = Session::from_tree(bibliography(4, 3));
    check_all_queries(&session);
}

#[test]
fn engines_agree_on_the_restaurant_document() {
    let session = Session::from_tree(restaurants(3, &["name", "city", "phone"], 2));
    check_all_queries(&session);
}

#[test]
fn engines_agree_on_random_trees_of_every_shape() {
    for shape in [
        TreeShape::RandomAttachment,
        TreeShape::BoundedBranching { max_children: 3 },
        TreeShape::Path,
        TreeShape::Star,
        TreeShape::Complete { arity: 2 },
    ] {
        let tree = random_tree(&TreeGenConfig {
            size: 12,
            shape,
            alphabet: 3,
            seed: 0xABCD,
        });
        let session = Session::from_tree(tree);
        check_all_queries(&session);
    }
}

#[test]
fn engines_agree_on_tiny_and_degenerate_trees() {
    for terms in ["a", "a(a)", "a(a,a,a)", "l0(l1(l0(l1)))"] {
        let session = Session::from_tree(Tree::from_terms(terms).unwrap());
        check_all_queries(&session);
    }
}

#[test]
fn answer_sets_are_output_sensitive_not_domain_sized() {
    // A selective query on a larger document: the answer set stays small
    // even though |t|^n is large — the property Theorem 1 is about.
    let session = Session::from_tree(bibliography(40, 4));
    let q =
        parse_path("descendant::book[child::author[. is $y] and child::title[. is $z]]").unwrap();
    let ans = Engine::Ppl
        .answer(&session, &q, &[Var::new("y"), Var::new("z")])
        .unwrap();
    // One (author, title) pair per author of each book: books have
    // 1 + (i mod 4) authors.
    let expected: usize = (0..40).map(|i| 1 + (i % 4)).sum();
    assert_eq!(ans.len(), expected);
    assert!(ans.len() < session.len() * session.len() / 10);
}
