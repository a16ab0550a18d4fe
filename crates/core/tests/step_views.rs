//! Step atoms are views of the tree snapshot, not store entries.
//!
//! * **Differential.**  For every axis × {`*`, a label of the tree, an
//!   absent label} on generated trees of every shape, each row of the
//!   session store's [`SuccessorSource::Step`] view equals
//!   `step_relation(..).successor_list(u)`, and `row_any` / `row_nonempty`
//!   agree with it.  The check is repeated after an insert, a delete and a
//!   relabel through [`Session::fork_edited`]: the fork reads the new
//!   snapshot, and the old session — and a view taken from it before the
//!   edit — still read the old one.
//! * **Footprint.**  Answering a query made only of plain steps leaves the
//!   store empty, and a corpus relabel on a document queried only that way
//!   invalidates no rows.

use ppl_xpath::{Engine, Planner, Session};
use std::sync::Arc;
use xpath_ast::{parse_path, BinExpr, NameTest, Var};
use xpath_corpus::{Corpus, DocEdit};
use xpath_pplbin::{step_relation, SuccessorSource};
use xpath_tree::axes::ALL_AXES;
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_tree::{NodeId, Tree};

const ABSENT: &str = "absent";

/// The view of `axis::test` from `session`'s store.
fn view(session: &Session, step: &BinExpr) -> SuccessorSource {
    let source = session.store().successor_source(step).unwrap();
    assert!(matches!(source, SuccessorSource::Step(_)), "{step}");
    source
}

/// Every row of `source` against the compiled relation of `step` on `tree`.
fn assert_rows(source: &SuccessorSource, tree: &Tree, step: &BinExpr, ctx: &str) {
    let BinExpr::Step(axis, test) = step else {
        unreachable!("only steps are viewed")
    };
    let relation = step_relation(tree, *axis, test);
    assert_eq!(source.len(), tree.len(), "{ctx}: {step}");
    for u in tree.nodes() {
        let expected = relation.successor_list(u);
        let at = || format!("{ctx}: {step} row {}\n  tree: {}", u.0, tree.to_terms());
        assert_eq!(source.row_vec(u), expected, "{}", at());
        assert_eq!(source.row_nonempty(u), !expected.is_empty(), "{}", at());
        // `row_any` visits exactly the row (the order is the view's own).
        let mut visited: Vec<NodeId> = Vec::new();
        assert!(!source.row_any(u, |v| {
            visited.push(v);
            false
        }));
        visited.sort_unstable();
        assert_eq!(visited, expected, "{}", at());
        if let Some(&last) = expected.last() {
            assert!(source.row_any(u, |v| v == last), "{}", at());
        }
    }
}

/// The steps checked on `tree`: every axis with `*`, with `present` and
/// with a name no node carries.
fn steps(present: &str) -> Vec<BinExpr> {
    ALL_AXES
        .iter()
        .flat_map(|&axis| {
            [
                NameTest::Wildcard,
                NameTest::name(present),
                NameTest::name(ABSENT),
            ]
            .map(|test| BinExpr::Step(axis, test))
        })
        .collect()
}

/// Check every view of `session` and that none of them touched the store.
fn assert_views(session: &Session, present: &str, ctx: &str) {
    for step in steps(present) {
        assert_rows(&view(session, &step), session.tree(), &step, ctx);
    }
    assert_eq!(
        session.cache_stats().lookups(),
        0,
        "{ctx}: views take no lock"
    );
    assert_eq!(
        session.store().approx_bytes(),
        0,
        "{ctx}: views take no bytes"
    );
}

#[test]
fn step_views_match_compiled_step_relations_across_edits() {
    let shapes = [
        TreeShape::RandomAttachment,
        TreeShape::BoundedBranching { max_children: 3 },
        TreeShape::Path,
        TreeShape::Star,
        TreeShape::Complete { arity: 2 },
    ];
    for (i, shape) in shapes.into_iter().enumerate() {
        for size in [1, 2, 9, 40] {
            let tree = random_tree(&TreeGenConfig {
                size,
                shape,
                alphabet: 3,
                seed: 0x5EED + i as u64 * 101 + size as u64,
            });
            let ctx = format!("{shape:?} |t|={size}");
            let session = Session::from_tree(tree);
            let present = session.label(NodeId(session.len() as u32 - 1)).to_string();
            assert_views(&session, &present, &ctx);
            let before: Vec<(BinExpr, SuccessorSource)> = steps(&present)
                .into_iter()
                .map(|step| {
                    let source = view(&session, &step);
                    (step, source)
                })
                .collect();

            let old = session.tree();
            let last = NodeId(old.len() as u32 - 1);
            let sub = Tree::from_terms(&format!("{present}(l0,fresh({present}))")).unwrap();
            let mut edits = vec![
                (
                    "insert",
                    old.insert_subtree(old.root(), 0, &sub).unwrap(),
                    present.clone(),
                ),
                (
                    "relabel",
                    old.relabel(last, "fresh").unwrap(),
                    "fresh".to_string(),
                ),
            ];
            if old.len() > 1 {
                edits.push(("delete", old.delete_subtree(last).unwrap(), present.clone()));
            }
            for (kind, (new_tree, delta), label) in edits {
                let new_tree = Arc::new(new_tree);
                let (forked, _) = session.fork_edited(Arc::clone(&new_tree), &delta);
                assert!(Arc::ptr_eq(&forked.shared_tree(), &new_tree));
                assert_views(&forked, &label, &format!("{ctx} after {kind}"));
                // The old session still serves the old snapshot, and so do
                // the views it handed out before the edit.
                assert_views(&session, &present, &format!("{ctx} before {kind}"));
                for (step, source) in &before {
                    assert_rows(
                        source,
                        session.tree(),
                        step,
                        &format!("{ctx} held over {kind}"),
                    );
                }
            }
        }
    }
}

/// The plain-step query of the planner-mix suite.
const STEP_QUERY: &str = "descendant::l0[child::l1[. is $x]]/child::l2[. is $y]";

#[test]
fn plain_step_queries_leave_the_store_empty() {
    let tree = random_tree(&TreeGenConfig {
        size: 300,
        alphabet: 3,
        ..TreeGenConfig::default()
    });
    let session = Session::from_tree(tree);
    let plan = Planner::default()
        .plan_with(
            &session,
            parse_path(STEP_QUERY).unwrap(),
            vec![Var::new("x"), Var::new("y")],
            None,
        )
        .unwrap();
    assert_eq!(plan.engine(), Engine::Ppl, "{}", plan.explain());
    let answers = session.execute(&plan).unwrap();
    assert!(!answers.is_empty(), "the query must select something");
    assert_eq!(session.cache_stats().compiled, 0);
    assert_eq!(session.store().approx_bytes(), 0);
}

#[test]
fn relabel_of_a_plain_step_document_invalidates_no_rows() {
    let tree = random_tree(&TreeGenConfig {
        size: 300,
        alphabet: 3,
        ..TreeGenConfig::default()
    });
    // An `l0` node turned `l1`: inside the query's label footprint, so a
    // cached step entry would have been dropped.
    let relabelled = tree.nodes_with_label_str("l0")[3];
    let corpus = Corpus::new();
    corpus.insert_tree("doc", tree);
    let answers = corpus.answer("doc", STEP_QUERY, &["x", "y"]).unwrap();
    assert!(!answers.is_empty());
    let outcome = corpus
        .mutate(
            "doc",
            &DocEdit::Relabel {
                node: relabelled.0,
                label: "l1".into(),
            },
        )
        .unwrap();
    assert!(outcome.incremental, "the warm session was carried over");
    assert_eq!(outcome.stats.rows_invalidated, 0, "{:?}", outcome.stats);
    let after = corpus.answer("doc", STEP_QUERY, &["x", "y"]).unwrap();
    assert_ne!(after, answers, "the relabel moved the answers");
}
