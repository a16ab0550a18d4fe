//! Property-based tests (proptest) on the core data structures and the
//! evaluation invariants.
//!
//! * random trees: structural invariants, axis successor/relation agreement,
//!   binary-encoding round trips;
//! * random variable-free expressions: Boolean-matrix evaluation agrees with
//!   the Fig. 2 specification semantics, and parse/print round trips hold;
//! * random PPL queries from a template family: the PPL pipeline agrees with
//!   the naive engine.

use ppl_xpath::prelude::*;
use ppl_xpath::Engine;
use proptest::prelude::*;
use xpath_tree::{BinaryTree, Tree};

mod common;
use common::{arb_tree, arb_variable_free};

// ---------------------------------------------------------------------------
// Tree properties
// ---------------------------------------------------------------------------

proptest! {
    // The default (64 cases) reads PROPTEST_CASES, so CI can run more.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn generated_trees_satisfy_structural_invariants(tree in arb_tree(40, 3)) {
        prop_assert!(tree.check_invariants().is_ok());
        // Term syntax round trip.
        let reparsed = Tree::from_terms(&tree.to_terms()).unwrap();
        prop_assert_eq!(reparsed.to_terms(), tree.to_terms());
        // XML round trip.
        let xml = xpath_xml::to_xml(&tree);
        let from_xml = xpath_xml::parse(&xml).unwrap();
        prop_assert_eq!(from_xml.to_terms(), tree.to_terms());
    }

    #[test]
    fn axis_iteration_agrees_with_pairwise_relation(tree in arb_tree(25, 3)) {
        for axis in xpath_tree::axes::ALL_AXES {
            for u in tree.nodes() {
                let listed: std::collections::HashSet<_> = tree.axis_iter(axis, u).collect();
                for v in tree.nodes() {
                    prop_assert_eq!(axis.relates(&tree, u, v), listed.contains(&v));
                }
            }
        }
    }

    #[test]
    fn binary_encoding_round_trips(tree in arb_tree(40, 3)) {
        let encoded = BinaryTree::encode(&tree);
        prop_assert_eq!(encoded.decode().to_terms(), tree.to_terms());
        // The encoding has the same node count and no second child at the root.
        prop_assert_eq!(encoded.len(), tree.len());
        prop_assert!(encoded.second_child(encoded.root()).is_none());
    }

    #[test]
    fn lca_is_a_common_ancestor_and_the_deepest_one(tree in arb_tree(30, 2)) {
        let nodes: Vec<NodeId> = tree.nodes().collect();
        for &a in nodes.iter().step_by(3) {
            for &b in nodes.iter().step_by(4) {
                let l = tree.lca(a, b);
                prop_assert!(tree.is_descendant_or_self(a, l));
                prop_assert!(tree.is_descendant_or_self(b, l));
                // No child of l is a common ancestor of both.
                for c in tree.children(l) {
                    prop_assert!(
                        !(tree.is_descendant_or_self(a, c) && tree.is_descendant_or_self(b, c))
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Expression / engine properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn printer_parser_round_trip_on_variable_free_expressions(
        expr in arb_variable_free(3)
    ) {
        let printed = expr.to_string();
        let reparsed = xpath_ast::parse_path(&printed).unwrap();
        prop_assert_eq!(reparsed, expr);
    }

    #[test]
    fn matrix_engine_agrees_with_specification_on_random_expressions(
        tree in arb_tree(14, 3),
        expr in arb_variable_free(2),
    ) {
        let bin = xpath_ast::binexpr::from_variable_free_path(&expr).unwrap();
        let matrix = xpath_pplbin::answer_binary(&tree, &bin).pairs();
        let naive = xpath_naive::answer_binary(&tree, &expr).unwrap();
        prop_assert_eq!(matrix, naive);
    }

    #[test]
    fn ppl_pipeline_agrees_with_naive_on_selection_queries(
        tree in arb_tree(12, 3),
        label in 0usize..3,
        use_union in any::<bool>(),
    ) {
        // A family of 1-ary and 2-ary PPL queries built from the random label.
        let name = format!("l{label}");
        let src = if use_union {
            format!("descendant::{name}[. is $a] union child::*[. is $a]")
        } else {
            format!("descendant::*[child::{name}[. is $a]][. is $b]")
        };
        let query = xpath_ast::parse_path(&src).unwrap();
        let outputs: Vec<Var> = if use_union {
            vec![Var::new("a")]
        } else {
            vec![Var::new("a"), Var::new("b")]
        };
        let session = Session::from_tree(tree);
        let fast = Engine::Ppl.answer(&session, &query, &outputs).unwrap();
        let slow = Engine::NaiveEnumeration.answer(&session, &query, &outputs).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn nodeset_operations_match_reference_sets(
        members_a in prop::collection::btree_set(0u32..120, 0..40),
        members_b in prop::collection::btree_set(0u32..120, 0..40),
    ) {
        use std::collections::BTreeSet;
        use xpath_tree::NodeSet;
        let domain = 120;
        let a = NodeSet::from_iter(domain, members_a.iter().map(|&i| NodeId(i)));
        let b = NodeSet::from_iter(domain, members_b.iter().map(|&i| NodeId(i)));
        let union: BTreeSet<u32> = members_a.union(&members_b).copied().collect();
        let inter: BTreeSet<u32> = members_a.intersection(&members_b).copied().collect();
        let diff: BTreeSet<u32> = members_a.difference(&members_b).copied().collect();
        prop_assert_eq!(a.union(&b).iter().map(|n| n.0).collect::<BTreeSet<_>>(), union);
        prop_assert_eq!(a.intersection(&b).iter().map(|n| n.0).collect::<BTreeSet<_>>(), inter);
        prop_assert_eq!(a.difference(&b).iter().map(|n| n.0).collect::<BTreeSet<_>>(), diff);
        prop_assert_eq!(a.complemented().len(), domain - members_a.len());
        prop_assert_eq!(a.len(), members_a.len());
    }
}
