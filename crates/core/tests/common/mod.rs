//! Generators shared by the property suites: random trees over the
//! `l0…` alphabet and random variable-free Core XPath 2.0 expressions.

use proptest::prelude::*;
use xpath_ast::{NameTest, PathExpr, TestExpr};
use xpath_tree::{Axis, Tree, TreeBuilder};

/// A random tree described by a parent vector: entry `i` holds the parent
/// index (< i + 1) of node `i + 1`.
pub fn arb_tree(max_nodes: usize, alphabet: usize) -> impl Strategy<Value = Tree> {
    prop::collection::vec(
        (0usize..usize::MAX, 0usize..alphabet),
        0..max_nodes.saturating_sub(1),
    )
    .prop_map(move |spec| {
        let n = spec.len() + 1;
        // parents[i] for i in 1..n, guaranteed < i.
        let parents: Vec<usize> = spec
            .iter()
            .enumerate()
            .map(|(i, (p, _))| p % (i + 1))
            .collect();
        let labels: Vec<usize> = std::iter::once(0)
            .chain(spec.iter().map(|(_, l)| *l))
            .collect();
        // Children in increasing order keeps document order == id order.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &p) in parents.iter().enumerate() {
            children[p].push(i + 1);
        }
        let mut b = TreeBuilder::new();
        fn emit(node: usize, children: &[Vec<usize>], labels: &[usize], b: &mut TreeBuilder) {
            b.open(&format!("l{}", labels[node]));
            for &c in &children[node] {
                emit(c, children, labels, b);
            }
            b.close();
        }
        emit(0, &children, &labels, &mut b);
        b.finish().expect("generated tree is balanced")
    })
}

/// Random variable-free Core XPath 2.0 expressions (the PPLbin source
/// fragment): steps, composition, union, intersect, except and filters with
/// and/or/not tests.
pub fn arb_variable_free(depth: u32) -> impl Strategy<Value = PathExpr> {
    let axis = prop_oneof![
        Just(Axis::SelfAxis),
        Just(Axis::Child),
        Just(Axis::Parent),
        Just(Axis::Descendant),
        Just(Axis::Ancestor),
        Just(Axis::FollowingSibling),
        Just(Axis::PrecedingSibling),
    ];
    let name = prop_oneof![
        Just(NameTest::Wildcard),
        Just(NameTest::name("l0")),
        Just(NameTest::name("l1")),
        Just(NameTest::name("l2")),
    ];
    let leaf = (axis, name).prop_map(|(a, n)| PathExpr::Step(a, n));
    leaf.prop_recursive(depth, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PathExpr::Seq(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PathExpr::Union(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PathExpr::Intersect(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PathExpr::Except(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PathExpr::Filter(Box::new(a), Box::new(TestExpr::Path(b)))),
            (inner.clone(), inner).prop_map(|(a, b)| PathExpr::Filter(
                Box::new(a),
                Box::new(TestExpr::Not(Box::new(TestExpr::Path(b))))
            )),
        ]
    })
}
