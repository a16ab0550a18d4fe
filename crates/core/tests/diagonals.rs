//! Diagonal atoms as node sets and filtered steps as tree views, checked
//! against the matrix engine (Theorem 2), which stays the oracle:
//!
//! * every diagonal subterm of a random PPLbin expression has the node set
//!   `{u | (u, u) ∈ M}` of its matrix `M`, and the matrix has no pair off
//!   the identity;
//! * the pre-image `pre(P, S)` of every subterm matches the matrix engine
//!   for random node sets `S`;
//! * every filtered-view subterm served by a `SharedMatrixStore` has the
//!   rows of `MatrixStore::successor_lists`, in all four kernel modes;
//! * the served suites (`dblp_suite`, `planner_mix_suite`) on documents
//!   built the way the serving benchmark builds them compile no matrix.

use ppl_xpath::{Engine, Planner, Session};
use proptest::prelude::*;
use std::convert::Infallible;
use std::sync::Arc;
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::{parse_path, BinExpr, Var};
use xpath_pplbin::{
    answer_binary, diagonal_set, is_diagonal, pre_set, AtomClass, KernelMode, MatrixStore,
    SharedMatrixStore, SuccessorSource,
};
use xpath_tree::{NodeId, NodeSet, Tree};

mod common;
use common::{arb_tree, arb_variable_free};

const MODES: [KernelMode; 4] = [
    KernelMode::Dense,
    KernelMode::Adaptive,
    KernelMode::AdaptiveThreaded,
    KernelMode::Lazy,
];

/// Every subterm of `expr`, `expr` included.
fn subterms(expr: &BinExpr) -> Vec<&BinExpr> {
    let mut out = vec![expr];
    let mut i = 0;
    while i < out.len() {
        match out[i] {
            BinExpr::Step(..) => {}
            BinExpr::Seq(a, b) | BinExpr::Union(a, b) => out.extend([a.as_ref(), b.as_ref()]),
            BinExpr::Except(p) | BinExpr::Test(p) => out.push(p),
        }
        i += 1;
    }
    out
}

/// `pre(P, S)` read off the matrix of `P`: the fallback the set evaluator
/// hands subterms outside its fragment to, and the oracle it is checked
/// against.
fn matrix_pre(tree: &Tree, expr: &BinExpr, set: &NodeSet) -> NodeSet {
    let m = answer_binary(tree, expr);
    NodeSet::from_iter(
        tree.len(),
        tree.nodes()
            .filter(|&u| m.successors(u).any(|v| set.contains(v))),
    )
}

/// A node set of `tree` drawn from `bits`.
fn node_set(tree: &Tree, bits: u64) -> NodeSet {
    NodeSet::from_iter(
        tree.len(),
        tree.nodes().filter(|u| bits.rotate_left(u.0) & 1 == 1),
    )
}

proptest! {
    // The default (64 cases) reads PROPTEST_CASES, so CI can run more.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn diagonal_subterms_are_the_matrix_diagonal(
        tree in arb_tree(18, 3),
        expr in arb_variable_free(3),
    ) {
        let bin = from_variable_free_path(&expr).unwrap();
        for sub in subterms(&bin).into_iter().filter(|s| is_diagonal(s)) {
            let m = answer_binary(&tree, sub);
            for (u, v) in m.pairs() {
                prop_assert_eq!(u, v, "{} relates two nodes", sub);
            }
            let expected = NodeSet::from_iter(tree.len(), tree.nodes().filter(|&u| m.get(u, u)));
            let got = diagonal_set(&tree, sub, &mut |p, s| {
                Ok::<_, Infallible>(matrix_pre(&tree, p, s))
            })
            .unwrap();
            prop_assert_eq!(got, expected, "{} over {}", sub, tree.to_terms());
        }
    }

    #[test]
    fn pre_images_match_the_matrix_engine(
        tree in arb_tree(18, 3),
        expr in arb_variable_free(3),
        bits in any::<u64>(),
    ) {
        let bin = from_variable_free_path(&expr).unwrap();
        let set = node_set(&tree, bits);
        for sub in subterms(&bin) {
            let got = pre_set(&tree, sub, &set, &mut |p, s| {
                Ok::<_, Infallible>(matrix_pre(&tree, p, s))
            })
            .unwrap();
            prop_assert_eq!(got, matrix_pre(&tree, sub, &set), "{} over {}", sub, tree.to_terms());
        }
    }

    #[test]
    fn filtered_views_match_matrix_successor_lists_in_every_mode(
        tree in arb_tree(18, 3),
        expr in arb_variable_free(3),
    ) {
        let bin = from_variable_free_path(&expr).unwrap();
        let tree = Arc::new(tree);
        let atoms: Vec<&BinExpr> = subterms(&bin)
            .into_iter()
            .filter(|s| AtomClass::of(s) == AtomClass::FilteredView)
            .collect();
        for mode in MODES {
            let shared = SharedMatrixStore::with_mode(Arc::clone(&tree), mode);
            let mut oracle = MatrixStore::with_mode(tree.len(), mode);
            for atom in &atoms {
                let source = shared.successor_source(atom).unwrap();
                prop_assert!(matches!(source, SuccessorSource::Filtered(_)), "{}", atom);
                let lists = oracle.successor_lists(&tree, atom);
                for u in tree.nodes() {
                    let want = &lists[u.index()];
                    prop_assert_eq!(&source.row_vec(u), want, "{:?} {} row {}", mode, atom, u);
                    prop_assert_eq!(source.row_nonempty(u), !want.is_empty());
                    let last = want.last().copied();
                    prop_assert_eq!(source.row_any(u, |v| Some(v) == last), last.is_some());
                }
            }
        }
    }
}

/// A query suite: sources and their output variables.
type Suite = Vec<(String, Vec<String>)>;

/// `n`-node documents built the way the serving benchmark builds them: DBLP
/// records over `dblp_suite`, random `l0…l2` trees over
/// `planner_mix_suite`.
fn served_documents(n: usize) -> Vec<(Tree, Suite)> {
    let mut docs = Vec::new();
    for i in 0..2 {
        let tree = xpath_tree::generate::dblp(n, 2007 + i);
        docs.push((tree, xpath_workload::dblp_suite()));
    }
    for (_, tree) in xpath_workload::corpus_documents(2, n / 3, 2007) {
        docs.push((tree, xpath_workload::planner_mix_suite()));
    }
    docs
}

#[test]
fn served_atoms_build_no_matrix() {
    for (tree, suite) in served_documents(240) {
        let n = tree.len();
        let session = Session::from_tree(tree);
        let mut atoms: Vec<BinExpr> = Vec::new();
        for (src, vars) in &suite {
            let output: Vec<Var> = vars.iter().map(|v| Var::new(v)).collect();
            let plan = Planner::default()
                .plan_with(
                    &session,
                    parse_path(src).unwrap(),
                    output,
                    Some(Engine::Ppl),
                )
                .unwrap();
            for atom in plan.hcl().unwrap().atoms() {
                if !atoms.contains(atom) {
                    atoms.push(atom.clone());
                }
            }
            let got = session.execute(&plan).unwrap();
            let cold = Planner::default()
                .plan_with(
                    &session,
                    plan.source().clone(),
                    plan.output().to_vec(),
                    Some(Engine::Hcl),
                )
                .unwrap();
            assert_eq!(got, session.execute(&cold).unwrap(), "{src} on {n} nodes");
        }
        for atom in &atoms {
            assert_ne!(
                AtomClass::of(atom),
                AtomClass::Matrix,
                "{atom} compiles a matrix"
            );
        }
        let stats = session.cache_stats();
        let k = stats.kernels;
        assert_eq!(k.complement_ops, 0, "{n} nodes: {k}");
        assert_eq!(k.union_dense, 0, "{n} nodes: {k}");
        assert_eq!(
            k.product_dense + k.product_dense_threaded,
            0,
            "{n} nodes: {k}"
        );
        assert_eq!(stats.compiled, 0, "{n} nodes: {stats:?}");
        assert!(stats.sets > 0, "{n} nodes: {stats:?}");
        let bytes = session.store().approx_bytes();
        assert!(
            bytes <= atoms.len() * n / 4,
            "{bytes} B for {} atoms over {n} nodes",
            atoms.len()
        );
    }
}

#[test]
fn a_domain_outside_the_set_fragment_compiles_only_that_domain() {
    let tree = Arc::new(Tree::from_terms("r(a(b,c(a)),a(c),b(a(b)))").unwrap());
    // `child::a/parent::*` has a diagonal part that cannot be read off, so
    // `except` over it leaves the set fragment.
    let atom = from_variable_free_path(
        &parse_path("descendant::a[not(descendant::* except child::a/parent::*)]").unwrap(),
    )
    .unwrap();
    assert_eq!(AtomClass::of(&atom), AtomClass::FilteredView);
    let store = SharedMatrixStore::new(Arc::clone(&tree));
    let source = store.successor_source(&atom).unwrap();
    let m = answer_binary(&tree, &atom);
    for u in tree.nodes() {
        assert_eq!(
            source.row_vec(u),
            m.successors(u).collect::<Vec<NodeId>>(),
            "row {u}"
        );
    }
    let stats = store.stats();
    assert!(stats.compiled > 0, "the domain compiled: {stats:?}");
    assert_eq!(stats.sets, 1, "{stats:?}");
}
