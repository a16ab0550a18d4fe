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
//! * every source the store serves (step and filtered views, first-child
//!   steps included, and compiled rows) has the pre-image of its own row
//!   sweep and of the matrix engine, in all four kernel modes, a view has
//!   the image its rows give, and Fig. 8's `MC` table over the store
//!   equals the one over cold matrices;
//! * the served suites (`dblp_suite`, `planner_mix_suite`) on documents
//!   built the way the serving benchmark builds them compile no matrix.

use ppl_xpath::{Engine, Planner, Session};
use proptest::prelude::*;
use std::convert::Infallible;
use std::sync::Arc;
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::{parse_path, BinExpr, NameTest, PathExpr, TestExpr, Var};
use xpath_hcl::mc::McTable;
use xpath_hcl::oracle::intern_atoms;
use xpath_hcl::{EquationSystem, Hcl, PplBinAtoms};
use xpath_pplbin::{
    answer_binary, diagonal_set, is_diagonal, pre_set, AtomClass, KernelMode, MatrixStore,
    SharedMatrixStore, SuccessorSource,
};
use xpath_tree::{Axis, NodeId, NodeSet, Tree};

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

/// Every axis, first-child and the one-step sibling axes included.
const AXES: [Axis; 14] = [
    Axis::SelfAxis,
    Axis::Child,
    Axis::Parent,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::FollowingSibling,
    Axis::FollowingSiblingOrSelf,
    Axis::PrecedingSibling,
    Axis::PrecedingSiblingOrSelf,
    Axis::NextSibling,
    Axis::PrevSibling,
    Axis::FirstChild,
];

/// `axis::l<name>` (`*` for `name` 3) and the filtered views around it:
/// `self::*[d1]/step` (a `D₁` only), `step[d2]` (a `D₂` only) and
/// `self::*[d1]/step[d2]` (both).
fn step_atoms(axis: Axis, name: usize, d1: &PathExpr, d2: &PathExpr) -> [PathExpr; 4] {
    let test = match name {
        3 => NameTest::Wildcard,
        l => NameTest::name(&format!("l{l}")),
    };
    let filter = |p: PathExpr, d: &PathExpr| {
        PathExpr::Filter(Box::new(p), Box::new(TestExpr::Path(d.clone())))
    };
    let step = PathExpr::Step(axis, test);
    let sourced = filter(PathExpr::Step(Axis::SelfAxis, NameTest::Wildcard), d1);
    [
        step.clone(),
        PathExpr::Seq(Box::new(sourced.clone()), Box::new(step.clone())),
        filter(step.clone(), d2),
        PathExpr::Seq(Box::new(sourced), Box::new(filter(step, d2))),
    ]
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

    #[test]
    fn pre_images_of_served_sources_match_their_row_sweep_in_every_mode(
        tree in arb_tree(18, 3),
        expr in arb_variable_free(3),
        axis in 0usize..AXES.len(),
        name in 0usize..4,
        d1 in arb_variable_free(2),
        d2 in arb_variable_free(2),
        bits in any::<u64>(),
    ) {
        let tree = Arc::new(tree);
        let set = node_set(&tree, bits);
        let views: Vec<BinExpr> = step_atoms(AXES[axis], name, &d1, &d2)
            .iter()
            .map(|p| from_variable_free_path(p).unwrap())
            .collect();
        prop_assert_eq!(AtomClass::of(&views[0]), AtomClass::View);
        for view in &views[1..] {
            prop_assert_eq!(AtomClass::of(view), AtomClass::FilteredView, "{}", view);
        }
        let bin = from_variable_free_path(&expr).unwrap();
        let atoms: Vec<&BinExpr> = views.iter().chain(subterms(&bin)).collect();
        for mode in MODES {
            let store = SharedMatrixStore::with_mode(Arc::clone(&tree), mode);
            for atom in &atoms {
                let source = store.successor_source(atom).unwrap();
                let sweep = NodeSet::from_iter(
                    tree.len(),
                    tree.nodes().filter(|&u| source.row_any(u, |v| set.contains(v))),
                );
                let got = source.pre_image(&set);
                prop_assert_eq!(&got, &sweep, "{:?} {} over {}", mode, atom, tree.to_terms());
                prop_assert_eq!(got, matrix_pre(&tree, atom, &set), "{:?} {}", mode, atom);
                let image = match &source {
                    SuccessorSource::Step(view) => view.image(&set),
                    SuccessorSource::Filtered(view) => view.image(&set),
                    SuccessorSource::Eager(_) | SuccessorSource::Lazy(_) => continue,
                };
                let rows = NodeSet::from_iter(tree.len(), set.iter().flat_map(|u| source.row_vec(u)));
                prop_assert_eq!(image, rows, "image of {:?} {}", mode, atom);
            }
        }
    }

    #[test]
    fn mc_over_the_store_equals_mc_over_cold_matrices(
        tree in arb_tree(18, 3),
        exprs in prop::collection::vec(arb_variable_free(2), 3..4),
        axis in 0usize..AXES.len(),
        name in 0usize..4,
        d1 in arb_variable_free(2),
        d2 in arb_variable_free(2),
    ) {
        let tree = Arc::new(tree);
        let atom = |p: &PathExpr| Hcl::Atom(from_variable_free_path(p).unwrap());
        let var = |x: &str| Hcl::Var(Var::new(x));
        let [step, sourced, targeted, both] = step_atoms(AXES[axis], name, &d1, &d2);
        // b₀/x/[b₁/y]/b₂ ∪ sourced/z/[targeted]/both ∪ step/b₀, over the
        // generated atoms and the step views.
        let hcl = atom(&exprs[0])
            .then(var("x"))
            .then(Hcl::Filter(Box::new(atom(&exprs[1]).then(var("y")))))
            .then(atom(&exprs[2]))
            .or(atom(&sourced)
                .then(var("z"))
                .then(Hcl::Filter(Box::new(atom(&targeted))))
                .then(atom(&both)))
            .or(atom(&step).then(atom(&exprs[0])));
        let (interned, atoms) = intern_atoms(&hcl);
        let eq = EquationSystem::from_hcl(&interned);
        let cold = McTable::compute(&eq, &PplBinAtoms::compile(&tree, &atoms));
        for mode in MODES {
            let store = SharedMatrixStore::with_mode(Arc::clone(&tree), mode);
            let warm = PplBinAtoms::try_compile_with_shared(&tree, &atoms, &store).unwrap();
            let mc = McTable::compute(&eq, &warm);
            for (d, _) in eq.iter() {
                prop_assert_eq!(
                    mc.satisfying(d),
                    cold.satisfying(d),
                    "{:?} node {:?} over {}",
                    mode,
                    d,
                    tree.to_terms()
                );
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
