//! Matrix evaluation of PPLbin expressions (Theorem 2).
//!
//! Every [`BinExpr`] is mapped to its Boolean matrix by structural recursion,
//! using the four operations of Section 4 of the paper.  The total cost is
//! `O(|P| · |t|³)` (word-parallelised), dominated by one matrix product per
//! composition node.

use crate::matrix::NodeMatrix;
use crate::relation::{KernelMode, KernelStats, Relation, SparseRows};
use xpath_ast::{BinExpr, NameTest};
use xpath_tree::{Axis, NodeId, Tree};

/// End of the preorder interval of every subtree: `ends[u]` is one past the
/// largest node id inside the subtree of `u`, so the descendants of `u` are
/// exactly the id range `(u, ends[u])` (node ids are preorder numbers).
///
/// Computed in one reverse document-order pass: children follow their parent
/// in id order, so every subtree size is final before its parent reads it.
fn subtree_ends(tree: &Tree) -> Vec<u32> {
    let n = tree.len();
    let mut size = vec![1u32; n];
    for u in (1..n).rev() {
        let p = tree
            .parent(NodeId(u as u32))
            .expect("non-root node has a parent")
            .index();
        size[p] += size[u];
    }
    (0..n).map(|u| u as u32 + size[u]).collect()
}

/// Build the step relation for an axis and name test in its natural
/// representation, directly from the tree:
///
/// * `self::*` → [`Relation::Identity`];
/// * `descendant(-or-self)::*` → [`Relation::Interval`] (preorder subtree
///   ranges, no bit ever materialised);
/// * every other wildcard axis → CSR successor lists (`child`, `parent`,
///   `ancestor` chains and the sibling axes all carry `O(|t|)`–`O(depth·|t|)`
///   pairs);
/// * name tests → CSR by inverse-axis enumeration from the labelled nodes.
///
/// Representations that outgrow the CSR break-even densify automatically.
pub fn step_relation(tree: &Tree, axis: Axis, test: &NameTest) -> Relation {
    let n = tree.len();
    match test {
        NameTest::Wildcard => match axis {
            Axis::SelfAxis => Relation::Identity(n),
            Axis::Descendant => {
                let ends = subtree_ends(tree);
                let rows = (0..n).map(|u| (u as u32 + 1, ends[u])).collect();
                Relation::Interval { n, rows }.compact()
            }
            Axis::DescendantOrSelf => {
                let ends = subtree_ends(tree);
                let rows = (0..n).map(|u| (u as u32, ends[u])).collect();
                Relation::Interval { n, rows }.compact()
            }
            _ => {
                let rows = tree.nodes().map(|u| {
                    let mut cols: Vec<u32> = tree.axis_iter(axis, u).map(|v| v.0).collect();
                    // Upward/backward axes iterate in reverse document
                    // order; CSR rows must ascend.
                    cols.sort_unstable();
                    cols
                });
                Relation::Sparse(SparseRows::from_rows(n, rows)).compact()
            }
        },
        NameTest::Name(name) => {
            // Enumerate only nodes with the right label and use the inverse
            // axis, which is usually much sparser than scanning all targets.
            // The inverse is *exact* for every axis except `first-child`
            // (whose inverse is approximated by `parent`), so the per-pair
            // `axis.relates` re-check is only needed there.
            let inverse = axis.inverse();
            let recheck = axis == Axis::FirstChild;
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for &v in tree.nodes_with_label_str(name) {
                for u in tree.axis_iter(inverse, v) {
                    if !recheck || axis.relates(tree, u, v) {
                        pairs.push((u.0, v.0));
                    }
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            Relation::Sparse(SparseRows::from_sorted_pairs(n, &pairs)).compact()
        }
    }
}

/// Build the step matrix `M_{A::N}` for an axis and name test:
/// `M[u, v] = 1` iff `(u, v) ∈ A(t)` and the label of `v` matches `N`.
///
/// Materialised boundary form of [`step_relation`].
pub fn step_matrix(tree: &Tree, axis: Axis, test: &NameTest) -> NodeMatrix {
    step_relation(tree, axis, test).to_matrix()
}

/// Mode-aware step construction shared by the recursive evaluator and the
/// memoising [`MatrixStore`]: the dense baseline materialises immediately,
/// the adaptive modes keep the natural representation; either way the
/// dispatch is recorded.
///
/// [`MatrixStore`]: crate::store::MatrixStore
pub(crate) fn step_relation_in_mode(
    tree: &Tree,
    axis: Axis,
    test: &NameTest,
    mode: KernelMode,
    stats: &mut KernelStats,
) -> Relation {
    let r = if mode == KernelMode::Dense {
        Relation::Dense(step_relation(tree, axis, test).to_matrix())
    } else {
        step_relation(tree, axis, test)
    };
    stats.record_step(&r);
    r
}

/// Evaluate a PPLbin expression to its adaptive [`Relation`] under a kernel
/// mode, recording every kernel dispatch in `stats`.
pub fn eval_relation(
    tree: &Tree,
    expr: &BinExpr,
    mode: KernelMode,
    stats: &mut KernelStats,
) -> Relation {
    match expr {
        BinExpr::Step(axis, test) => step_relation_in_mode(tree, *axis, test, mode, stats),
        BinExpr::Seq(a, b) => {
            let ra = eval_relation(tree, a, mode, stats);
            let rb = eval_relation(tree, b, mode, stats);
            ra.product(&rb, mode, stats)
        }
        BinExpr::Union(a, b) => {
            let ra = eval_relation(tree, a, mode, stats);
            let rb = eval_relation(tree, b, mode, stats);
            ra.union(&rb, mode, stats)
        }
        BinExpr::Except(p) => eval_relation(tree, p, mode, stats).complement(mode, stats),
        BinExpr::Test(p) => eval_relation(tree, p, mode, stats).diagonal_filter(mode, stats),
    }
}

/// Evaluate a PPLbin expression to its Boolean matrix (adaptive kernels,
/// materialised at the boundary).
pub fn eval_binexpr(tree: &Tree, expr: &BinExpr) -> NodeMatrix {
    eval_relation(
        tree,
        expr,
        KernelMode::default(),
        &mut KernelStats::default(),
    )
    .to_matrix()
}

/// Answer the binary query `q^bin_P(t)` of a PPLbin expression: the full
/// relation as a matrix.  This is the entry point used by Theorem 2 and by
/// the HCL oracle.
pub fn answer_binary(tree: &Tree, expr: &BinExpr) -> NodeMatrix {
    eval_binexpr(tree, expr)
}

/// Answer a *unary* query: the nodes reachable from `start` via `expr`.
pub fn answer_unary_from(tree: &Tree, expr: &BinExpr, start: NodeId) -> Vec<NodeId> {
    let m = eval_binexpr(tree, expr);
    m.successors(start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;
    use xpath_naive::{answer_binary as naive_binary, Assignment};
    use xpath_tree::Tree;

    fn tree() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title),paper(title))").unwrap()
    }

    fn check_against_naive(t: &Tree, src: &str) {
        let path = parse_path(src).unwrap();
        let bin = from_variable_free_path(&path).unwrap();
        let matrix = answer_binary(t, &bin);
        let expected = naive_binary(t, &path).unwrap();
        assert_eq!(
            matrix.pairs(),
            expected,
            "matrix evaluation disagrees with the specification on {src:?}"
        );
    }

    #[test]
    fn steps_match_specification() {
        let t = tree();
        for src in [
            "child::book",
            "child::*",
            "descendant::title",
            "descendant::*",
            "parent::*",
            "ancestor::bib",
            "following_sibling::*",
            "preceding_sibling::book",
            "self::book",
            ".",
        ] {
            check_against_naive(&t, src);
        }
    }

    #[test]
    fn compositions_and_unions_match_specification() {
        let t = tree();
        for src in [
            "child::book/child::author",
            "child::*/child::*",
            "descendant::author union descendant::title",
            "child::book/child::title union child::paper/child::title",
            "(child::book union child::paper)/child::title",
        ] {
            check_against_naive(&t, src);
        }
    }

    #[test]
    fn intersect_except_and_filters_match_specification() {
        let t = tree();
        for src in [
            "descendant::* intersect child::*",
            "descendant::* except child::*",
            "child::book[child::author]",
            "child::*[not(child::author)]",
            "child::book[child::author and child::title]",
            "child::*[child::author or child::title]",
            "child::book[child::author[following_sibling::author]]",
            "child::*[. is .]",
            "child::*[not(. is .)]",
        ] {
            check_against_naive(&t, src);
        }
    }

    #[test]
    fn unary_except_is_relation_complement() {
        let t = tree();
        let child = from_variable_free_path(&parse_path("child::*").unwrap()).unwrap();
        let m = answer_binary(&t, &child);
        let mut c = answer_binary(&t, &child.complement());
        assert_eq!(c.count_pairs(), t.len() * t.len() - m.count_pairs());
        c.complement();
        assert_eq!(c, m);
    }

    #[test]
    fn nodes_expression_is_the_full_relation() {
        let t = tree();
        let nodes = answer_binary(&t, &BinExpr::nodes());
        assert_eq!(nodes.count_pairs(), t.len() * t.len());
    }

    #[test]
    fn unary_answers() {
        let t = tree();
        let bin =
            from_variable_free_path(&parse_path("child::book/child::author").unwrap()).unwrap();
        let from_root = answer_unary_from(&t, &bin, t.root());
        assert_eq!(from_root.len(), 3);
        assert!(from_root.iter().all(|&v| t.label_str(v) == "author"));
        let from_leaf = answer_unary_from(&t, &bin, t.nodes_with_label_str("title")[0]);
        assert!(from_leaf.is_empty());
    }

    #[test]
    fn step_matrix_name_test_uses_inverse_enumeration() {
        // Regression guard: named steps must agree with wildcard+label
        // filtering for every axis.
        let t = tree();
        for axis in xpath_tree::axes::ALL_AXES {
            let named = step_matrix(&t, axis, &NameTest::name("title"));
            let wild = step_matrix(&t, axis, &NameTest::Wildcard);
            for u in t.nodes() {
                for v in t.nodes() {
                    let expected = wild.get(u, v) && t.label_str(v) == "title";
                    assert_eq!(named.get(u, v), expected, "axis {axis:?} at ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn name_step_drops_redundant_relates_check_safely() {
        // Satellite audit: `axis.inverse()` is the exact converse for every
        // axis except `first-child` (approximated by `parent`), so the
        // per-pair `relates` re-check was dropped everywhere else.  Pin the
        // optimised construction to the fully re-checked reference on every
        // axis and label.
        for terms in [
            "bib(book(author,title),book(author,author,title),paper(title))",
            "a(b(c(d,e),f),b(g),a(b),c)",
        ] {
            let t = Tree::from_terms(terms).unwrap();
            let labels: std::collections::BTreeSet<String> =
                t.nodes().map(|n| t.label_str(n).to_string()).collect();
            for axis in xpath_tree::axes::ALL_AXES {
                for label in &labels {
                    let named = step_matrix(&t, axis, &NameTest::name(label));
                    let mut reference = NodeMatrix::empty(t.len());
                    for &v in t.nodes_with_label_str(label) {
                        for u in t.axis_iter(axis.inverse(), v) {
                            if axis.relates(&t, u, v) {
                                reference.set(u, v);
                            }
                        }
                    }
                    assert_eq!(named, reference, "axis {axis:?} label {label}");
                }
            }
        }
    }

    #[test]
    fn step_relations_use_their_natural_representation() {
        let t = tree();
        for (axis, test, expected) in [
            (Axis::SelfAxis, NameTest::Wildcard, "identity"),
            (Axis::Descendant, NameTest::Wildcard, "interval"),
            (Axis::DescendantOrSelf, NameTest::Wildcard, "interval"),
            (Axis::Child, NameTest::Wildcard, "sparse"),
            (Axis::Parent, NameTest::Wildcard, "sparse"),
            (Axis::FollowingSibling, NameTest::Wildcard, "sparse"),
            (Axis::Descendant, NameTest::name("title"), "sparse"),
        ] {
            let r = step_relation(&t, axis, &test);
            assert_eq!(r.variant_name(), expected, "{axis:?} {test:?}");
            assert_eq!(r.to_matrix(), step_matrix(&t, axis, &test));
        }
        // Ancestor chains stay CSR only above the break-even (avg depth <
        // words per row); on this 10-node tree they rightly densify, while a
        // wide shallow tree keeps them sparse.
        let wide = Tree::from_terms(
            "r(a(x,x,x,x,x,x,x),b(x,x,x,x,x,x,x),c(x,x,x,x,x,x,x),d(x,x,x,x,x,x,x),\
             e(x,x,x,x,x,x,x),f(x,x,x,x,x,x,x),g(x,x,x,x,x,x,x),h(x,x,x,x,x,x,x),\
             i(x,x,x,x,x,x,x),j(x,x,x,x,x,x,x))",
        )
        .unwrap();
        assert!(wide.len() > 64, "two words per row");
        let anc = step_relation(&wide, Axis::Ancestor, &NameTest::Wildcard);
        assert_eq!(anc.variant_name(), "sparse");
        assert_eq!(
            anc.to_matrix(),
            step_matrix(&wide, Axis::Ancestor, &NameTest::Wildcard)
        );
    }

    #[test]
    fn eval_relation_modes_agree() {
        let t = tree();
        for src in [
            "descendant::*/child::author",
            "child::*/child::*",
            "descendant::* except child::*",
            "child::book[child::author]/child::title",
        ] {
            let bin = from_variable_free_path(&parse_path(src).unwrap()).unwrap();
            let mut reference = None;
            for mode in [
                KernelMode::Dense,
                KernelMode::Adaptive,
                KernelMode::AdaptiveThreaded,
            ] {
                let mut stats = KernelStats::default();
                let got = eval_relation(&t, &bin, mode, &mut stats).to_matrix();
                assert!(stats.total() > 0, "{src} under {mode:?} recorded nothing");
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(&got, want, "{src} under {mode:?}"),
                }
            }
        }
    }

    #[test]
    fn deep_tree_sanity() {
        let t = Tree::from_terms("a(b(c(d(e(f)))))").unwrap();
        check_against_naive(&t, "descendant::*/ancestor::*");
        check_against_naive(&t, "descendant::* except descendant::*/descendant::*");
        let _ = Assignment::new(); // keep the naive crate linked in this test module
    }
}
