//! Set-at-a-time evaluation, after Gottlob–Koch–Pichler: the linear-time
//! evaluator of Core XPath 1.0, and the node sets of the diagonal atoms the
//! store serves without matrices.
//!
//! Section 4 of the paper recalls the "main evaluation trick" of Core
//! XPath 1.0: the successor set `S_a(N) = {u' | ∃u ∈ N. a(u, u')}` of a node
//! set under an axis is computable in time `O(|t|)`, which extends to full
//! Core XPath 1.0 expressions and yields `O(|P|·|t|)` unary query answering
//! ([`succ_set`], experiment E9 in EXPERIMENTS.md).  The paper also notes
//! that the trick does **not** extend to PPLbin because
//! `S_{except P}(N) ≠ S_P(N)` in general — that is why the matrix algorithm
//! of [`crate::eval`] is needed.
//!
//! It fails only for `except` over a relation that is not a subset of the
//! identity, though.  A *diagonal* ([`is_diagonal`]) is such a subset —
//! `self::name`, a test `[P]`, and `/`, `union` and `except` over those —
//! and [`diagonal_set`] computes its node set `{u | (u, u) ∈ ⟦D⟧}` from
//! the pre-image [`pre_set`] `{u | ∃v ∈ S. (u, v) ∈ ⟦P⟧}`, backwards and
//! set-at-a-time.  The difference of two steps is a row scan; only the rest
//! falls back to the matrix engine, for that one subterm.  This is what
//! lets [`crate::view::FilteredStepView`] serve `D₁/axis::name/D₂` atoms
//! from node sets.

use crate::view::Step;
use std::fmt;
use xpath_ast::{BinExpr, NameTest};
use xpath_tree::{Axis, NodeId, NodeSet, Tree};

/// Error raised when the set-based evaluator meets an `except` operator,
/// which is outside Core XPath 1.0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotCoreXPath1 {
    /// Rendering of the offending subexpression.
    pub subexpression: String,
}

impl fmt::Display for NotCoreXPath1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`except` is not part of Core XPath 1.0: `{}`",
            self.subexpression
        )
    }
}

impl std::error::Error for NotCoreXPath1 {}

/// The nodes passing `test`.
fn label_set(tree: &Tree, test: &NameTest) -> NodeSet {
    match test {
        NameTest::Wildcard => NodeSet::full(tree.len()),
        NameTest::Name(name) => {
            NodeSet::from_iter(tree.len(), tree.nodes_with_label_str(name).iter().copied())
        }
    }
}

/// `S_P(N)` — the successor set of `N` under an `except`-free PPLbin
/// expression, computed in time `O(|P| · |t|)`.
pub fn succ_set(tree: &Tree, expr: &BinExpr, set: &NodeSet) -> Result<NodeSet, NotCoreXPath1> {
    match expr {
        BinExpr::Step(axis, test) => Ok(Step::resolve(tree, *axis, test).image(tree, set)),
        BinExpr::Seq(a, b) => {
            let mid = succ_set(tree, a, set)?;
            succ_set(tree, b, &mid)
        }
        BinExpr::Union(a, b) => {
            let mut sa = succ_set(tree, a, set)?;
            let sb = succ_set(tree, b, set)?;
            sa.union_with(&sb);
            Ok(sa)
        }
        BinExpr::Test(p) => {
            // [P] is a partial identity: keep the nodes of `set` that have a
            // P-successor.
            let holds = has_successor_set(tree, p)?;
            let mut out = set.clone();
            out.intersect_with(&holds);
            Ok(out)
        }
        BinExpr::Except(_) => Err(NotCoreXPath1 {
            subexpression: expr.to_string(),
        }),
    }
}

/// The set `{u | ∃v. (u, v) ∈ ⟦P⟧}` of nodes with a `P`-successor of an
/// `except`-free expression, in time `O(|P| · |t|)`: [`pre_set`] from the
/// full node set.
pub fn has_successor_set(tree: &Tree, expr: &BinExpr) -> Result<NodeSet, NotCoreXPath1> {
    if let Some(except) = first_except(expr) {
        return Err(NotCoreXPath1 {
            subexpression: except.to_string(),
        });
    }
    pre_set(tree, expr, &NodeSet::full(tree.len()), &mut |_, _| {
        unreachable!("an except-free expression never leaves the set fragment")
    })
}

/// The first `except` subterm of `expr`, if any.
fn first_except(expr: &BinExpr) -> Option<&BinExpr> {
    match expr {
        BinExpr::Step(..) => None,
        BinExpr::Seq(a, b) | BinExpr::Union(a, b) => first_except(a).or_else(|| first_except(b)),
        BinExpr::Test(p) => first_except(p),
        BinExpr::Except(_) => Some(expr),
    }
}

/// Answer a unary Core XPath 1.0 query from the document root:
/// `S_P({root})`, in time `O(|P|·|t|)`.
pub fn unary_from_root(tree: &Tree, expr: &BinExpr) -> Result<Vec<NodeId>, NotCoreXPath1> {
    let start = NodeSet::singleton(tree.len(), tree.root());
    Ok(succ_set(tree, expr, &start)?.iter().collect())
}

/// `except (except a union b)` — the derived difference `a except b` —
/// taken apart as `(a, b)`.
pub(crate) fn difference_of(expr: &BinExpr) -> Option<(&BinExpr, &BinExpr)> {
    let BinExpr::Except(inner) = expr else {
        return None;
    };
    let BinExpr::Union(left, b) = inner.as_ref() else {
        return None;
    };
    let BinExpr::Except(a) = left.as_ref() else {
        return None;
    };
    Some((a, b))
}

/// Is `expr` a *diagonal* — a subset of the identity whose node set
/// [`diagonal_set`] computes set-at-a-time?  Syntactically:
///
/// * `self::name`;
/// * `[P]`, for any `P` (its node set is dom(P));
/// * `D₁/D₂` (∩) and `D₁ union D₂` (∪);
/// * `except (except D union X)` (`D \ {u | (u, u) ∈ ⟦X⟧}`) for an `X`
///   whose diagonal can be read off: a diagonal, a step (reflexive axes
///   give the label set, the others ∅), or `except` or `union` over those.
pub fn is_diagonal(expr: &BinExpr) -> bool {
    match expr {
        BinExpr::Step(axis, _) => *axis == Axis::SelfAxis,
        BinExpr::Test(_) => true,
        BinExpr::Seq(a, b) | BinExpr::Union(a, b) => is_diagonal(a) && is_diagonal(b),
        BinExpr::Except(_) => {
            difference_of(expr).is_some_and(|(d, x)| is_diagonal(d) && diagonal_readable(x))
        }
    }
}

/// Can `{u | (u, u) ∈ ⟦X⟧}` be read off `X` (see [`is_diagonal`])?
fn diagonal_readable(x: &BinExpr) -> bool {
    match x {
        BinExpr::Step(..) => true,
        BinExpr::Except(y) => diagonal_readable(y),
        BinExpr::Union(a, b) => diagonal_readable(a) && diagonal_readable(b),
        BinExpr::Seq(..) | BinExpr::Test(_) => is_diagonal(x),
    }
}

/// `{u | (u, u) ∈ ⟦D⟧}` for a diagonal `D` (or any `X` whose diagonal can
/// be read off, see [`is_diagonal`]), in `O(|D| · |t|)` plus what
/// `fallback` spends on the domains [`pre_set`] hands it.
pub fn diagonal_set<E>(
    tree: &Tree,
    expr: &BinExpr,
    fallback: &mut dyn FnMut(&BinExpr, &NodeSet) -> Result<NodeSet, E>,
) -> Result<NodeSet, E> {
    Ok(match expr {
        BinExpr::Step(axis, test) if axis.is_reflexive() => label_set(tree, test),
        BinExpr::Step(..) => NodeSet::empty(tree.len()),
        BinExpr::Test(p) => pre_set(tree, p, &NodeSet::full(tree.len()), fallback)?,
        BinExpr::Seq(a, b) => {
            debug_assert!(is_diagonal(expr), "{expr} is not a diagonal");
            let mut out = diagonal_set(tree, a, fallback)?;
            out.intersect_with(&diagonal_set(tree, b, fallback)?);
            out
        }
        BinExpr::Union(a, b) => {
            let mut out = diagonal_set(tree, a, fallback)?;
            out.union_with(&diagonal_set(tree, b, fallback)?);
            out
        }
        // (u, u) ∈ except Y  ⇔  (u, u) ∉ Y; for `except (except D union X)`
        // this is D \ diag(X).
        BinExpr::Except(y) => {
            let mut out = diagonal_set(tree, y, fallback)?;
            out.complement();
            out
        }
    })
}

/// The pre-image `pre(P, S) = {u | ∃v ∈ S. (u, v) ∈ ⟦P⟧}`, set-at-a-time.
///
/// * a step moves `S` (restricted to the name test) back along the
///   inverse axis, in `O(|t|)` — the `succ_set` trick run backwards, and
///   the same pass that fills Fig. 8's `MC` table for view atoms
///   ([`crate::SuccessorSource::pre_image`]);
/// * `/` and `union` recurse, a diagonal `D` gives `diagonal_set(D) ∩ S`;
/// * a difference of two steps `A except B` scans the rows of `A` from the
///   nodes of `pre(A, S)`, stopping at the first target in `S` that `B`
///   does not relate (an O(1) membership check): `O(|t|²)` at worst,
///   still below Theorem 2's products;
/// * anything else is handed to `fallback(P, S)` — the matrix engine, for
///   that one subterm.
pub fn pre_set<E>(
    tree: &Tree,
    expr: &BinExpr,
    set: &NodeSet,
    fallback: &mut dyn FnMut(&BinExpr, &NodeSet) -> Result<NodeSet, E>,
) -> Result<NodeSet, E> {
    if is_diagonal(expr) {
        let mut out = diagonal_set(tree, expr, fallback)?;
        out.intersect_with(set);
        return Ok(out);
    }
    match expr {
        BinExpr::Step(axis, test) => Ok(Step::resolve(tree, *axis, test).pre_image(tree, set)),
        BinExpr::Seq(a, b) => {
            let mid = pre_set(tree, b, set, fallback)?;
            pre_set(tree, a, &mid, fallback)
        }
        BinExpr::Union(a, b) => {
            let mut out = pre_set(tree, a, set, fallback)?;
            out.union_with(&pre_set(tree, b, set, fallback)?);
            Ok(out)
        }
        _ => match difference_of(expr) {
            Some((BinExpr::Step(a_axis, a_test), BinExpr::Step(b_axis, b_test))) => {
                let a = Step::resolve(tree, *a_axis, a_test);
                let b = Step::resolve(tree, *b_axis, b_test);
                let mut out = NodeSet::empty(tree.len());
                for u in a.pre_image(tree, set).iter() {
                    if a.row_any(tree, u, |v| set.contains(v) && !b.relates(tree, u, v)) {
                        out.insert(u);
                    }
                }
                Ok(out)
            }
            _ => fallback(expr, set),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::answer_binary;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;
    use xpath_tree::Tree;

    fn tree() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title),paper(title))").unwrap()
    }

    fn bin(src: &str) -> BinExpr {
        from_variable_free_path(&parse_path(src).unwrap()).unwrap()
    }

    fn set_of(tree: &Tree, nodes: &[NodeId]) -> NodeSet {
        NodeSet::from_iter(tree.len(), nodes.iter().copied())
    }

    #[test]
    fn succ_set_agrees_with_matrix_engine() {
        let t = tree();
        for src in [
            "child::book",
            "child::book/child::author",
            "descendant::title",
            "child::book[child::author]/child::title",
            "(child::book union child::paper)/child::title",
            "child::*[child::author or child::title]",
            "ancestor::*",
            "following_sibling::*/child::title",
        ] {
            let e = bin(src);
            let matrix = answer_binary(&t, &e);
            // From every singleton start set...
            for u in t.nodes() {
                let got = succ_set(&t, &e, &set_of(&t, &[u])).unwrap();
                let expected: Vec<NodeId> = matrix.successors(u).collect();
                assert_eq!(got.iter().collect::<Vec<_>>(), expected, "{src} from {u}");
            }
            // ...and from the full set.
            let got_full = succ_set(&t, &e, &NodeSet::full(t.len())).unwrap();
            let mut expected_full = NodeSet::empty(t.len());
            for (_, v) in matrix.pairs() {
                expected_full.insert(v);
            }
            assert_eq!(got_full, expected_full, "{src} from full set");
        }
    }

    #[test]
    fn has_successor_set_agrees_with_matrix_rows() {
        let t = tree();
        for src in [
            "child::author",
            "child::book/child::author",
            "descendant::title",
            "parent::book",
            "child::book[child::author[following_sibling::author]]",
        ] {
            let e = bin(src);
            let got = has_successor_set(&t, &e).unwrap();
            let expected = answer_binary(&t, &e).nonempty_rows();
            assert_eq!(got, expected, "{src}");
        }
    }

    #[test]
    fn except_is_rejected() {
        let e = bin("descendant::* except child::*");
        assert!(succ_set(&tree(), &e, &NodeSet::full(tree().len())).is_err());
        let err = has_successor_set(&tree(), &e).unwrap_err();
        assert!(err.to_string().contains("except"));
    }

    #[test]
    fn unary_from_root_selects_expected_nodes() {
        let t = tree();
        let titles = unary_from_root(&t, &bin("child::book/child::title")).unwrap();
        assert_eq!(titles.len(), 2);
        assert!(titles.iter().all(|&v| t.label_str(v) == "title"));
        let all_titles = unary_from_root(&t, &bin("descendant::title")).unwrap();
        assert_eq!(all_titles.len(), 3);
    }

    #[test]
    fn pre_of_named_steps_checks_the_target_label() {
        let t = tree();
        let e = bin("child::title");
        let pre = |set: &NodeSet| pre_set(&t, &e, set, &mut |_, _| Err::<NodeSet, ()>(())).unwrap();
        // The pre-image of the title set is exactly the titles' parents.
        let titles = set_of(&t, t.nodes_with_label_str("title"));
        let parents = pre(&titles);
        let expected: Vec<NodeId> = t
            .nodes_with_label_str("title")
            .iter()
            .map(|&v| t.parent(v).unwrap())
            .collect();
        let mut expected_set = NodeSet::empty(t.len());
        for p in expected {
            expected_set.insert(p);
        }
        assert_eq!(parents, expected_set);
        // Non-title nodes have no title predecessor.
        let authors = set_of(&t, t.nodes_with_label_str("author"));
        assert!(pre(&authors).is_empty());
    }

    /// `first-child` is not the inverse of `parent`: a node whose first
    /// child is no `author` has no `first-child::author`, even when a later
    /// child is one.
    #[test]
    fn first_child_domains_check_the_first_child() {
        let t = Tree::from_terms("r(a(title,author),b(author,title))").unwrap();
        let e = bin("first-child::author");
        let got = has_successor_set(&t, &e).unwrap();
        assert_eq!(got, answer_binary(&t, &e).nonempty_rows());
        assert_eq!(
            got.iter().map(|u| t.label_str(u)).collect::<Vec<_>>(),
            ["b"]
        );
    }
}
