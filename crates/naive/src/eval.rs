//! The denotational semantics of Core XPath 2.0 (Fig. 2 of the paper),
//! implemented literally over explicit sets of node pairs.
//!
//! This evaluator is the *specification*: it favours obvious correctness
//! over speed and is used as the oracle in differential tests against the
//! optimised engines (`xpath_pplbin`, `xpath_hcl`, `ppl_xpath`).

use crate::assignment::Assignment;
use std::collections::BTreeSet;
use std::fmt;
use xpath_ast::{NameTest, NodeRef, PathExpr, TestExpr, Var};
use xpath_tree::{Axis, NodeId, NodeSet, Tree};

/// A binary relation over nodes, as an explicit ordered set of pairs.
pub type PairSet = BTreeSet<(NodeId, NodeId)>;

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable was used but is not bound by the current assignment.
    UnboundVariable(Var),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
        }
    }
}

impl std::error::Error for EvalError {}

fn lookup(alpha: &Assignment, v: &Var) -> Result<NodeId, EvalError> {
    alpha
        .get(v)
        .ok_or_else(|| EvalError::UnboundVariable(v.clone()))
}

/// `⟦P⟧^{t,α}` — the set of node pairs denoted by a path expression
/// (Fig. 2, left column).
pub fn eval_path(tree: &Tree, p: &PathExpr, alpha: &Assignment) -> Result<PairSet, EvalError> {
    match p {
        PathExpr::Step(axis, test) => Ok(eval_step(tree, *axis, test)),
        PathExpr::NodeRef(NodeRef::Dot) => Ok(tree.nodes().map(|v| (v, v)).collect()),
        PathExpr::NodeRef(NodeRef::Var(x)) => {
            let target = lookup(alpha, x)?;
            Ok(tree.nodes().map(|v| (v, target)).collect())
        }
        PathExpr::Seq(p1, p2) => {
            let r1 = eval_path(tree, p1, alpha)?;
            let r2 = eval_path(tree, p2, alpha)?;
            Ok(compose(&r1, &r2))
        }
        PathExpr::Union(p1, p2) => {
            let mut r1 = eval_path(tree, p1, alpha)?;
            let r2 = eval_path(tree, p2, alpha)?;
            r1.extend(r2);
            Ok(r1)
        }
        PathExpr::Intersect(p1, p2) => {
            let r1 = eval_path(tree, p1, alpha)?;
            let r2 = eval_path(tree, p2, alpha)?;
            Ok(r1.intersection(&r2).copied().collect())
        }
        PathExpr::Except(p1, p2) => {
            let r1 = eval_path(tree, p1, alpha)?;
            let r2 = eval_path(tree, p2, alpha)?;
            Ok(r1.difference(&r2).copied().collect())
        }
        PathExpr::Filter(base, test) => {
            let r = eval_path(tree, base, alpha)?;
            let keep = eval_test(tree, test, alpha)?;
            Ok(r.into_iter().filter(|&(_, v2)| keep.contains(v2)).collect())
        }
        PathExpr::For(x, p1, p2) => {
            // ⟦for $x in P1 return P2⟧ = {(v1,v3) | ∃v2. (v1,v2) ∈ ⟦P1⟧ and
            //                                        (v1,v3) ∈ ⟦P2⟧^{α[x↦v2]}}
            let r1 = eval_path(tree, p1, alpha)?;
            let mut out = PairSet::new();
            for v2 in tree.nodes() {
                // Which start nodes v1 reach v2 via P1?
                let starts: Vec<NodeId> = r1
                    .iter()
                    .filter(|&&(_, target)| target == v2)
                    .map(|&(v1, _)| v1)
                    .collect();
                if starts.is_empty() {
                    continue;
                }
                let extended = alpha.extended(x.clone(), v2);
                let r2 = eval_path(tree, p2, &extended)?;
                for &(v1, v3) in &r2 {
                    if starts.binary_search(&v1).is_ok() || starts.contains(&v1) {
                        out.insert((v1, v3));
                    }
                }
            }
            Ok(out)
        }
    }
}

fn eval_step(tree: &Tree, axis: Axis, test: &NameTest) -> PairSet {
    let mut out = PairSet::new();
    for v1 in tree.nodes() {
        for v2 in tree.axis_iter(axis, v1) {
            if test.matches(tree.label_str(v2)) {
                out.insert((v1, v2));
            }
        }
    }
    out
}

fn compose(r1: &PairSet, r2: &PairSet) -> PairSet {
    // Index r2 by its first component for the join.
    let mut out = PairSet::new();
    for &(v1, v2) in r1 {
        // All (v2, v3) in r2: use range query on the ordered set.
        for &(u, v3) in r2.range((v2, NodeId(0))..=(v2, NodeId(u32::MAX))) {
            debug_assert_eq!(u, v2);
            out.insert((v1, v3));
        }
    }
    out
}

/// `⟦T⟧^{t,α}_test` — the set of nodes satisfying a test expression
/// (Fig. 2, right column).
pub fn eval_test(tree: &Tree, t: &TestExpr, alpha: &Assignment) -> Result<NodeSet, EvalError> {
    let n = tree.len();
    match t {
        TestExpr::Path(p) => {
            let pairs = eval_path(tree, p, alpha)?;
            let mut out = NodeSet::empty(n);
            for &(v, _) in &pairs {
                out.insert(v);
            }
            Ok(out)
        }
        TestExpr::Comp(NodeRef::Dot, NodeRef::Dot) => Ok(NodeSet::full(n)),
        TestExpr::Comp(NodeRef::Dot, NodeRef::Var(x))
        | TestExpr::Comp(NodeRef::Var(x), NodeRef::Dot) => {
            Ok(NodeSet::singleton(n, lookup(alpha, x)?))
        }
        TestExpr::Comp(NodeRef::Var(x), NodeRef::Var(y)) => {
            let vx = lookup(alpha, x)?;
            let vy = lookup(alpha, y)?;
            if vx == vy {
                Ok(NodeSet::singleton(n, vx))
            } else {
                Ok(NodeSet::empty(n))
            }
        }
        TestExpr::Not(inner) => {
            let mut s = eval_test(tree, inner, alpha)?;
            s.complement();
            Ok(s)
        }
        TestExpr::And(a, b) => {
            let mut sa = eval_test(tree, a, alpha)?;
            let sb = eval_test(tree, b, alpha)?;
            sa.intersect_with(&sb);
            Ok(sa)
        }
        TestExpr::Or(a, b) => {
            let mut sa = eval_test(tree, a, alpha)?;
            let sb = eval_test(tree, b, alpha)?;
            sa.union_with(&sb);
            Ok(sa)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::parse_path;
    use xpath_ast::parser::parse_test;

    fn t() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title))").unwrap()
    }

    fn pairs(tree: &Tree, src: &str) -> PairSet {
        eval_path(tree, &parse_path(src).unwrap(), &Assignment::new()).unwrap()
    }

    fn pairs_with(tree: &Tree, src: &str, alpha: &Assignment) -> PairSet {
        eval_path(tree, &parse_path(src).unwrap(), alpha).unwrap()
    }

    #[test]
    fn step_semantics() {
        let tree = t();
        let r = pairs(&tree, "child::book");
        assert_eq!(r.len(), 2);
        for (v1, v2) in &r {
            assert_eq!(*v1, tree.root());
            assert_eq!(tree.label_str(*v2), "book");
        }
        // Wildcard step from every node.
        let all_children = pairs(&tree, "child::*");
        assert_eq!(all_children.len(), tree.len() - 1);
    }

    #[test]
    fn dot_is_identity() {
        let tree = t();
        let r = pairs(&tree, ".");
        assert_eq!(r.len(), tree.len());
        assert!(r.iter().all(|(a, b)| a == b));
    }

    #[test]
    fn variable_is_goto() {
        let tree = t();
        let target = tree.nodes_with_label_str("title")[0];
        let alpha = Assignment::from_pairs([(Var::new("x"), target)]);
        let r = pairs_with(&tree, "$x", &alpha);
        assert_eq!(r.len(), tree.len());
        assert!(r.iter().all(|&(_, v2)| v2 == target));
        // Unbound variable is an error.
        let err = eval_path(&tree, &parse_path("$y").unwrap(), &alpha).unwrap_err();
        assert!(matches!(err, EvalError::UnboundVariable(_)));
        assert!(err.to_string().contains("$y"));
    }

    #[test]
    fn composition_union_intersect_except() {
        let tree = t();
        let authors_of_books = pairs(&tree, "child::book/child::author");
        assert_eq!(authors_of_books.len(), 3);
        let u = pairs(&tree, "child::book union .");
        assert_eq!(u.len(), 2 + tree.len());
        let i = pairs(&tree, "descendant::* intersect child::*");
        assert_eq!(i, pairs(&tree, "child::*"));
        let e = pairs(&tree, "descendant::* except child::*");
        assert_eq!(
            e.len(),
            pairs(&tree, "descendant::*").len() - pairs(&tree, "child::*").len()
        );
    }

    #[test]
    fn filters_restrict_targets() {
        let tree = t();
        let with_two_authors = pairs(
            &tree,
            "child::book[child::author/following_sibling::author]",
        );
        assert_eq!(with_two_authors.len(), 1);
        let none = pairs(&tree, "child::book[child::publisher]");
        assert!(none.is_empty());
        let negated = pairs(&tree, "child::book[not(child::publisher)]");
        assert_eq!(negated.len(), 2);
    }

    #[test]
    fn comparison_tests() {
        let tree = t();
        let title = tree.nodes_with_label_str("title")[0];
        let alpha = Assignment::from_pairs([
            (Var::new("x"), title),
            (Var::new("y"), title),
            (Var::new("z"), tree.root()),
        ]);
        let keep_x = eval_test(&tree, &parse_test(". is $x").unwrap(), &alpha).unwrap();
        assert_eq!(keep_x.iter().collect::<Vec<_>>(), vec![title]);
        let xy = eval_test(&tree, &parse_test("$x is $y").unwrap(), &alpha).unwrap();
        assert_eq!(xy.len(), 1);
        let xz = eval_test(&tree, &parse_test("$x is $z").unwrap(), &alpha).unwrap();
        assert!(xz.is_empty());
        let dd = eval_test(&tree, &parse_test(". is .").unwrap(), &alpha).unwrap();
        assert_eq!(dd.len(), tree.len());
        let not_dd = eval_test(&tree, &parse_test("not(. is .)").unwrap(), &alpha).unwrap();
        assert!(not_dd.is_empty());
    }

    #[test]
    fn and_or_tests() {
        let tree = t();
        let both = eval_test(
            &tree,
            &parse_test("child::author and child::title").unwrap(),
            &Assignment::new(),
        )
        .unwrap();
        assert_eq!(both.len(), 2); // both books
        let either = eval_test(
            &tree,
            &parse_test("child::author or child::year").unwrap(),
            &Assignment::new(),
        )
        .unwrap();
        assert_eq!(either.len(), 2);
    }

    #[test]
    fn for_loop_semantics() {
        let tree = t();
        // for $x in child::book return child::book[. is $x]
        // relates the root to each of its book children (v1 = root).
        let r = pairs(&tree, "for $x in child::book return child::book[. is $x]");
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|&(v1, _)| v1 == tree.root()));

        // The quantifier only ranges over nodes reachable by P1 *from the
        // same start node*: starting from a book node, `child::book` is
        // empty, so the loop contributes nothing for those start nodes.
        let empty_from_books = pairs(&tree, "for $x in child::book return .");
        assert!(empty_from_books.iter().all(|&(v1, _)| v1 == tree.root()));
    }

    #[test]
    fn paper_intro_query_under_assignment() {
        let tree = t();
        let book2 = tree.nodes_with_label_str("book")[1];
        let author = tree
            .nodes_with_label_str("author")
            .iter()
            .copied()
            .find(|&a| tree.parent(a) == Some(book2))
            .unwrap();
        let title = tree
            .nodes_with_label_str("title")
            .iter()
            .copied()
            .find(|&a| tree.parent(a) == Some(book2))
            .unwrap();
        let q = "descendant::book[child::author[. is $y] and child::title[. is $z]]";
        let good = Assignment::from_pairs([(Var::new("y"), author), (Var::new("z"), title)]);
        assert!(!pairs_with(&tree, q, &good).is_empty());
        // Mixing author of book 2 with title of book 1 must fail.
        let title1 = tree.nodes_with_label_str("title")[0];
        let bad = Assignment::from_pairs([(Var::new("y"), author), (Var::new("z"), title1)]);
        assert!(pairs_with(&tree, q, &bad).is_empty());
    }
}
