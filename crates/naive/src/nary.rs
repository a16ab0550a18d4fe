//! N-ary query answering by assignment enumeration — the exponential
//! baseline.
//!
//! The paper defines the n-ary query of a path expression `P` and a variable
//! sequence `x = x₁ … xₙ` as
//!
//! ```text
//! q_{P,x}(t) = { (α(x₁), …, α(xₙ)) | ⟦P⟧^{t,α} ≠ ∅ }
//! ```
//!
//! The brute-force way to compute this set is to enumerate every assignment
//! of the relevant variables — `|t|^k` of them, where `k` is the number of
//! distinct variables — and to evaluate `P` under each.  This is the PSPACE/
//! exponential baseline that motivates the PPL fragment; the polynomial
//! algorithm lives in `xpath_hcl`.

use crate::assignment::Assignment;
use crate::eval::{eval_path, EvalError};
use std::collections::BTreeSet;
use xpath_ast::{PathExpr, Var};
use xpath_tree::{NodeId, Tree};

/// The answer set of an n-ary query: a sorted set of n-tuples of nodes.
pub type NaryAnswer = BTreeSet<Vec<NodeId>>;

/// Answer the Boolean query "`⟦P⟧^{t,α} ≠ ∅`" (model checking) under a given
/// assignment.
pub fn boolean_query(tree: &Tree, p: &PathExpr, alpha: &Assignment) -> Result<bool, EvalError> {
    Ok(!eval_path(tree, p, alpha)?.is_empty())
}

/// Answer the binary query `q^bin_P` of a *variable-free* expression: the set
/// of pairs (start node, end node) related by `P`.
pub fn answer_binary(tree: &Tree, p: &PathExpr) -> Result<Vec<(NodeId, NodeId)>, EvalError> {
    Ok(eval_path(tree, p, &Assignment::new())?
        .into_iter()
        .collect())
}

/// Answer the n-ary query `q_{P,x}(t)` by enumerating assignments.
///
/// The enumeration ranges over the union of the free variables of `P` and
/// the output variables `x`; output variables not occurring in `P` range
/// freely over `nodes(t)` (matching the paper's definition, where the
/// assignment is total).
///
/// Cost: `Θ(|t|^k)` evaluations of `P`, where `k` is the number of distinct
/// enumerated variables — exponential in the tuple width.
pub fn answer_nary(tree: &Tree, p: &PathExpr, x: &[Var]) -> Result<NaryAnswer, EvalError> {
    let mut vars: Vec<Var> = p.free_vars().into_iter().collect();
    for v in x {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    let mut out = NaryAnswer::new();
    let mut alpha = Assignment::new();
    enumerate(tree, p, x, &vars, 0, &mut alpha, &mut out)?;
    Ok(out)
}

fn enumerate(
    tree: &Tree,
    p: &PathExpr,
    x: &[Var],
    vars: &[Var],
    idx: usize,
    alpha: &mut Assignment,
    out: &mut NaryAnswer,
) -> Result<(), EvalError> {
    if idx == vars.len() {
        if boolean_query(tree, p, alpha)? {
            let tuple: Vec<NodeId> = x
                .iter()
                .map(|v| alpha.get(v).expect("output variable was enumerated"))
                .collect();
            out.insert(tuple);
        }
        return Ok(());
    }
    for node in tree.nodes() {
        alpha.bind(vars[idx].clone(), node);
        enumerate(tree, p, x, vars, idx + 1, alpha, out)?;
    }
    alpha.unbind(&vars[idx]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::parse_path;

    fn bib() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title))").unwrap()
    }

    #[test]
    fn intro_example_selects_author_title_pairs_per_book() {
        let tree = bib();
        let q = parse_path("descendant::book[child::author[. is $y] and child::title[. is $z]]")
            .unwrap();
        let ans = answer_nary(&tree, &q, &[Var::new("y"), Var::new("z")]).unwrap();
        // book1 has 1 author × 1 title, book2 has 2 authors × 1 title.
        assert_eq!(ans.len(), 3);
        for tuple in &ans {
            let (author, title) = (tuple[0], tuple[1]);
            assert_eq!(tree.label_str(author), "author");
            assert_eq!(tree.label_str(title), "title");
            // Both come from the same book.
            assert_eq!(tree.parent(author), tree.parent(title));
        }
    }

    #[test]
    fn output_variables_not_in_the_query_range_freely() {
        let tree = Tree::from_terms("a(b,c)").unwrap();
        let q = parse_path("child::b").unwrap();
        let ans = answer_nary(&tree, &q, &[Var::new("w")]).unwrap();
        // The query is satisfiable, so $w can be any of the 3 nodes.
        assert_eq!(ans.len(), 3);
        // An unsatisfiable query yields the empty answer regardless.
        let empty =
            answer_nary(&tree, &parse_path("child::zzz").unwrap(), &[Var::new("w")]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn unary_query_with_anchor() {
        let tree = bib();
        // Select every author node: $y such that some book child has $y
        // among its author children.
        let q = parse_path("descendant::book/child::author[. is $y]").unwrap();
        let ans = answer_nary(&tree, &q, &[Var::new("y")]).unwrap();
        assert_eq!(ans.len(), 3);
        assert!(ans.iter().all(|tuple| tree.label_str(tuple[0]) == "author"));
    }

    #[test]
    fn boolean_queries() {
        let tree = bib();
        let yes = parse_path("child::book/child::title").unwrap();
        let no = parse_path("child::publisher").unwrap();
        assert!(boolean_query(&tree, &yes, &Assignment::new()).unwrap());
        assert!(!boolean_query(&tree, &no, &Assignment::new()).unwrap());
    }

    #[test]
    fn binary_answers_match_pair_semantics() {
        let tree = bib();
        let q = parse_path("descendant::author").unwrap();
        let pairs = answer_binary(&tree, &q).unwrap();
        // Every proper ancestor of an author is a valid start node: the root
        // reaches all 3 authors and each book reaches its own author(s).
        assert_eq!(pairs.len(), 6);
        assert!(pairs
            .iter()
            .all(|&(v1, v2)| { tree.label_str(v2) == "author" && tree.is_ancestor(v2, v1) }));
    }

    #[test]
    fn for_loop_queries_are_supported_by_the_baseline() {
        let tree = bib();
        // All pairs (book, its title) via an explicit for loop over titles.
        let q = parse_path("descendant::book[. is $b]/child::title[. is $t]").unwrap();
        let ans = answer_nary(&tree, &q, &[Var::new("b"), Var::new("t")]).unwrap();
        assert_eq!(ans.len(), 2);
        for tuple in &ans {
            assert_eq!(tree.label_str(tuple[0]), "book");
            assert_eq!(tree.label_str(tuple[1]), "title");
            assert_eq!(tree.parent(tuple[1]), Some(tuple[0]));
        }
    }

    #[test]
    fn zero_ary_query_yields_empty_tuple_iff_satisfiable() {
        let tree = bib();
        let sat = parse_path("child::book").unwrap();
        let ans = answer_nary(&tree, &sat, &[]).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Vec::new()));
        let unsat = parse_path("child::nothing").unwrap();
        assert!(answer_nary(&tree, &unsat, &[]).unwrap().is_empty());
    }
}
