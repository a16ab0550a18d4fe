//! Tarskian satisfaction and n-ary FO query answering (the FO baseline).

use crate::formula::Formula;
use std::collections::{BTreeMap, BTreeSet};
use xpath_ast::Var;
use xpath_tree::{NodeId, Tree};

/// A variable assignment for FO evaluation.
pub type FoAssignment = BTreeMap<Var, NodeId>;

/// `t, α ⊨ φ` — the usual Tarskian satisfaction relation.
///
/// Free variables of `φ` must be bound by `alpha`; panics otherwise (the
/// query-level entry points below always provide total assignments).
pub fn fo_satisfies(tree: &Tree, phi: &Formula, alpha: &FoAssignment) -> bool {
    match phi {
        Formula::NsStar(x, y) => {
            let vx = lookup(alpha, x);
            let vy = lookup(alpha, y);
            tree.is_following_sibling_or_self(vy, vx)
        }
        Formula::ChStar(x, y) => {
            let vx = lookup(alpha, x);
            let vy = lookup(alpha, y);
            tree.is_descendant_or_self(vy, vx)
        }
        Formula::Label(label, x) => tree.label_str(lookup(alpha, x)) == label,
        Formula::Not(f) => !fo_satisfies(tree, f, alpha),
        Formula::And(a, b) => fo_satisfies(tree, a, alpha) && fo_satisfies(tree, b, alpha),
        Formula::Exists(x, body) => tree.nodes().any(|v| {
            let mut extended = alpha.clone();
            extended.insert(x.clone(), v);
            fo_satisfies(tree, body, &extended)
        }),
    }
}

fn lookup(alpha: &FoAssignment, v: &Var) -> NodeId {
    *alpha
        .get(v)
        .unwrap_or_else(|| panic!("unbound FO variable {v}"))
}

/// Answer the n-ary FO query `q_{φ,x}(t) = {(α(x₁),…,α(xₙ)) | t, α ⊨ φ}` by
/// enumerating all assignments of the output variables (free variables of
/// `φ` not listed in `x` are existentially closed first, so the answer
/// depends only on `x`).
pub fn fo_answer_nary(tree: &Tree, phi: &Formula, x: &[Var]) -> BTreeSet<Vec<NodeId>> {
    // Existentially close the free variables that are not output variables.
    let mut closed = phi.clone();
    for v in phi.free_vars() {
        if !x.contains(&v) {
            closed = Formula::Exists(v, Box::new(closed));
        }
    }
    let mut out = BTreeSet::new();
    let mut alpha = FoAssignment::new();
    enumerate(tree, &closed, x, 0, &mut alpha, &mut out);
    out
}

fn enumerate(
    tree: &Tree,
    phi: &Formula,
    x: &[Var],
    idx: usize,
    alpha: &mut FoAssignment,
    out: &mut BTreeSet<Vec<NodeId>>,
) {
    if idx == x.len() {
        if fo_satisfies(tree, phi, alpha) {
            out.insert(x.iter().map(|v| alpha[v]).collect());
        }
        return;
    }
    for node in tree.nodes() {
        alpha.insert(x[idx].clone(), node);
        enumerate(tree, phi, x, idx + 1, alpha, out);
    }
    alpha.remove(&x[idx]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Tree {
        Tree::from_terms("bib(book(author,title),book(title))").unwrap()
    }

    fn assign(pairs: &[(&str, NodeId)]) -> FoAssignment {
        pairs.iter().map(|(n, v)| (Var::new(n), *v)).collect()
    }

    #[test]
    fn atoms_follow_the_tree_relations() {
        let t = tree();
        let root = t.root();
        let book1 = t.nodes_with_label_str("book")[0];
        let book2 = t.nodes_with_label_str("book")[1];
        let author = t.nodes_with_label_str("author")[0];

        assert!(fo_satisfies(
            &t,
            &Formula::ch_star("x", "y"),
            &assign(&[("x", root), ("y", author)])
        ));
        assert!(fo_satisfies(
            &t,
            &Formula::ch_star("x", "y"),
            &assign(&[("x", root), ("y", root)])
        ));
        assert!(!fo_satisfies(
            &t,
            &Formula::ch_star("x", "y"),
            &assign(&[("x", author), ("y", root)])
        ));
        assert!(fo_satisfies(
            &t,
            &Formula::ns_star("x", "y"),
            &assign(&[("x", book1), ("y", book2)])
        ));
        assert!(!fo_satisfies(
            &t,
            &Formula::ns_star("x", "y"),
            &assign(&[("x", book2), ("y", book1)])
        ));
        assert!(fo_satisfies(
            &t,
            &Formula::label("book", "x"),
            &assign(&[("x", book1)])
        ));
        assert!(!fo_satisfies(
            &t,
            &Formula::label("book", "x"),
            &assign(&[("x", author)])
        ));
    }

    #[test]
    fn connectives_and_quantifiers() {
        let t = tree();
        let root = t.root();
        // Every node is a descendant-or-self of the root.
        let all_below_root = Formula::forall("y", Formula::ch_star("x", "y"));
        assert!(fo_satisfies(&t, &all_below_root, &assign(&[("x", root)])));
        let book1 = t.nodes_with_label_str("book")[0];
        assert!(!fo_satisfies(&t, &all_below_root, &assign(&[("x", book1)])));
        // There is a book with an author child (as a descendant).
        let has_authored_book = Formula::exists(
            "b",
            Formula::label("book", "b").and(Formula::exists(
                "a",
                Formula::label("author", "a").and(Formula::ch_star("b", "a")),
            )),
        );
        assert!(fo_satisfies(&t, &has_authored_book, &FoAssignment::new()));
    }

    #[test]
    fn derived_equality() {
        let t = tree();
        let book1 = t.nodes_with_label_str("book")[0];
        let book2 = t.nodes_with_label_str("book")[1];
        assert!(fo_satisfies(
            &t,
            &Formula::eq("x", "y"),
            &assign(&[("x", book1), ("y", book1)])
        ));
        assert!(!fo_satisfies(
            &t,
            &Formula::eq("x", "y"),
            &assign(&[("x", book1), ("y", book2)])
        ));
    }

    #[test]
    fn nary_answers() {
        let t = tree();
        // Pairs (x, y): x is a book and y is a title below x.
        let phi = Formula::label("book", "x")
            .and(Formula::label("title", "y"))
            .and(Formula::ch_star("x", "y"));
        let ans = fo_answer_nary(&t, &phi, &[Var::new("x"), Var::new("y")]);
        assert_eq!(ans.len(), 2);
        for tuple in &ans {
            assert_eq!(t.label_str(tuple[0]), "book");
            assert_eq!(t.label_str(tuple[1]), "title");
            assert!(t.is_ancestor(tuple[1], tuple[0]));
        }
        // Unary projection: the same formula with only x as output
        // existentially closes y.
        let only_books = fo_answer_nary(&t, &phi, &[Var::new("x")]);
        assert_eq!(only_books.len(), 2);
    }

    #[test]
    fn boolean_fo_query() {
        let t = tree();
        let sat = Formula::exists("x", Formula::label("author", "x"));
        assert_eq!(fo_answer_nary(&t, &sat, &[]).len(), 1);
        let unsat = Formula::exists("x", Formula::label("publisher", "x"));
        assert!(fo_answer_nary(&t, &unsat, &[]).is_empty());
    }
}
