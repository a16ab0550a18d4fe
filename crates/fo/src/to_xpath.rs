//! The linear-time translation from FO into Core XPath 2.0
//! (Lemma 1 / Proposition 1 of the paper).
//!
//! ```text
//! ⟦∃x.φ⟧      = for $x in nodes return ⟦φ⟧
//! ⟦¬φ⟧        = .[not ⟦φ⟧]
//! ⟦φ ∧ φ'⟧    = ⟦φ⟧ / ⟦φ'⟧
//! ⟦ns*(x,y)⟧  = $x/(following_sibling::* union .)/.[. is $y]
//! ⟦ch*(x,y)⟧  = $x/(descendant::* union .)/.[. is $y]
//! ⟦lab_a(x)⟧  = $x/self::a
//! ```
//!
//! where `nodes = (ancestor::* union .)/(descendant::* union .)` reaches
//! every node of the tree.  Correctness (Lemma 1): `t, α ⊨ φ` iff
//! `⟦⟦φ⟧⟧^{t,α} ≠ ∅`, which the tests below check differentially against the
//! naive evaluators of both logics.

use crate::formula::Formula;
use xpath_ast::expr::nodes_path;
use xpath_ast::{NameTest, NodeRef, PathExpr, TestExpr};
use xpath_tree::Axis;

/// Translate an FO formula into a Core XPath 2.0 path expression (Lemma 1).
pub fn fo_to_xpath(phi: &Formula) -> PathExpr {
    match phi {
        Formula::Exists(x, body) => PathExpr::For(
            x.clone(),
            Box::new(nodes_path()),
            Box::new(fo_to_xpath(body)),
        ),
        Formula::Not(body) => PathExpr::Filter(
            Box::new(PathExpr::NodeRef(NodeRef::Dot)),
            Box::new(TestExpr::Not(Box::new(TestExpr::Path(fo_to_xpath(body))))),
        ),
        Formula::And(a, b) => PathExpr::Seq(Box::new(fo_to_xpath(a)), Box::new(fo_to_xpath(b))),
        Formula::NsStar(x, y) => axis_literal(Axis::FollowingSibling, x, y),
        Formula::ChStar(x, y) => axis_literal(Axis::Descendant, x, y),
        Formula::Label(label, x) => PathExpr::Seq(
            Box::new(PathExpr::NodeRef(NodeRef::Var(x.clone()))),
            Box::new(PathExpr::Step(
                Axis::SelfAxis,
                NameTest::Name(label.clone()),
            )),
        ),
    }
}

/// `$x/(axis::* union .)/.[. is $y]`
fn axis_literal(axis: Axis, x: &xpath_ast::Var, y: &xpath_ast::Var) -> PathExpr {
    let closure = PathExpr::Union(
        Box::new(PathExpr::Step(axis, NameTest::Wildcard)),
        Box::new(PathExpr::NodeRef(NodeRef::Dot)),
    );
    let is_y = PathExpr::Filter(
        Box::new(PathExpr::NodeRef(NodeRef::Dot)),
        Box::new(TestExpr::Comp(NodeRef::Dot, NodeRef::Var(y.clone()))),
    );
    PathExpr::Seq(
        Box::new(PathExpr::Seq(
            Box::new(PathExpr::NodeRef(NodeRef::Var(x.clone()))),
            Box::new(closure),
        )),
        Box::new(is_y),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{fo_answer_nary, fo_satisfies, FoAssignment};
    use crate::parser::parse_formula;
    use std::collections::BTreeSet;
    use xpath_ast::Var;
    use xpath_naive::{answer_nary, boolean_query, Assignment};
    use xpath_tree::{NodeId, Tree};

    fn trees() -> Vec<Tree> {
        vec![
            Tree::from_terms("a").unwrap(),
            Tree::from_terms("a(b,c)").unwrap(),
            Tree::from_terms("bib(book(author,title),book(title))").unwrap(),
            Tree::from_terms("r(x(y(z)),x(y),w)").unwrap(),
        ]
    }

    /// Lemma 1: t, α ⊨ φ  iff  ⟦⟦φ⟧⟧^{t,α} ≠ ∅, for every assignment of the
    /// free variables.
    fn check_lemma1(tree: &Tree, phi: &Formula) {
        let xpath = fo_to_xpath(phi);
        let free: Vec<Var> = phi.free_vars().into_iter().collect();
        let mut alpha_fo = FoAssignment::new();
        check_rec(tree, phi, &xpath, &free, 0, &mut alpha_fo);
    }

    fn check_rec(
        tree: &Tree,
        phi: &Formula,
        xpath: &xpath_ast::PathExpr,
        free: &[Var],
        idx: usize,
        alpha: &mut FoAssignment,
    ) {
        if idx == free.len() {
            let fo_holds = fo_satisfies(tree, phi, alpha);
            let xp_alpha = Assignment::from_pairs(alpha.iter().map(|(v, n)| (v.clone(), *n)));
            let xp_holds = boolean_query(tree, xpath, &xp_alpha).unwrap();
            assert_eq!(
                fo_holds, xp_holds,
                "Lemma 1 violated for {phi} under {alpha:?} on {tree}"
            );
            return;
        }
        for node in tree.nodes() {
            alpha.insert(free[idx].clone(), node);
            check_rec(tree, phi, xpath, free, idx + 1, alpha);
        }
        alpha.remove(&free[idx]);
    }

    #[test]
    fn lemma1_on_literals() {
        for t in trees() {
            check_lemma1(&t, &Formula::ch_star("x", "y"));
            check_lemma1(&t, &Formula::ns_star("x", "y"));
            check_lemma1(&t, &Formula::label("book", "x"));
            check_lemma1(&t, &Formula::label("a", "x"));
        }
    }

    #[test]
    fn lemma1_on_connectives() {
        let phi1 = Formula::label("book", "x").and(Formula::ch_star("x", "y"));
        let phi2 = Formula::ch_star("x", "y").negate();
        let phi3 = Formula::label("author", "y").or(Formula::label("title", "y"));
        for t in trees() {
            check_lemma1(&t, &phi1);
            check_lemma1(&t, &phi2);
            check_lemma1(&t, &phi3);
        }
    }

    #[test]
    fn lemma1_on_quantified_formulas() {
        // ∃z. ch*(x,z) ∧ ch*(z,y)  (equivalent to ch*(x,y))
        let phi = parse_formula("exists z. chstar(x,z) and chstar(z,y)").unwrap();
        // ∃y. lab_author(y) ∧ ch*(x,y)  ("x has an author descendant")
        let psi = parse_formula("exists y. lab(author, y) and chstar(x, y)").unwrap();
        for t in trees() {
            check_lemma1(&t, &phi);
            check_lemma1(&t, &psi);
        }
    }

    #[test]
    fn translated_queries_give_the_same_nary_answers() {
        let t = Tree::from_terms("bib(book(author,title),book(title))").unwrap();
        let phi = Formula::label("book", "x")
            .and(Formula::label("title", "y"))
            .and(Formula::ch_star("x", "y"));
        let fo_ans = fo_answer_nary(&t, &phi, &[Var::new("x"), Var::new("y")]);
        let xpath = fo_to_xpath(&phi);
        let xp_ans: BTreeSet<Vec<NodeId>> =
            answer_nary(&t, &xpath, &[Var::new("x"), Var::new("y")])
                .unwrap()
                .into_iter()
                .collect();
        assert_eq!(fo_ans, xp_ans);
        assert_eq!(fo_ans.len(), 2);
    }

    #[test]
    fn translation_is_linear_in_formula_size() {
        let mut phi = Formula::label("a", "x0");
        for i in 1..40 {
            phi = phi.and(Formula::ch_star(&format!("x{}", i - 1), &format!("x{i}")));
        }
        let xpath = fo_to_xpath(&phi);
        assert!(xpath.size() <= 10 * phi.size());
    }

    #[test]
    fn quantifier_free_formulas_translate_without_for_loops() {
        // Lemma 2 direction: the image of a quantifier-free formula has no
        // for loops (and hence stays in the for-free fragment).
        let phi = Formula::label("a", "x")
            .and(Formula::ch_star("x", "y"))
            .negate();
        let xpath = fo_to_xpath(&phi);
        assert!(!xpath.has_for());
        let quantified = Formula::exists("x", Formula::label("a", "x"));
        assert!(fo_to_xpath(&quantified).has_for());
    }
}
