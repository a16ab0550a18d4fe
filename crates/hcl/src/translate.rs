//! Translations between PPL and HCL⁻(PPLbin) — Proposition 5 of the paper
//! (Fig. 4 and Fig. 7), the bridge that turns the HCL answering algorithm
//! into the PPL query engine of Theorem 1.
//!
//! * [`ppl_to_hcl`] (Fig. 7, the `⟦·⟧⁻¹` direction): a PPL expression is
//!   mapped to an `HCL⁻(PPLbin)` expression in linear time.  Variable-free
//!   subexpressions collapse to single PPLbin atoms via Fig. 4 (this is
//!   where the NV(intersect)/NV(except)/NV(not) conditions are used);
//!   variables `$x` become `nodes/x`; filters, conjunctions and
//!   disjunctions map to HCL filters, compositions and unions (the
//!   NVS(·) conditions guarantee that the image satisfies NVS(/)).
//! * [`hcl_to_ppl`] (the forward direction of Prop. 5): every
//!   `HCL⁻(PPLbin)` expression maps back into PPL, with `x ↦ .[. is $x]`
//!   and `[C] ↦ .[C]`.

use crate::lang::Hcl;
use std::fmt;
use xpath_ast::binexpr::{from_variable_free_path, from_variable_free_test};
use xpath_ast::expr::nodes_path;
use xpath_ast::ppl::{check_ppl, is_variable_free, PplViolation};
use xpath_ast::{BinExpr, NameTest, NodeRef, PathExpr, TestExpr, Var};
use xpath_tree::Axis;

/// Errors of the PPL → HCL translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The input expression is not in the PPL fragment (Definition 1); the
    /// violations are reported verbatim.
    NotPpl(Vec<PplViolation>),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NotPpl(violations) => {
                write!(f, "expression is not in PPL:")?;
                for v in violations {
                    write!(f, "\n  - {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translate a PPL expression into `HCL⁻(PPLbin)` (Fig. 7).
pub fn ppl_to_hcl(p: &PathExpr) -> Result<Hcl<BinExpr>, TranslateError> {
    check_ppl(p).map_err(TranslateError::NotPpl)?;
    Ok(translate_path(p))
}

fn variable_free_atom(p: &PathExpr) -> Hcl<BinExpr> {
    Hcl::Atom(
        from_variable_free_path(p).expect("caller checked that the subexpression is variable-free"),
    )
}

fn translate_path(p: &PathExpr) -> Hcl<BinExpr> {
    if is_variable_free(p) {
        // Whole variable-free subexpressions become one PPLbin atom (Fig. 4);
        // this covers steps, `.`, and — thanks to NV(intersect)/NV(except) —
        // every intersection and exception of a PPL expression.
        return variable_free_atom(p);
    }
    match p {
        PathExpr::NodeRef(NodeRef::Var(x)) => {
            // $x  ↦  nodes/x
            Hcl::Atom(BinExpr::nodes()).then(Hcl::Var(x.clone()))
        }
        PathExpr::Seq(a, b) => translate_path(a).then(translate_path(b)),
        PathExpr::Union(a, b) => translate_path(a).or(translate_path(b)),
        PathExpr::Filter(base, test) => translate_path(base).then(translate_test(test)),
        // The remaining constructors either cannot contain variables in PPL
        // (`intersect`, `except` — caught by the variable-free case above)
        // or are excluded from PPL altogether (`for`), and steps/`.`/
        // variable-free node refs were handled above.
        PathExpr::Step(_, _)
        | PathExpr::NodeRef(NodeRef::Dot)
        | PathExpr::Intersect(_, _)
        | PathExpr::Except(_, _)
        | PathExpr::For(_, _, _) => {
            unreachable!("PPL check rules out variable-bearing {p}")
        }
    }
}

/// Translate a PPL test expression into an HCL expression denoting a partial
/// identity — the `⟦./[T]⟧⁻¹` of Fig. 7.
fn translate_test(t: &TestExpr) -> Hcl<BinExpr> {
    let variable_free = t.free_vars().is_empty() && !t.has_for();
    if variable_free {
        return Hcl::Atom(
            from_variable_free_test(t, true).expect("variable-free test translates to PPLbin"),
        );
    }
    match t {
        TestExpr::Path(p) => Hcl::Filter(Box::new(translate_path(p))),
        TestExpr::Comp(NodeRef::Dot, NodeRef::Var(x))
        | TestExpr::Comp(NodeRef::Var(x), NodeRef::Dot) => Hcl::Var(x.clone()),
        TestExpr::Comp(NodeRef::Var(x), NodeRef::Var(y)) => {
            // Fig. 2: ⟦$x is $y⟧_test = {α(x) | α(x) = α(y)} — the test holds
            // only at the node α(x), and only when the two variables denote
            // the same node.  The composition x/y is exactly that partial
            // identity (and satisfies NVS(/) since x ≠ y syntactically).
            if x == y {
                Hcl::Var(x.clone())
            } else {
                Hcl::Var(x.clone()).then(Hcl::Var(y.clone()))
            }
        }
        TestExpr::And(a, b) => translate_test(a).then(translate_test(b)),
        TestExpr::Or(a, b) => translate_test(a).or(translate_test(b)),
        // `not` with variables violates NV(not) and `. is .` is variable
        // free; both were excluded before reaching this match.
        TestExpr::Comp(NodeRef::Dot, NodeRef::Dot) | TestExpr::Not(_) => {
            unreachable!("PPL check rules out variable-bearing {t}")
        }
    }
}

/// Translate an `HCL⁻(PPLbin)` expression back into PPL (the forward
/// direction of Prop. 5).
pub fn hcl_to_ppl(c: &Hcl<BinExpr>) -> PathExpr {
    match c {
        Hcl::Atom(b) => binexpr_to_path(b),
        Hcl::Var(x) => var_as_path(x),
        Hcl::Seq(a, b) => PathExpr::Seq(Box::new(hcl_to_ppl(a)), Box::new(hcl_to_ppl(b))),
        Hcl::Union(a, b) => PathExpr::Union(Box::new(hcl_to_ppl(a)), Box::new(hcl_to_ppl(b))),
        Hcl::Filter(inner) => PathExpr::Filter(
            Box::new(PathExpr::NodeRef(NodeRef::Dot)),
            Box::new(TestExpr::Path(hcl_to_ppl(inner))),
        ),
    }
}

/// `x ↦ .[. is $x]` — the equality-test reading of HCL variables.
fn var_as_path(x: &Var) -> PathExpr {
    PathExpr::Filter(
        Box::new(PathExpr::NodeRef(NodeRef::Dot)),
        Box::new(TestExpr::Comp(NodeRef::Dot, NodeRef::Var(x.clone()))),
    )
}

/// Convert a PPLbin expression back into Core XPath 2.0 syntax (a
/// variable-free PPL path expression).
pub fn binexpr_to_path(b: &BinExpr) -> PathExpr {
    match b {
        BinExpr::Step(axis, test) => PathExpr::Step(*axis, test.clone()),
        BinExpr::Seq(a, c) => {
            PathExpr::Seq(Box::new(binexpr_to_path(a)), Box::new(binexpr_to_path(c)))
        }
        BinExpr::Union(a, c) => {
            PathExpr::Union(Box::new(binexpr_to_path(a)), Box::new(binexpr_to_path(c)))
        }
        BinExpr::Except(inner) => {
            // Unary complement: `nodes except P`.
            PathExpr::Except(Box::new(nodes_path()), Box::new(binexpr_to_path(inner)))
        }
        BinExpr::Test(inner) => PathExpr::Filter(
            Box::new(PathExpr::NodeRef(NodeRef::Dot)),
            Box::new(TestExpr::Path(binexpr_to_path(inner))),
        ),
    }
}

/// Convenience: the paper's `nodes` binary query as a step-only PPLbin atom,
/// re-exported for callers assembling HCL expressions manually.
pub fn nodes_atom() -> Hcl<BinExpr> {
    Hcl::Atom(BinExpr::nodes())
}

/// Convenience: a single-axis atom.
pub fn axis_atom(axis: Axis, test: NameTest) -> Hcl<BinExpr> {
    Hcl::Atom(BinExpr::Step(axis, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::answer_hcl_pplbin;
    use std::collections::BTreeSet;
    use xpath_ast::parse_path;
    use xpath_naive::answer_nary;
    use xpath_tree::{NodeId, Tree};

    fn vars(names: &[&str]) -> Vec<Var> {
        names.iter().map(|n| Var::new(n)).collect()
    }

    /// Differential check: the PPL pipeline (Fig. 7 translation + Fig. 8
    /// answering) must agree with the naive specification semantics.
    fn check_pipeline(tree: &Tree, src: &str, output: &[&str]) {
        let ppl = parse_path(src).unwrap();
        let out_vars = vars(output);
        let hcl = ppl_to_hcl(&ppl).unwrap();
        assert!(hcl.is_hcl_minus(), "Fig. 7 must produce HCL⁻: {src}");
        let got = answer_hcl_pplbin(tree, &hcl, &out_vars).unwrap();
        let expected: BTreeSet<Vec<NodeId>> = answer_nary(tree, &ppl, &out_vars)
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(
            got, expected,
            "pipeline disagrees with the specification on {src}"
        );

        // Round trip: HCL → PPL must also agree.
        let back = hcl_to_ppl(&hcl);
        let back_ans: BTreeSet<Vec<NodeId>> = answer_nary(tree, &back, &out_vars)
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(
            back_ans, expected,
            "hcl_to_ppl changed the answers of {src}"
        );
    }

    fn bib() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title),paper(title))").unwrap()
    }

    #[test]
    fn intro_example_pipeline() {
        let t = bib();
        check_pipeline(
            &t,
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
            &["y", "z"],
        );
    }

    #[test]
    fn unary_and_binary_queries() {
        let t = bib();
        check_pipeline(&t, "descendant::author[. is $a]", &["a"]);
        check_pipeline(
            &t,
            "descendant::book[. is $b]/child::title[. is $t]",
            &["b", "t"],
        );
        check_pipeline(&t, "child::*[. is $x]/child::*[. is $y]", &["x", "y"]);
    }

    #[test]
    fn variable_free_operators_collapse_to_atoms() {
        let t = bib();
        check_pipeline(
            &t,
            "(descendant::* except descendant::title)[. is $n]",
            &["n"],
        );
        check_pipeline(
            &t,
            "(child::book intersect descendant::book)[. is $b]",
            &["b"],
        );
        check_pipeline(&t, "descendant::*[not(child::*)][. is $leaf]", &["leaf"]);
    }

    #[test]
    fn unions_with_shared_variables_are_allowed() {
        let t = bib();
        check_pipeline(
            &t,
            "descendant::author[. is $x] union descendant::title[. is $x]",
            &["x"],
        );
        check_pipeline(
            &t,
            "descendant::book[child::author[. is $x] or child::title[. is $x]]",
            &["x"],
        );
    }

    #[test]
    fn goto_variables_and_comparisons() {
        let t = Tree::from_terms("r(a(c),b(c))").unwrap();
        check_pipeline(&t, "$x/child::c[. is $y]", &["x", "y"]);
        check_pipeline(&t, "descendant::c[$x is $y]", &["x", "y"]);
        check_pipeline(&t, "descendant::c[$x is $x]", &["x"]);
        check_pipeline(&t, "$x", &["x"]);
    }

    #[test]
    fn non_ppl_inputs_are_rejected_with_diagnostics() {
        for src in [
            "for $x in child::a return child::b",
            "child::a[. is $x]/child::b[. is $x]",
            "$x intersect child::a",
            "child::a[not(child::b[. is $x])]",
        ] {
            let err = ppl_to_hcl(&parse_path(src).unwrap()).unwrap_err();
            let TranslateError::NotPpl(violations) = &err;
            assert!(!violations.is_empty(), "{src}");
            assert!(err.to_string().contains("not in PPL"));
        }
    }

    #[test]
    fn translation_is_linear_in_size() {
        // Chain of filters with fresh variables: |HCL| must stay within a
        // constant factor of |PPL|.
        let mut src = String::from("descendant::book");
        for i in 0..30 {
            src.push_str(&format!("[child::author[. is $v{i}]]"));
        }
        let ppl = parse_path(&src).unwrap();
        let hcl = ppl_to_hcl(&ppl).unwrap();
        assert!(hcl.size() <= 3 * ppl.size());
    }

    #[test]
    fn binexpr_round_trip_preserves_binary_semantics() {
        use xpath_ast::binexpr::from_variable_free_path;
        use xpath_naive::answer_binary;
        use xpath_pplbin::answer_binary as matrix_binary;
        let t = bib();
        for src in [
            "child::book/child::author",
            "descendant::* except child::*",
            "child::*[not(child::author)]",
            "(child::book union child::paper)/child::title",
        ] {
            let bin = from_variable_free_path(&parse_path(src).unwrap()).unwrap();
            let back = binexpr_to_path(&bin);
            let via_matrix = matrix_binary(&t, &bin).pairs();
            let via_naive = answer_binary(&t, &back).unwrap();
            assert_eq!(via_matrix, via_naive, "{src}");
        }
    }

    #[test]
    fn helper_constructors() {
        assert_eq!(nodes_atom().size(), 1);
        let a = axis_atom(Axis::Child, NameTest::name("book"));
        assert!(matches!(a, Hcl::Atom(BinExpr::Step(Axis::Child, _))));
    }
}
