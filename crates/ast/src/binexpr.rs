//! PPLbin — the variable-free binary path language (Fig. 3 of the paper) and
//! the linear-time translation from variable-free Core XPath 2.0 into it
//! (Fig. 4, Proposition 4).
//!
//! The PPLbin syntax is minimal:
//!
//! ```text
//! PathExpr := Axis :: NameTest
//!           | PathExpr / PathExpr
//!           | PathExpr union PathExpr
//!           | except PathExpr          (unary complement: nodes² \ P)
//!           | [ PathExpr ]             (partial identity: nodes with a P-successor)
//! ```
//!
//! Every PPLbin expression denotes a *binary* query — a set of node pairs —
//! and is evaluated by the Boolean-matrix engine in `xpath_pplbin`
//! (Theorem 2: `O(|P|·|t|³)`).
//!
//! The translation [`from_variable_free_path`] implements Fig. 4: it maps any
//! Core XPath 2.0 expression satisfying N($x) (no variables, no `for`, no
//! variable comparisons) to an equivalent PPLbin expression in linear time.
//! Binary `intersect`/`except` and test expressions are compiled away using
//! the unary complement:
//!
//! * `P1 intersect P2` → `except (except P1 union except P2)`
//! * `P1 except P2`    → `except (except P1 union P2)`
//! * `P[T]`            → `P / ⟦T⟧`, where `⟦T⟧` is a partial identity
//! * `[not P]`         → `self::* except [P]`, i.e.
//!   `except (except self::* union [P])` — the nodes with **no** `P`
//!   successor.  (Fig. 4 of the paper prints this case as `[except P]`,
//!   which would instead select the nodes having *some* non-`P` successor;
//!   we implement the semantically correct form and note the discrepancy in
//!   DESIGN.md.)

use crate::expr::{NameTest, NodeRef, PathExpr, TestExpr};
use std::fmt;
use xpath_tree::Axis;

/// A PPLbin expression (Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BinExpr {
    /// `Axis :: NameTest`
    Step(Axis, NameTest),
    /// `P1 / P2` — relation composition.
    Seq(Box<BinExpr>, Box<BinExpr>),
    /// `P1 union P2`
    Union(Box<BinExpr>, Box<BinExpr>),
    /// `except P` — complement with respect to `nodes(t)²`.
    Except(Box<BinExpr>),
    /// `[P]` — `{(u,u) | ∃u'. (u,u') ∈ P}`.
    Test(Box<BinExpr>),
}

impl BinExpr {
    /// `self::*` — the identity relation.
    pub fn self_star() -> BinExpr {
        BinExpr::Step(Axis::SelfAxis, NameTest::Wildcard)
    }

    /// The `nodes` relation of Section 2: every pair of nodes,
    /// `(ancestor::* union self::*)/(descendant::* union self::*)`.
    pub fn nodes() -> BinExpr {
        let up = BinExpr::Union(
            Box::new(BinExpr::Step(Axis::Ancestor, NameTest::Wildcard)),
            Box::new(BinExpr::self_star()),
        );
        let down = BinExpr::Union(
            Box::new(BinExpr::Step(Axis::Descendant, NameTest::Wildcard)),
            Box::new(BinExpr::self_star()),
        );
        BinExpr::Seq(Box::new(up), Box::new(down))
    }

    /// Composition `self / other`.
    pub fn then(self, other: BinExpr) -> BinExpr {
        BinExpr::Seq(Box::new(self), Box::new(other))
    }

    /// Union `self union other`.
    pub fn or(self, other: BinExpr) -> BinExpr {
        BinExpr::Union(Box::new(self), Box::new(other))
    }

    /// Unary complement `except self`.
    pub fn complement(self) -> BinExpr {
        BinExpr::Except(Box::new(self))
    }

    /// The filter test `[self]`.
    pub fn test(self) -> BinExpr {
        BinExpr::Test(Box::new(self))
    }

    /// Derived binary intersection:
    /// `a intersect b = except (except a union except b)`.
    pub fn intersect(a: BinExpr, b: BinExpr) -> BinExpr {
        BinExpr::Except(Box::new(BinExpr::Union(
            Box::new(BinExpr::Except(Box::new(a))),
            Box::new(BinExpr::Except(Box::new(b))),
        )))
    }

    /// Derived binary difference: `a except b = except (except a union b)`.
    pub fn minus(a: BinExpr, b: BinExpr) -> BinExpr {
        BinExpr::Except(Box::new(BinExpr::Union(
            Box::new(BinExpr::Except(Box::new(a))),
            Box::new(b),
        )))
    }

    /// `|P|` — the number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            BinExpr::Step(_, _) => 1,
            BinExpr::Seq(a, b) | BinExpr::Union(a, b) => 1 + a.size() + b.size(),
            BinExpr::Except(p) | BinExpr::Test(p) => 1 + p.size(),
        }
    }

    /// All distinct steps occurring in the expression (useful for
    /// precomputing axis relations).
    pub fn steps(&self) -> Vec<(Axis, NameTest)> {
        let mut out = Vec::new();
        self.collect_steps(&mut out);
        out
    }

    fn collect_steps(&self, out: &mut Vec<(Axis, NameTest)>) {
        match self {
            BinExpr::Step(a, n) => {
                if !out.iter().any(|(a2, n2)| a2 == a && n2 == n) {
                    out.push((*a, n.clone()));
                }
            }
            BinExpr::Seq(a, b) | BinExpr::Union(a, b) => {
                a.collect_steps(out);
                b.collect_steps(out);
            }
            BinExpr::Except(p) | BinExpr::Test(p) => p.collect_steps(out),
        }
    }
}

fn bin_prec(e: &BinExpr) -> u8 {
    match e {
        BinExpr::Union(_, _) => 1,
        BinExpr::Seq(_, _) => 2,
        BinExpr::Except(_) => 3,
        BinExpr::Step(_, _) | BinExpr::Test(_) => 4,
    }
}

fn fmt_bin(e: &BinExpr, min_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let prec = bin_prec(e);
    let parens = prec < min_prec;
    if parens {
        f.write_str("(")?;
    }
    match e {
        BinExpr::Step(a, n) => write!(f, "{a}::{n}")?,
        BinExpr::Seq(a, b) => {
            fmt_bin(a, prec, f)?;
            f.write_str("/")?;
            fmt_bin(b, prec, f)?;
        }
        BinExpr::Union(a, b) => {
            fmt_bin(a, prec, f)?;
            f.write_str(" union ")?;
            fmt_bin(b, prec, f)?;
        }
        BinExpr::Except(p) => {
            f.write_str("except ")?;
            fmt_bin(p, prec + 1, f)?;
        }
        BinExpr::Test(p) => {
            f.write_str("[")?;
            fmt_bin(p, 0, f)?;
            f.write_str("]")?;
        }
    }
    if parens {
        f.write_str(")")?;
    }
    Ok(())
}

impl fmt::Display for BinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bin(self, 0, f)
    }
}

/// Error raised when translating an expression that is not variable-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotVariableFree {
    /// Rendering of the offending subexpression.
    pub subexpression: String,
}

impl fmt::Display for NotVariableFree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expression is not variable-free (condition N($x)): `{}`",
            self.subexpression
        )
    }
}

impl std::error::Error for NotVariableFree {}

/// Fig. 4: translate a variable-free Core XPath 2.0 path expression into
/// PPLbin.  Fails with [`NotVariableFree`] if the expression uses variables
/// or `for` loops.
pub fn from_variable_free_path(p: &PathExpr) -> Result<BinExpr, NotVariableFree> {
    match p {
        PathExpr::Step(a, n) => Ok(BinExpr::Step(*a, n.clone())),
        PathExpr::NodeRef(NodeRef::Dot) => Ok(BinExpr::self_star()),
        PathExpr::NodeRef(NodeRef::Var(_)) => Err(NotVariableFree {
            subexpression: p.to_string(),
        }),
        PathExpr::Seq(a, b) => Ok(from_variable_free_path(a)?.then(from_variable_free_path(b)?)),
        PathExpr::Union(a, b) => Ok(from_variable_free_path(a)?.or(from_variable_free_path(b)?)),
        PathExpr::Intersect(a, b) => Ok(BinExpr::intersect(
            from_variable_free_path(a)?,
            from_variable_free_path(b)?,
        )),
        PathExpr::Except(a, b) => Ok(BinExpr::minus(
            from_variable_free_path(a)?,
            from_variable_free_path(b)?,
        )),
        PathExpr::Filter(base, test) => {
            Ok(from_variable_free_path(base)?.then(from_variable_free_test(test, true)?))
        }
        PathExpr::For(_, _, _) => Err(NotVariableFree {
            subexpression: p.to_string(),
        }),
    }
}

/// Fig. 4, test part: translate a variable-free test expression into a
/// PPLbin expression denoting a *partial identity* — the pairs `(u, u)` for
/// exactly the nodes `u` satisfying the test (or its negation when
/// `positive` is false).
pub fn from_variable_free_test(t: &TestExpr, positive: bool) -> Result<BinExpr, NotVariableFree> {
    match t {
        TestExpr::Path(p) => {
            let has_succ = from_variable_free_path(p)?.test();
            if positive {
                Ok(has_succ)
            } else {
                // Nodes with no P-successor: self::* except [P].
                Ok(BinExpr::minus(BinExpr::self_star(), has_succ))
            }
        }
        TestExpr::Comp(NodeRef::Dot, NodeRef::Dot) => {
            if positive {
                Ok(BinExpr::self_star())
            } else {
                // `not (. is .)` never holds.
                Ok(BinExpr::minus(BinExpr::self_star(), BinExpr::self_star()))
            }
        }
        TestExpr::Comp(_, _) => Err(NotVariableFree {
            subexpression: t.to_string(),
        }),
        TestExpr::Not(inner) => from_variable_free_test(inner, !positive),
        TestExpr::And(a, b) => {
            if positive {
                Ok(from_variable_free_test(a, true)?.then(from_variable_free_test(b, true)?))
            } else {
                Ok(from_variable_free_test(a, false)?.or(from_variable_free_test(b, false)?))
            }
        }
        TestExpr::Or(a, b) => {
            if positive {
                Ok(from_variable_free_test(a, true)?.or(from_variable_free_test(b, true)?))
            } else {
                Ok(from_variable_free_test(a, false)?.then(from_variable_free_test(b, false)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path;

    fn tr(src: &str) -> BinExpr {
        from_variable_free_path(&parse_path(src).unwrap()).unwrap()
    }

    #[test]
    fn steps_and_composition() {
        assert_eq!(tr("child::a").to_string(), "child::a");
        assert_eq!(
            tr("child::a/descendant::b").to_string(),
            "child::a/descendant::b"
        );
        assert_eq!(tr(".").to_string(), "self::*");
        assert_eq!(tr("./child::a").to_string(), "self::*/child::a");
    }

    #[test]
    fn union_and_derived_operators() {
        assert_eq!(
            tr("child::a union child::b").to_string(),
            "child::a union child::b"
        );
        assert_eq!(
            tr("child::a intersect child::b").to_string(),
            "except (except child::a union except child::b)"
        );
        assert_eq!(
            tr("child::a except child::b").to_string(),
            "except (except child::a union child::b)"
        );
    }

    #[test]
    fn filters_become_partial_identities() {
        assert_eq!(tr("child::a[child::b]").to_string(), "child::a/[child::b]");
        assert_eq!(
            tr("child::a[child::b and child::c]").to_string(),
            "child::a/[child::b]/[child::c]"
        );
        assert_eq!(
            tr("child::a[child::b or child::c]").to_string(),
            "child::a/([child::b] union [child::c])"
        );
        assert_eq!(
            tr("child::a[not(child::b)]").to_string(),
            "child::a/except (except self::* union [child::b])"
        );
        assert_eq!(tr("child::a[. is .]").to_string(), "child::a/self::*");
        assert_eq!(
            tr("child::a[not(not(child::b))]").to_string(),
            "child::a/[child::b]"
        );
    }

    #[test]
    fn de_morgan_on_negated_tests() {
        assert_eq!(
            tr("child::a[not(child::b and child::c)]").to_string(),
            tr("child::a[not(child::b) or not(child::c)]").to_string()
        );
        assert_eq!(
            tr("child::a[not(child::b or child::c)]").to_string(),
            tr("child::a[not(child::b) and not(child::c)]").to_string()
        );
    }

    #[test]
    fn variables_and_for_are_rejected() {
        for src in [
            "$x",
            "child::a[. is $x]",
            "for $x in child::a return child::b",
            "child::a[$x is $y]",
        ] {
            let p = parse_path(src).unwrap();
            assert!(from_variable_free_path(&p).is_err(), "{src}");
        }
    }

    #[test]
    fn translation_is_linear_in_size() {
        // A chain of filters and intersections must not blow up
        // exponentially.
        let mut src = String::from("child::a");
        for i in 0..20 {
            src = format!("{src}[child::b{i}] intersect descendant::c{i}");
        }
        let p = parse_path(&src).unwrap();
        let b = from_variable_free_path(&p).unwrap();
        // Each source node contributes a bounded number of target nodes.
        assert!(
            b.size() <= 6 * p.size(),
            "size {} vs {}",
            b.size(),
            p.size()
        );
    }

    #[test]
    fn nodes_expression_shape() {
        let n = BinExpr::nodes();
        assert_eq!(
            n.to_string(),
            "(ancestor::* union self::*)/(descendant::* union self::*)"
        );
    }

    #[test]
    fn printer_round_trips_through_precedence() {
        let e = BinExpr::Except(Box::new(BinExpr::Union(
            Box::new(BinExpr::self_star()),
            Box::new(BinExpr::Step(Axis::Child, NameTest::name("a")).test()),
        )));
        assert_eq!(e.to_string(), "except (self::* union [child::a])");
        let seq_of_union = BinExpr::Seq(
            Box::new(BinExpr::Union(
                Box::new(BinExpr::Step(Axis::Child, NameTest::name("a"))),
                Box::new(BinExpr::Step(Axis::Child, NameTest::name("b"))),
            )),
            Box::new(BinExpr::Step(Axis::Child, NameTest::name("c"))),
        );
        assert_eq!(
            seq_of_union.to_string(),
            "(child::a union child::b)/child::c"
        );
    }

    #[test]
    fn steps_collection_deduplicates() {
        let e = tr("child::a/child::a union descendant::b");
        let steps = e.steps();
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(tr("child::a").size(), 1);
        assert_eq!(tr("child::a/child::b").size(), 3);
        assert_eq!(BinExpr::self_star().complement().size(), 2);
        assert_eq!(BinExpr::nodes().size(), 7);
    }

    #[test]
    fn not_variable_free_error_display() {
        let p = parse_path("$x/child::a").unwrap();
        let err = from_variable_free_path(&p).unwrap_err();
        assert!(err.to_string().contains("N($x)"));
        assert!(err.to_string().contains("$x"));
    }
}
