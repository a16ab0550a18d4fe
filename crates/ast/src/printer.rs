//! Pretty-printing of Core XPath 2.0 expressions in the paper's notation.
//!
//! The printer inserts parentheses only where required by operator
//! precedence, so `parse(print(e)) == e` for every expression `e`
//! (round-trip property, tested in `parser.rs` and with proptest in the
//! crate's integration tests).

use crate::expr::{PathExpr, TestExpr};
use std::fmt;

/// Binding strength of a path-expression construct; larger binds tighter.
fn path_prec(p: &PathExpr) -> u8 {
    match p {
        PathExpr::For(_, _, _) => 0,
        PathExpr::Union(_, _) => 1,
        PathExpr::Intersect(_, _) | PathExpr::Except(_, _) => 2,
        PathExpr::Seq(_, _) => 3,
        PathExpr::Filter(_, _) => 4,
        PathExpr::Step(_, _) | PathExpr::NodeRef(_) => 5,
    }
}

fn test_prec(t: &TestExpr) -> u8 {
    match t {
        TestExpr::Or(_, _) => 1,
        TestExpr::And(_, _) => 2,
        TestExpr::Not(_) => 3,
        TestExpr::Path(_) | TestExpr::Comp(_, _) => 4,
    }
}

fn fmt_path(p: &PathExpr, min_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let prec = path_prec(p);
    let parens = prec < min_prec;
    if parens {
        f.write_str("(")?;
    }
    match p {
        PathExpr::Step(axis, test) => write!(f, "{axis}::{test}")?,
        PathExpr::NodeRef(r) => write!(f, "{r}")?,
        PathExpr::Seq(a, b) => {
            fmt_path(a, prec, f)?;
            f.write_str("/")?;
            // `/` parses left-associatively, so a right-nested composition
            // needs parentheses for the print/parse round trip to preserve
            // the AST shape exactly.
            fmt_path(b, prec + 1, f)?;
        }
        PathExpr::Union(a, b) => {
            fmt_path(a, prec, f)?;
            f.write_str(" union ")?;
            fmt_path(b, prec + 1, f)?;
        }
        PathExpr::Intersect(a, b) => {
            fmt_path(a, prec, f)?;
            f.write_str(" intersect ")?;
            // intersect / except are left-associative and mutually
            // non-associative: parenthesise a right child at the same level.
            fmt_path(b, prec + 1, f)?;
        }
        PathExpr::Except(a, b) => {
            fmt_path(a, prec, f)?;
            f.write_str(" except ")?;
            fmt_path(b, prec + 1, f)?;
        }
        PathExpr::Filter(base, test) => {
            fmt_path(base, prec, f)?;
            f.write_str("[")?;
            fmt_test(test, 0, f)?;
            f.write_str("]")?;
        }
        PathExpr::For(x, p1, p2) => {
            write!(f, "for {x} in ")?;
            fmt_path(p1, 1, f)?;
            f.write_str(" return ")?;
            fmt_path(p2, 0, f)?;
        }
    }
    if parens {
        f.write_str(")")?;
    }
    Ok(())
}

fn fmt_test(t: &TestExpr, min_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let prec = test_prec(t);
    let parens = prec < min_prec;
    if parens {
        f.write_str("(")?;
    }
    match t {
        TestExpr::Path(p) => fmt_path(p, 0, f)?,
        TestExpr::Comp(a, b) => write!(f, "{a} is {b}")?,
        TestExpr::Not(inner) => {
            f.write_str("not(")?;
            fmt_test(inner, 0, f)?;
            f.write_str(")")?;
        }
        TestExpr::And(a, b) => {
            fmt_test(a, prec, f)?;
            f.write_str(" and ")?;
            fmt_test(b, prec + 1, f)?;
        }
        TestExpr::Or(a, b) => {
            fmt_test(a, prec, f)?;
            f.write_str(" or ")?;
            fmt_test(b, prec + 1, f)?;
        }
    }
    if parens {
        f.write_str(")")?;
    }
    Ok(())
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_path(self, 0, f)
    }
}

impl fmt::Display for TestExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_test(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_path;
    use crate::{NameTest, NodeRef, PathExpr, TestExpr, Var};
    use xpath_tree::Axis;

    fn rt(src: &str) {
        let p = parse_path(src).unwrap();
        let printed = p.to_string();
        let reparsed = parse_path(&printed).unwrap();
        assert_eq!(
            p, reparsed,
            "print/parse round trip changed {src:?} -> {printed:?}"
        );
    }

    #[test]
    fn round_trips_preserve_structure() {
        for src in [
            "child::a",
            "child::a/child::b/child::c",
            "child::a union child::b union child::c",
            "(child::a union child::b)/child::c",
            "child::a intersect (child::b intersect child::c)",
            "child::a except (child::b union child::c)",
            "(child::a except child::b) except child::c",
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
            "for $x in descendant::book return child::author[. is $x]",
            ".[. is $x and not(parent::*)]/descendant::*",
            "child::a[not(not(child::b))]",
            "child::a[(child::b or child::c) and child::d]",
        ] {
            rt(src);
        }
    }

    #[test]
    fn filters_on_unions_are_parenthesised() {
        let p = PathExpr::Filter(
            Box::new(PathExpr::Union(
                Box::new(PathExpr::Step(Axis::Child, NameTest::name("a"))),
                Box::new(PathExpr::Step(Axis::Child, NameTest::name("b"))),
            )),
            Box::new(TestExpr::Path(PathExpr::Step(
                Axis::Child,
                NameTest::name("c"),
            ))),
        );
        assert_eq!(p.to_string(), "(child::a union child::b)[child::c]");
        rt(&p.to_string());
    }

    #[test]
    fn right_nested_operators_keep_parens() {
        let p = PathExpr::Except(
            Box::new(PathExpr::Step(Axis::Child, NameTest::name("a"))),
            Box::new(PathExpr::Except(
                Box::new(PathExpr::Step(Axis::Child, NameTest::name("b"))),
                Box::new(PathExpr::Step(Axis::Child, NameTest::name("c"))),
            )),
        );
        let s = p.to_string();
        assert_eq!(s, "child::a except (child::b except child::c)");
        assert_eq!(parse_path(&s).unwrap(), p);
    }

    #[test]
    fn for_in_a_composition_is_parenthesised() {
        let p = PathExpr::Seq(
            Box::new(PathExpr::For(
                Var::new("x"),
                Box::new(PathExpr::Step(Axis::Child, NameTest::name("a"))),
                Box::new(PathExpr::NodeRef(NodeRef::Var(Var::new("x")))),
            )),
            Box::new(PathExpr::Step(Axis::Child, NameTest::name("b"))),
        );
        let s = p.to_string();
        assert_eq!(s, "(for $x in child::a return $x)/child::b");
        assert_eq!(parse_path(&s).unwrap(), p);
    }

    #[test]
    fn test_display_direct() {
        let t = TestExpr::And(
            Box::new(TestExpr::Comp(NodeRef::Dot, NodeRef::Var(Var::new("x")))),
            Box::new(TestExpr::Not(Box::new(TestExpr::Path(PathExpr::Step(
                Axis::Parent,
                NameTest::Wildcard,
            ))))),
        );
        assert_eq!(t.to_string(), ". is $x and not(parent::*)");
    }
}
