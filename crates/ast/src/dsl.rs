//! Programmatic construction of Core XPath 2.0 expressions.
//!
//! The DSL offers short, composable constructors so that examples,
//! workload generators and tests can build queries without going through the
//! concrete-syntax parser:
//!
//! ```
//! use xpath_ast::dsl::*;
//!
//! // descendant::book[child::author[. is $y] and child::title[. is $z]]
//! let q = step_desc("book").filter(and(
//!     has(step_child("author").filter(is_var("y"))),
//!     has(step_child("title").filter(is_var("z"))),
//! ));
//! assert_eq!(
//!     q.to_string(),
//!     "descendant::book[child::author[. is $y] and child::title[. is $z]]"
//! );
//! ```

use crate::expr::{NameTest, NodeRef, PathExpr, TestExpr, Var};
use xpath_tree::Axis;

/// A step along an arbitrary axis with a named label test.
pub fn step(axis: Axis, name: &str) -> PathExpr {
    PathExpr::Step(axis, NameTest::name(name))
}

/// A step along an arbitrary axis with the wildcard test.
pub fn step_any(axis: Axis) -> PathExpr {
    PathExpr::Step(axis, NameTest::Wildcard)
}

/// `child::name`
pub fn step_child(name: &str) -> PathExpr {
    step(Axis::Child, name)
}

/// `descendant::name`
pub fn step_desc(name: &str) -> PathExpr {
    step(Axis::Descendant, name)
}

/// `parent::name`
pub fn step_parent(name: &str) -> PathExpr {
    step(Axis::Parent, name)
}

/// `.` — the context node.
pub fn dot() -> PathExpr {
    PathExpr::NodeRef(NodeRef::Dot)
}

/// `$name` — a variable reference used as a path (goto semantics).
pub fn var(name: &str) -> PathExpr {
    PathExpr::NodeRef(NodeRef::Var(Var::new(name)))
}

/// `a / b`
pub fn seq(a: PathExpr, b: PathExpr) -> PathExpr {
    PathExpr::Seq(Box::new(a), Box::new(b))
}

/// Compose a non-empty sequence of paths left to right.
pub fn seq_all<I: IntoIterator<Item = PathExpr>>(paths: I) -> PathExpr {
    let mut it = paths.into_iter();
    let first = it.next().expect("seq_all needs at least one path");
    it.fold(first, seq)
}

/// `a union b`
pub fn union(a: PathExpr, b: PathExpr) -> PathExpr {
    PathExpr::Union(Box::new(a), Box::new(b))
}

/// Union of a non-empty sequence of paths.
pub fn union_all<I: IntoIterator<Item = PathExpr>>(paths: I) -> PathExpr {
    let mut it = paths.into_iter();
    let first = it.next().expect("union_all needs at least one path");
    it.fold(first, union)
}

/// `a intersect b`
pub fn intersect(a: PathExpr, b: PathExpr) -> PathExpr {
    PathExpr::Intersect(Box::new(a), Box::new(b))
}

/// `a except b`
pub fn except(a: PathExpr, b: PathExpr) -> PathExpr {
    PathExpr::Except(Box::new(a), Box::new(b))
}

/// `for $x in p1 return p2`
pub fn for_in(x: &str, p1: PathExpr, p2: PathExpr) -> PathExpr {
    PathExpr::For(Var::new(x), Box::new(p1), Box::new(p2))
}

/// Use a path as an existence test.
pub fn has(p: PathExpr) -> TestExpr {
    TestExpr::Path(p)
}

/// `. is $name`
pub fn is_var(name: &str) -> TestExpr {
    TestExpr::Comp(NodeRef::Dot, NodeRef::Var(Var::new(name)))
}

/// `$a is $b`
pub fn var_is_var(a: &str, b: &str) -> TestExpr {
    TestExpr::Comp(NodeRef::Var(Var::new(a)), NodeRef::Var(Var::new(b)))
}

/// `. is .`
pub fn dot_is_dot() -> TestExpr {
    TestExpr::Comp(NodeRef::Dot, NodeRef::Dot)
}

/// `t1 and t2`
pub fn and(a: TestExpr, b: TestExpr) -> TestExpr {
    TestExpr::And(Box::new(a), Box::new(b))
}

/// Conjunction of a non-empty sequence of tests.
pub fn and_all<I: IntoIterator<Item = TestExpr>>(tests: I) -> TestExpr {
    let mut it = tests.into_iter();
    let first = it.next().expect("and_all needs at least one test");
    it.fold(first, and)
}

/// `t1 or t2`
pub fn or(a: TestExpr, b: TestExpr) -> TestExpr {
    TestExpr::Or(Box::new(a), Box::new(b))
}

/// `not t`
pub fn not(t: TestExpr) -> TestExpr {
    TestExpr::Not(Box::new(t))
}

/// The root test: `.[not(parent::*)]`.
pub fn at_root() -> PathExpr {
    dot().filter(not(has(step_any(Axis::Parent))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path;

    #[test]
    fn dsl_matches_parser() {
        let built = step_desc("book").filter(and(
            has(step_child("author").filter(is_var("y"))),
            has(step_child("title").filter(is_var("z"))),
        ));
        let parsed =
            parse_path("descendant::book[child::author[. is $y] and child::title[. is $z]]")
                .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn n_ary_combinators() {
        let s = seq_all([step_child("a"), step_child("b"), step_child("c")]);
        assert_eq!(s.to_string(), "child::a/child::b/child::c");
        let u = union_all([dot(), var("x"), step_child("a")]);
        assert_eq!(u.to_string(), ". union $x union child::a");
        let t = and_all([has(step_child("a")), is_var("x"), dot_is_dot()]);
        assert_eq!(t.to_string(), "child::a and . is $x and . is .");
    }

    #[test]
    fn root_anchor() {
        assert_eq!(at_root().to_string(), ".[not(parent::*)]");
    }

    #[test]
    fn operators_and_loops() {
        let q = for_in(
            "x",
            step_child("a"),
            intersect(dot(), except(var("x"), dot())),
        );
        assert_eq!(
            q.to_string(),
            "for $x in child::a return . intersect ($x except .)"
        );
        assert_eq!(var_is_var("a", "b").to_string(), "$a is $b");
        assert_eq!(
            or(dot_is_dot(), not(dot_is_dot())).to_string(),
            ". is . or not(. is .)"
        );
        assert_eq!(step_parent("p").to_string(), "parent::p");
        assert_eq!(step_any(Axis::Ancestor).to_string(), "ancestor::*");
    }
}
