//! Abstract syntax of Core XPath 2.0 (Fig. 1 of the paper).
//!
//! ```text
//! Axis      := self | child | parent | descendant | ancestor
//!            | following_sibling | preceding_sibling
//! NameTest  := QName | *
//! Step      := Axis :: NameTest
//! NodeRef   := . | $x
//! PathExpr  := Step | NodeRef
//!            | PathExpr / PathExpr
//!            | PathExpr union PathExpr
//!            | PathExpr intersect PathExpr
//!            | PathExpr except PathExpr
//!            | PathExpr [ TestExpr ]
//!            | for $x in PathExpr return PathExpr
//! TestExpr  := PathExpr | CompTest | not TestExpr
//!            | TestExpr and TestExpr | TestExpr or TestExpr
//! CompTest  := NodeRef is NodeRef
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use xpath_tree::Axis;

/// A node variable `$x`.
///
/// Variables are cheap to clone (`Arc<str>` internally) and ordered/hashable
/// so they can be used as map keys and in sorted variable sequences.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Arc<str>);

impl Var {
    /// Create a variable with the given name (without the leading `$`).
    pub fn new(name: &str) -> Var {
        Var(Arc::from(name))
    }

    /// The variable name, without the leading `$`.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

/// A name test in a step: either a specific label or the wildcard `*`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NameTest {
    /// `*` — any label.
    Wildcard,
    /// A specific label `QName ∈ Σ`.
    Name(String),
}

impl NameTest {
    /// Convenience constructor for a named test.
    pub fn name(s: &str) -> NameTest {
        NameTest::Name(s.to_string())
    }

    /// Does the test accept the given label?
    pub fn matches(&self, label: &str) -> bool {
        match self {
            NameTest::Wildcard => true,
            NameTest::Name(n) => n == label,
        }
    }
}

impl fmt::Display for NameTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameTest::Wildcard => f.write_str("*"),
            NameTest::Name(n) => f.write_str(n),
        }
    }
}

/// A node reference: the context node `.` or a variable `$x`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// `.` — the current node.
    Dot,
    /// `$x` — the node bound to a variable.
    Var(Var),
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Dot => f.write_str("."),
            NodeRef::Var(v) => write!(f, "{v}"),
        }
    }
}

/// A Core XPath 2.0 path expression (Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathExpr {
    /// `Axis :: NameTest`
    Step(Axis, NameTest),
    /// `.` or `$x`
    NodeRef(NodeRef),
    /// `P1 / P2`
    Seq(Box<PathExpr>, Box<PathExpr>),
    /// `P1 union P2`
    Union(Box<PathExpr>, Box<PathExpr>),
    /// `P1 intersect P2`
    Intersect(Box<PathExpr>, Box<PathExpr>),
    /// `P1 except P2`
    Except(Box<PathExpr>, Box<PathExpr>),
    /// `P [ T ]`
    Filter(Box<PathExpr>, Box<TestExpr>),
    /// `for $x in P1 return P2`
    For(Var, Box<PathExpr>, Box<PathExpr>),
}

/// A Core XPath 2.0 test expression (Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TestExpr {
    /// A path used as an existence test.
    Path(PathExpr),
    /// `NodeRef is NodeRef`
    Comp(NodeRef, NodeRef),
    /// `not T`
    Not(Box<TestExpr>),
    /// `T1 and T2`
    And(Box<TestExpr>, Box<TestExpr>),
    /// `T1 or T2`
    Or(Box<TestExpr>, Box<TestExpr>),
}

impl PathExpr {
    /// `|P|` — the number of AST nodes, the size measure used by the paper's
    /// complexity statements.
    pub fn size(&self) -> usize {
        match self {
            PathExpr::Step(_, _) | PathExpr::NodeRef(_) => 1,
            PathExpr::Seq(a, b)
            | PathExpr::Union(a, b)
            | PathExpr::Intersect(a, b)
            | PathExpr::Except(a, b) => 1 + a.size() + b.size(),
            PathExpr::Filter(p, t) => 1 + p.size() + t.size(),
            PathExpr::For(_, p1, p2) => 1 + p1.size() + p2.size(),
        }
    }

    /// Does the expression mention any variable (free or bound)?
    pub fn mentions_variables(&self) -> bool {
        !free_vars_path(self).is_empty() || self.has_for()
    }

    /// Does the expression contain a `for` loop?
    pub fn has_for(&self) -> bool {
        match self {
            PathExpr::Step(_, _) | PathExpr::NodeRef(_) => false,
            PathExpr::Seq(a, b)
            | PathExpr::Union(a, b)
            | PathExpr::Intersect(a, b)
            | PathExpr::Except(a, b) => a.has_for() || b.has_for(),
            PathExpr::Filter(p, t) => p.has_for() || t.has_for(),
            PathExpr::For(_, _, _) => true,
        }
    }

    /// The free variables `Var(P)` of the expression, in sorted order.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        free_vars_path(self)
    }

    /// Convenience: wrap in a filter.
    pub fn filter(self, test: TestExpr) -> PathExpr {
        PathExpr::Filter(Box::new(self), Box::new(test))
    }

    /// Convenience: compose with another path (`self / other`).
    pub fn then(self, other: PathExpr) -> PathExpr {
        PathExpr::Seq(Box::new(self), Box::new(other))
    }

    /// Convenience: union with another path.
    pub fn or_path(self, other: PathExpr) -> PathExpr {
        PathExpr::Union(Box::new(self), Box::new(other))
    }
}

impl TestExpr {
    /// `|T|` — number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            TestExpr::Path(p) => p.size(),
            TestExpr::Comp(_, _) => 1,
            TestExpr::Not(t) => 1 + t.size(),
            TestExpr::And(a, b) | TestExpr::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Does the test contain a `for` loop?
    pub fn has_for(&self) -> bool {
        match self {
            TestExpr::Path(p) => p.has_for(),
            TestExpr::Comp(_, _) => false,
            TestExpr::Not(t) => t.has_for(),
            TestExpr::And(a, b) | TestExpr::Or(a, b) => a.has_for() || b.has_for(),
        }
    }

    /// The free variables `Var(T)`.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        free_vars_test(self)
    }
}

/// Free variables of a path expression.
///
/// `for $x in P1 return P2` binds `$x` in `P2` (but not in `P1`), exactly as
/// in the paper's quantifier semantics.
pub fn free_vars_path(p: &PathExpr) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    collect_path(p, &mut out);
    out
}

/// Free variables of a test expression.
pub fn free_vars_test(t: &TestExpr) -> BTreeSet<Var> {
    let mut out = BTreeSet::new();
    collect_test(t, &mut out);
    out
}

fn collect_path(p: &PathExpr, out: &mut BTreeSet<Var>) {
    match p {
        PathExpr::Step(_, _) => {}
        PathExpr::NodeRef(NodeRef::Dot) => {}
        PathExpr::NodeRef(NodeRef::Var(v)) => {
            out.insert(v.clone());
        }
        PathExpr::Seq(a, b)
        | PathExpr::Union(a, b)
        | PathExpr::Intersect(a, b)
        | PathExpr::Except(a, b) => {
            collect_path(a, out);
            collect_path(b, out);
        }
        PathExpr::Filter(p, t) => {
            collect_path(p, out);
            collect_test(t, out);
        }
        PathExpr::For(x, p1, p2) => {
            collect_path(p1, out);
            let mut inner = BTreeSet::new();
            collect_path(p2, &mut inner);
            inner.remove(x);
            out.extend(inner);
        }
    }
}

fn collect_test(t: &TestExpr, out: &mut BTreeSet<Var>) {
    match t {
        TestExpr::Path(p) => collect_path(p, out),
        TestExpr::Comp(a, b) => {
            for r in [a, b] {
                if let NodeRef::Var(v) = r {
                    out.insert(v.clone());
                }
            }
        }
        TestExpr::Not(t) => collect_test(t, out),
        TestExpr::And(a, b) | TestExpr::Or(a, b) => {
            collect_test(a, out);
            collect_test(b, out);
        }
    }
}

/// The auxiliary path expression `nodes` from Section 2 of the paper, which
/// reaches every node of the tree from any start node:
/// `(ancestor::* union .)/(descendant::* union .)`.
pub fn nodes_path() -> PathExpr {
    let up = PathExpr::Union(
        Box::new(PathExpr::Step(Axis::Ancestor, NameTest::Wildcard)),
        Box::new(PathExpr::NodeRef(NodeRef::Dot)),
    );
    let down = PathExpr::Union(
        Box::new(PathExpr::Step(Axis::Descendant, NameTest::Wildcard)),
        Box::new(PathExpr::NodeRef(NodeRef::Dot)),
    );
    PathExpr::Seq(Box::new(up), Box::new(down))
}

/// The paper's "anchor the start of navigation at the root" prefix:
/// `.[. is $x and not(parent::*)] / P`, used when defining n-ary queries
/// whose navigation must begin at the document root.
pub fn anchor_at_root(var: &Var, p: PathExpr) -> PathExpr {
    let test = TestExpr::And(
        Box::new(TestExpr::Comp(NodeRef::Dot, NodeRef::Var(var.clone()))),
        Box::new(TestExpr::Not(Box::new(TestExpr::Path(PathExpr::Step(
            Axis::Parent,
            NameTest::Wildcard,
        ))))),
    );
    PathExpr::Seq(
        Box::new(PathExpr::Filter(
            Box::new(PathExpr::NodeRef(NodeRef::Dot)),
            Box::new(test),
        )),
        Box::new(p),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_path;

    #[test]
    fn var_basics() {
        let x = Var::new("x");
        let x2: Var = "x".into();
        assert_eq!(x, x2);
        assert_eq!(x.to_string(), "$x");
        assert_eq!(x.name(), "x");
        let y = Var::new("y");
        assert!(x < y);
    }

    #[test]
    fn name_test_matching() {
        assert!(NameTest::Wildcard.matches("anything"));
        assert!(NameTest::name("book").matches("book"));
        assert!(!NameTest::name("book").matches("author"));
    }

    #[test]
    fn size_counts_ast_nodes() {
        let p = parse_path("child::a/descendant::b union .").unwrap();
        // union(seq(step, step), dot) = 5 nodes
        assert_eq!(p.size(), 5);
        let q = parse_path("child::a[child::b and not(child::c)]").unwrap();
        // filter(step, and(path(step), not(path(step)))) = 1+1+ (1 + 1 + (1+1)) = 6
        assert_eq!(q.size(), 6);
    }

    #[test]
    fn free_vars_of_paths_and_tests() {
        let p = parse_path("$x/child::a[. is $y]").unwrap();
        let vars: Vec<String> = p.free_vars().iter().map(|v| v.name().to_string()).collect();
        assert_eq!(vars, vec!["x", "y"]);
    }

    #[test]
    fn for_binds_its_variable_in_the_return_clause_only() {
        let p = parse_path("for $x in child::a return $x/child::b").unwrap();
        assert!(p.free_vars().is_empty());
        assert!(p.has_for());
        // $x free in the `in` clause is NOT bound by the loop.
        let q = parse_path("for $x in $x/child::a return child::b").unwrap();
        assert_eq!(q.free_vars().len(), 1);
        // A different variable stays free.
        let r = parse_path("for $x in child::a return $y").unwrap();
        assert_eq!(r.free_vars().iter().next().unwrap().name(), "y");
    }

    #[test]
    fn nodes_path_matches_paper_definition() {
        let n = nodes_path();
        assert_eq!(
            n.to_string(),
            "(ancestor::* union .)/(descendant::* union .)"
        );
        assert!(n.free_vars().is_empty());
    }

    #[test]
    fn anchor_at_root_shape() {
        let p = anchor_at_root(&Var::new("x"), parse_path("descendant::book").unwrap());
        let s = p.to_string();
        assert!(s.contains(". is $x"));
        assert!(s.contains("not(parent::*)"));
        assert!(s.ends_with("/descendant::book"));
    }

    #[test]
    fn builder_conveniences() {
        let p = PathExpr::Step(Axis::Child, NameTest::name("a"))
            .then(PathExpr::Step(Axis::Child, NameTest::name("b")))
            .filter(TestExpr::Path(PathExpr::Step(
                Axis::Child,
                NameTest::Wildcard,
            )));
        // The filter applies to the whole composition, so the printer must
        // parenthesise it (a bare `child::a/child::b[child::*]` would attach
        // the filter to the last step only).
        assert_eq!(p.to_string(), "(child::a/child::b)[child::*]");
        let u = PathExpr::NodeRef(NodeRef::Dot)
            .or_path(PathExpr::Step(Axis::Parent, NameTest::Wildcard));
        assert_eq!(u.to_string(), ". union parent::*");
    }

    #[test]
    fn mentions_variables_detects_bound_only_vars() {
        let p = parse_path("for $x in child::a return child::b").unwrap();
        assert!(p.free_vars().is_empty());
        assert!(p.mentions_variables());
        let q = parse_path("child::a").unwrap();
        assert!(!q.mentions_variables());
    }
}
