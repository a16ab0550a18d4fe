//! Axis steps answered straight from the tree snapshot.
//!
//! Prop. 10 only asks for an oracle returning `S_{u,b}` in time
//! `|S_{u,b}|`.  For a plain step `axis::name` the preorder-numbered tree and
//! its label index already are that oracle: node ids are preorder numbers,
//! so the descendants of `u` are the id range `(u, post(u) + depth(u)]`, and
//! `nodes_with_label` lists a label's nodes in document order.  A
//! [`StepView`] therefore compiles nothing and caches nothing — it is a
//! handle on the tree `Arc` plus the resolved name test, and an edit needs
//! no patching because the edited snapshot is the new relation.

use std::sync::Arc;
use xpath_ast::NameTest;
use xpath_tree::{Axis, Label, NodeId, Tree};

/// The name test of a [`StepView`], resolved against the tree's labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Test {
    /// `*`: every node matches.
    Any,
    /// A label that occurs in the tree.
    Label(Label),
    /// A name that labels no node: every row is empty.
    Absent,
}

/// The rows `u ↦ {v | (u, v) ∈ axis(t), label(v) ∈ test}` of one axis step,
/// read from the tree on demand.
///
/// `descendant(-or-self)::name` rows are subslices of the label index, cut
/// by binary search, and single-valued axes (`self`, `parent`, the
/// one-step sibling and first-child relations) borrow their node; other
/// rows are collected into a fresh buffer.  [`StepView::row_any`] and
/// [`StepView::row_nonempty`] never allocate.
#[derive(Debug, Clone)]
pub struct StepView {
    tree: Arc<Tree>,
    axis: Axis,
    test: Test,
}

impl StepView {
    /// The step `axis::test` over `tree`.
    pub fn new(tree: Arc<Tree>, axis: Axis, test: &NameTest) -> StepView {
        let test = match test {
            NameTest::Wildcard => Test::Any,
            NameTest::Name(name) => tree.label_id(name).map_or(Test::Absent, Test::Label),
        };
        StepView { tree, axis, test }
    }

    /// Domain size (number of rows).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    fn matches(&self, v: NodeId) -> bool {
        match self.test {
            Test::Any => true,
            Test::Label(l) => self.tree.label(v) == l,
            Test::Absent => false,
        }
    }

    /// The preorder id range `[lo, hi)` of the descendant axes from `u`.
    fn subtree(&self, u: NodeId) -> (u32, u32) {
        let end = self.tree.postorder(u) + self.tree.depth(u) as u32 + 1;
        let start = if self.axis == Axis::DescendantOrSelf {
            u.0
        } else {
            u.0 + 1
        };
        (start, end)
    }

    /// The nodes labelled `l` with ids in `[lo, hi)`, in document order.
    fn labelled_in(&self, l: Label, (lo, hi): (u32, u32)) -> &[NodeId] {
        let nodes = self.tree.nodes_with_label(l);
        let from = nodes.partition_point(|v| v.0 < lo);
        let to = from + nodes[from..].partition_point(|v| v.0 < hi);
        &nodes[from..to]
    }

    fn is_descendant_axis(&self) -> bool {
        matches!(self.axis, Axis::Descendant | Axis::DescendantOrSelf)
    }

    fn is_single_valued(&self) -> bool {
        matches!(
            self.axis,
            Axis::SelfAxis
                | Axis::Parent
                | Axis::NextSibling
                | Axis::PrevSibling
                | Axis::FirstChild
        )
    }

    /// Run `f` over row `u` (sorted successor ids).
    pub fn with_row<R>(&self, u: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        match self.test {
            Test::Absent => return f(&[]),
            Test::Label(l) if self.is_descendant_axis() => {
                return f(self.labelled_in(l, self.subtree(u)))
            }
            _ => {}
        }
        if self.is_descendant_axis() {
            let (lo, hi) = self.subtree(u);
            return f(&(lo..hi).map(NodeId).collect::<Vec<_>>());
        }
        if self.is_single_valued() {
            return match self.tree.axis_iter(self.axis, u).next() {
                Some(v) if self.matches(v) => f(std::slice::from_ref(&v)),
                _ => f(&[]),
            };
        }
        let mut row: Vec<NodeId> = self
            .tree
            .axis_iter(self.axis, u)
            .filter(|&v| self.matches(v))
            .collect();
        // Upward and backward axes iterate in reverse document order.
        row.sort_unstable();
        f(&row)
    }

    /// Does row `u` contain a node satisfying `pred`?  Early-exits on the
    /// first hit.
    pub fn row_any(&self, u: NodeId, mut pred: impl FnMut(NodeId) -> bool) -> bool {
        match self.test {
            Test::Absent => false,
            Test::Label(l) if self.is_descendant_axis() => self
                .labelled_in(l, self.subtree(u))
                .iter()
                .any(|&v| pred(v)),
            Test::Any if self.is_descendant_axis() => {
                let (lo, hi) = self.subtree(u);
                (lo..hi).any(|v| pred(NodeId(v)))
            }
            _ => self
                .tree
                .axis_iter(self.axis, u)
                .any(|v| self.matches(v) && pred(v)),
        }
    }

    /// Non-emptiness of row `u`.
    pub fn row_nonempty(&self, u: NodeId) -> bool {
        self.row_any(u, |_| true)
    }
}
