//! Atoms answered straight from the tree snapshot, and the classifier that
//! decides which atoms those are.
//!
//! Prop. 10 only asks for an oracle returning `S_{u,b}` in time
//! `|S_{u,b}|`.  For a plain step `axis::name` the preorder-numbered tree and
//! its label index already are that oracle: node ids are preorder numbers,
//! so the descendants of `u` are the id range `(u, post(u) + depth(u)]`, and
//! `nodes_with_label` lists a label's nodes in document order.  A
//! [`StepView`] therefore compiles nothing and caches nothing — it is a
//! handle on the tree `Arc` plus the resolved name test, and an edit needs
//! no patching because the edited snapshot is the new relation.
//!
//! A step between two *diagonals* (subsets of the identity, see
//! [`crate::corexpath1::is_diagonal`]) is hardly more: `D₁/axis::name/D₂`
//! relates `u` to `v` exactly when `u ∈ D₁`, `(u, v)` is a step pair and
//! `v ∈ D₂`.  A [`FilteredStepView`] is a step view plus those two node
//! sets, each computed set-at-a-time in `O(|D|·|t|)` (Section 4) instead of
//! through Theorem 2's `|t|×|t|` matrices.  [`AtomClass::of`] is the one
//! place that decides whether an atom is a view, a filtered view or a
//! matrix; the store serves atoms by it and `explain` reports it.

use crate::corexpath1::{diagonal_set, difference_of, is_diagonal};
use std::sync::{Arc, OnceLock};
use xpath_ast::{BinExpr, NameTest};
use xpath_tree::{Axis, Label, NodeId, NodeSet, Tree};

/// How a `SharedMatrixStore` serves an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomClass {
    /// A plain axis step: a [`StepView`] of the tree.
    View,
    /// `D₁/axis::name/D₂`: a `/`-chain of diagonals around at most one
    /// step `axis::name` or same-axis difference `axis::name except
    /// axis::m`.  A [`FilteredStepView`] over cached node sets.
    FilteredView,
    /// Anything else: compiled to a relation by Theorem 2.
    Matrix,
}

impl AtomClass {
    /// The class of `expr`.
    pub fn of(expr: &BinExpr) -> AtomClass {
        if matches!(expr, BinExpr::Step(..)) {
            AtomClass::View
        } else if FilteredStep::of(expr).is_some() {
            AtomClass::FilteredView
        } else {
            AtomClass::Matrix
        }
    }

    /// `view`, `filtered view` or `matrix`.
    pub fn name(self) -> &'static str {
        match self {
            AtomClass::View => "view",
            AtomClass::FilteredView => "filtered view",
            AtomClass::Matrix => "matrix",
        }
    }
}

/// An atom of the filtered-view class, taken apart: a `/`-chain of
/// diagonals around at most one *step factor*, which is either `axis::name`
/// or the same-axis difference `axis::name except axis::m`.
///
/// The difference is rewritten as `axis::name/(self::* except self::m)`,
/// so the atom denotes `D₁/axis::name/D₂` with `D₁` the diagonals before
/// the step factor and `D₂` those after it (plus the label exclusion).  A
/// chain of diagonals alone is `self::*` between them.
#[derive(Debug, Clone)]
pub(crate) struct FilteredStep<'a> {
    /// The step's axis.
    pub(crate) axis: Axis,
    /// The step's name test.
    pub(crate) test: &'a NameTest,
    /// Diagonals before the step: their intersection is `D₁`.
    sources: Vec<&'a BinExpr>,
    /// Diagonals after the step: with `excluded`, their intersection is
    /// `D₂`.
    targets: Vec<&'a BinExpr>,
    /// The `m` of a step difference: targets labelled `m` are dropped.
    excluded: Option<&'a NameTest>,
}

impl<'a> FilteredStep<'a> {
    /// Take `expr` apart, or `None` if it is not of the class (a plain
    /// step is a [`StepView`] and is not taken apart either).
    pub(crate) fn of(expr: &'a BinExpr) -> Option<FilteredStep<'a>> {
        if matches!(expr, BinExpr::Step(..)) {
            return None;
        }
        let mut factors = Vec::new();
        seq_factors(expr, &mut factors);
        let mut split = None;
        for (i, f) in factors.iter().enumerate() {
            if !is_diagonal(f) {
                if split.is_some() {
                    return None;
                }
                split = Some(i);
            }
        }
        let Some(i) = split else {
            return Some(FilteredStep {
                axis: Axis::SelfAxis,
                test: &NameTest::Wildcard,
                sources: Vec::new(),
                targets: factors,
                excluded: None,
            });
        };
        let (axis, test, excluded) = match factors[i] {
            BinExpr::Step(axis, test) => (*axis, test, None),
            other => match difference_of(other)? {
                (BinExpr::Step(axis, test), BinExpr::Step(axis2, m)) if axis == axis2 => {
                    (*axis, test, Some(m))
                }
                _ => return None,
            },
        };
        let targets = factors.split_off(i + 1);
        factors.truncate(i);
        Some(FilteredStep {
            axis,
            test,
            sources: factors,
            targets,
            excluded,
        })
    }

    /// `D₁` (`None` when no diagonal precedes the step) and `D₂` (`None`
    /// when nothing restricts the targets), in `O(|atom|·|t|)` plus
    /// whatever `fallback` spends on the domains of `[P]` tests outside the
    /// set-at-a-time fragment (see [`crate::corexpath1::pre_set`]).
    pub(crate) fn node_sets<E>(
        &self,
        tree: &Tree,
        fallback: &mut dyn FnMut(&BinExpr, &NodeSet) -> Result<NodeSet, E>,
    ) -> Result<(Option<NodeSet>, Option<NodeSet>), E> {
        let mut meet = |factors: &[&BinExpr]| -> Result<Option<NodeSet>, E> {
            let mut out: Option<NodeSet> = None;
            for d in factors {
                let set = diagonal_set(tree, d, fallback)?;
                match &mut out {
                    Some(acc) => acc.intersect_with(&set),
                    None => out = Some(set),
                }
            }
            Ok(out)
        };
        let sources = meet(&self.sources)?;
        let mut targets = meet(&self.targets)?;
        if let Some(m) = self.excluded {
            let acc = targets.get_or_insert_with(|| NodeSet::full(tree.len()));
            match m {
                NameTest::Wildcard => acc.clear(),
                NameTest::Name(name) => {
                    for &v in tree.nodes_with_label_str(name) {
                        acc.remove(v);
                    }
                }
            }
        }
        Ok((sources, targets))
    }
}

/// The factors of a `/`-chain, left to right.
fn seq_factors<'a>(expr: &'a BinExpr, out: &mut Vec<&'a BinExpr>) {
    match expr {
        BinExpr::Seq(a, b) => {
            seq_factors(a, out);
            seq_factors(b, out);
        }
        other => out.push(other),
    }
}

/// The name test of a step, resolved against the tree's labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Test {
    /// `*`: every node matches.
    Any,
    /// A label that occurs in the tree.
    Label(Label),
    /// A name that labels no node: every row is empty.
    Absent,
}

/// One axis step resolved against a tree, reading its rows from any
/// `&Tree` it was resolved on.  [`StepView`] pairs it with the tree `Arc`;
/// the set evaluator of [`crate::corexpath1`] uses it with a borrowed tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    axis: Axis,
    test: Test,
}

impl Step {
    /// `axis::test` over `tree`.
    pub(crate) fn resolve(tree: &Tree, axis: Axis, test: &NameTest) -> Step {
        let test = match test {
            NameTest::Wildcard => Test::Any,
            NameTest::Name(name) => tree.label_id(name).map_or(Test::Absent, Test::Label),
        };
        Step { axis, test }
    }

    /// Does `v` pass the name test?
    pub(crate) fn matches(&self, tree: &Tree, v: NodeId) -> bool {
        match self.test {
            Test::Any => true,
            Test::Label(l) => tree.label(v) == l,
            Test::Absent => false,
        }
    }

    /// Is `(u, v)` a pair of the step?  O(1).
    pub(crate) fn relates(&self, tree: &Tree, u: NodeId, v: NodeId) -> bool {
        self.matches(tree, v) && self.axis.relates(tree, u, v)
    }

    /// The preorder id range `[lo, hi)` of the descendant axes from `u`.
    fn subtree(&self, tree: &Tree, u: NodeId) -> (u32, u32) {
        let end = tree.postorder(u) + tree.depth(u) as u32 + 1;
        let start = if self.axis == Axis::DescendantOrSelf {
            u.0
        } else {
            u.0 + 1
        };
        (start, end)
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
    fn with_row<R>(&self, tree: &Tree, u: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        match self.test {
            Test::Absent => return f(&[]),
            Test::Label(l) if self.is_descendant_axis() => {
                return f(id_range(tree.nodes_with_label(l), self.subtree(tree, u)))
            }
            _ => {}
        }
        if self.is_descendant_axis() {
            let (lo, hi) = self.subtree(tree, u);
            return f(&(lo..hi).map(NodeId).collect::<Vec<_>>());
        }
        if self.is_single_valued() {
            return match tree.axis_iter(self.axis, u).next() {
                Some(v) if self.matches(tree, v) => f(std::slice::from_ref(&v)),
                _ => f(&[]),
            };
        }
        let mut row: Vec<NodeId> = tree
            .axis_iter(self.axis, u)
            .filter(|&v| self.matches(tree, v))
            .collect();
        // Upward and backward axes iterate in reverse document order.
        row.sort_unstable();
        f(&row)
    }

    /// Does row `u` contain a node satisfying `pred`?  Early-exits on the
    /// first hit; never allocates on the descendant axes.
    pub(crate) fn row_any(
        &self,
        tree: &Tree,
        u: NodeId,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> bool {
        match self.test {
            Test::Absent => false,
            Test::Label(l) if self.is_descendant_axis() => {
                id_range(tree.nodes_with_label(l), self.subtree(tree, u))
                    .iter()
                    .any(|&v| pred(v))
            }
            Test::Any if self.is_descendant_axis() => {
                let (lo, hi) = self.subtree(tree, u);
                (lo..hi).any(|v| pred(NodeId(v)))
            }
            _ => tree
                .axis_iter(self.axis, u)
                .any(|v| self.matches(tree, v) && pred(v)),
        }
    }

    /// The pre-image `{u | ∃v ∈ S. (u, v) a pair of the step}`,
    /// set-at-a-time (Section 4): the nodes of `S` passing the test move
    /// back along the inverse axis.  Moves up to a parent or an ancestor
    /// walk from each target and stop at the first node already reached,
    /// and a move down to the children visits only the targets' children,
    /// so those cost `O(|S| + |result|)` past the label filter; the other
    /// axes are one `O(|t|)` pass of [`Tree::axis_successors`].
    pub(crate) fn pre_image(&self, tree: &Tree, set: &NodeSet) -> NodeSet {
        let n = tree.len();
        let labelled;
        let targets = match self.test {
            Test::Absent => return NodeSet::empty(n),
            Test::Any => set,
            Test::Label(l) => {
                labelled = NodeSet::from_iter(
                    n,
                    tree.nodes_with_label(l)
                        .iter()
                        .copied()
                        .filter(|&v| set.contains(v)),
                );
                &labelled
            }
        };
        let mut out = NodeSet::empty(n);
        match self.axis {
            Axis::Child => {
                for v in targets.iter() {
                    if let Some(p) = tree.parent(v) {
                        out.insert(p);
                    }
                }
            }
            // Not every child's parent has it as first child.
            Axis::FirstChild => {
                for v in targets.iter() {
                    if tree.prev_sibling(v).is_none() {
                        if let Some(p) = tree.parent(v) {
                            out.insert(p);
                        }
                    }
                }
            }
            Axis::Parent => {
                for v in targets.iter() {
                    for c in tree.children(v) {
                        out.insert(c);
                    }
                }
            }
            // A node already in `out` has all its ancestors there.
            Axis::Descendant | Axis::DescendantOrSelf => {
                for v in targets.iter() {
                    if self.axis == Axis::DescendantOrSelf {
                        out.insert(v);
                    }
                    let mut up = tree.parent(v);
                    while let Some(p) = up {
                        if !out.insert(p) {
                            break;
                        }
                        up = tree.parent(p);
                    }
                }
            }
            axis => return tree.axis_successors(axis.inverse(), targets),
        }
        out
    }

    /// The image `{v | ∃u ∈ S. (u, v) a pair of the step}`: one pass of
    /// [`Tree::axis_successors`], cut to the name test (Section 4's
    /// `S_a(N)`, which [`crate::corexpath1::succ_set`] runs on).
    pub(crate) fn image(&self, tree: &Tree, set: &NodeSet) -> NodeSet {
        match self.test {
            Test::Absent => NodeSet::empty(tree.len()),
            Test::Any => tree.axis_successors(self.axis, set),
            Test::Label(l) => {
                let moved = tree.axis_successors(self.axis, set);
                NodeSet::from_iter(
                    tree.len(),
                    tree.nodes_with_label(l)
                        .iter()
                        .copied()
                        .filter(|&v| moved.contains(v)),
                )
            }
        }
    }
}

/// The nodes of the sorted list `nodes` with ids in `[lo, hi)`.
fn id_range(nodes: &[NodeId], (lo, hi): (u32, u32)) -> &[NodeId] {
    // A leaf's descendant range is empty: skip the searches (most rows of
    // the Fig. 8 sweep are leaves).
    if lo >= hi {
        return &[];
    }
    let from = nodes.partition_point(|v| v.0 < lo);
    let to = from + nodes[from..].partition_point(|v| v.0 < hi);
    &nodes[from..to]
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
    step: Step,
}

impl StepView {
    /// The step `axis::test` over `tree`.
    pub fn new(tree: Arc<Tree>, axis: Axis, test: &NameTest) -> StepView {
        let step = Step::resolve(&tree, axis, test);
        StepView { tree, step }
    }

    /// Domain size (number of rows).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Run `f` over row `u` (sorted successor ids).
    pub fn with_row<R>(&self, u: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        self.step.with_row(&self.tree, u, f)
    }

    /// Does row `u` contain a node satisfying `pred`?  Early-exits on the
    /// first hit.
    pub fn row_any(&self, u: NodeId, pred: impl FnMut(NodeId) -> bool) -> bool {
        self.step.row_any(&self.tree, u, pred)
    }

    /// Non-emptiness of row `u`.
    pub fn row_nonempty(&self, u: NodeId) -> bool {
        self.row_any(u, |_| true)
    }

    /// The nodes whose row meets `set`, in one axis pass.
    pub fn pre_image(&self, set: &NodeSet) -> NodeSet {
        self.step.pre_image(&self.tree, set)
    }

    /// The nodes in the rows of `set`, in one axis pass.
    pub fn image(&self, set: &NodeSet) -> NodeSet {
        self.step.image(&self.tree, set)
    }
}

/// The rows of `D₁/axis::name/D₂`: a [`StepView`] whose rows outside `D₁`
/// are empty and whose targets outside `D₂` are dropped.
///
/// `descendant(-or-self)` rows are subslices, cut by binary search, of the
/// sorted list `nodes_with_label(name) ∩ D₂`, built once per view (shared
/// by its clones) on the first row pulled, so neither
/// [`FilteredStepView::with_row`] nor [`FilteredStepView::row_any`]
/// allocates for them afterwards; other rows borrow the step's row when
/// every target is in `D₂`.  Cloning is a few `Arc` bumps.
#[derive(Debug, Clone)]
pub struct FilteredStepView {
    step: StepView,
    /// `D₁`; `None` is every node.
    sources: Option<Arc<NodeSet>>,
    /// `D₂`; `None` is every node.
    targets: Option<Arc<NodeSet>>,
    /// The step's targets in `D₂`, in document order (descendant axes).
    sorted: Arc<OnceLock<Vec<NodeId>>>,
}

impl FilteredStepView {
    /// The view `D₁/axis::test/D₂` over `tree`.
    pub fn new(
        tree: Arc<Tree>,
        axis: Axis,
        test: &NameTest,
        sources: Option<Arc<NodeSet>>,
        targets: Option<Arc<NodeSet>>,
    ) -> FilteredStepView {
        FilteredStepView {
            step: StepView::new(tree, axis, test),
            sources,
            targets,
            sorted: Arc::default(),
        }
    }

    /// Domain size (number of rows).
    pub fn len(&self) -> usize {
        self.step.len()
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.step.is_empty()
    }

    fn is_source(&self, u: NodeId) -> bool {
        self.sources.as_ref().is_none_or(|d| d.contains(u))
    }

    fn is_target(&self, v: NodeId) -> bool {
        self.targets.as_ref().is_none_or(|d| d.contains(v))
    }

    /// `nodes_with_label(name) ∩ D₂` (or `D₂` for `*`), in document order.
    fn sorted_targets(&self, d2: &NodeSet) -> &[NodeId] {
        self.sorted.get_or_init(|| match self.step.step.test {
            Test::Any => d2.iter().collect(),
            Test::Label(l) => self
                .step
                .tree
                .nodes_with_label(l)
                .iter()
                .copied()
                .filter(|&v| d2.contains(v))
                .collect(),
            Test::Absent => Vec::new(),
        })
    }

    /// Row `u` of a descendant axis restricted to `D₂`: a subslice of
    /// the sorted targets.  `None` for the other axes, or without `D₂`.
    fn descendant_row(&self, u: NodeId) -> Option<&[NodeId]> {
        let d2 = self.targets.as_deref()?;
        let step = &self.step.step;
        if !step.is_descendant_axis() {
            return None;
        }
        let range = step.subtree(&self.step.tree, u);
        Some(id_range(self.sorted_targets(d2), range))
    }

    /// Run `f` over row `u` (sorted successor ids).
    pub fn with_row<R>(&self, u: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        if !self.is_source(u) {
            return f(&[]);
        }
        if let Some(row) = self.descendant_row(u) {
            return f(row);
        }
        let Some(d2) = self.targets.as_deref() else {
            return self.step.with_row(u, f);
        };
        self.step.with_row(u, |row| {
            if row.iter().all(|&v| d2.contains(v)) {
                f(row)
            } else {
                f(&row
                    .iter()
                    .copied()
                    .filter(|&v| d2.contains(v))
                    .collect::<Vec<_>>())
            }
        })
    }

    /// Does row `u` contain a node satisfying `pred`?  Early-exits on the
    /// first hit; a descendant row scans only its targets in `D₂`.
    pub fn row_any(&self, u: NodeId, mut pred: impl FnMut(NodeId) -> bool) -> bool {
        if !self.is_source(u) {
            return false;
        }
        match self.descendant_row(u) {
            Some(row) => row.iter().any(|&v| pred(v)),
            None => self.step.row_any(u, |v| self.is_target(v) && pred(v)),
        }
    }

    /// Non-emptiness of row `u`.
    pub fn row_nonempty(&self, u: NodeId) -> bool {
        self.row_any(u, |_| true)
    }

    /// The nodes whose row meets `set`: `D₁ ∩ pre(axis::name, D₂ ∩ set)`.
    pub fn pre_image(&self, set: &NodeSet) -> NodeSet {
        let mut out = match self.targets.as_deref() {
            Some(d2) => self.step.pre_image(&set.intersection(d2)),
            None => self.step.pre_image(set),
        };
        if let Some(d1) = self.sources.as_deref() {
            out.intersect_with(d1);
        }
        out
    }

    /// The nodes in the rows of `set`: `D₂ ∩ img(axis::name, D₁ ∩ set)`.
    pub fn image(&self, set: &NodeSet) -> NodeSet {
        let mut out = match self.sources.as_deref() {
            Some(d1) => self.step.image(&set.intersection(d1)),
            None => self.step.image(set),
        };
        if let Some(d2) = self.targets.as_deref() {
            out.intersect_with(d2);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::answer_binary;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;

    fn bin(src: &str) -> BinExpr {
        from_variable_free_path(&parse_path(src).unwrap()).unwrap()
    }

    #[test]
    fn atoms_are_classified_by_shape() {
        for (src, class) in [
            ("descendant::a", AtomClass::View),
            ("descendant::a[not(child::b)]", AtomClass::FilteredView),
            ("descendant::* except descendant::a", AtomClass::FilteredView),
            ("self::*[child::a]/child::b[parent::c]", AtomClass::FilteredView),
            ("self::a[child::b]", AtomClass::FilteredView),
            (
                "descendant::a[not((descendant::* except child::a)/(descendant::* except child::b))]",
                AtomClass::FilteredView,
            ),
            ("self::*[child::a] except child::b", AtomClass::FilteredView),
            ("child::a/child::b", AtomClass::Matrix),
            ("descendant::a intersect descendant::b", AtomClass::Matrix),
            ("descendant::* except child::a", AtomClass::Matrix),
            ("child::a union child::b", AtomClass::Matrix),
            ("child::a except self::b", AtomClass::Matrix),
        ] {
            assert_eq!(AtomClass::of(&bin(src)), class, "{src}: {}", bin(src));
        }
    }

    #[test]
    fn filtered_views_match_the_matrix_engine() {
        let tree = Arc::new(Tree::from_terms("a(b(a(c),b),c(a(b,c),a),b(a(a(b))),c)").unwrap());
        for src in [
            "descendant::a[not(child::b)]",
            "descendant::* except descendant::a",
            "descendant-or-self::* except descendant-or-self::c",
            "child::* except child::b",
            "ancestor::*[child::c]",
            "self::*[child::a]/following-sibling::*[not(child::b)]",
            "self::*[child::c]",
            "self::*[child::a] except child::b",
            "parent::* except parent::c",
            "descendant::a[not((descendant::* except child::a)/(descendant::* except child::b))]",
        ] {
            let expr = bin(src);
            let f = FilteredStep::of(&expr).unwrap_or_else(|| panic!("{src} is filtered"));
            let no_fallback =
                &mut |e: &BinExpr, _: &NodeSet| -> Result<NodeSet, String> { Err(e.to_string()) };
            let (d1, d2) = f.node_sets(&tree, no_fallback).unwrap();
            let view = FilteredStepView::new(
                Arc::clone(&tree),
                f.axis,
                f.test,
                d1.map(Arc::new),
                d2.map(Arc::new),
            );
            let m = answer_binary(&tree, &expr);
            for u in tree.nodes() {
                let expected: Vec<NodeId> = m.successors(u).collect();
                view.with_row(u, |row| assert_eq!(row, expected, "{src} row {u}"));
                assert_eq!(view.row_nonempty(u), !expected.is_empty(), "{src} row {u}");
                let last = expected.last().copied();
                assert_eq!(
                    view.row_any(u, |v| Some(v) == last),
                    last.is_some(),
                    "{src} row_any {u}"
                );
            }
        }
    }
}
