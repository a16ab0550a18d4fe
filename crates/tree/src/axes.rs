//! The XPath axes of Core XPath 2.0 (Fig. 1 of the paper) over [`Tree`]s.
//!
//! The paper's syntax uses the axes `self`, `child`, `parent`, `descendant`,
//! `ancestor`, `following_sibling` and `preceding_sibling`.  We additionally
//! provide the reflexive closures `descendant-or-self`, `ancestor-or-self`,
//! `following-sibling-or-self` and `preceding-sibling-or-self`, which the
//! translations in the paper construct as `(descendant::* union .)` etc.
//!
//! Each axis `A` denotes a binary relation `A(t) ⊆ nodes(t)²` relating a
//! *start* node to a *target* node.  [`Tree::axis_iter`] enumerates targets
//! for a start node, [`Axis::relates`] decides membership of a pair in O(1),
//! and [`Axis::inverse`] gives the converse axis.

use crate::nodeset::NodeSet;
use crate::tree::{NodeId, Tree};
use std::fmt;

/// An XPath navigation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// `self::` — the identity relation.
    SelfAxis,
    /// `child::`
    Child,
    /// `parent::`
    Parent,
    /// `descendant::` (strict)
    Descendant,
    /// `descendant-or-self::` (the `ch*` relation)
    DescendantOrSelf,
    /// `ancestor::` (strict)
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `following_sibling::` (strict)
    FollowingSibling,
    /// `following-sibling-or-self::` (the `ns*` relation)
    FollowingSiblingOrSelf,
    /// `preceding_sibling::` (strict)
    PrecedingSibling,
    /// `preceding-sibling-or-self::`
    PrecedingSiblingOrSelf,
    /// `next-sibling` — the one-step `ns` relation (not an XPath surface axis,
    /// but part of the FO signature used by the paper).
    NextSibling,
    /// `previous-sibling` — inverse of [`Axis::NextSibling`].
    PrevSibling,
    /// `first-child` — the `firstchild` relation used in the binary encoding.
    FirstChild,
}

/// All axes expressible in the paper's surface syntax (Fig. 1).
pub const SURFACE_AXES: [Axis; 7] = [
    Axis::SelfAxis,
    Axis::Child,
    Axis::Parent,
    Axis::Descendant,
    Axis::Ancestor,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
];

/// Every axis supported by the engine, including derived ones.
pub const ALL_AXES: [Axis; 14] = [
    Axis::SelfAxis,
    Axis::Child,
    Axis::Parent,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::FollowingSibling,
    Axis::FollowingSiblingOrSelf,
    Axis::PrecedingSibling,
    Axis::PrecedingSiblingOrSelf,
    Axis::NextSibling,
    Axis::PrevSibling,
    Axis::FirstChild,
];

impl Axis {
    /// The XPath surface name of the axis.
    pub fn name(self) -> &'static str {
        match self {
            Axis::SelfAxis => "self",
            Axis::Child => "child",
            Axis::Parent => "parent",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following_sibling",
            Axis::FollowingSiblingOrSelf => "following-sibling-or-self",
            Axis::PrecedingSibling => "preceding_sibling",
            Axis::PrecedingSiblingOrSelf => "preceding-sibling-or-self",
            Axis::NextSibling => "next-sibling",
            Axis::PrevSibling => "previous-sibling",
            Axis::FirstChild => "first-child",
        }
    }

    /// Parse an axis name as it appears in query syntax.  Accepts both
    /// `following_sibling` (paper spelling) and `following-sibling` (XPath
    /// spelling).
    pub fn parse(name: &str) -> Option<Axis> {
        Some(match name {
            "self" => Axis::SelfAxis,
            "child" => Axis::Child,
            "parent" => Axis::Parent,
            "descendant" => Axis::Descendant,
            "descendant-or-self" | "descendant_or_self" => Axis::DescendantOrSelf,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" | "ancestor_or_self" => Axis::AncestorOrSelf,
            "following_sibling" | "following-sibling" => Axis::FollowingSibling,
            "following-sibling-or-self" | "following_sibling_or_self" => {
                Axis::FollowingSiblingOrSelf
            }
            "preceding_sibling" | "preceding-sibling" => Axis::PrecedingSibling,
            "preceding-sibling-or-self" | "preceding_sibling_or_self" => {
                Axis::PrecedingSiblingOrSelf
            }
            "next-sibling" | "next_sibling" => Axis::NextSibling,
            "previous-sibling" | "previous_sibling" => Axis::PrevSibling,
            "first-child" | "first_child" => Axis::FirstChild,
            _ => return None,
        })
    }

    /// The inverse (converse) relation of the axis.
    pub fn inverse(self) -> Axis {
        match self {
            Axis::SelfAxis => Axis::SelfAxis,
            Axis::Child => Axis::Parent,
            Axis::Parent => Axis::Child,
            Axis::Descendant => Axis::Ancestor,
            Axis::DescendantOrSelf => Axis::AncestorOrSelf,
            Axis::Ancestor => Axis::Descendant,
            Axis::AncestorOrSelf => Axis::DescendantOrSelf,
            Axis::FollowingSibling => Axis::PrecedingSibling,
            Axis::FollowingSiblingOrSelf => Axis::PrecedingSiblingOrSelf,
            Axis::PrecedingSibling => Axis::FollowingSibling,
            Axis::PrecedingSiblingOrSelf => Axis::FollowingSiblingOrSelf,
            Axis::NextSibling => Axis::PrevSibling,
            Axis::PrevSibling => Axis::NextSibling,
            Axis::FirstChild => Axis::Parent, // inverse of first-child ⊆ parent; see `relates`
        }
    }

    /// Is the axis reflexive (contains the identity)?
    pub fn is_reflexive(self) -> bool {
        matches!(
            self,
            Axis::SelfAxis
                | Axis::DescendantOrSelf
                | Axis::AncestorOrSelf
                | Axis::FollowingSiblingOrSelf
                | Axis::PrecedingSiblingOrSelf
        )
    }

    /// Does `(start, target)` belong to the axis relation in `tree`?
    ///
    /// O(1) for every axis thanks to pre/post numbers and sibling indices.
    pub fn relates(self, tree: &Tree, start: NodeId, target: NodeId) -> bool {
        match self {
            Axis::SelfAxis => start == target,
            Axis::Child => tree.is_child(target, start),
            Axis::Parent => tree.parent(start) == Some(target),
            Axis::Descendant => tree.is_descendant(target, start),
            Axis::DescendantOrSelf => tree.is_descendant_or_self(target, start),
            Axis::Ancestor => tree.is_ancestor(start, target),
            Axis::AncestorOrSelf => start == target || tree.is_ancestor(start, target),
            Axis::FollowingSibling => tree.is_following_sibling(target, start),
            Axis::FollowingSiblingOrSelf => tree.is_following_sibling_or_self(target, start),
            Axis::PrecedingSibling => tree.is_following_sibling(start, target),
            Axis::PrecedingSiblingOrSelf => tree.is_following_sibling_or_self(start, target),
            Axis::NextSibling => tree.is_next_sibling(start, target),
            Axis::PrevSibling => tree.is_next_sibling(target, start),
            Axis::FirstChild => tree.first_child(start) == Some(target),
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Iterator over the targets of an axis from a fixed start node, in document
/// order for downward/forward axes and reverse document order for upward/
/// backward axes (matching XPath's notion of axis direction).
pub struct AxisIter<'t> {
    tree: &'t Tree,
    axis: Axis,
    state: AxisState,
}

enum AxisState {
    Done,
    Single(NodeId),
    Siblings(NodeId),
    Preceding(NodeId),
    Up(NodeId),
    /// Depth-first walk of a subtree: stack of nodes still to visit.
    Descend(Vec<NodeId>),
}

impl Tree {
    /// Iterate over all `v` such that `(start, v)` is in the `axis` relation.
    pub fn axis_iter(&self, axis: Axis, start: NodeId) -> AxisIter<'_> {
        let state = match axis {
            Axis::SelfAxis => AxisState::Single(start),
            Axis::Child => match self.first_child(start) {
                Some(c) => AxisState::Siblings(c),
                None => AxisState::Done,
            },
            Axis::Parent => match self.parent(start) {
                Some(p) => AxisState::Single(p),
                None => AxisState::Done,
            },
            Axis::FirstChild => match self.first_child(start) {
                Some(c) => AxisState::Single(c),
                None => AxisState::Done,
            },
            Axis::NextSibling => match self.next_sibling(start) {
                Some(s) => AxisState::Single(s),
                None => AxisState::Done,
            },
            Axis::PrevSibling => match self.prev_sibling(start) {
                Some(s) => AxisState::Single(s),
                None => AxisState::Done,
            },
            Axis::Descendant => {
                let mut stack: Vec<NodeId> = self.children(start).collect();
                stack.reverse();
                AxisState::Descend(stack)
            }
            Axis::DescendantOrSelf => AxisState::Descend(vec![start]),
            Axis::Ancestor => match self.parent(start) {
                Some(p) => AxisState::Up(p),
                None => AxisState::Done,
            },
            Axis::AncestorOrSelf => AxisState::Up(start),
            Axis::FollowingSibling => match self.next_sibling(start) {
                Some(s) => AxisState::Siblings(s),
                None => AxisState::Done,
            },
            Axis::FollowingSiblingOrSelf => AxisState::Siblings(start),
            Axis::PrecedingSibling => match self.prev_sibling(start) {
                Some(s) => AxisState::Preceding(s),
                None => AxisState::Done,
            },
            Axis::PrecedingSiblingOrSelf => AxisState::Preceding(start),
        };
        AxisIter {
            tree: self,
            axis,
            state,
        }
    }

    /// Collect the axis targets into a vector (document order for forward
    /// axes, reverse document order for reverse axes).
    pub fn axis_nodes(&self, axis: Axis, start: NodeId) -> Vec<NodeId> {
        self.axis_iter(axis, start).collect()
    }

    /// Compute the *successor set* `S_A(N) = { v' | ∃ v ∈ N. A(v, v') }` of a
    /// node set under an axis.  This is the linear-time primitive of the
    /// Core XPath 1.0 algorithm (Gottlob–Koch–Pichler) recalled in Section 4
    /// of the paper: each call is `O(|t|)`.
    pub fn axis_successors(&self, axis: Axis, set: &NodeSet) -> NodeSet {
        let n = self.len();
        let mut out = NodeSet::empty(n);
        match axis {
            Axis::SelfAxis => out.union_with(set),
            Axis::Child => {
                // v' is a child of some v ∈ N  ⇔  parent(v') ∈ N.
                for v in self.nodes() {
                    if let Some(p) = self.parent(v) {
                        if set.contains(p) {
                            out.insert(v);
                        }
                    }
                }
            }
            Axis::Parent => {
                for v in self.nodes() {
                    if set.contains(v) {
                        if let Some(p) = self.parent(v) {
                            out.insert(p);
                        }
                    }
                }
            }
            Axis::FirstChild => {
                for v in self.nodes() {
                    if set.contains(v) {
                        if let Some(c) = self.first_child(v) {
                            out.insert(c);
                        }
                    }
                }
            }
            Axis::NextSibling => {
                for v in self.nodes() {
                    if set.contains(v) {
                        if let Some(s) = self.next_sibling(v) {
                            out.insert(s);
                        }
                    }
                }
            }
            Axis::PrevSibling => {
                for v in self.nodes() {
                    if set.contains(v) {
                        if let Some(s) = self.prev_sibling(v) {
                            out.insert(s);
                        }
                    }
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                // Single top-down pass: v' is a descendant of some v ∈ N iff
                // its parent is in N or is itself below N.  Document order
                // guarantees parents are processed first.
                let reflexive = axis.is_reflexive();
                let mut below = vec![false; n];
                for v in self.nodes() {
                    let from_parent = self
                        .parent(v)
                        .map(|p| below[p.index()] || set.contains(p))
                        .unwrap_or(false);
                    below[v.index()] = from_parent;
                    if from_parent || (reflexive && set.contains(v)) {
                        out.insert(v);
                    }
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                // Single bottom-up pass in reverse document order.
                let reflexive = axis.is_reflexive();
                let mut above = vec![false; n];
                for v in self.nodes().rev() {
                    let from_children = self
                        .children(v)
                        .any(|c| above[c.index()] || set.contains(c));
                    above[v.index()] = from_children;
                    if from_children || (reflexive && set.contains(v)) {
                        out.insert(v);
                    }
                }
            }
            Axis::FollowingSibling | Axis::FollowingSiblingOrSelf => {
                let reflexive = axis.is_reflexive();
                // Left-to-right pass over each sibling chain.
                let mut seen_before = vec![false; n];
                for v in self.nodes() {
                    let from_prev = self
                        .prev_sibling(v)
                        .map(|s| seen_before[s.index()] || set.contains(s))
                        .unwrap_or(false);
                    seen_before[v.index()] = from_prev;
                    if from_prev || (reflexive && set.contains(v)) {
                        out.insert(v);
                    }
                }
            }
            Axis::PrecedingSibling | Axis::PrecedingSiblingOrSelf => {
                let reflexive = axis.is_reflexive();
                let mut seen_after = vec![false; n];
                for v in self.nodes().rev() {
                    let from_next = self
                        .next_sibling(v)
                        .map(|s| seen_after[s.index()] || set.contains(s))
                        .unwrap_or(false);
                    seen_after[v.index()] = from_next;
                    if from_next || (reflexive && set.contains(v)) {
                        out.insert(v);
                    }
                }
            }
        }
        out
    }
}

impl<'t> Iterator for AxisIter<'t> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.state {
            AxisState::Done => None,
            AxisState::Single(n) => {
                let n = *n;
                self.state = AxisState::Done;
                Some(n)
            }
            AxisState::Siblings(n) => {
                let cur = *n;
                self.state = match self.tree.next_sibling(cur) {
                    Some(s) => AxisState::Siblings(s),
                    None => AxisState::Done,
                };
                Some(cur)
            }
            AxisState::Preceding(n) => {
                let cur = *n;
                self.state = match self.tree.prev_sibling(cur) {
                    Some(s) => AxisState::Preceding(s),
                    None => AxisState::Done,
                };
                Some(cur)
            }
            AxisState::Up(n) => {
                let cur = *n;
                self.state = match self.tree.parent(cur) {
                    Some(p) => AxisState::Up(p),
                    None => AxisState::Done,
                };
                Some(cur)
            }
            AxisState::Descend(stack) => {
                let cur = stack.pop()?;
                let mut kids: Vec<NodeId> = self.tree.children(cur).collect();
                kids.reverse();
                stack.extend(kids);
                Some(cur)
            }
        }
    }
}

impl<'t> AxisIter<'t> {
    /// The axis this iterator enumerates.
    pub fn axis(&self) -> Axis {
        self.axis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tree;

    fn sample() -> Tree {
        // a(b(d,e),c(f(g),h))
        Tree::from_terms("a(b(d,e),c(f(g),h))").unwrap()
    }

    fn by_label(t: &Tree, l: &str) -> NodeId {
        t.nodes_with_label_str(l)[0]
    }

    fn labels(t: &Tree, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&n| t.label_str(n).to_string()).collect()
    }

    #[test]
    fn axis_names_round_trip() {
        for axis in ALL_AXES {
            assert_eq!(Axis::parse(axis.name()), Some(axis), "{axis:?}");
        }
        assert_eq!(Axis::parse("bogus"), None);
        assert_eq!(
            Axis::parse("following-sibling"),
            Some(Axis::FollowingSibling)
        );
    }

    #[test]
    fn inverse_is_involutive() {
        for axis in ALL_AXES {
            if axis == Axis::FirstChild {
                continue; // inverse(first-child) is approximated by parent
            }
            assert_eq!(axis.inverse().inverse(), axis, "{axis:?}");
        }
    }

    #[test]
    fn child_and_parent() {
        let t = sample();
        let a = t.root();
        assert_eq!(labels(&t, &t.axis_nodes(Axis::Child, a)), vec!["b", "c"]);
        let d = by_label(&t, "d");
        assert_eq!(labels(&t, &t.axis_nodes(Axis::Parent, d)), vec!["b"]);
        assert!(t.axis_nodes(Axis::Parent, a).is_empty());
        assert_eq!(labels(&t, &t.axis_nodes(Axis::FirstChild, a)), vec!["b"]);
    }

    #[test]
    fn descendant_and_ancestor() {
        let t = sample();
        let c = by_label(&t, "c");
        assert_eq!(
            labels(&t, &t.axis_nodes(Axis::Descendant, c)),
            vec!["f", "g", "h"]
        );
        assert_eq!(
            labels(&t, &t.axis_nodes(Axis::DescendantOrSelf, c)),
            vec!["c", "f", "g", "h"]
        );
        let g = by_label(&t, "g");
        assert_eq!(
            labels(&t, &t.axis_nodes(Axis::Ancestor, g)),
            vec!["f", "c", "a"]
        );
        assert_eq!(
            labels(&t, &t.axis_nodes(Axis::AncestorOrSelf, g)),
            vec!["g", "f", "c", "a"]
        );
    }

    #[test]
    fn sibling_axes() {
        let t = sample();
        let d = by_label(&t, "d");
        let e = by_label(&t, "e");
        assert_eq!(
            labels(&t, &t.axis_nodes(Axis::FollowingSibling, d)),
            vec!["e"]
        );
        assert_eq!(
            labels(&t, &t.axis_nodes(Axis::FollowingSiblingOrSelf, d)),
            vec!["d", "e"]
        );
        assert_eq!(
            labels(&t, &t.axis_nodes(Axis::PrecedingSibling, e)),
            vec!["d"]
        );
        assert_eq!(
            labels(&t, &t.axis_nodes(Axis::PrecedingSiblingOrSelf, e)),
            vec!["e", "d"]
        );
        assert_eq!(labels(&t, &t.axis_nodes(Axis::NextSibling, d)), vec!["e"]);
        assert_eq!(labels(&t, &t.axis_nodes(Axis::PrevSibling, e)), vec!["d"]);
        assert!(t.axis_nodes(Axis::FollowingSibling, e).is_empty());
    }

    #[test]
    fn relates_agrees_with_iteration() {
        let t = sample();
        for axis in ALL_AXES {
            for u in t.nodes() {
                let targets: std::collections::HashSet<_> = t.axis_iter(axis, u).collect();
                for v in t.nodes() {
                    assert_eq!(
                        axis.relates(&t, u, v),
                        targets.contains(&v),
                        "axis {axis:?} disagreement at ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn successor_sets_agree_with_pairwise_relation() {
        let t = sample();
        for axis in ALL_AXES {
            // Try a few start sets: singletons and the whole domain.
            let mut sets: Vec<NodeSet> = t
                .nodes()
                .map(|n| {
                    let mut s = NodeSet::empty(t.len());
                    s.insert(n);
                    s
                })
                .collect();
            sets.push(NodeSet::full(t.len()));
            for set in sets {
                let succ = t.axis_successors(axis, &set);
                for v in t.nodes() {
                    let expected = set.iter().any(|u| axis.relates(&t, u, v));
                    assert_eq!(
                        succ.contains(v),
                        expected,
                        "axis {axis:?}, set {:?}, target {v}",
                        set.iter().collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn self_axis_is_identity() {
        let t = sample();
        for u in t.nodes() {
            assert_eq!(t.axis_nodes(Axis::SelfAxis, u), vec![u]);
        }
    }

    #[test]
    fn display_uses_surface_names() {
        assert_eq!(Axis::FollowingSibling.to_string(), "following_sibling");
        assert_eq!(Axis::SelfAxis.to_string(), "self");
    }
}
