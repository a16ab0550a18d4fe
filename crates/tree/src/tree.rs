//! Arena-based storage for unranked, sibling-ordered, labelled trees.
//!
//! A [`Tree`] owns all of its nodes in flat vectors indexed by [`NodeId`].
//! The representation keeps, per node: parent, first child, next sibling,
//! previous sibling, label id, depth and pre/post-order numbers.  Pre/post
//! numbers let the transitive-closure axes (`descendant`, `ancestor`,
//! `following-sibling*`, …) be decided in O(1) per node pair, which the
//! evaluation algorithms in the sibling crates rely on.

use crate::{TreeBuilder, TreeError};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node inside one [`Tree`].
///
/// Node ids are dense indices `0..tree.len()`, with `0` always being the
/// root.  Ids are only meaningful relative to the tree that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root node of every tree.
    pub const ROOT: NodeId = NodeId(0);

    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Interned label (element name) inside one [`Tree`].
///
/// Labels model the alphabet Σ of the paper.  Interning keeps per-node
/// storage small and makes label tests O(1) integer comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u32);

impl Label {
    /// The dense index of this label in the tree's label table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct NodeRec {
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    prev_sibling: u32,
    label: u32,
    depth: u32,
    /// Preorder number (== NodeId for trees built in document order).
    pre: u32,
    /// Postorder number.
    post: u32,
    /// Index of this node among its siblings (0-based).
    child_index: u32,
}

/// An unranked, sibling-ordered, labelled tree.
///
/// Construct trees with [`TreeBuilder`], [`Tree::from_terms`], the XML parser
/// in the `xpath_xml` crate, or the generators in [`crate::generate`].
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<NodeRec>,
    labels: Vec<String>,
    label_ids: HashMap<String, u32>,
    /// Nodes grouped by label, in document order, for fast `lab_a` scans.
    by_label: Vec<Vec<NodeId>>,
}

impl Tree {
    pub(crate) fn from_builder_parts(
        parents: Vec<u32>,
        labels_per_node: Vec<u32>,
        labels: Vec<String>,
        label_ids: HashMap<String, u32>,
    ) -> Result<Tree, TreeError> {
        if parents.is_empty() {
            return Err(TreeError::EmptyTree);
        }
        let n = parents.len();
        let mut nodes: Vec<NodeRec> = (0..n)
            .map(|i| NodeRec {
                parent: parents[i],
                first_child: NIL,
                last_child: NIL,
                next_sibling: NIL,
                prev_sibling: NIL,
                label: labels_per_node[i],
                depth: 0,
                pre: i as u32,
                post: 0,
                child_index: 0,
            })
            .collect();

        // Children were appended in document order (builder guarantees the
        // parent id is smaller than the child id), so a single forward pass
        // wires sibling links and depths.
        for i in 1..n {
            let p = nodes[i].parent as usize;
            debug_assert!(p < i, "builder must emit parents before children");
            nodes[i].depth = nodes[p].depth + 1;
            if nodes[p].first_child == NIL {
                nodes[p].first_child = i as u32;
                nodes[p].last_child = i as u32;
                nodes[i].child_index = 0;
            } else {
                let prev = nodes[p].last_child;
                nodes[prev as usize].next_sibling = i as u32;
                nodes[i].prev_sibling = prev;
                nodes[i].child_index = nodes[prev as usize].child_index + 1;
                nodes[p].last_child = i as u32;
            }
        }

        let mut tree = Tree {
            nodes,
            labels,
            label_ids,
            by_label: Vec::new(),
        };
        tree.compute_postorder();
        tree.index_labels();
        Ok(tree)
    }

    fn compute_postorder(&mut self) {
        // Iterative postorder numbering.
        let n = self.nodes.len();
        let mut post = vec![0u32; n];
        let mut counter = 0u32;
        // Stack of (node, next-child-to-visit).
        let mut stack: Vec<(u32, u32)> = vec![(0, self.nodes[0].first_child)];
        while let Some((node, child)) = stack.pop() {
            if child == NIL {
                post[node as usize] = counter;
                counter += 1;
            } else {
                let next = self.nodes[child as usize].next_sibling;
                stack.push((node, next));
                stack.push((child, self.nodes[child as usize].first_child));
            }
        }
        for (i, p) in post.into_iter().enumerate() {
            self.nodes[i].post = p;
        }
    }

    fn index_labels(&mut self) {
        let mut by_label = vec![Vec::new(); self.labels.len()];
        for (i, rec) in self.nodes.iter().enumerate() {
            by_label[rec.label as usize].push(NodeId(i as u32));
        }
        self.by_label = by_label;
    }

    /// Parse the compact term syntax `a(b,c(d,e))` into a tree.
    ///
    /// See [`crate::terms`] for the grammar.
    pub fn from_terms(input: &str) -> Result<Tree, TreeError> {
        crate::terms::parse_terms(input)
    }

    /// Render the tree back into the compact term syntax.
    pub fn to_terms(&self) -> String {
        crate::terms::to_terms(self)
    }

    /// A single-node tree with the given root label.
    pub fn singleton(label: &str) -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.open(label);
        b.close();
        let t = b.finish().expect("singleton is balanced");
        debug_assert_eq!(r, NodeId::ROOT);
        t
    }

    /// Number of nodes, written `|t|` in the paper.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A tree always has at least the root, so this is always `false`;
    /// provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node (always `NodeId(0)`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Iterate over all nodes in document (pre-)order.
    pub fn nodes(
        &self,
    ) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Does `id` belong to this tree?
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        (id.0 as usize) < self.nodes.len()
    }

    #[inline]
    fn rec(&self, id: NodeId) -> &NodeRec {
        &self.nodes[id.index()]
    }

    /// The label of a node.
    #[inline]
    pub fn label(&self, id: NodeId) -> Label {
        Label(self.rec(id).label)
    }

    /// The label of a node, as a string.
    #[inline]
    pub fn label_str(&self, id: NodeId) -> &str {
        &self.labels[self.rec(id).label as usize]
    }

    /// Look up a label id by name, if any node of the tree uses it.
    pub fn label_id(&self, name: &str) -> Option<Label> {
        self.label_ids.get(name).copied().map(Label)
    }

    /// Name of an interned label.
    pub fn label_name(&self, label: Label) -> &str {
        &self.labels[label.index()]
    }

    /// Number of distinct labels in the tree (|Σ| as observed in `t`).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// All nodes carrying `label`, in document order (the `lab_a` predicate).
    pub fn nodes_with_label(&self, label: Label) -> &[NodeId] {
        &self.by_label[label.index()]
    }

    /// All nodes whose label string equals `name`, in document order.
    pub fn nodes_with_label_str(&self, name: &str) -> &[NodeId] {
        match self.label_id(name) {
            Some(l) => self.nodes_with_label(l),
            None => &[],
        }
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.rec(id).parent;
        if p == NIL {
            None
        } else {
            Some(NodeId(p))
        }
    }

    /// First child, if any.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        let c = self.rec(id).first_child;
        if c == NIL {
            None
        } else {
            Some(NodeId(c))
        }
    }

    /// Last child, if any.
    #[inline]
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        let c = self.rec(id).last_child;
        if c == NIL {
            None
        } else {
            Some(NodeId(c))
        }
    }

    /// Next sibling, if any (the `nextsibling` / `ns` relation of the paper).
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let s = self.rec(id).next_sibling;
        if s == NIL {
            None
        } else {
            Some(NodeId(s))
        }
    }

    /// Previous sibling, if any.
    #[inline]
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        let s = self.rec(id).prev_sibling;
        if s == NIL {
            None
        } else {
            Some(NodeId(s))
        }
    }

    /// 0-based index of `id` among its siblings.
    #[inline]
    pub fn child_index(&self, id: NodeId) -> usize {
        self.rec(id).child_index as usize
    }

    /// Depth of the node; the root has depth 0.
    #[inline]
    pub fn depth(&self, id: NodeId) -> usize {
        self.rec(id).depth as usize
    }

    /// Preorder (document-order) number of the node.
    #[inline]
    pub fn preorder(&self, id: NodeId) -> u32 {
        self.rec(id).pre
    }

    /// Postorder number of the node.
    #[inline]
    pub fn postorder(&self, id: NodeId) -> u32 {
        self.rec(id).post
    }

    /// Children of a node, in sibling order.
    pub fn children(&self, id: NodeId) -> ChildIter<'_> {
        ChildIter {
            tree: self,
            next: self.rec(id).first_child,
        }
    }

    /// Number of children of a node.
    pub fn child_count(&self, id: NodeId) -> usize {
        self.children(id).count()
    }

    /// Is `id` a leaf (no children)?
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.rec(id).first_child == NIL
    }

    /// `ch(parent, child)` — the child relation of the paper.
    #[inline]
    pub fn is_child(&self, child: NodeId, parent: NodeId) -> bool {
        self.rec(child).parent == parent.0
    }

    /// Strict ancestor test: is `anc` a proper ancestor of `id`?
    ///
    /// Uses pre/post-order numbers: `anc` is an ancestor of `id` iff
    /// `pre(anc) < pre(id)` and `post(anc) > post(id)`.
    #[inline]
    pub fn is_ancestor(&self, id: NodeId, anc: NodeId) -> bool {
        let a = self.rec(anc);
        let d = self.rec(id);
        a.pre < d.pre && a.post > d.post
    }

    /// Strict descendant test: is `desc` a proper descendant of `id`?
    #[inline]
    pub fn is_descendant(&self, desc: NodeId, id: NodeId) -> bool {
        self.is_ancestor(desc, id)
    }

    /// Reflexive-transitive `ch*` relation: `v2` is `v1` or a descendant of
    /// `v1`.  This is the `ch*(v1, v2)` predicate of the FO signature.
    #[inline]
    pub fn is_descendant_or_self(&self, v2: NodeId, v1: NodeId) -> bool {
        v1 == v2 || self.is_ancestor(v2, v1)
    }

    /// `ns(v1, v2)`: `v2` is the immediate next sibling of `v1`.
    #[inline]
    pub fn is_next_sibling(&self, v1: NodeId, v2: NodeId) -> bool {
        self.rec(v1).next_sibling == v2.0
    }

    /// Reflexive-transitive `ns*` relation: `v2` equals `v1` or is a later
    /// sibling of `v1` under the same parent.
    #[inline]
    pub fn is_following_sibling_or_self(&self, v2: NodeId, v1: NodeId) -> bool {
        if v1 == v2 {
            return true;
        }
        self.rec(v1).parent == self.rec(v2).parent
            && self.rec(v1).parent != NIL
            && self.rec(v1).child_index < self.rec(v2).child_index
    }

    /// Strict following-sibling relation.
    #[inline]
    pub fn is_following_sibling(&self, v2: NodeId, v1: NodeId) -> bool {
        v1 != v2 && self.is_following_sibling_or_self(v2, v1)
    }

    /// Document order comparison (preorder).
    #[inline]
    pub fn doc_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        self.rec(a).pre.cmp(&self.rec(b).pre)
    }

    /// Least common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("non-root node has a parent");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("non-root node has a parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root node has a parent");
            b = self.parent(b).expect("non-root node has a parent");
        }
        a
    }

    /// Least common ancestor of a non-empty slice of nodes.
    pub fn lca_many(&self, nodes: &[NodeId]) -> Option<NodeId> {
        let mut it = nodes.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, &n| self.lca(acc, n)))
    }

    /// The subtree rooted at `id`, as a fresh tree (`t|_u` in the paper).
    pub fn subtree(&self, id: NodeId) -> Tree {
        let mut b = TreeBuilder::new();
        self.copy_into(&mut b, id);
        b.finish().expect("subtree copy is balanced")
    }

    /// Copy the subtree at `id` into `b`, depth first.  The stack holds,
    /// per open node, its next child to copy.
    fn copy_into(&self, b: &mut TreeBuilder, id: NodeId) {
        b.open(self.label_str(id));
        let mut stack = vec![self.first_child(id)];
        while let Some(next) = stack.last_mut() {
            match *next {
                Some(c) => {
                    *next = self.next_sibling(c);
                    b.open(self.label_str(c));
                    stack.push(self.first_child(c));
                }
                None => {
                    stack.pop();
                    b.close();
                }
            }
        }
    }

    /// Descendants of `id` including `id`, in document order.
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Push children in reverse so they pop in document order.
            let mut cs: Vec<NodeId> = self.children(n).collect();
            cs.reverse();
            stack.extend(cs);
        }
        out.sort_by_key(|n| self.preorder(*n));
        out
    }

    /// Maximum depth of any node (height of the tree).
    pub fn height(&self) -> usize {
        self.nodes
            .iter()
            .map(|r| r.depth as usize)
            .max()
            .unwrap_or(0)
    }

    /// Check internal structural invariants; used by tests and debug builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty tree".into());
        }
        if self.nodes[0].parent != NIL {
            return Err("root must have no parent".into());
        }
        for (i, rec) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            if i > 0 {
                let p = rec.parent;
                if p == NIL || p as usize >= self.nodes.len() {
                    return Err(format!("node {i} has invalid parent"));
                }
                if !self.children(NodeId(p)).any(|c| c == id) {
                    return Err(format!("node {i} not listed among parent's children"));
                }
                if self.nodes[p as usize].depth + 1 != rec.depth {
                    return Err(format!("node {i} depth inconsistent"));
                }
            }
            if let Some(ns) = self.next_sibling(id) {
                if self.prev_sibling(ns) != Some(id) {
                    return Err(format!("sibling links broken at {i}"));
                }
                if self.rec(ns).parent != rec.parent {
                    return Err(format!("next sibling of {i} has a different parent"));
                }
            }
            // pre/post consistency with the parent.
            if i > 0 {
                let p = NodeId(rec.parent);
                if !(self.preorder(p) < rec.pre && self.postorder(p) > rec.post) {
                    return Err(format!("pre/post numbers inconsistent at {i}"));
                }
            }
        }
        // Postorder must be a permutation of 0..n.
        let mut seen = vec![false; self.nodes.len()];
        for rec in &self.nodes {
            let p = rec.post as usize;
            if p >= seen.len() || seen[p] {
                return Err("postorder is not a permutation".into());
            }
            seen[p] = true;
        }
        Ok(())
    }
}

/// Iterator over the children of a node, in sibling order.
pub struct ChildIter<'t> {
    tree: &'t Tree,
    next: u32,
}

impl<'t> Iterator for ChildIter<'t> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NIL {
            None
        } else {
            let id = NodeId(self.next);
            self.next = self.tree.rec(id).next_sibling;
            Some(id)
        }
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_terms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        Tree::from_terms("a(b(d,e),c(f(g),h))").unwrap()
    }

    #[test]
    fn basic_shape() {
        let t = sample();
        assert_eq!(t.len(), 8);
        assert_eq!(t.label_str(t.root()), "a");
        let kids: Vec<_> = t.children(t.root()).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.label_str(kids[0]), "b");
        assert_eq!(t.label_str(kids[1]), "c");
        assert_eq!(t.child_count(kids[0]), 2);
        assert!(t.is_leaf(t.nodes_with_label_str("g")[0]));
        assert_eq!(t.height(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn parent_child_links() {
        let t = sample();
        for n in t.nodes() {
            for c in t.children(n) {
                assert_eq!(t.parent(c), Some(n));
                assert!(t.is_child(c, n));
            }
        }
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    fn sibling_links() {
        let t = sample();
        let b = t.nodes_with_label_str("b")[0];
        let c = t.nodes_with_label_str("c")[0];
        assert_eq!(t.next_sibling(b), Some(c));
        assert_eq!(t.prev_sibling(c), Some(b));
        assert!(t.is_next_sibling(b, c));
        assert!(!t.is_next_sibling(c, b));
        assert!(t.is_following_sibling(c, b));
        assert!(t.is_following_sibling_or_self(b, b));
        assert!(!t.is_following_sibling(b, c));
    }

    #[test]
    fn ancestor_descendant_via_prepost() {
        let t = sample();
        let root = t.root();
        let g = t.nodes_with_label_str("g")[0];
        let c = t.nodes_with_label_str("c")[0];
        let b = t.nodes_with_label_str("b")[0];
        assert!(t.is_ancestor(g, root));
        assert!(t.is_ancestor(g, c));
        assert!(!t.is_ancestor(g, b));
        assert!(t.is_descendant(g, c));
        assert!(t.is_descendant_or_self(g, g));
        assert!(!t.is_descendant(root, root));
    }

    #[test]
    fn lca_and_subtree() {
        let t = sample();
        let d = t.nodes_with_label_str("d")[0];
        let e = t.nodes_with_label_str("e")[0];
        let g = t.nodes_with_label_str("g")[0];
        let b = t.nodes_with_label_str("b")[0];
        assert_eq!(t.lca(d, e), b);
        assert_eq!(t.lca(d, g), t.root());
        assert_eq!(t.lca(d, d), d);
        assert_eq!(t.lca_many(&[d, e, g]), Some(t.root()));
        assert_eq!(t.lca_many(&[]), None);

        let sub = t.subtree(t.nodes_with_label_str("c")[0]);
        assert_eq!(sub.to_terms(), "c(f(g),h)");
        sub.check_invariants().unwrap();
    }

    #[test]
    fn descendants_or_self_in_doc_order() {
        let t = sample();
        let c = t.nodes_with_label_str("c")[0];
        let labels: Vec<_> = t
            .descendants_or_self(c)
            .into_iter()
            .map(|n| t.label_str(n).to_string())
            .collect();
        assert_eq!(labels, vec!["c", "f", "g", "h"]);
        let all = t.descendants_or_self(t.root());
        assert_eq!(all.len(), t.len());
    }

    #[test]
    fn label_index() {
        let t = Tree::from_terms("a(b,b,b(b))").unwrap();
        assert_eq!(t.nodes_with_label_str("b").len(), 4);
        assert_eq!(t.nodes_with_label_str("zzz").len(), 0);
        assert_eq!(t.label_count(), 2);
        let l = t.label_id("b").unwrap();
        assert_eq!(t.label_name(l), "b");
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::singleton("only");
        assert_eq!(t.len(), 1);
        assert_eq!(t.label_str(t.root()), "only");
        assert!(t.is_leaf(t.root()));
        t.check_invariants().unwrap();
    }

    #[test]
    fn document_order_matches_preorder() {
        let t = sample();
        let nodes: Vec<_> = t.nodes().collect();
        for w in nodes.windows(2) {
            assert_eq!(t.doc_order(w[0], w[1]), std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn display_round_trips() {
        let s = "a(b(d,e),c(f(g),h))";
        let t = Tree::from_terms(s).unwrap();
        assert_eq!(format!("{t}"), s);
    }
}
