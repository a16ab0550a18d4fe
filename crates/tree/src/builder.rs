//! Incremental construction of [`Tree`]s.
//!
//! [`TreeBuilder`] follows the usual open/close (SAX-like) protocol: call
//! [`TreeBuilder::open`] when an element starts, [`TreeBuilder::close`] when
//! it ends, and [`TreeBuilder::finish`] once the document is complete.  The
//! builder guarantees that parents receive smaller [`NodeId`]s than their
//! children, which [`Tree`] relies on for its single-pass link construction.

use crate::tree::{NodeId, Tree};
use crate::TreeError;
use std::collections::HashMap;

/// Incremental builder for [`Tree`].
#[derive(Debug, Default)]
pub struct TreeBuilder {
    parents: Vec<u32>,
    labels_per_node: Vec<u32>,
    labels: Vec<String>,
    label_ids: HashMap<String, u32>,
    stack: Vec<u32>,
}

impl TreeBuilder {
    /// Create an empty builder.
    pub fn new() -> TreeBuilder {
        TreeBuilder::default()
    }

    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.label_ids.insert(label.to_string(), id);
        id
    }

    /// Start a new element with the given label; returns its node id.
    ///
    /// The first `open` creates the root.  Opening a second root (i.e. a
    /// sibling of the root) is rejected at [`TreeBuilder::finish`] time via
    /// [`TreeError::UnbalancedBuilder`] since the extra node would be
    /// unreachable.
    pub fn open(&mut self, label: &str) -> NodeId {
        let label_id = self.intern(label);
        let id = self.parents.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.parents.push(parent);
        self.labels_per_node.push(label_id);
        self.stack.push(id);
        NodeId(id)
    }

    /// Close the most recently opened element.
    ///
    /// Returns the id of the closed element, or `None` if no element is open.
    pub fn close(&mut self) -> Option<NodeId> {
        self.stack.pop().map(NodeId)
    }

    /// Convenience: add a leaf child (open + close).
    pub fn leaf(&mut self, label: &str) -> NodeId {
        let id = self.open(label);
        self.close();
        id
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if no node has been created yet.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Number of elements currently open.
    pub fn open_depth(&self) -> usize {
        self.stack.len()
    }

    /// Finish the build.
    ///
    /// Fails with [`TreeError::UnbalancedBuilder`] if elements are still open
    /// or if more than one root was created, and with [`TreeError::EmptyTree`]
    /// if no node was created at all.
    pub fn finish(self) -> Result<Tree, TreeError> {
        if !self.stack.is_empty() {
            return Err(TreeError::UnbalancedBuilder);
        }
        if self.parents.is_empty() {
            return Err(TreeError::EmptyTree);
        }
        // Exactly one node may have no parent, and it must be node 0.
        let roots = self.parents.iter().filter(|&&p| p == u32::MAX).count();
        if roots != 1 || self.parents[0] != u32::MAX {
            return Err(TreeError::UnbalancedBuilder);
        }
        Tree::from_builder_parts(
            self.parents,
            self.labels_per_node,
            self.labels,
            self.label_ids,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple() {
        let mut b = TreeBuilder::new();
        let root = b.open("a");
        let x = b.leaf("b");
        let y = b.open("c");
        b.leaf("d");
        b.close();
        b.close();
        let t = b.finish().unwrap();
        assert_eq!(t.to_terms(), "a(b,c(d))");
        assert_eq!(root, NodeId::ROOT);
        assert_eq!(t.parent(x), Some(root));
        assert_eq!(t.parent(y), Some(root));
        t.check_invariants().unwrap();
    }

    #[test]
    fn unbalanced_open_is_rejected() {
        let mut b = TreeBuilder::new();
        b.open("a");
        b.open("b");
        b.close();
        assert_eq!(b.open_depth(), 1);
        assert!(matches!(b.finish(), Err(TreeError::UnbalancedBuilder)));
    }

    #[test]
    fn empty_is_rejected() {
        let b = TreeBuilder::new();
        assert!(b.is_empty());
        assert!(matches!(b.finish(), Err(TreeError::EmptyTree)));
    }

    #[test]
    fn second_root_is_rejected() {
        let mut b = TreeBuilder::new();
        b.open("a");
        b.close();
        b.open("b");
        b.close();
        assert!(matches!(b.finish(), Err(TreeError::UnbalancedBuilder)));
    }

    #[test]
    fn labels_are_interned() {
        let mut b = TreeBuilder::new();
        b.open("x");
        for _ in 0..10 {
            b.leaf("y");
        }
        b.close();
        let t = b.finish().unwrap();
        assert_eq!(t.label_count(), 2);
        assert_eq!(t.nodes_with_label_str("y").len(), 10);
    }

    #[test]
    fn close_on_empty_returns_none() {
        let mut b = TreeBuilder::new();
        assert_eq!(b.close(), None);
        assert_eq!(b.len(), 0);
    }
}
