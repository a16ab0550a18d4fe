//! Tree edits: insert/delete/relabel a subtree, with an [`EditDelta`]
//! describing which node range and which labels the edit touched.
//!
//! Node ids are dense preorder indices, so any structural edit shifts the
//! ids of every node after the edited range.  Each operation therefore
//! returns a **fresh tree** (the arena is rebuilt in one O(|t|) pass) plus
//! an [`EditDelta`] that names the edited preorder range (`pos`, `count`)
//! and lists the `labels` whose node sets the edit touched.  Downstream
//! caches use the kind and the labels only: a structural edit invalidates
//! every compiled relation (ids moved), while a relabel invalidates only
//! the relations whose label footprint meets `labels` (ids stay put).

use crate::tree::{NodeId, Tree};
use crate::{TreeBuilder, TreeError};

/// Which kind of edit produced an [`EditDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A subtree was inserted; `pos..pos+count` are **new** ids.
    Insert,
    /// A subtree was deleted; `pos..pos+count` are **old** ids.
    Delete,
    /// One node changed label; ids are unchanged (`count == 1`).
    Relabel,
}

/// The footprint of one tree edit, in terms of node-id ranges.
///
/// `pos`/`count` describe the edited preorder range: in **new** ids for
/// [`EditKind::Insert`] (the inserted subtree is the contiguous block
/// `pos..pos+count`), in **old** ids for [`EditKind::Delete`] (the deleted
/// subtree was `pos..pos+count`).  For [`EditKind::Relabel`] ids do not
/// move and `count == 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditDelta {
    /// What happened.
    pub kind: EditKind,
    /// `|t|` before the edit.
    pub old_len: usize,
    /// `|t|` after the edit.
    pub new_len: usize,
    /// First preorder id of the edited range (see type docs for id space).
    pub pos: u32,
    /// Number of nodes in the edited range.
    pub count: u32,
    /// Labels whose `lab_a` node sets the edit touched (inserted/deleted
    /// subtree labels; `{old, new}` for a relabel).
    pub labels: Vec<String>,
}

/// Iterative preorder copy of `tree` into `b`, yielding builder events; the
/// `visit` callback is told every (source node, builder id) pair as it
/// opens, and `insert_at` splices a foreign subtree into the children of
/// one node at a given child index.
struct Splice<'t> {
    subtree: &'t Tree,
    parent: NodeId,
    index: usize,
}

fn copy_tree(
    tree: &Tree,
    b: &mut TreeBuilder,
    skip: Option<NodeId>,
    relabel: Option<(NodeId, &str)>,
    splice: Option<&Splice<'_>>,
) -> Option<u32> {
    // Stack events: Open(source node) / Close / Foreign(subtree node).
    enum Ev {
        Open(NodeId),
        OpenForeign(NodeId),
        Close,
    }
    let mut spliced_at: Option<u32> = None;
    let mut stack: Vec<Ev> = vec![Ev::Open(tree.root())];
    while let Some(ev) = stack.pop() {
        match ev {
            Ev::Close => {
                b.close();
            }
            Ev::Open(n) => {
                let label = match relabel {
                    Some((target, new)) if target == n => new,
                    _ => tree.label_str(n),
                };
                b.open(label);
                stack.push(Ev::Close);
                // Children (and a possible splice) push in reverse so they
                // pop in document order.
                let children: Vec<NodeId> = tree.children(n).filter(|c| Some(*c) != skip).collect();
                let splice_here = splice.filter(|s| s.parent == n);
                let end = children.len();
                let insert_index = splice_here.map(|s| s.index.min(end));
                for i in (0..=end).rev() {
                    // Reverse push order: the splice at slot `i` precedes
                    // child `i` in document order, so it is pushed later.
                    if i < end {
                        stack.push(Ev::Open(children[i]));
                    }
                    if insert_index == Some(i) {
                        if let Some(s) = splice_here {
                            stack.push(Ev::OpenForeign(s.subtree.root()));
                        }
                    }
                }
            }
            Ev::OpenForeign(n) => {
                let sub = splice
                    .expect("foreign events only exist while splicing")
                    .subtree;
                let id = b.open(sub.label_str(n));
                if n == sub.root() {
                    spliced_at = Some(id.0);
                }
                stack.push(Ev::Close);
                let children: Vec<NodeId> = sub.children(n).collect();
                for c in children.into_iter().rev() {
                    stack.push(Ev::OpenForeign(c));
                }
            }
        }
    }
    spliced_at
}

fn subtree_labels(tree: &Tree, root: NodeId) -> Vec<String> {
    let mut labels: Vec<String> = tree
        .descendants_or_self(root)
        .into_iter()
        .map(|n| tree.label_str(n).to_string())
        .collect();
    labels.sort();
    labels.dedup();
    labels
}

impl Tree {
    /// Insert a copy of `subtree` as the `index`-th child of `parent`
    /// (clamped to the current child count), returning the edited tree and
    /// the delta.  The inserted copy occupies the contiguous **new**
    /// preorder range `delta.pos .. delta.pos + delta.count`.
    pub fn insert_subtree(
        &self,
        parent: NodeId,
        index: usize,
        subtree: &Tree,
    ) -> Result<(Tree, EditDelta), TreeError> {
        if !self.contains(parent) {
            return Err(TreeError::InvalidNode(parent.0));
        }
        let splice = Splice {
            subtree,
            parent,
            index,
        };
        let mut b = TreeBuilder::new();
        let pos = copy_tree(self, &mut b, None, None, Some(&splice))
            .expect("splice parent exists, so the subtree is always copied");
        let new = b.finish().expect("copy is balanced");
        let count = subtree.len() as u32;
        let delta = EditDelta {
            kind: EditKind::Insert,
            old_len: self.len(),
            new_len: new.len(),
            pos,
            count,
            labels: subtree_labels(subtree, subtree.root()),
        };
        debug_assert_eq!(delta.new_len, delta.old_len + count as usize);
        Ok((new, delta))
    }

    /// Delete the subtree rooted at `node`, returning the edited tree and
    /// the delta.  Deleting the root is an error (the data model requires a
    /// non-empty tree).
    pub fn delete_subtree(&self, node: NodeId) -> Result<(Tree, EditDelta), TreeError> {
        if !self.contains(node) {
            return Err(TreeError::InvalidNode(node.0));
        }
        if node == self.root() {
            return Err(TreeError::EmptyTree);
        }
        let count = self.descendants_or_self(node).len() as u32;
        let labels = subtree_labels(self, node);
        let mut b = TreeBuilder::new();
        copy_tree(self, &mut b, Some(node), None, None);
        let new = b.finish().expect("copy is balanced");
        let delta = EditDelta {
            kind: EditKind::Delete,
            old_len: self.len(),
            new_len: new.len(),
            pos: node.0,
            count,
            labels,
        };
        debug_assert_eq!(delta.old_len, delta.new_len + count as usize);
        Ok((new, delta))
    }

    /// Change the label of `node` to `label`, returning the edited tree and
    /// the delta.  Ids do not move; only the `lab` predicates of the old
    /// and new label change.
    pub fn relabel(&self, node: NodeId, label: &str) -> Result<(Tree, EditDelta), TreeError> {
        if !self.contains(node) {
            return Err(TreeError::InvalidNode(node.0));
        }
        let old_label = self.label_str(node).to_string();
        let mut b = TreeBuilder::new();
        copy_tree(self, &mut b, None, Some((node, label)), None);
        let new = b.finish().expect("copy is balanced");
        let mut labels = vec![old_label, label.to_string()];
        labels.sort();
        labels.dedup();
        let delta = EditDelta {
            kind: EditKind::Relabel,
            old_len: self.len(),
            new_len: new.len(),
            pos: node.0,
            count: 1,
            labels,
        };
        Ok((new, delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Tree {
        Tree::from_terms(s).unwrap()
    }

    #[test]
    fn insert_at_every_index() {
        let base = t("a(b(d,e),c)");
        let sub = t("x(y)");
        let b = base.nodes_with_label_str("b")[0];
        for index in 0..=3 {
            let (new, delta) = base.insert_subtree(b, index, &sub).unwrap();
            new.check_invariants().unwrap();
            assert_eq!(new.len(), base.len() + 2);
            assert_eq!(delta.kind, EditKind::Insert);
            assert_eq!(delta.count, 2);
            // The inserted range really is the x(y) copy.
            assert_eq!(new.label_str(NodeId(delta.pos)), "x");
            assert_eq!(new.label_str(NodeId(delta.pos + 1)), "y");
            // Clamping: indices past the end insert at the end.
            let kids: Vec<String> = new
                .children(b)
                .map(|c| new.label_str(c).to_string())
                .collect();
            let expected_index = index.min(2);
            assert_eq!(kids[expected_index], "x");
            assert_eq!(delta.labels, vec!["x".to_string(), "y".to_string()]);
        }
    }

    #[test]
    fn insert_terms_round_trip() {
        let base = t("a(b,c)");
        let sub = t("x(y,z)");
        let c = base.nodes_with_label_str("c")[0];
        let (new, delta) = base.insert_subtree(c, 0, &sub).unwrap();
        assert_eq!(new.to_terms(), "a(b,c(x(y,z)))");
        assert_eq!(delta.pos, 3);
    }

    #[test]
    fn delete_subtree_shifts_ids() {
        let base = t("a(b(d,e),c(f))");
        let b = base.nodes_with_label_str("b")[0];
        let (new, delta) = base.delete_subtree(b).unwrap();
        new.check_invariants().unwrap();
        assert_eq!(new.to_terms(), "a(c(f))");
        assert_eq!(delta.kind, EditKind::Delete);
        assert_eq!((delta.pos, delta.count), (1, 3));
        assert_eq!(delta.labels, vec!["b", "d", "e"]);
    }

    #[test]
    fn delete_root_is_an_error() {
        let base = t("a(b)");
        assert_eq!(
            base.delete_subtree(base.root()).unwrap_err(),
            TreeError::EmptyTree
        );
    }

    #[test]
    fn relabel_keeps_ids() {
        let base = t("a(b,c)");
        let c = base.nodes_with_label_str("c")[0];
        let (new, delta) = base.relabel(c, "z").unwrap();
        assert_eq!(new.to_terms(), "a(b,z)");
        assert_eq!(delta.kind, EditKind::Relabel);
        assert_eq!((delta.pos, delta.count), (c.0, 1));
        assert_eq!(delta.labels, vec!["c", "z"]);
    }

    #[test]
    fn invalid_nodes_are_rejected() {
        let base = t("a(b)");
        let bogus = NodeId(99);
        assert!(matches!(
            base.insert_subtree(bogus, 0, &base),
            Err(TreeError::InvalidNode(99))
        ));
        assert!(matches!(
            base.delete_subtree(bogus),
            Err(TreeError::InvalidNode(99))
        ));
        assert!(matches!(
            base.relabel(bogus, "x"),
            Err(TreeError::InvalidNode(99))
        ));
    }
}
