//! Random edit scripts over live documents.
//!
//! Carrying a warm session through edits (`Session::fork_edited`: an empty
//! store after a structural edit, footprint-filtered entries after a
//! relabel) is only trustworthy if a *long, adversarial* sequence of edits
//! keeps every engine's answers identical to a from-scratch recompile.
//! This module generates those sequences: each
//! [`ScriptEdit`] is drawn against the *current* tree (node ids shift under
//! every structural edit, so a script cannot be generated up front against
//! the start tree), with a mix of subtree inserts at random positions,
//! subtree deletes, and relabels both into and out of the live alphabet.
//!
//! The differential harness (`crates/core/tests/edit_fuzz.rs`,
//! `run_edit_fuzz`) replays these scripts and compares all four engines
//! tuple-for-tuple against cold sessions after every step.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_tree::{EditDelta, NodeId, Tree, TreeError};

/// One edit of a random script, expressed against the tree it was drawn
/// for (preorder node ids, like the `MUTATE` protocol verbs).
#[derive(Debug, Clone)]
pub enum ScriptEdit {
    /// Splice a subtree under `parent` before its `index`-th child.
    Insert {
        /// Preorder id of the parent node.
        parent: u32,
        /// Child position to insert at.
        index: usize,
        /// The spliced subtree.
        subtree: Tree,
    },
    /// Remove the subtree rooted at `node`.
    Delete {
        /// Preorder id of the subtree root.
        node: u32,
    },
    /// Rename `node` to `label`.
    Relabel {
        /// Preorder id of the node.
        node: u32,
        /// The new label.
        label: String,
    },
}

impl ScriptEdit {
    /// Apply this edit to `tree` (persistent: returns the edited copy and
    /// its delta, the input is untouched).
    pub fn apply(&self, tree: &Tree) -> Result<(Tree, EditDelta), TreeError> {
        match self {
            ScriptEdit::Insert {
                parent,
                index,
                subtree,
            } => tree.insert_subtree(NodeId(*parent), *index, subtree),
            ScriptEdit::Delete { node } => tree.delete_subtree(NodeId(*node)),
            ScriptEdit::Relabel { node, label } => tree.relabel(NodeId(*node), label),
        }
    }
}

/// Draw one valid random edit against `tree`.
///
/// The mix is deliberately adversarial for the incremental caches: inserts
/// land anywhere (including before node 0's first child and past the last
/// child — the append path), deletes pick any non-root subtree (so whole
/// regions of every axis relation disappear), and relabels draw from
/// `l0..l<alphabet>` *plus* a label outside the generator alphabet, so
/// name-test subterms gain and lose their label entirely.
pub fn random_edit(tree: &Tree, alphabet: usize, rng: &mut StdRng) -> ScriptEdit {
    let n = tree.len() as u32;
    let label = |rng: &mut StdRng| -> String {
        // One slot past the alphabet: a label no name test of the suite
        // matches, exercising the relabel-to-unknown path.
        format!("l{}", rng.gen_range(0..alphabet + 1))
    };
    // Deletes are only legal off-root; on a 1-node tree, insert.
    let kind = if n <= 1 { 0 } else { rng.gen_range(0..4u32) };
    match kind {
        // Insert twice as often as the others: scripts must grow on
        // average or long scripts collapse to the root.
        0 | 1 => {
            let parent = rng.gen_range(0..n);
            let children = tree.children(NodeId(parent)).count();
            let subtree = if rng.gen_range(0..4u32) == 0 {
                // Occasionally a bushier subtree, not just a leaf.
                random_tree(&TreeGenConfig {
                    size: rng.gen_range(2..6),
                    shape: TreeShape::RandomAttachment,
                    alphabet,
                    seed: rng.gen_range(0..u64::MAX / 2),
                })
            } else {
                Tree::from_terms(&label(rng)).expect("a single label is valid term syntax")
            };
            ScriptEdit::Insert {
                parent,
                index: rng.gen_range(0..=children),
                subtree,
            }
        }
        2 => ScriptEdit::Delete {
            node: rng.gen_range(1..n),
        },
        _ => ScriptEdit::Relabel {
            node: rng.gen_range(0..n),
            label: label(rng),
        },
    }
}

/// Generate a script of `edits` random edits starting from `start`, each
/// drawn against the tree produced by the previous one.  Returns the edits
/// paired with the tree each produces (so a harness can check intermediate
/// states without re-applying).
pub fn random_edit_script(
    start: &Tree,
    edits: usize,
    alphabet: usize,
    seed: u64,
) -> Vec<(ScriptEdit, Tree)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = start.clone();
    let mut script = Vec::with_capacity(edits);
    for _ in 0..edits {
        let edit = random_edit(&tree, alphabet, &mut rng);
        let (next, _) = edit
            .apply(&tree)
            .expect("random_edit only draws valid edits");
        tree = next;
        script.push((edit, tree.clone()));
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canonical rendering for equality checks (`Tree`'s `Debug` goes
    /// through a `HashMap`, so it is not order-stable).
    fn edit_key(e: &ScriptEdit) -> String {
        match e {
            ScriptEdit::Insert {
                parent,
                index,
                subtree,
            } => {
                format!("I {parent} {index} {}", subtree.to_terms())
            }
            ScriptEdit::Delete { node } => format!("D {node}"),
            ScriptEdit::Relabel { node, label } => format!("R {node} {label}"),
        }
    }

    #[test]
    fn scripts_are_deterministic_and_stay_valid() {
        let start = random_tree(&TreeGenConfig {
            size: 10,
            shape: TreeShape::RandomAttachment,
            alphabet: 3,
            seed: 7,
        });
        let a = random_edit_script(&start, 24, 3, 42);
        let b = random_edit_script(&start, 24, 3, 42);
        assert_eq!(a.len(), 24);
        for ((ea, ta), (eb, tb)) in a.iter().zip(&b) {
            assert_eq!(
                edit_key(ea),
                edit_key(eb),
                "same seed must give the same script"
            );
            assert_eq!(ta.to_terms(), tb.to_terms());
            assert!(!ta.is_empty());
        }
        // Different seeds diverge.
        let c = random_edit_script(&start, 24, 3, 43);
        assert!(a
            .iter()
            .zip(&c)
            .any(|((ea, _), (ec, _))| edit_key(ea) != edit_key(ec)));
    }

    #[test]
    fn scripts_mix_all_three_edit_kinds() {
        let start = random_tree(&TreeGenConfig {
            size: 12,
            shape: TreeShape::BoundedBranching { max_children: 3 },
            alphabet: 3,
            seed: 1,
        });
        let script = random_edit_script(&start, 64, 3, 9);
        let inserts = script
            .iter()
            .filter(|(e, _)| matches!(e, ScriptEdit::Insert { .. }))
            .count();
        let deletes = script
            .iter()
            .filter(|(e, _)| matches!(e, ScriptEdit::Delete { .. }))
            .count();
        let relabels = script
            .iter()
            .filter(|(e, _)| matches!(e, ScriptEdit::Relabel { .. }))
            .count();
        assert!(inserts > 0 && deletes > 0 && relabels > 0, "{script:?}");
        assert_eq!(inserts + deletes + relabels, 64);
    }
}
