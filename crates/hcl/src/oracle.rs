//! Binary-query oracles for HCL(L).
//!
//! The answering algorithm of Fig. 8 assumes that "all binary queries
//! occurring in `D_∆` are precompiled in a data structure that returns in
//! time `|S_{u,b}|` the set `S_{u,b} = {u' | (u, u') ∈ q_b(t)}`"
//! (Prop. 10).  [`CompiledAtoms`] is exactly that data structure: one sorted
//! successor list per (atom, node) pair.
//!
//! Two compilers are provided:
//!
//! * [`PplBinAtoms`] — atoms are PPLbin expressions, answered by the
//!   Boolean-matrix engine of `xpath_pplbin` in `O(|b|·|t|³)` each
//!   (Theorem 2), which instantiates the `p(|b|, |t|)` of Prop. 10;
//! * [`AxisAtoms`] — atoms are raw `(Axis, NameTest)` steps, answered as
//!   views of the tree (nothing compiled).

use crate::lang::Hcl;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use xpath_ast::{BinExpr, NameTest};
use xpath_pplbin::{
    eval_relation, CapacityError, KernelMode, KernelStats, SharedMatrixStore, StepView,
    SuccessorSource,
};
use xpath_tree::{Axis, NodeId, Tree};

/// Identifier of an interned atom inside a [`CompiledAtoms`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// Dense index of the atom.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Precompiled successor rows for a set of binary queries over one tree.
///
/// Per-atom rows are held behind `Arc`d [`SuccessorSource`] handles so a
/// cache (the `SharedMatrixStore` of a `Session`) can hand out the same
/// compiled rows — or views of the same tree snapshot — to many queries, on
/// any thread, without copying them.  Under the lazy kernel mode a source
/// computes and memoises rows the first time the Fig. 8 answering phase
/// pulls them, so "precompiled" means the *symbolic* form is ready; the
/// `|S_{u,b}|`-time guarantee of Prop. 10 then holds per pulled row.
#[derive(Debug, Clone)]
pub struct CompiledAtoms {
    /// `succ[atom]` — the successor rows of one atom.
    succ: Vec<SuccessorSource>,
    domain: usize,
}

impl CompiledAtoms {
    /// Build a table directly from per-atom pair lists.
    pub fn from_pairs(domain: usize, atoms: Vec<Vec<(NodeId, NodeId)>>) -> CompiledAtoms {
        let mut succ = Vec::with_capacity(atoms.len());
        for pairs in atoms {
            let mut lists = vec![Vec::new(); domain];
            for (u, v) in pairs {
                lists[u.index()].push(v);
            }
            for l in lists.iter_mut() {
                l.sort_unstable();
                l.dedup();
            }
            succ.push(SuccessorSource::Eager(Arc::new(lists)));
        }
        CompiledAtoms { succ, domain }
    }

    /// Build a table from already-shared per-atom successor lists (each
    /// `lists[atom][node]` sorted in document order), e.g. straight out of a
    /// [`SharedMatrixStore`].
    pub fn from_successor_lists(
        domain: usize,
        atoms: Vec<Arc<Vec<Vec<NodeId>>>>,
    ) -> CompiledAtoms {
        debug_assert!(atoms.iter().all(|per_node| per_node.len() == domain));
        CompiledAtoms {
            succ: atoms.into_iter().map(SuccessorSource::Eager).collect(),
            domain,
        }
    }

    /// Build a table from per-atom row sources (eager or lazy).
    pub fn from_sources(domain: usize, atoms: Vec<SuccessorSource>) -> CompiledAtoms {
        debug_assert!(atoms.iter().all(|src| src.len() == domain));
        CompiledAtoms { succ: atoms, domain }
    }

    /// Number of nodes of the underlying tree.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Number of compiled atoms.
    pub fn atom_count(&self) -> usize {
        self.succ.len()
    }

    /// The row source of one atom.  Cloning the handle (an `Arc` bump) lets
    /// a caller iterate rows while holding `&mut` state of its own (the
    /// Fig. 8 stream does this) without copying any nodes.
    pub fn source(&self, atom: AtomId) -> &SuccessorSource {
        &self.succ[atom.index()]
    }

    /// The successors `S_{u,b}` of `u` under atom `b`, in document order.
    /// Lazy sources materialise (and memoise) the row on first pull.
    pub fn successors(&self, atom: AtomId, u: NodeId) -> Vec<NodeId> {
        self.succ[atom.index()].row_vec(u)
    }

    /// Does row `u` of `atom` contain a node satisfying `pred`?  Early-exits
    /// on the first hit; lazy sources answer without materialising the row,
    /// in time proportional to what the symbolic form touches — this is what
    /// keeps the `MC` sweep of Prop. 10 subquadratic over deferred
    /// complements.
    pub fn row_any(&self, atom: AtomId, u: NodeId, pred: impl FnMut(NodeId) -> bool) -> bool {
        self.succ[atom.index()].row_any(u, pred)
    }

    /// Does `u` have any successor under `atom`?
    pub fn has_successor(&self, atom: AtomId, u: NodeId) -> bool {
        self.succ[atom.index()].row_nonempty(u)
    }

    /// Total number of stored pairs (the size of the induced relational
    /// database `db = {q_b(t) | b ∈ L}` of Section 6).  Materialises every
    /// row of lazy sources — a diagnostic, not a hot path.
    pub fn pair_count(&self) -> usize {
        self.succ
            .iter()
            .map(|src| {
                (0..self.domain)
                    .map(|u| src.with_row(NodeId(u as u32), <[NodeId]>::len))
                    .sum::<usize>()
            })
            .sum()
    }
}

/// Intern the atoms of an HCL expression: equal atoms share an [`AtomId`].
///
/// Returns the rewritten expression together with the distinct atoms in
/// first-occurrence order.
pub fn intern_atoms<B: Clone + Eq + Hash>(hcl: &Hcl<B>) -> (Hcl<AtomId>, Vec<B>) {
    let mut table: HashMap<B, AtomId> = HashMap::new();
    let mut atoms: Vec<B> = Vec::new();
    let rewritten = hcl.map_atoms(&mut |b: &B| {
        *table.entry(b.clone()).or_insert_with(|| {
            let id = AtomId(atoms.len() as u32);
            atoms.push(b.clone());
            id
        })
    });
    (rewritten, atoms)
}

/// Atom compiler backed by the PPLbin Boolean-matrix engine.
pub struct PplBinAtoms;

impl PplBinAtoms {
    /// Compile each PPLbin atom on the tree (Theorem 2 per atom), through
    /// the adaptive relation kernels: the successor lists of Prop. 10 are
    /// read straight off the compiled [`Relation`], so interval- and
    /// sparse-shaped atoms never materialise their dense bits.
    ///
    /// [`Relation`]: xpath_pplbin::Relation
    pub fn compile(tree: &Tree, atoms: &[BinExpr]) -> CompiledAtoms {
        let succ: Vec<Arc<Vec<Vec<NodeId>>>> = atoms
            .iter()
            .map(|b| {
                let relation =
                    eval_relation(tree, b, KernelMode::default(), &mut KernelStats::default());
                Arc::new(
                    tree.nodes()
                        .map(|u| relation.successor_list(u))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        CompiledAtoms::from_successor_lists(tree.len(), succ)
    }

    /// Compile each PPLbin atom through a thread-safe [`SharedMatrixStore`]
    /// bound to `tree`: plain axis steps come back as views over the tree
    /// (nothing compiled, nothing cached), every other atom compiles under
    /// its shard lock only while it compiles, and the returned rows are
    /// shared with the store (and with any other thread answering the same
    /// atoms) via `Arc`.  Under the lazy kernel mode composite atoms hold
    /// on-demand row caches; under the eager modes compilation fails
    /// (instead of aborting) when a dense intermediate would exceed the
    /// capacity budget.
    ///
    /// Panics if `tree` is not the size of the store's snapshot.
    pub fn try_compile_with_shared(
        tree: &Tree,
        atoms: &[BinExpr],
        store: &SharedMatrixStore,
    ) -> Result<CompiledAtoms, CapacityError> {
        assert_eq!(
            tree.len(),
            store.domain(),
            "the store serves a different tree snapshot"
        );
        let sources: Vec<SuccessorSource> = atoms
            .iter()
            .map(|b| store.successor_source(b))
            .collect::<Result<_, _>>()?;
        Ok(CompiledAtoms::from_sources(tree.len(), sources))
    }
}

/// Atom compiler for raw axis steps `(Axis, NameTest)`: each atom is a
/// [`StepView`] over the tree, so nothing is compiled.
pub struct AxisAtoms;

impl AxisAtoms {
    /// View each `(axis, name-test)` atom straight from the tree.
    pub fn compile(tree: &Arc<Tree>, atoms: &[(Axis, NameTest)]) -> CompiledAtoms {
        let sources = atoms
            .iter()
            .map(|(axis, test)| SuccessorSource::Step(StepView::new(Arc::clone(tree), *axis, test)))
            .collect();
        CompiledAtoms::from_sources(tree.len(), sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::{parse_path, Var};
    use xpath_pplbin::answer_binary;

    fn tree() -> Tree {
        Tree::from_terms("a(b(c,d),b(d))").unwrap()
    }

    #[test]
    fn interning_deduplicates_equal_atoms() {
        let c: Hcl<String> = Hcl::Atom("ch".to_string())
            .then(Hcl::Var(Var::new("x")))
            .or(Hcl::Atom("ch".to_string()).then(Hcl::Atom("desc".to_string())));
        let (interned, atoms) = intern_atoms(&c);
        assert_eq!(atoms, vec!["ch".to_string(), "desc".to_string()]);
        assert_eq!(interned.atoms().len(), 3);
        assert_eq!(interned.atoms().iter().filter(|a| ***a == AtomId(0)).count(), 2);
    }

    #[test]
    fn pplbin_atoms_match_matrix_rows() {
        let t = tree();
        let child = from_variable_free_path(&parse_path("child::*").unwrap()).unwrap();
        let desc_d = from_variable_free_path(&parse_path("descendant::d").unwrap()).unwrap();
        let compiled = PplBinAtoms::compile(&t, &[child.clone(), desc_d.clone()]);
        assert_eq!(compiled.atom_count(), 2);
        assert_eq!(compiled.domain(), t.len());
        for (i, b) in [child, desc_d].iter().enumerate() {
            let m = answer_binary(&t, b);
            for u in t.nodes() {
                let expected: Vec<NodeId> = m.successors(u).collect();
                assert_eq!(compiled.successors(AtomId(i as u32), u), expected.as_slice());
                assert_eq!(compiled.has_successor(AtomId(i as u32), u), !expected.is_empty());
            }
        }
        assert!(compiled.pair_count() > 0);
    }

    #[test]
    fn axis_atoms_match_direct_iteration() {
        let t = tree();
        let atoms = vec![
            (Axis::Child, NameTest::Wildcard),
            (Axis::Descendant, NameTest::name("d")),
            (Axis::Parent, NameTest::Wildcard),
        ];
        let compiled = AxisAtoms::compile(&Arc::new(t.clone()), &atoms);
        for (i, (axis, test)) in atoms.iter().enumerate() {
            for u in t.nodes() {
                let expected: Vec<NodeId> = t
                    .axis_iter(*axis, u)
                    .filter(|&v| test.matches(t.label_str(v)))
                    .collect();
                let mut expected_sorted = expected.clone();
                expected_sorted.sort_unstable();
                assert_eq!(
                    compiled.successors(AtomId(i as u32), u),
                    expected_sorted.as_slice()
                );
            }
        }
    }

    #[test]
    fn compile_with_shared_matches_cold_compile_and_shares_lists() {
        let t = tree();
        let bin = |src: &str| from_variable_free_path(&parse_path(src).unwrap()).unwrap();
        // A step (answered as a view) and a composite (compiled and cached).
        let atoms = [bin("child::*"), bin("descendant::b[child::d]")];
        let cold = PplBinAtoms::compile(&t, &atoms);
        let store = SharedMatrixStore::new(std::sync::Arc::new(t.clone()));
        let warm = PplBinAtoms::try_compile_with_shared(&t, &atoms, &store).unwrap();
        for i in 0..atoms.len() {
            for u in t.nodes() {
                assert_eq!(
                    warm.successors(AtomId(i as u32), u),
                    cold.successors(AtomId(i as u32), u)
                );
            }
        }
        assert_eq!(warm.pair_count(), cold.pair_count());
        assert!(matches!(warm.source(AtomId(0)), SuccessorSource::Step(_)));
        // Recompiling through the same store is pure cache traffic.
        let before = store.stats();
        assert!(before.misses > 0, "the composite atom compiled");
        let again = PplBinAtoms::try_compile_with_shared(&t, &atoms, &store).unwrap();
        assert_eq!(again.pair_count(), cold.pair_count());
        assert_eq!(store.stats().misses, before.misses);
        assert!(store.stats().hits > before.hits);
    }

    #[test]
    fn from_pairs_deduplicates_and_sorts() {
        let compiled = CompiledAtoms::from_pairs(
            3,
            vec![vec![
                (NodeId(0), NodeId(2)),
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
            ]],
        );
        assert_eq!(compiled.successors(AtomId(0), NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(compiled.pair_count(), 2);
        assert!(compiled.successors(AtomId(0), NodeId(1)).is_empty());
    }
}
