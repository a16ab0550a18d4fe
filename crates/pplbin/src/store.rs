//! Amortized matrix compilation: a per-document cache of compiled PPLbin
//! matrices.
//!
//! Theorem 1's bound `O(|P|·|t|³ + n·|P|·|t|²·|A|)` is dominated by the
//! `|t|³` matrix compilation of the PPLbin atoms, yet that work depends only
//! on the *(tree, expression)* pair — never on the query's variables or
//! output.  A [`MatrixStore`] therefore memoises every compiled subterm so a
//! workload of many queries over one document pays each `|t|³` product once:
//!
//! * **steps** — the `M_{A::N}` matrices of `step_matrix` are keyed by
//!   `(Axis, NameTest)`;
//! * **composite subterms** — `Seq`/`Union`/`Except`/`Test` nodes are
//!   *hash-consed*: structurally equal subterms (even across different
//!   queries) intern to the same [`ExprId`] in amortised `O(1)` per AST
//!   node, and each id's matrix is computed at most once;
//! * **successor lists** — the Prop. 10 oracle representation
//!   (`u ↦ {u' | (u,u') ∈ q_b(t)}`) derived from a matrix is cached per
//!   [`ExprId`] behind an `Arc`, so repeated HCL⁻ answering over the same
//!   atoms shares one allocation — across threads too.
//!
//! Two ownership regimes are provided:
//!
//! * [`MatrixStore`] — the single-threaded store (`&mut self` evaluation),
//!   used directly by benchmarks and cold paths.  It is tree-agnostic in
//!   its API (the caller passes the `&Tree` on every evaluation) but
//!   domain-checked: it is created for a fixed node count and will panic if
//!   used with a tree of a different size;
//! * [`SharedMatrixStore`] — a sharded `Mutex` wrapper bound to one
//!   `Arc<Tree>` snapshot, whose evaluation methods take `&self`, so one
//!   document can answer queries from many threads at once.  It answers
//!   plain step atoms as [`StepView`]s over the snapshot instead of caching
//!   them.  `ppl_xpath::Session` owns one and threads it through every
//!   cached entry point.

use crate::eval::step_relation_in_mode;
use crate::incremental::{
    merge_rows, remap_cols, remap_range, remap_row_words, rows_intersecting_cols,
    rows_intersecting_range, Dirty, EditApplyStats,
};
use crate::lazy::{LazyRel, LazyRows};
use crate::matrix::{CapacityError, NodeMatrix};
use crate::relation::{KernelMode, KernelStats, Relation, SparseRows};
use crate::view::StepView;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use xpath_sync::{Mutex, MutexGuard};
use xpath_ast::{BinExpr, NameTest};
use xpath_tree::{Axis, EditDelta, EditKind, NodeId, Tree};

/// Where a consumer of Prop. 10 successor rows pulls them from: an eagerly
/// materialised table (`lists[u]` for every `u`, the pre-lazy behaviour),
/// an on-demand [`LazyRows`] cache that computes rows the first time the
/// answering phase asks for them, or — for a plain axis step — a
/// [`StepView`] reading rows straight off the tree snapshot.  Cloning is an
/// `Arc` bump in every case.
#[derive(Debug, Clone)]
pub enum SuccessorSource {
    /// All `n` rows materialised up front (eager kernel modes).
    Eager(Arc<Vec<Vec<NodeId>>>),
    /// Rows computed and memoised on first pull ([`KernelMode::Lazy`]).
    Lazy(Arc<LazyRows>),
    /// Rows of an axis step, read from the tree (no compilation, no cache).
    Step(StepView),
}

impl SuccessorSource {
    /// Domain size (number of rows).
    pub fn len(&self) -> usize {
        match self {
            SuccessorSource::Eager(lists) => lists.len(),
            SuccessorSource::Lazy(rows) => rows.len(),
            SuccessorSource::Step(view) => view.len(),
        }
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `f` over row `u` (sorted successor ids).  The lazy variant
    /// materialises and memoises the row on first pull.
    pub fn with_row<R>(&self, u: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        match self {
            SuccessorSource::Eager(lists) => f(&lists[u.index()]),
            SuccessorSource::Lazy(rows) => f(&rows.row(u)),
            SuccessorSource::Step(view) => view.with_row(u, f),
        }
    }

    /// Row `u` as an owned vector.
    pub fn row_vec(&self, u: NodeId) -> Vec<NodeId> {
        self.with_row(u, <[NodeId]>::to_vec)
    }

    /// Non-emptiness of row `u`, without materialising it in the lazy case.
    pub fn row_nonempty(&self, u: NodeId) -> bool {
        match self {
            SuccessorSource::Eager(lists) => !lists[u.index()].is_empty(),
            SuccessorSource::Lazy(rows) => rows.row_nonempty(u),
            SuccessorSource::Step(view) => view.row_nonempty(u),
        }
    }

    /// Does row `u` contain a node satisfying `pred`?  Early-exits on the
    /// first hit; the lazy variant answers from the symbolic form without
    /// materialising the row (see [`LazyRel::row_any`]), the step variant
    /// from the tree without allocating.
    ///
    /// [`LazyRel::row_any`]: crate::lazy::LazyRel::row_any
    pub fn row_any(&self, u: NodeId, mut pred: impl FnMut(NodeId) -> bool) -> bool {
        match self {
            SuccessorSource::Eager(lists) => lists[u.index()].iter().any(|&v| pred(v)),
            SuccessorSource::Lazy(rows) => rows.row_any(u, pred),
            SuccessorSource::Step(view) => view.row_any(u, pred),
        }
    }
}

/// Identifier of a hash-consed PPLbin subterm inside a [`MatrixStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// Dense index of the subterm.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One hash-consing node: a [`BinExpr`] constructor with interned children.
///
/// Because children are `ExprId`s rather than boxed subtrees, hashing a
/// shape is `O(1)` (plus the name-test string for steps), which is what
/// makes interning a whole expression linear in its size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Shape {
    Step(Axis, NameTest),
    Seq(ExprId, ExprId),
    Union(ExprId, ExprId),
    Except(ExprId),
    Test(ExprId),
}

/// Cache-effectiveness counters of a [`MatrixStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Subterm evaluations answered from the cache.
    pub hits: u64,
    /// Subterm evaluations that had to compile a matrix.
    pub misses: u64,
    /// Distinct subterms interned so far.
    pub interned: usize,
    /// Subterms whose matrix has been compiled and retained.
    pub compiled: usize,
    /// Per-kernel dispatch counters of the compilations behind the misses.
    pub kernels: KernelStats,
}

impl CacheStats {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Accumulate another counter set (used to aggregate the per-shard
    /// stats of a [`SharedMatrixStore`]).
    pub fn merge(&mut self, other: &CacheStats) {
        // Exhaustive destructuring (no `..`): a future counter field that is
        // not aggregated here fails to compile instead of reading 0.
        let CacheStats {
            hits,
            misses,
            interned,
            compiled,
            kernels,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.interned += interned;
        self.compiled += compiled;
        self.kernels.merge(kernels);
    }
}

/// A memoising compiler of PPLbin expressions over one fixed document tree.
#[derive(Debug, Clone, Default)]
pub struct MatrixStore {
    domain: usize,
    /// Hash-consing table: shape → id.
    ids: HashMap<Shape, ExprId>,
    /// Shape of each interned id (indexed by `ExprId::index`).
    shapes: Vec<Shape>,
    /// Compiled relation of each interned id, if computed already — kept in
    /// its adaptive (and, under [`KernelMode::Lazy`], possibly symbolic)
    /// representation so downstream compositions stay structure-aware;
    /// materialised to [`NodeMatrix`] only at the public boundary.
    relations: Vec<Option<Arc<LazyRel>>>,
    /// Cached Prop. 10 successor lists, shared with callers via `Arc` (so
    /// they can cross thread boundaries under a [`SharedMatrixStore`]).
    successors: HashMap<ExprId, Arc<Vec<Vec<NodeId>>>>,
    /// On-demand row caches handed out as [`SuccessorSource::Lazy`] under
    /// [`KernelMode::Lazy`], memoised per id so repeated answering over the
    /// same atom shares materialised rows.
    lazy_rows: HashMap<ExprId, Arc<LazyRows>>,
    /// Which kernels the store compiles with.
    mode: KernelMode,
    /// Per-kernel dispatch counters across all compilations.
    kernels: KernelStats,
    hits: u64,
    misses: u64,
}

impl MatrixStore {
    /// An empty store for trees with `domain` nodes, using the default
    /// (adaptive, threaded) kernels.
    pub fn new(domain: usize) -> MatrixStore {
        MatrixStore {
            domain,
            ..MatrixStore::default()
        }
    }

    /// An empty store compiling with an explicit [`KernelMode`] (the E11
    /// ablation benchmark sweeps all three).
    pub fn with_mode(domain: usize, mode: KernelMode) -> MatrixStore {
        MatrixStore {
            domain,
            mode,
            ..MatrixStore::default()
        }
    }

    /// The node count the store was created for.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// The kernel mode the store compiles with.
    pub fn mode(&self) -> KernelMode {
        self.mode
    }

    /// Switch kernel modes.  Already-compiled relations are kept (they are
    /// equivalent under every mode); only future compilations change.
    pub fn set_mode(&mut self, mode: KernelMode) {
        self.mode = mode;
    }

    /// Current cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            interned: self.shapes.len(),
            compiled: self.relations.iter().filter(|m| m.is_some()).count(),
            kernels: self.kernels,
        }
    }

    /// Per-kernel dispatch counters only.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernels
    }

    /// Approximate heap occupancy of the cached state, in bytes: compiled
    /// relations (symbolic forms charge their eager leaves, not the n² they
    /// defer), Prop. 10 successor lists, and exactly the lazy rows that have
    /// materialised so far (hash-consing table overhead is ignored — it is
    /// dwarfed by the matrices it indexes).  The corpus layer charges this
    /// against its session-pool memory budget.
    pub fn approx_bytes(&self) -> usize {
        let relations: usize = self
            .relations
            .iter()
            .flatten()
            .map(|r| r.approx_bytes())
            .sum();
        let lists: usize = self
            .successors
            .values()
            .map(|lists| {
                lists
                    .iter()
                    .map(|row| std::mem::size_of::<Vec<NodeId>>() + row.len() * std::mem::size_of::<NodeId>())
                    .sum::<usize>()
            })
            .sum();
        let lazy: usize = self.lazy_rows.values().map(|r| r.cached_bytes()).sum();
        relations + lists + lazy
    }

    /// Drop every cached relation and counter (the hash-consing table is
    /// cleared too); the kernel mode is kept.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.shapes.clear();
        self.relations.clear();
        self.successors.clear();
        self.lazy_rows.clear();
        self.kernels = KernelStats::default();
        self.hits = 0;
        self.misses = 0;
    }

    fn check_tree(&self, tree: &Tree) {
        assert_eq!(
            tree.len(),
            self.domain,
            "MatrixStore was created for {}-node trees, got {} nodes",
            self.domain,
            tree.len()
        );
    }

    /// Hash-cons an expression: structurally equal subterms map to the same
    /// id. Linear in the expression size.
    pub fn intern(&mut self, expr: &BinExpr) -> ExprId {
        let shape = match expr {
            BinExpr::Step(axis, test) => Shape::Step(*axis, test.clone()),
            BinExpr::Seq(a, b) => {
                let (a, b) = (self.intern(a), self.intern(b));
                Shape::Seq(a, b)
            }
            BinExpr::Union(a, b) => {
                let (a, b) = (self.intern(a), self.intern(b));
                Shape::Union(a, b)
            }
            BinExpr::Except(p) => Shape::Except(self.intern(p)),
            BinExpr::Test(p) => Shape::Test(self.intern(p)),
        };
        if let Some(&id) = self.ids.get(&shape) {
            return id;
        }
        let id = ExprId(self.shapes.len() as u32);
        self.ids.insert(shape.clone(), id);
        self.shapes.push(shape);
        self.relations.push(None);
        id
    }

    /// Make sure the relation of `id` is compiled, reusing every already
    /// compiled child.  Under the eager modes every node collapses to an
    /// eager leaf through the capacity-guarded kernels (failing, not
    /// aborting, past the dense budget); under [`KernelMode::Lazy`],
    /// complements — and operators over them — stay symbolic.
    fn try_ensure(&mut self, tree: &Tree, id: ExprId) -> Result<(), CapacityError> {
        if self.relations[id.index()].is_some() {
            self.hits += 1;
            return Ok(());
        }
        self.misses += 1;
        let mode = self.mode;
        let shape = self.shapes[id.index()].clone();
        let r = match shape {
            Shape::Step(axis, test) => LazyRel::eager(step_relation_in_mode(
                tree,
                axis,
                &test,
                mode,
                &mut self.kernels,
            )),
            Shape::Seq(a, b) => {
                self.try_ensure(tree, a)?;
                self.try_ensure(tree, b)?;
                let ra = Arc::clone(self.relations[a.index()].as_ref().expect("ensured"));
                let rb = Arc::clone(self.relations[b.index()].as_ref().expect("ensured"));
                LazyRel::product(&ra, &rb, mode, &mut self.kernels)?
            }
            Shape::Union(a, b) => {
                self.try_ensure(tree, a)?;
                self.try_ensure(tree, b)?;
                let ra = Arc::clone(self.relations[a.index()].as_ref().expect("ensured"));
                let rb = Arc::clone(self.relations[b.index()].as_ref().expect("ensured"));
                LazyRel::union(&ra, &rb, mode, &mut self.kernels)?
            }
            Shape::Except(p) => {
                self.try_ensure(tree, p)?;
                let rp = Arc::clone(self.relations[p.index()].as_ref().expect("ensured"));
                LazyRel::complement(&rp, mode, &mut self.kernels)?
            }
            Shape::Test(p) => {
                self.try_ensure(tree, p)?;
                let rp = Arc::clone(self.relations[p.index()].as_ref().expect("ensured"));
                LazyRel::diagonal_filter(&rp, mode, &mut self.kernels)
            }
        };
        self.relations[id.index()] = Some(r);
        Ok(())
    }

    /// Evaluate a PPLbin expression through the cache: equal subterms (from
    /// this or any earlier call) are compiled exactly once.  The result is
    /// materialised as a dense [`NodeMatrix`] — the public boundary keeps
    /// its pre-adaptive type so existing callers work unchanged.
    pub fn eval(&mut self, tree: &Tree, expr: &BinExpr) -> NodeMatrix {
        self.eval_relation(tree, expr).to_matrix()
    }

    /// Evaluate a PPLbin expression through the cache to its adaptive
    /// [`Relation`] representation, panicking past the dense capacity
    /// budget (see [`MatrixStore::try_eval_relation`] for the fallible
    /// form).
    pub fn eval_relation(&mut self, tree: &Tree, expr: &BinExpr) -> Relation {
        self.try_eval_relation(tree, expr)
            .expect("dense capacity exceeded while materialising a cached relation")
    }

    /// Evaluate a PPLbin expression through the cache to a concrete
    /// [`Relation`], forcing any symbolic form through the capacity-guarded
    /// kernels.  Fails (instead of aborting) when the result would exceed
    /// the dense byte budget — at |t| = 1M an n×n bit matrix is ~125 GB.
    pub fn try_eval_relation(
        &mut self,
        tree: &Tree,
        expr: &BinExpr,
    ) -> Result<Relation, CapacityError> {
        self.check_tree(tree);
        let id = self.intern(expr);
        self.try_ensure(tree, id)?;
        let rel = Arc::clone(self.relations[id.index()].as_ref().expect("ensured"));
        match rel.as_eager() {
            Some(r) => Ok(r.clone()),
            None => rel.force(self.mode, &mut self.kernels),
        }
    }

    /// Evaluate a PPLbin expression to its (possibly symbolic) [`LazyRel`]
    /// form without forcing anything dense.
    pub fn try_eval_lazy(
        &mut self,
        tree: &Tree,
        expr: &BinExpr,
    ) -> Result<Arc<LazyRel>, CapacityError> {
        self.check_tree(tree);
        let id = self.intern(expr);
        self.try_ensure(tree, id)?;
        Ok(Arc::clone(self.relations[id.index()].as_ref().expect("ensured")))
    }

    /// The Prop. 10 oracle lists for `expr`: `lists[u] = {u' | (u,u') ∈
    /// q_expr(t)}` in document order, shared behind an `Arc` so repeated
    /// callers pay one pointer clone.  Built row by row from the adaptive
    /// (or symbolic) representation — interval, sparse and deferred
    /// relations never materialise their bits.  Panics past the dense
    /// capacity budget; see [`MatrixStore::try_successor_lists`].
    pub fn successor_lists(&mut self, tree: &Tree, expr: &BinExpr) -> Arc<Vec<Vec<NodeId>>> {
        self.try_successor_lists(tree, expr)
            .expect("dense capacity exceeded while compiling successor lists")
    }

    /// Fallible form of [`MatrixStore::successor_lists`].
    pub fn try_successor_lists(
        &mut self,
        tree: &Tree,
        expr: &BinExpr,
    ) -> Result<Arc<Vec<Vec<NodeId>>>, CapacityError> {
        self.check_tree(tree);
        let id = self.intern(expr);
        self.try_ensure(tree, id)?;
        if let Some(lists) = self.successors.get(&id) {
            return Ok(Arc::clone(lists));
        }
        let r = self.relations[id.index()].as_ref().expect("ensured");
        let lists: Vec<Vec<NodeId>> = (0..self.domain)
            .map(|u| r.row(NodeId(u as u32)))
            .collect();
        let rc = Arc::new(lists);
        self.successors.insert(id, Arc::clone(&rc));
        Ok(rc)
    }

    /// The successor rows of `expr` in the form matching the kernel mode:
    /// an eagerly materialised table under the eager modes, an on-demand
    /// memoising [`LazyRows`] cache under [`KernelMode::Lazy`].  The Fig. 8
    /// answering phase pulls rows through this handle so a lazy pipeline
    /// only ever pays for the rows it visits.
    pub fn successor_source(
        &mut self,
        tree: &Tree,
        expr: &BinExpr,
    ) -> Result<SuccessorSource, CapacityError> {
        if !matches!(self.mode, KernelMode::Lazy) {
            return Ok(SuccessorSource::Eager(self.try_successor_lists(tree, expr)?));
        }
        self.check_tree(tree);
        let id = self.intern(expr);
        self.try_ensure(tree, id)?;
        if let Some(rows) = self.lazy_rows.get(&id) {
            return Ok(SuccessorSource::Lazy(Arc::clone(rows)));
        }
        let rel = Arc::clone(self.relations[id.index()].as_ref().expect("ensured"));
        let rows = Arc::new(LazyRows::new(rel));
        self.lazy_rows.insert(id, Arc::clone(&rows));
        Ok(SuccessorSource::Lazy(rows))
    }

    /// Carry the cache through a tree edit instead of recompiling it.
    ///
    /// `new_tree` is the post-edit document and `delta` the edit that
    /// produced it from the `delta.old_len`-node tree this store was
    /// compiled against.  Afterwards the store answers queries over
    /// `new_tree` exactly as a cold store compiled on it would — that is
    /// what `run_edit_fuzz` pins — but most cached entries are *patched*
    /// (clean rows remapped through the id shift, dirty rows recomputed
    /// from the entry's children) rather than rebuilt:
    ///
    /// * **relabel** — node ids do not move, so entries whose label
    ///   footprint misses `delta.labels` are kept verbatim; the rest are
    ///   dropped (recompiled on demand).
    /// * **insert / delete** — step leaves are re-derived from the tree
    ///   (O(|t|), unavoidable: the tree changed), and their dirty rows —
    ///   [`EditDelta::dirty_rows`], pinned sound per axis in
    ///   `xpath_tree::edit` — propagate bottom-up through the operators:
    ///   `D(a·b) = D(a) ∪ {u : rows_a(u) ∩ D(b) ≠ ∅}` (plus, under delete,
    ///   the rows of the *old* `a` that routed through the deleted id
    ///   range — a surviving row can lose columns it only reached via a
    ///   deleted intermediate node), `D(a∪b) = D(a) ∪ D(b)`,
    ///   `D(test(p)) = D(p)` plus the same deleted-route term, and
    ///   `D(¬p)` = everything under insert (the complement gains the fresh
    ///   columns in every row) but `D(p)` under delete (survivor remapping
    ///   is a bijection onto the new ids, so complement commutes with it).
    ///
    /// An entry is rebuilt from its children instead of patched when its
    /// dirty set is `All` or covers more than a quarter of the rows, or
    /// when its cached form is symbolic ([`KernelMode::Lazy`] complements
    /// rebuild in O(1)) or trivially cheap (`Identity`/`Full`).
    ///
    /// Prop. 10 successor lists and lazy row caches are dropped wholesale
    /// on insert/delete — they re-derive lazily from the patched relations
    /// on the next answering pass.
    pub fn apply_edit(&mut self, new_tree: &Tree, delta: &EditDelta) -> EditApplyStats {
        assert_eq!(
            delta.old_len, self.domain,
            "apply_edit: delta starts from a {}-node tree, store holds {}",
            delta.old_len, self.domain
        );
        assert_eq!(
            delta.new_len,
            new_tree.len(),
            "apply_edit: delta does not produce the given tree"
        );
        let mut out = EditApplyStats::default();
        if delta.kind == EditKind::Relabel {
            self.apply_relabel(delta, &mut out);
            return out;
        }

        self.domain = new_tree.len();
        // Row tables re-derive on demand from the patched relations.
        self.successors.clear();
        self.lazy_rows.clear();
        let old_relations: Vec<Option<Arc<LazyRel>>> = self.relations.clone();
        let n_new = self.domain;
        let mode = self.mode;
        // Per-id dirty sets, filled bottom-up (children intern before
        // parents, so ascending ids visit children first).
        let mut dirty: Vec<Dirty> = Vec::with_capacity(self.shapes.len());
        for idx in 0..self.shapes.len() {
            if old_relations[idx].is_none() {
                // Never compiled: nothing to patch, and no compiled parent
                // can sit above it (ensure compiles children first), so
                // this dirty value is only read if a parent was dropped
                // too — in which case `All` is the safe answer.
                dirty.push(Dirty::All);
                continue;
            }
            out.rows_total += n_new as u64;
            let shape = self.shapes[idx].clone();
            if let Shape::Step(axis, test) = &shape {
                let r = step_relation_in_mode(new_tree, *axis, test, mode, &mut self.kernels);
                self.relations[idx] = Some(LazyRel::eager(r));
                let d = delta.dirty_rows(*axis);
                out.rows_invalidated += d.len() as u64;
                out.entries_patched += 1;
                dirty.push(Dirty::Rows(d));
                continue;
            }
            if self.children_of(&shape).iter().any(|c| self.relations[c.index()].is_none()) {
                // A child fell out (capacity) earlier in this pass.
                self.relations[idx] = None;
                out.entries_dropped += 1;
                out.rows_invalidated += n_new as u64;
                dirty.push(Dirty::All);
                continue;
            }
            let d = self.composite_dirty(&shape, delta, &old_relations, &dirty);
            let old_rel = old_relations[idx].as_ref().expect("checked above");
            // Patch only when the dirty set is small — `+2` slack so tiny
            // documents still exercise the patch path — and the cached form
            // is a materialised Sparse/Dense/Interval (symbolic forms
            // rebuild in O(1); Identity/Full rebuild via trivial kernels).
            let patched = match &d {
                Dirty::Rows(rows) if rows.len() <= n_new / 4 + 2 => old_rel
                    .as_eager()
                    .and_then(|r| self.patch_entry(r, &shape, rows, delta)),
                _ => None,
            };
            match patched {
                Some(rel) => {
                    let Dirty::Rows(rows) = &d else { unreachable!() };
                    out.rows_invalidated += rows.len() as u64;
                    out.entries_patched += 1;
                    self.relations[idx] = Some(LazyRel::eager(rel));
                    dirty.push(d);
                }
                None => {
                    out.rows_invalidated += n_new as u64;
                    match self.rebuild_composite(&shape) {
                        Ok(rel) => {
                            self.relations[idx] = Some(rel);
                            out.entries_rebuilt += 1;
                        }
                        Err(()) => {
                            self.relations[idx] = None;
                            out.entries_dropped += 1;
                        }
                    }
                    dirty.push(Dirty::All);
                }
            }
        }
        out
    }

    /// The relabel arm of [`MatrixStore::apply_edit`]: ids do not move, so
    /// an entry is stale only if `delta.labels` (old + new label, sorted)
    /// intersects its label footprint — computed bottom-up without walking
    /// any matrix.
    fn apply_relabel(&mut self, delta: &EditDelta, out: &mut EditApplyStats) {
        let n = self.domain as u64;
        let mut hit = vec![false; self.shapes.len()];
        for idx in 0..self.shapes.len() {
            hit[idx] = match &self.shapes[idx] {
                Shape::Step(_, NameTest::Name(l)) => delta.labels.binary_search(l).is_ok(),
                Shape::Step(_, NameTest::Wildcard) => false,
                Shape::Seq(a, b) | Shape::Union(a, b) => hit[a.index()] || hit[b.index()],
                Shape::Except(p) | Shape::Test(p) => hit[p.index()],
            };
            if self.relations[idx].is_none() {
                continue;
            }
            out.rows_total += n;
            if hit[idx] {
                let id = ExprId(idx as u32);
                self.relations[idx] = None;
                self.successors.remove(&id);
                self.lazy_rows.remove(&id);
                out.entries_dropped += 1;
                out.rows_invalidated += n;
            } else {
                out.entries_kept += 1;
            }
        }
    }

    /// Child ids of a composite shape (empty for steps).
    fn children_of(&self, shape: &Shape) -> Vec<ExprId> {
        match shape {
            Shape::Step(..) => Vec::new(),
            Shape::Seq(a, b) | Shape::Union(a, b) => vec![*a, *b],
            Shape::Except(p) | Shape::Test(p) => vec![*p],
        }
    }

    /// Propagate dirty rows through one operator, given the children's
    /// dirty sets, their *updated* relations (in `self`) and their *old*
    /// relations (for the deleted-route terms).
    fn composite_dirty(
        &self,
        shape: &Shape,
        delta: &EditDelta,
        old_relations: &[Option<Arc<LazyRel>>],
        dirty: &[Dirty],
    ) -> Dirty {
        match shape {
            Shape::Step(..) => unreachable!("steps are handled by the caller"),
            Shape::Union(a, b) => match (&dirty[a.index()], &dirty[b.index()]) {
                (Dirty::All, _) | (_, Dirty::All) => Dirty::All,
                (Dirty::Rows(da), Dirty::Rows(db)) => Dirty::Rows(merge_rows(da, db)),
            },
            Shape::Except(p) => {
                if delta.kind == EditKind::Insert {
                    // Every row of the complement gains the fresh columns.
                    return Dirty::All;
                }
                dirty[p.index()].clone()
            }
            Shape::Test(p) => {
                let base = match &dirty[p.index()] {
                    Dirty::All => return Dirty::All,
                    Dirty::Rows(r) => r.clone(),
                };
                self.with_deleted_routes(*p, delta, old_relations, base)
            }
            Shape::Seq(a, b) => {
                let da = match &dirty[a.index()] {
                    Dirty::All => return Dirty::All,
                    Dirty::Rows(r) => r,
                };
                let db = match &dirty[b.index()] {
                    Dirty::All => return Dirty::All,
                    Dirty::Rows(r) => r,
                };
                let mut rows = da.clone();
                if !db.is_empty() {
                    let a_new = self.relations[a.index()].as_ref().expect("children updated");
                    match a_new.as_eager() {
                        None => return Dirty::All,
                        Some(r) => rows = merge_rows(&rows, &rows_intersecting_cols(r, db)),
                    }
                }
                self.with_deleted_routes(*a, delta, old_relations, rows)
            }
        }
    }

    /// Under delete, widen `rows` by the survivors whose *old* `child` row
    /// reached into the deleted id range: the old product/test row counted
    /// columns contributed via those dead intermediates, and the clean-row
    /// remap would wrongly keep them.
    fn with_deleted_routes(
        &self,
        child: ExprId,
        delta: &EditDelta,
        old_relations: &[Option<Arc<LazyRel>>],
        rows: Vec<u32>,
    ) -> Dirty {
        if delta.kind != EditKind::Delete {
            return Dirty::Rows(rows);
        }
        let old = old_relations[child.index()].as_ref().expect("child was compiled");
        let Some(r) = old.as_eager() else {
            return Dirty::All;
        };
        let extra: Vec<u32> = rows_intersecting_range(r, delta.pos, delta.pos + delta.count)
            .into_iter()
            .filter_map(|u_old| delta.remap(u_old))
            .collect();
        // `remap` is monotone, so `extra` is still sorted.
        Dirty::Rows(merge_rows(&rows, &extra))
    }

    /// Recompute one row of a composite entry from its (already updated)
    /// children.  Returns sorted new-id columns.
    fn recompute_row(&self, shape: &Shape, u: u32) -> Vec<u32> {
        let child = |id: ExprId| {
            self.relations[id.index()]
                .as_ref()
                .expect("children update before parents")
        };
        let id = NodeId(u);
        match shape {
            Shape::Step(..) => unreachable!("step rows rebuild from the tree"),
            Shape::Seq(a, b) => {
                let (ra, rb) = (child(*a), child(*b));
                let mut out: Vec<u32> = Vec::new();
                for v in ra.row(id) {
                    out.extend(rb.row(v).into_iter().map(|w| w.0));
                }
                out.sort_unstable();
                out.dedup();
                out
            }
            Shape::Union(a, b) => {
                let ca: Vec<u32> = child(*a).row(id).into_iter().map(|v| v.0).collect();
                let cb: Vec<u32> = child(*b).row(id).into_iter().map(|v| v.0).collect();
                merge_rows(&ca, &cb)
            }
            Shape::Except(p) => {
                let inner = child(*p).row(id);
                let mut out = Vec::with_capacity(self.domain - inner.len());
                let mut next = 0u32;
                for v in inner {
                    out.extend(next..v.0);
                    next = v.0 + 1;
                }
                out.extend(next..self.domain as u32);
                out
            }
            Shape::Test(p) => {
                if child(*p).row_nonempty(id) {
                    vec![u]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Patch one materialised relation through the edit: clean rows are
    /// remapped from the old relation, dirty rows recomputed from the
    /// entry's children.  `None` bails to a rebuild (trivial forms, or an
    /// interval row whose image stops being contiguous).
    fn patch_entry(
        &self,
        old: &Relation,
        shape: &Shape,
        dirty_rows: &[u32],
        delta: &EditDelta,
    ) -> Option<Relation> {
        let n_new = self.domain;
        let n_old = delta.old_len;
        let is_dirty = |u: u32| dirty_rows.binary_search(&u).is_ok();
        match old {
            // Rebuilding Identity/Full runs trivial kernels; not worth a
            // row-wise patch.
            Relation::Identity(_) | Relation::Full(_) => None,
            Relation::Interval { rows, .. } => {
                let mut out: Vec<(u32, u32)> = Vec::with_capacity(n_new);
                for u in 0..n_new as u32 {
                    if is_dirty(u) {
                        let row = self.recompute_row(shape, u);
                        match row.len() {
                            0 => out.push((0, 0)),
                            len if row[len - 1] - row[0] + 1 == len as u32 => {
                                out.push((row[0], row[len - 1] + 1));
                            }
                            // The recomputed row is not contiguous: the
                            // entry no longer fits interval form.
                            _ => return None,
                        }
                    } else {
                        let u_old = delta.preimage(u).expect("clean rows have preimages");
                        let (lo, hi) = rows[u_old as usize];
                        out.push(remap_range(lo, hi, delta)?);
                    }
                }
                Some(Relation::Interval { n: n_new, rows: out }.compact())
            }
            Relation::Sparse(s) => {
                let mut rows: Vec<Vec<u32>> = Vec::with_capacity(n_new);
                for u in 0..n_new as u32 {
                    if is_dirty(u) {
                        rows.push(self.recompute_row(shape, u));
                    } else {
                        let u_old = delta.preimage(u).expect("clean rows have preimages");
                        rows.push(remap_cols(s.row(u_old as usize), delta));
                    }
                }
                Some(Relation::Sparse(SparseRows::from_rows(n_new, rows)).compact())
            }
            Relation::Dense(m) => {
                let mut out = NodeMatrix::try_empty(n_new).ok()?;
                for u in 0..n_new as u32 {
                    if is_dirty(u) {
                        for c in self.recompute_row(shape, u) {
                            out.set(NodeId(u), NodeId(c));
                        }
                    } else {
                        let u_old = delta.preimage(u).expect("clean rows have preimages");
                        let words =
                            remap_row_words(m.row_words(NodeId(u_old)), delta, n_old, n_new);
                        out.or_words_into_row(NodeId(u), &words);
                    }
                }
                Some(Relation::Dense(out).compact())
            }
        }
    }

    /// Recompile one composite entry from its (already updated) children.
    /// `Err` means a child is missing (dropped at capacity) or the kernels
    /// refused the result; the caller drops the entry.
    fn rebuild_composite(&mut self, shape: &Shape) -> Result<Arc<LazyRel>, ()> {
        fn child(store: &MatrixStore, id: ExprId) -> Result<Arc<LazyRel>, ()> {
            store.relations[id.index()].as_ref().map(Arc::clone).ok_or(())
        }
        let mode = self.mode;
        match shape {
            Shape::Step(..) => unreachable!("steps rebuild from the tree"),
            Shape::Seq(a, b) => {
                let (ra, rb) = (child(self, *a)?, child(self, *b)?);
                LazyRel::product(&ra, &rb, mode, &mut self.kernels).map_err(|_| ())
            }
            Shape::Union(a, b) => {
                let (ra, rb) = (child(self, *a)?, child(self, *b)?);
                LazyRel::union(&ra, &rb, mode, &mut self.kernels).map_err(|_| ())
            }
            Shape::Except(p) => {
                let rp = child(self, *p)?;
                LazyRel::complement(&rp, mode, &mut self.kernels).map_err(|_| ())
            }
            Shape::Test(p) => {
                let rp = child(self, *p)?;
                Ok(LazyRel::diagonal_filter(&rp, mode, &mut self.kernels))
            }
        }
    }
}

/// A thread-safe, sharded wrapper around [`MatrixStore`], bound to the tree
/// snapshot it serves: the cache design behind `ppl_xpath::Session`.
///
/// Plain axis-step atoms never enter the shards: [`successor_source`]
/// answers them with a [`StepView`] over the snapshot, which takes no lock,
/// no slot and no budget bytes, and needs no patching when the document is
/// edited.  Everything else — composite atoms, including the steps inside
/// them — compiles through the shards.
///
/// Every evaluation routes to one of `shards` independent single-threaded
/// stores by the hash of the evaluated expression, and only that shard's
/// `Mutex` is held while compiling.  The unit of caching in the Theorem 1
/// pipeline is the PPLbin *atom* (queries are answered atom by atom), and
/// equal atoms always hash to the same shard, so the sharing that matters —
/// the same atom re-requested by later queries, possibly from other
/// threads — is always a cache hit.  What sharding gives up is *cross-shard*
/// subterm sharing: two distinct atoms that happen to contain a common
/// subterm may compile it once per shard.  That duplication is bounded by
/// the shard count and buys lock granularity: threads serving disjoint
/// atoms never contend.
///
/// All methods take `&self`; the type is `Send + Sync` and is meant to be
/// shared behind an `Arc`.
///
/// [`successor_source`]: SharedMatrixStore::successor_source
#[derive(Debug)]
pub struct SharedMatrixStore {
    tree: Arc<Tree>,
    shards: Vec<Mutex<MatrixStore>>,
}

/// Default shard count of a [`SharedMatrixStore`].
pub const DEFAULT_STORE_SHARDS: usize = 8;

impl SharedMatrixStore {
    /// An empty store over `tree`, with the default shard count and kernel
    /// mode.
    pub fn new(tree: Arc<Tree>) -> SharedMatrixStore {
        Self::with_shards_and_mode(tree, DEFAULT_STORE_SHARDS, KernelMode::default())
    }

    /// A store with an explicit kernel mode.
    pub fn with_mode(tree: Arc<Tree>, mode: KernelMode) -> SharedMatrixStore {
        Self::with_shards_and_mode(tree, DEFAULT_STORE_SHARDS, mode)
    }

    /// A store with explicit shard count and kernel mode.  `shards` is
    /// clamped to at least 1.
    pub fn with_shards_and_mode(
        tree: Arc<Tree>,
        shards: usize,
        mode: KernelMode,
    ) -> SharedMatrixStore {
        let domain = tree.len();
        SharedMatrixStore {
            tree,
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(MatrixStore::with_mode(domain, mode)))
                .collect(),
        }
    }

    /// The tree snapshot the store serves.
    pub fn tree(&self) -> &Arc<Tree> {
        &self.tree
    }

    /// The node count of the served tree.
    pub fn domain(&self) -> usize {
        self.tree.len()
    }

    /// Number of independent shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lock the shard responsible for `expr`, applying the poison policy of
    /// [`SharedMatrixStore::recover_shard`].
    fn shard(&self, expr: &BinExpr) -> MutexGuard<'_, MatrixStore> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        expr.hash(&mut hasher);
        let shard = (hasher.finish() as usize) % self.shards.len();
        match self.shards[shard].lock() {
            Ok(guard) => guard,
            Err(poisoned) => Self::recover_shard(&self.shards[shard], poisoned),
        }
    }

    fn each_shard<R>(&self, mut f: impl FnMut(&mut MatrixStore) -> R) -> Vec<R> {
        self.shards
            .iter()
            .map(|s| {
                let mut guard = match s.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => Self::recover_shard(s, poisoned),
                };
                f(&mut guard)
            })
            .collect()
    }

    /// Poison policy: a panicking evaluation may have left a half-built
    /// entry (a reserved slot whose relation never landed) in the shard it
    /// held, so the shard's cache is cleared and the poison flag reset.
    /// Losing one shard's cache costs recompilation; trusting a mid-update
    /// cache — or killing every worker that touches the shard next, which
    /// is what `lock().unwrap()` did before PR 9 — is far worse.
    fn recover_shard<'a>(
        mutex: &'a Mutex<MatrixStore>,
        poisoned: xpath_sync::PoisonError<MutexGuard<'a, MatrixStore>>,
    ) -> MutexGuard<'a, MatrixStore> {
        let mut guard = poisoned.into_inner();
        guard.clear();
        mutex.clear_poison();
        guard
    }

    /// Evaluate a PPLbin expression to a dense [`NodeMatrix`] through the
    /// cache (see [`MatrixStore::eval`]).
    pub fn eval(&self, expr: &BinExpr) -> NodeMatrix {
        self.shard(expr).eval(&self.tree, expr)
    }

    /// The Prop. 10 successor lists of `expr`, shared behind an `Arc` (see
    /// [`MatrixStore::successor_lists`]).  The shard lock is held only while
    /// compiling; callers answer from the returned lists lock-free.
    pub fn successor_lists(&self, expr: &BinExpr) -> Arc<Vec<Vec<NodeId>>> {
        self.shard(expr).successor_lists(&self.tree, expr)
    }

    /// The Prop. 10 oracle rows of `expr`.  A plain axis step is a
    /// [`StepView`] over the snapshot: no lock, no compilation, nothing
    /// cached.  Any other expression compiles through its shard (see
    /// [`MatrixStore::successor_source`]); the lock is held only while
    /// compiling — lazy rows materialise lock-free behind the handle.
    pub fn successor_source(&self, expr: &BinExpr) -> Result<SuccessorSource, CapacityError> {
        if let BinExpr::Step(axis, test) = expr {
            return Ok(SuccessorSource::Step(StepView::new(
                Arc::clone(&self.tree),
                *axis,
                test,
            )));
        }
        self.shard(expr).successor_source(&self.tree, expr)
    }

    /// Aggregate cache counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for stats in self.each_shard(|s| s.stats()) {
            out.merge(&stats);
        }
        out
    }

    /// Aggregate per-kernel dispatch counters across all shards.
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats().kernels
    }

    /// Approximate heap occupancy across all shards, in bytes (see
    /// [`MatrixStore::approx_bytes`]).  The snapshot itself is the caller's
    /// to account for.
    pub fn approx_bytes(&self) -> usize {
        self.each_shard(|s| s.approx_bytes()).iter().sum()
    }

    /// The kernel mode shards compile with (uniform across shards).
    pub fn mode(&self) -> KernelMode {
        self.shards[0]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .mode()
    }

    /// Switch every shard's kernel mode; already-compiled relations are
    /// kept.
    pub fn set_mode(&self, mode: KernelMode) {
        self.each_shard(|s| s.set_mode(mode));
    }

    /// Drop every cached relation and counter in every shard.
    pub fn clear(&self) {
        self.each_shard(|s| s.clear());
    }

    /// A copy of this store bound to `new_tree`, the snapshot `delta`
    /// produced from this one: every shard is cloned and carried through
    /// the edit with [`MatrixStore::apply_edit`], and step views read the
    /// new snapshot.  The original is left untouched (each shard lock is
    /// held only while cloning), so in-flight readers of the old store
    /// never observe a half-applied edit — the serving layer swaps the
    /// returned store in atomically and lets old snapshots drain.
    pub fn fork_edited(
        &self,
        new_tree: Arc<Tree>,
        delta: &EditDelta,
    ) -> (SharedMatrixStore, EditApplyStats) {
        let mut stats = EditApplyStats::default();
        let shards = self.each_shard(|s| {
            let mut forked = s.clone();
            stats.merge(&forked.apply_edit(&new_tree, delta));
            Mutex::new(forked)
        });
        (
            SharedMatrixStore {
                tree: new_tree,
                shards,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::answer_binary;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;

    fn tree() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title),paper(title))")
            .unwrap()
    }

    fn bin(src: &str) -> BinExpr {
        from_variable_free_path(&parse_path(src).unwrap()).unwrap()
    }

    #[test]
    fn cached_evaluation_matches_cold_evaluation() {
        let t = tree();
        let mut store = MatrixStore::new(t.len());
        for src in [
            "child::book/child::author",
            "descendant::* except child::*",
            "child::book[child::author]/child::title",
            "(child::book union child::paper)/child::title",
            "child::book/child::author", // repeated on purpose
        ] {
            let b = bin(src);
            assert_eq!(store.eval(&t, &b), answer_binary(&t, &b), "{src}");
        }
    }

    #[test]
    fn repeated_evaluation_hits_the_cache() {
        let t = tree();
        let mut store = MatrixStore::new(t.len());
        let b = bin("child::book/child::author");
        store.eval(&t, &b);
        let first = store.stats();
        assert_eq!(first.hits, 0);
        assert_eq!(first.misses, 3); // two steps + the composition
        store.eval(&t, &b);
        let second = store.stats();
        assert_eq!(second.misses, first.misses, "no recompilation");
        assert!(second.hits > first.hits);
        assert_eq!(second.lookups(), 4);
    }

    #[test]
    fn shared_subterms_are_hash_consed_across_queries() {
        let t = tree();
        let mut store = MatrixStore::new(t.len());
        store.eval(&t, &bin("child::book/child::author"));
        let before = store.stats();
        // A different query sharing the `child::book` step: only the new
        // step and the new composition are compiled.
        store.eval(&t, &bin("child::book/child::title"));
        let after = store.stats();
        assert_eq!(after.misses, before.misses + 2);
        assert!(after.hits > before.hits, "child::book must be reused");
        assert_eq!(after.interned, before.interned + 2);
    }

    #[test]
    fn interning_is_structural() {
        let mut store = MatrixStore::new(1);
        let a = store.intern(&bin("child::a/child::b"));
        let b = store.intern(&bin("child::a/child::b"));
        let c = store.intern(&bin("child::b/child::a"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.index(), store.intern(&bin("child::a/child::b")).index());
    }

    #[test]
    fn successor_lists_match_matrix_rows_and_are_shared() {
        let t = tree();
        let mut store = MatrixStore::new(t.len());
        let b = bin("descendant::title");
        let lists = store.successor_lists(&t, &b);
        let m = answer_binary(&t, &b);
        for u in t.nodes() {
            let expected: Vec<NodeId> = m.successors(u).collect();
            assert_eq!(lists[u.index()], expected);
        }
        let again = store.successor_lists(&t, &b);
        assert!(Arc::ptr_eq(&lists, &again), "lists must be shared, not rebuilt");
    }

    #[test]
    fn shared_store_matches_cold_and_is_queried_concurrently() {
        let t = tree();
        let store = SharedMatrixStore::new(Arc::new(t.clone()));
        let exprs: Vec<BinExpr> = [
            "child::book/child::author",
            "descendant::* except child::*",
            "(child::book union child::paper)/child::title",
            "descendant::title",
        ]
        .iter()
        .map(|s| bin(s))
        .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for b in &exprs {
                        assert_eq!(store.eval(b), answer_binary(&t, b));
                        let lists = store.successor_lists(b);
                        assert_eq!(lists.len(), t.len());
                    }
                });
            }
        });
        let stats = store.stats();
        assert!(stats.hits > 0, "threads must share compiled atoms: {stats:?}");
        assert!(stats.compiled > 0);
        store.clear();
        assert_eq!(store.stats().lookups(), 0);
        assert_eq!(store.domain(), t.len());
        assert!(store.shard_count() >= 1);
    }

    /// PR 9 poison policy: a panic while a shard lock is held clears that
    /// shard's cache and resets the poison flag — the next caller serves a
    /// correct answer from a cold cache instead of dying on `unwrap()`.
    #[test]
    fn poisoned_shard_clears_its_cache_and_keeps_serving() {
        let t = tree();
        let store =
            SharedMatrixStore::with_shards_and_mode(Arc::new(t.clone()), 1, KernelMode::default());
        let b = bin("child::book/child::author");
        store.eval(&b);
        assert!(store.stats().lookups() > 0, "warm cache before the panic");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.each_shard(|_| panic!("evaluation blew up while holding the shard"));
        }));
        assert!(caught.is_err());
        // First touch after the poison recovers the shard: cache cleared.
        assert_eq!(store.stats().lookups(), 0, "clear-on-poison drops the cache");
        // And the store keeps answering, recompiling from scratch.
        assert_eq!(store.eval(&b), answer_binary(&t, &b));
        assert_eq!(store.eval(&b), answer_binary(&t, &b));
        assert!(store.stats().hits > 0, "cache rebuilds after recovery");
    }

    #[test]
    fn shared_store_mode_switch_applies_to_every_shard() {
        let store = SharedMatrixStore::with_mode(Arc::new(tree()), KernelMode::Dense);
        assert_eq!(store.mode(), KernelMode::Dense);
        store.set_mode(KernelMode::Adaptive);
        assert_eq!(store.mode(), KernelMode::Adaptive);
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let t = tree();
        let mut store = MatrixStore::new(t.len());
        store.eval(&t, &bin("child::*"));
        assert!(store.stats().compiled > 0);
        store.clear();
        assert_eq!(store.stats(), CacheStats::default());
        assert_eq!(store.domain(), t.len());
    }

    #[test]
    fn approx_bytes_tracks_compiled_state_and_clears() {
        let store = SharedMatrixStore::new(Arc::new(tree()));
        assert_eq!(store.approx_bytes(), 0, "empty stores occupy nothing");
        store.eval(&bin("descendant::* except child::*"));
        let after_eval = store.approx_bytes();
        assert!(after_eval > 0, "compiled relations must be accounted");
        store.successor_lists(&bin("descendant::* except child::*"));
        assert!(
            store.approx_bytes() > after_eval,
            "successor lists must add occupancy"
        );
        store.clear();
        assert_eq!(store.approx_bytes(), 0, "clear() must release the accounting");
    }

    #[test]
    #[should_panic(expected = "MatrixStore was created for")]
    fn domain_mismatch_is_rejected() {
        let t = tree();
        let mut store = MatrixStore::new(t.len() + 1);
        store.eval(&t, &bin("child::*"));
    }

    /// The query mix the edit tests pin: every operator (`Seq`, `Union`,
    /// `Except`, `Test`), every axis family, shared subterms.
    const EDIT_QUERIES: &[&str] = &[
        "child::book/child::author",
        "descendant::title",
        "descendant::* except child::*",
        "child::book[child::author]/child::title",
        "(child::book union child::paper)/child::title",
        "following-sibling::*/child::title",
        "parent::*/descendant::author",
        "self::*[descendant::author]",
    ];

    fn assert_store_matches_cold(store: &mut MatrixStore, t: &Tree, ctx: &str) {
        let mut cold = MatrixStore::with_mode(t.len(), store.mode());
        for src in EDIT_QUERIES {
            let b = bin(src);
            assert_eq!(
                store.eval(t, &b),
                cold.eval(t, &b),
                "{ctx}: {src} diverged from a cold compile"
            );
        }
    }

    /// `apply_edit` must leave the store indistinguishable from a cold
    /// store compiled on the post-edit tree — across every kernel mode and
    /// all three edit kinds.
    #[test]
    fn apply_edit_matches_cold_recompile_for_every_mode_and_edit_kind() {
        for mode in [
            KernelMode::Dense,
            KernelMode::Adaptive,
            KernelMode::AdaptiveThreaded,
            KernelMode::Lazy,
        ] {
            let t0 = tree();
            let mut store = MatrixStore::with_mode(t0.len(), mode);
            for src in EDIT_QUERIES {
                store.eval(&t0, &bin(src));
            }

            // Insert a subtree under the second book.
            let sub = Tree::from_terms("note(author,ref(title))").unwrap();
            let book2 = t0.nodes_with_label_str("book")[1];
            let (t1, delta) = t0.insert_subtree(book2, 1, &sub).unwrap();
            let stats = store.apply_edit(&t1, &delta);
            assert_eq!(stats.entries_dropped, 0, "{mode:?}: nothing at capacity");
            assert!(stats.rows_total > 0);
            assert_store_matches_cold(&mut store, &t1, &format!("{mode:?} insert"));

            // Relabel a title to a name outside the query mix's footprint…
            let title = t1.nodes_with_label_str("title")[0];
            let (t2, delta) = t1.relabel(title, "subtitle").unwrap();
            let stats = store.apply_edit(&t2, &delta);
            assert!(
                stats.entries_kept > 0,
                "{mode:?}: entries outside the label footprint must survive a relabel"
            );
            assert_store_matches_cold(&mut store, &t2, &format!("{mode:?} relabel"));

            // …and delete the first book's whole subtree.
            let book1 = t2.nodes_with_label_str("book")[0];
            let (t3, delta) = t2.delete_subtree(book1).unwrap();
            store.apply_edit(&t3, &delta);
            assert_store_matches_cold(&mut store, &t3, &format!("{mode:?} delete"));
            assert_eq!(store.domain(), t3.len());
        }
    }

    /// On a larger document a leaf-local edit must patch entries rather
    /// than rebuild everything: the invalidated-row count stays far below
    /// the total.
    #[test]
    fn leaf_edits_on_a_wide_tree_patch_instead_of_rebuilding() {
        let wide = format!(
            "bib({})",
            (0..120)
                .map(|_| "book(author,title)")
                .collect::<Vec<_>>()
                .join(",")
        );
        let t0 = Tree::from_terms(&wide).unwrap();
        let mut store = MatrixStore::new(t0.len());
        for src in ["child::book/child::author", "descendant::title"] {
            store.eval(&t0, &bin(src));
        }
        let sub = Tree::from_terms("title").unwrap();
        let book = t0.nodes_with_label_str("book")[60];
        let (t1, delta) = t0.insert_subtree(book, 2, &sub).unwrap();
        let stats = store.apply_edit(&t1, &delta);
        assert!(stats.entries_patched > 0, "{stats:?}");
        assert!(
            stats.rows_invalidated * 10 < stats.rows_total,
            "a leaf insert must invalidate few rows: {stats:?}"
        );
        assert_store_matches_cold(&mut store, &t1, "wide-tree insert");
    }

    /// `fork_edited` leaves the original store intact and answering over
    /// the old tree, while the fork answers over the new one.
    #[test]
    fn fork_edited_preserves_the_original_snapshot() {
        let t0 = Arc::new(tree());
        let store = SharedMatrixStore::new(Arc::clone(&t0));
        let b = bin("child::book/child::author");
        let before = store.eval(&b);

        let sub = Tree::from_terms("book(author)").unwrap();
        let (t1, delta) = t0.insert_subtree(t0.root(), 0, &sub).unwrap();
        let t1 = Arc::new(t1);
        let (forked, stats) = store.fork_edited(Arc::clone(&t1), &delta);
        assert!(stats.rows_total > 0);
        assert_eq!(forked.domain(), t1.len());
        assert!(Arc::ptr_eq(forked.tree(), &t1));

        // Old snapshot still consistent…
        assert_eq!(store.eval(&b), before);
        assert_eq!(store.domain(), t0.len());
        // …and the fork agrees with a cold compile on the new tree.
        assert_eq!(forked.eval(&b), answer_binary(&t1, &b));
    }
}
