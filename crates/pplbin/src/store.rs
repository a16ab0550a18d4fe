//! Amortized matrix compilation: a per-document cache of compiled PPLbin
//! matrices.
//!
//! Theorem 1's bound `O(|P|·|t|³ + n·|P|·|t|²·|A|)` is dominated by the
//! `|t|³` matrix compilation of the PPLbin atoms, yet that work depends only
//! on the *(tree, expression)* pair — never on the query's variables or
//! output.  A [`MatrixStore`] therefore memoises every compiled subterm so a
//! workload of many queries over one document pays each `|t|³` product once:
//!
//! * **steps** — the `M_{A::N}` matrices of `step_matrix`, interned like
//!   any other subterm (a [`SharedMatrixStore`] serves step *atoms* as
//!   [`StepView`]s and never compiles them);
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
//!   document can answer queries from many threads at once.  It serves each
//!   atom by its [`AtomClass`]: plain steps as [`StepView`]s over the
//!   snapshot (nothing cached), `D₁/axis::name/D₂` atoms as
//!   [`FilteredStepView`]s over two cached node sets of |t| bits, and only
//!   the rest as compiled relations.  `ppl_xpath::Session` owns one and
//!   threads it through every cached entry point.
//!
//! [`AtomClass`]: crate::view::AtomClass

use crate::eval::step_relation_in_mode;
use crate::lazy::{LazyRel, LazyRows};
use crate::matrix::{CapacityError, NodeMatrix};
use crate::relation::{KernelMode, KernelStats, Relation};
use crate::view::{FilteredStep, FilteredStepView, StepView};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xpath_ast::{BinExpr, NameTest};
use xpath_sync::{Mutex, MutexGuard};
use xpath_tree::{Axis, EditDelta, EditKind, NodeId, NodeSet, Tree};

/// Where a consumer of Prop. 10 successor rows pulls them from: an eagerly
/// materialised table (`lists[u]` for every `u`, the pre-lazy behaviour),
/// an on-demand [`LazyRows`] cache that computes rows the first time the
/// answering phase asks for them, or — for a plain axis step — a
/// [`StepView`] reading rows straight off the tree snapshot, or — for a
/// step between diagonals — a [`FilteredStepView`] over two node sets.
/// Cloning is an `Arc` bump or a few in every case.
#[derive(Debug, Clone)]
pub enum SuccessorSource {
    /// All `n` rows materialised up front (eager kernel modes).
    Eager(Arc<Vec<Vec<NodeId>>>),
    /// Rows computed and memoised on first pull ([`KernelMode::Lazy`]).
    Lazy(Arc<LazyRows>),
    /// Rows of an axis step, read from the tree (no compilation, no cache).
    Step(StepView),
    /// Rows of `D₁/axis::name/D₂`, read from the tree and two node sets.
    Filtered(FilteredStepView),
}

impl SuccessorSource {
    /// Domain size (number of rows).
    pub fn len(&self) -> usize {
        match self {
            SuccessorSource::Eager(lists) => lists.len(),
            SuccessorSource::Lazy(rows) => rows.len(),
            SuccessorSource::Step(view) => view.len(),
            SuccessorSource::Filtered(view) => view.len(),
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
            SuccessorSource::Filtered(view) => view.with_row(u, f),
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
            SuccessorSource::Filtered(view) => view.row_nonempty(u),
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
            SuccessorSource::Filtered(view) => view.row_any(u, pred),
        }
    }

    /// The pre-image `pre(b, S) = {u | ∃v ∈ S. (u, v) ∈ ⟦b⟧}`: the nodes
    /// whose row meets `set`.  Views answer set-at-a-time, in one axis pass
    /// over the tree (Section 4), a filtered view as `D₁ ∩ pre(step, D₂ ∩
    /// S)`; compiled rows are swept with [`SuccessorSource::row_any`], which
    /// stops at a row's first hit and never materialises a lazy row.
    pub fn pre_image(&self, set: &NodeSet) -> NodeSet {
        match self {
            SuccessorSource::Step(view) => view.pre_image(set),
            SuccessorSource::Filtered(view) => view.pre_image(set),
            SuccessorSource::Eager(_) | SuccessorSource::Lazy(_) => {
                let n = self.len();
                NodeSet::from_iter(
                    n,
                    (0..n as u32)
                        .map(NodeId)
                        .filter(|&u| self.row_any(u, |v| set.contains(v))),
                )
            }
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
    /// Node sets retained for filtered-view atoms (`D₁` and `D₂`, each
    /// |t| bits).
    pub sets: usize,
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
            sets,
            kernels,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.interned += interned;
        self.compiled += compiled;
        self.sets += sets;
        self.kernels.merge(kernels);
    }
}

/// What carrying a store through one tree edit did to its compiled
/// entries ([`SharedMatrixStore::fork_edited`]), for the serving layer's
/// `rows_invalidated` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditApplyStats {
    /// Entries kept verbatim (relabel outside the entry's label footprint).
    pub entries_kept: usize,
    /// Entries dropped (recompiled on demand later).
    pub entries_dropped: usize,
    /// Rows of the dropped entries.
    pub rows_invalidated: u64,
    /// Total rows of all entries that were compiled when the edit arrived.
    pub rows_total: u64,
}

impl EditApplyStats {
    /// Accumulate another counter set (aggregating the shards of a
    /// [`SharedMatrixStore`]).
    pub fn merge(&mut self, other: &EditApplyStats) {
        let EditApplyStats {
            entries_kept,
            entries_dropped,
            rows_invalidated,
            rows_total,
        } = *other;
        self.entries_kept += entries_kept;
        self.entries_dropped += entries_dropped;
        self.rows_invalidated += rows_invalidated;
        self.rows_total += rows_total;
    }
}

/// A memoising compiler of PPLbin expressions over one fixed document tree.
#[derive(Debug, Default)]
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
    /// they can cross thread boundaries under a [`SharedMatrixStore`]),
    /// each with the byte size it was charged when it was built.
    successors: HashMap<ExprId, (SuccessorTable, usize)>,
    /// On-demand row caches handed out as [`SuccessorSource::Lazy`] under
    /// [`KernelMode::Lazy`], memoised per id so repeated answering over the
    /// same atom shares materialised rows.
    lazy_rows: HashMap<ExprId, Arc<LazyRows>>,
    /// The node sets of each filtered-view atom served so far, by the
    /// atom's id ([`SharedMatrixStore::successor_source`]).
    filters: HashMap<ExprId, FilterSets>,
    /// Which kernels the store compiles with.
    mode: KernelMode,
    /// Per-kernel dispatch counters across all compilations.
    kernels: KernelStats,
    hits: u64,
    misses: u64,
    /// Running occupancy of what the store holds itself: compiled
    /// relations, successor tables and lazy row tables.  Raised where an
    /// entry lands, lowered where it goes, so reading it walks nothing.
    bytes: usize,
    /// Rows materialised by the store's lazy row caches, charged by the
    /// caches themselves (they materialise rows without the store's lock).
    lazy_charge: Arc<AtomicUsize>,
}

/// A Prop. 10 successor table: `lists[u]` for every node `u`.
type SuccessorTable = Arc<Vec<Vec<NodeId>>>;

/// The `D₁` and `D₂` node sets of one filtered-view atom ([`FilteredStep`]).
#[derive(Debug, Clone)]
struct FilterSets {
    sources: Option<Arc<NodeSet>>,
    targets: Option<Arc<NodeSet>>,
}

impl FilterSets {
    /// How many node sets the entry holds.
    fn count(&self) -> usize {
        usize::from(self.sources.is_some()) + usize::from(self.targets.is_some())
    }

    /// Bytes charged: ⌈|t|/64⌉·8 per set.
    fn bytes(&self, domain: usize) -> usize {
        self.count() * domain.div_ceil(64) * std::mem::size_of::<u64>()
    }
}

/// Bytes charged for a Prop. 10 successor table.
fn table_bytes(lists: &[Vec<NodeId>]) -> usize {
    lists
        .iter()
        .map(|row| std::mem::size_of::<Vec<NodeId>>() + row.len() * std::mem::size_of::<NodeId>())
        .sum()
}

/// A copy shares every compiled relation and successor table (`Arc`s) but
/// no lazy row cache: those charge their rows to the counter of the store
/// that made them, so the copy starts without any and re-derives them on
/// first pull, charging its own counter.
impl Clone for MatrixStore {
    fn clone(&self) -> MatrixStore {
        let lazy_tables: usize = self.lazy_rows.values().map(|r| r.table_bytes()).sum();
        MatrixStore {
            domain: self.domain,
            ids: self.ids.clone(),
            shapes: self.shapes.clone(),
            relations: self.relations.clone(),
            successors: self.successors.clone(),
            lazy_rows: HashMap::new(),
            filters: self.filters.clone(),
            mode: self.mode,
            kernels: self.kernels,
            hits: self.hits,
            misses: self.misses,
            bytes: self.bytes - lazy_tables,
            lazy_charge: Arc::default(),
        }
    }
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
            sets: self.filters.values().map(FilterSets::count).sum(),
            kernels: self.kernels,
        }
    }

    /// Per-kernel dispatch counters only.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernels
    }

    /// Approximate heap occupancy of the cached state, in bytes: compiled
    /// relations (symbolic forms charge their eager leaves, not the n² they
    /// defer), Prop. 10 successor lists, filtered-view node sets, and
    /// exactly the lazy rows that have materialised so far (hash-consing
    /// table overhead is ignored — it is dwarfed by the matrices it
    /// indexes).  The corpus layer charges this
    /// against its session-pool memory budget.
    ///
    /// O(1): a running count kept as entries land and go, plus the counter
    /// the lazy row caches charge.  The unit tests check it against a sum
    /// that walks every entry and row.
    pub fn approx_bytes(&self) -> usize {
        self.bytes + self.lazy_charge.load(Ordering::Relaxed)
    }

    /// [`MatrixStore::approx_bytes`] recounted from scratch by walking every
    /// entry and every cached successor row: the oracle the running count
    /// is tested against.
    #[cfg(test)]
    fn recount_bytes(&self) -> usize {
        let relations: usize = self
            .relations
            .iter()
            .flatten()
            .map(|r| r.approx_bytes())
            .sum();
        let lists: usize = self
            .successors
            .values()
            .map(|(lists, _)| table_bytes(lists))
            .sum();
        let lazy: usize = self.lazy_rows.values().map(|r| r.cached_bytes()).sum();
        let sets: usize = self.filters.values().map(|f| f.bytes(self.domain)).sum();
        relations + lists + lazy + sets
    }

    /// Drop every lazy row cache, taking back what each charged.
    fn drop_lazy_rows(&mut self) {
        for rows in self.lazy_rows.values() {
            rows.detach();
            self.bytes -= rows.table_bytes();
        }
        self.lazy_rows.clear();
    }

    /// Drop every cached relation and counter (the hash-consing table is
    /// cleared too); the kernel mode is kept.
    pub fn clear(&mut self) {
        self.drop_lazy_rows();
        self.ids.clear();
        self.shapes.clear();
        self.relations.clear();
        self.successors.clear();
        self.filters.clear();
        self.kernels = KernelStats::default();
        self.hits = 0;
        self.misses = 0;
        self.bytes = 0;
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
        self.bytes += r.approx_bytes();
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
        Ok(Arc::clone(
            self.relations[id.index()].as_ref().expect("ensured"),
        ))
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
        if let Some((lists, _)) = self.successors.get(&id) {
            return Ok(Arc::clone(lists));
        }
        let r = self.relations[id.index()].as_ref().expect("ensured");
        let lists: Vec<Vec<NodeId>> = (0..self.domain).map(|u| r.row(NodeId(u as u32))).collect();
        let bytes = table_bytes(&lists);
        let rc = Arc::new(lists);
        self.bytes += bytes;
        self.successors.insert(id, (Arc::clone(&rc), bytes));
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
            return Ok(SuccessorSource::Eager(
                self.try_successor_lists(tree, expr)?,
            ));
        }
        self.check_tree(tree);
        let id = self.intern(expr);
        self.try_ensure(tree, id)?;
        if let Some(rows) = self.lazy_rows.get(&id) {
            return Ok(SuccessorSource::Lazy(Arc::clone(rows)));
        }
        let rel = Arc::clone(self.relations[id.index()].as_ref().expect("ensured"));
        let rows = Arc::new(LazyRows::charged_to(rel, Arc::clone(&self.lazy_charge)));
        self.bytes += rows.table_bytes();
        self.lazy_rows.insert(id, Arc::clone(&rows));
        Ok(SuccessorSource::Lazy(rows))
    }

    /// The node sets of the filtered-view atom `expr` (taken apart as
    /// `step`), computed set-at-a-time on first request and cached by the
    /// atom's id.  A domain outside the set fragment compiles through this
    /// store's relations (see [`crate::corexpath1::pre_set`]).
    fn filter_sets(
        &mut self,
        tree: &Tree,
        expr: &BinExpr,
        step: &FilteredStep<'_>,
    ) -> Result<FilterSets, CapacityError> {
        self.check_tree(tree);
        let id = self.intern(expr);
        if let Some(sets) = self.filters.get(&id) {
            self.hits += 1;
            return Ok(sets.clone());
        }
        self.misses += 1;
        let (sources, targets) = step.node_sets(tree, &mut |sub, set| {
            let rel = self.try_eval_lazy(tree, sub)?;
            Ok(NodeSet::from_iter(
                tree.len(),
                tree.nodes()
                    .filter(|&u| rel.row_any(u, &mut |v| set.contains(v))),
            ))
        })?;
        let sets = FilterSets {
            sources: sources.map(Arc::new),
            targets: targets.map(Arc::new),
        };
        self.bytes += sets.bytes(self.domain);
        self.filters.insert(id, sets.clone());
        Ok(sets)
    }

    /// Carry the cache through a relabel of the tree it was compiled on.
    ///
    /// Node ids do not move, so an entry is stale only if `delta.labels`
    /// (old and new label, sorted) meets its label footprint — computed
    /// bottom-up without walking any matrix.  Those entries are dropped
    /// (recompiled on demand); every other entry is kept verbatim.
    /// Structural edits shift ids and have no counterpart here:
    /// [`SharedMatrixStore::fork_edited`] answers them with an empty store.
    pub fn apply_relabel(&mut self, delta: &EditDelta) -> EditApplyStats {
        assert_eq!(
            delta.kind,
            EditKind::Relabel,
            "apply_relabel: not a relabel"
        );
        assert_eq!(
            delta.old_len, self.domain,
            "apply_relabel: delta starts from a {}-node tree, store holds {}",
            delta.old_len, self.domain
        );
        let mut out = EditApplyStats::default();
        let n = self.domain as u64;
        let mut hit = vec![false; self.shapes.len()];
        for idx in 0..self.shapes.len() {
            hit[idx] = match &self.shapes[idx] {
                Shape::Step(_, NameTest::Name(l)) => delta.labels.binary_search(l).is_ok(),
                Shape::Step(_, NameTest::Wildcard) => false,
                Shape::Seq(a, b) | Shape::Union(a, b) => hit[a.index()] || hit[b.index()],
                Shape::Except(p) | Shape::Test(p) => hit[p.index()],
            };
            let id = ExprId(idx as u32);
            if hit[idx] {
                if let Some(sets) = self.filters.remove(&id) {
                    self.bytes -= sets.bytes(self.domain);
                    out.entries_dropped += 1;
                    out.rows_total += n;
                    out.rows_invalidated += n;
                }
            } else if self.filters.contains_key(&id) {
                out.entries_kept += 1;
                out.rows_total += n;
            }
            if self.relations[idx].is_none() {
                continue;
            }
            out.rows_total += n;
            if hit[idx] {
                if let Some(r) = self.relations[idx].take() {
                    self.bytes -= r.approx_bytes();
                }
                if let Some((_, bytes)) = self.successors.remove(&id) {
                    self.bytes -= bytes;
                }
                if let Some(rows) = self.lazy_rows.remove(&id) {
                    rows.detach();
                    self.bytes -= rows.table_bytes();
                }
                out.entries_dropped += 1;
                out.rows_invalidated += n;
            } else {
                out.entries_kept += 1;
            }
        }
        out
    }
}

/// A thread-safe, sharded wrapper around [`MatrixStore`], bound to the tree
/// snapshot it serves: the cache design behind `ppl_xpath::Session`.
///
/// [`successor_source`] serves each atom by its [`AtomClass`]:
///
/// * a plain axis step never enters the shards: it is a [`StepView`] over
///   the snapshot, which takes no lock, no slot and no budget bytes, and
///   needs no patching when the document is edited;
/// * a `D₁/axis::name/D₂` atom is a [`FilteredStepView`]: its shard caches
///   the two node sets, charged ⌈|t|/64⌉·8 bytes each, and builds no
///   matrix unless a `[P]` in it lies outside the set fragment;
/// * everything else — including the steps inside it — compiles through
///   the shards (Theorem 2).
///
/// [`eval`](SharedMatrixStore::eval) and
/// [`successor_lists`](SharedMatrixStore::successor_lists) compile every
/// expression to a relation, whatever its class.
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
/// Occupancy is read without any lock: every shard republishes its running
/// count to an atomic whenever its lock is released, and its lazy row
/// caches charge their rows to a counter shared with the store, so
/// [`approx_bytes`] never waits for a shard that is compiling.
///
/// All methods take `&self`; the type is `Send + Sync` and is meant to be
/// shared behind an `Arc`.
///
/// [`successor_source`]: SharedMatrixStore::successor_source
/// [`approx_bytes`]: SharedMatrixStore::approx_bytes
/// [`AtomClass`]: crate::view::AtomClass
#[derive(Debug)]
pub struct SharedMatrixStore {
    tree: Arc<Tree>,
    shards: Vec<Shard>,
}

/// One lock of a [`SharedMatrixStore`], with the occupancy it publishes.
#[derive(Debug)]
struct Shard {
    store: Mutex<MatrixStore>,
    /// The store's running count as of the last release of its lock.
    bytes: AtomicUsize,
    /// The counter the store's lazy row caches charge.
    lazy_charge: Arc<AtomicUsize>,
}

impl Shard {
    fn new(store: MatrixStore) -> Shard {
        Shard {
            bytes: AtomicUsize::new(store.bytes),
            lazy_charge: Arc::clone(&store.lazy_charge),
            store: Mutex::new(store),
        }
    }

    /// Lock the shard, applying the poison policy of
    /// [`SharedMatrixStore::recover_shard`].
    fn lock(&self) -> ShardGuard<'_> {
        let store = match self.store.lock() {
            Ok(guard) => guard,
            Err(poisoned) => SharedMatrixStore::recover_shard(&self.store, poisoned),
        };
        ShardGuard {
            store,
            bytes: &self.bytes,
        }
    }

    fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed) + self.lazy_charge.load(Ordering::Relaxed)
    }
}

/// A held shard lock that publishes the store's running count when it is
/// released — also when a panic unwinds through it.
struct ShardGuard<'a> {
    store: MutexGuard<'a, MatrixStore>,
    bytes: &'a AtomicUsize,
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        self.bytes.store(self.store.bytes, Ordering::Relaxed);
    }
}

impl Deref for ShardGuard<'_> {
    type Target = MatrixStore;

    fn deref(&self) -> &MatrixStore {
        &self.store
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut MatrixStore {
        &mut self.store
    }
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
                .map(|_| Shard::new(MatrixStore::with_mode(domain, mode)))
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
    fn shard(&self, expr: &BinExpr) -> ShardGuard<'_> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        expr.hash(&mut hasher);
        self.shards[(hasher.finish() as usize) % self.shards.len()].lock()
    }

    fn each_shard<R>(&self, mut f: impl FnMut(&mut MatrixStore) -> R) -> Vec<R> {
        self.shards.iter().map(|s| f(&mut s.lock())).collect()
    }

    /// Run `f` while holding the lock of shard `index`, as a compilation in
    /// progress holds it.  Lets tests check that occupancy reads and pool
    /// eviction never wait on a busy shard.
    #[doc(hidden)]
    pub fn with_shard_held<R>(&self, index: usize, f: impl FnOnce() -> R) -> R {
        let _held = self.shards[index].lock();
        f()
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
    /// cached.  A `D₁/axis::name/D₂` atom (the filtered-view class of
    /// [`crate::view::AtomClass`]) is a [`FilteredStepView`] over node sets
    /// its shard caches.  Any other
    /// expression compiles through its shard (see
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
        if let Some(step) = FilteredStep::of(expr) {
            let sets = self.shard(expr).filter_sets(&self.tree, expr, &step)?;
            return Ok(SuccessorSource::Filtered(FilteredStepView::new(
                Arc::clone(&self.tree),
                step.axis,
                step.test,
                sets.sources,
                sets.targets,
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
    ///
    /// Takes no lock: it sums the counts the shards published when their
    /// locks were last released, plus their lazy-row counters, so it returns
    /// at once even while another thread compiles into a shard.  A shard
    /// mid-compilation reads as it was before that compilation began.
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(Shard::approx_bytes).sum()
    }

    /// [`SharedMatrixStore::approx_bytes`] recounted shard by shard with
    /// [`MatrixStore::recount_bytes`] (locks every shard): the test oracle.
    #[cfg(test)]
    fn recount_bytes(&self) -> usize {
        self.each_shard(|s| s.recount_bytes()).iter().sum()
    }

    /// The kernel mode shards compile with (uniform across shards).
    pub fn mode(&self) -> KernelMode {
        self.shards[0].lock().mode()
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
    /// produced from this one; step views read the new snapshot.
    ///
    /// * **Insert or delete** — node ids shift, so no compiled entry or node
    ///   set carries over: the copy is an empty store in this store's kernel
    ///   mode and shard count, and every entry so far counts as dropped.
    ///   Atoms recompile on demand the first time a query needs them.
    /// * **Relabel** — ids stay put: every shard is cloned (its lock held
    ///   only while cloning) and the clone drops the relations and node sets
    ///   whose label footprint meets the edit ([`MatrixStore::apply_relabel`]).
    ///
    /// The original is left untouched, so in-flight readers of the old
    /// store never observe a half-applied edit — the serving layer swaps
    /// the returned store in atomically and lets old snapshots drain.
    pub fn fork_edited(
        &self,
        new_tree: Arc<Tree>,
        delta: &EditDelta,
    ) -> (SharedMatrixStore, EditApplyStats) {
        assert_eq!(
            delta.new_len,
            new_tree.len(),
            "fork_edited: delta does not produce the given tree"
        );
        if delta.kind != EditKind::Relabel {
            let entries: usize = self
                .each_shard(|s| s.stats().compiled + s.filters.len())
                .iter()
                .sum();
            let rows = (entries * self.domain()) as u64;
            let stats = EditApplyStats {
                entries_dropped: entries,
                rows_invalidated: rows,
                rows_total: rows,
                ..EditApplyStats::default()
            };
            let empty = Self::with_shards_and_mode(new_tree, self.shards.len(), self.mode());
            return (empty, stats);
        }
        let mut stats = EditApplyStats::default();
        let shards = self
            .each_shard(|s| s.clone())
            .into_iter()
            .map(|mut forked| {
                stats.merge(&forked.apply_relabel(delta));
                Shard::new(forked)
            })
            .collect();
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
        Tree::from_terms("bib(book(author,title),book(author,author,title),paper(title))").unwrap()
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
        assert!(
            Arc::ptr_eq(&lists, &again),
            "lists must be shared, not rebuilt"
        );
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
        assert!(
            stats.hits > 0,
            "threads must share compiled atoms: {stats:?}"
        );
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
        assert_eq!(
            store.stats().lookups(),
            0,
            "clear-on-poison drops the cache"
        );
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
        assert_eq!(
            store.approx_bytes(),
            0,
            "clear() must release the accounting"
        );
    }

    /// The running occupancy count must equal the walking recount after
    /// every step of a random operation sequence, in every kernel mode:
    /// compilations, successor tables, lazy row pulls (also through handles
    /// whose store has since let go of them), relabels applied in place,
    /// insert, delete and relabel forks, `clear`, and a poisoned shard.
    #[test]
    fn running_occupancy_matches_the_recount_oracle() {
        const QUERIES: &[&str] = &[
            "child::a/child::b",
            "descendant::* except child::*",
            "descendant::b[child::c]",
            "(child::a union child::c)/descendant::*",
            "self::*[descendant::a] except descendant::c",
            "child::b",
        ];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound as u64) as usize
        };
        for mode in [
            KernelMode::Dense,
            KernelMode::Adaptive,
            KernelMode::AdaptiveThreaded,
            KernelMode::Lazy,
        ] {
            let mut tree = Arc::new(Tree::from_terms("r(a(b(c),b),c(a,b(c,a)),b)").unwrap());
            let mut single = MatrixStore::with_mode(tree.len(), mode);
            let mut shared = SharedMatrixStore::with_shards_and_mode(Arc::clone(&tree), 3, mode);
            let mut handles: Vec<SuccessorSource> = Vec::new();
            let (mut inserts, mut deletes) = (0, 0);
            for step in 0..400 {
                let expr = bin(QUERIES[next(QUERIES.len())]);
                let op = next(8);
                match op {
                    0 => {
                        single.eval(&tree, &expr);
                        shared.eval(&expr);
                    }
                    1 => {
                        single.successor_lists(&tree, &expr);
                        shared.successor_lists(&expr);
                    }
                    2 => {
                        handles.push(single.successor_source(&tree, &expr).unwrap());
                        handles.push(shared.successor_source(&expr).unwrap());
                    }
                    3 => {
                        for h in &handles {
                            if !h.is_empty() {
                                h.row_vec(NodeId(next(h.len()) as u32));
                            }
                        }
                    }
                    4 if tree.len() < 60 => {
                        let parent = NodeId(next(tree.len()) as u32);
                        let sub = Tree::from_terms("b(a,c)").unwrap();
                        let (t, delta) = tree.insert_subtree(parent, 0, &sub).unwrap();
                        tree = Arc::new(t);
                        // A structural fork starts empty; so does the
                        // single store's counterpart.
                        single = MatrixStore::with_mode(tree.len(), mode);
                        shared = shared.fork_edited(Arc::clone(&tree), &delta).0;
                        inserts += 1;
                    }
                    4 | 5 if tree.len() > 4 => {
                        let node = NodeId(1 + next(tree.len() - 1) as u32);
                        let (t, delta) = tree.delete_subtree(node).unwrap();
                        tree = Arc::new(t);
                        single = MatrixStore::with_mode(tree.len(), mode);
                        shared = shared.fork_edited(Arc::clone(&tree), &delta).0;
                        deletes += 1;
                    }
                    4 | 5 => {}
                    6 => {
                        let node = NodeId(next(tree.len()) as u32);
                        let label = ["a", "b", "c", "d"][next(4)];
                        let (t, delta) = tree.relabel(node, label).unwrap();
                        tree = Arc::new(t);
                        single.apply_relabel(&delta);
                        shared = shared.fork_edited(Arc::clone(&tree), &delta).0;
                    }
                    _ if step % 3 == 0 => {
                        single.clear();
                        shared.clear();
                    }
                    _ => {
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            shared.each_shard(|_| panic!("poisoned on purpose"));
                        }));
                        assert!(caught.is_err());
                    }
                }
                let ctx = format!("{mode:?} step {step} op {op}");
                assert_eq!(
                    single.approx_bytes(),
                    single.recount_bytes(),
                    "{ctx}: single"
                );
                // Recount first: it recovers a poisoned shard, which
                // republishes its (now empty) count.
                let want = shared.recount_bytes();
                assert_eq!(shared.approx_bytes(), want, "{ctx}: shared");
            }
            assert!(
                inserts > 0 && deletes > 0,
                "{mode:?}: both structural forks ran"
            );
            assert!(
                handles
                    .iter()
                    .any(|h| matches!(h, SuccessorSource::Lazy(_)))
                    == (mode == KernelMode::Lazy),
                "{mode:?}: lazy handles only under the lazy mode"
            );
        }
    }

    /// Occupancy reads take no shard lock: they return while another thread
    /// holds a shard, as a long compilation does.  The wait is bounded and
    /// the holder lets go before the reader is joined, so a blocking read
    /// fails the test instead of hanging it.
    #[test]
    fn approx_bytes_does_not_wait_for_a_held_shard() {
        use std::sync::mpsc;
        use std::time::Duration;
        let store = SharedMatrixStore::new(Arc::new(tree()));
        store.eval(&bin("descendant::* except child::*"));
        let warm = store.approx_bytes();
        assert!(warm > 0);
        let (ready_tx, ready_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (read_tx, read_rx) = mpsc::channel();
        let store = &store;
        let read = std::thread::scope(|scope| {
            scope.spawn(move || {
                store.with_shard_held(0, || {
                    ready_tx.send(()).unwrap();
                    release_rx.recv_timeout(Duration::from_secs(60)).ok();
                })
            });
            ready_rx.recv().unwrap();
            scope.spawn(move || read_tx.send(store.approx_bytes()).unwrap());
            let read = read_rx.recv_timeout(Duration::from_secs(10));
            release_tx.send(()).unwrap();
            read
        });
        assert_eq!(read, Ok(warm), "approx_bytes blocked on a held shard");
    }

    #[test]
    fn edit_apply_stats_merge_adds_everything() {
        let mut a = EditApplyStats {
            entries_kept: 1,
            entries_dropped: 4,
            rows_invalidated: 5,
            rows_total: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.rows_total, 12);
        assert_eq!(a.entries_dropped, 8);
    }

    /// A filtered-view atom is served from node sets its shard caches:
    /// one set of ⌈|t|/64⌉ words per diagonal, no matrix, a hit on the
    /// second request, and a relabel drops the sets only when it meets the
    /// atom's label footprint.
    #[test]
    fn filtered_atoms_cache_node_sets_and_relabels_drop_their_footprint() {
        let t = Arc::new(tree());
        let store = SharedMatrixStore::new(Arc::clone(&t));
        let atom = bin("descendant::book[child::author]");
        let source = store.successor_source(&atom).unwrap();
        assert!(matches!(source, SuccessorSource::Filtered(_)));
        let lists = MatrixStore::new(t.len()).successor_lists(&t, &atom);
        for u in t.nodes() {
            assert_eq!(source.row_vec(u), lists[u.index()], "row {u}");
        }
        let stats = store.stats();
        assert_eq!(
            (stats.compiled, stats.sets, stats.misses),
            (0, 1, 1),
            "{stats:?}"
        );
        assert_eq!(store.approx_bytes(), t.len().div_ceil(64) * 8);
        store.successor_source(&atom).unwrap();
        assert_eq!(store.stats().hits, 1);

        let paper = t.nodes_with_label_str("paper")[0];
        let (t1, delta) = t.relabel(paper, "thesis").unwrap();
        let (kept, stats) = store.fork_edited(Arc::new(t1), &delta);
        assert_eq!(
            (stats.entries_kept, stats.entries_dropped),
            (1, 0),
            "{stats:?}"
        );
        assert_eq!(kept.stats().sets, 1);

        let author = t.nodes_with_label_str("author")[0];
        let (t2, delta) = t.relabel(author, "editor").unwrap();
        let t2 = Arc::new(t2);
        let (dropped, stats) = store.fork_edited(Arc::clone(&t2), &delta);
        assert_eq!(
            (stats.entries_kept, stats.entries_dropped),
            (0, 1),
            "{stats:?}"
        );
        assert_eq!((dropped.stats().sets, dropped.approx_bytes()), (0, 0));
        let fresh = MatrixStore::new(t2.len()).successor_lists(&t2, &atom);
        let source = dropped.successor_source(&atom).unwrap();
        for u in t2.nodes() {
            assert_eq!(
                source.row_vec(u),
                fresh[u.index()],
                "row {u} after the relabel"
            );
        }
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

    fn assert_store_matches_cold(store: &SharedMatrixStore, ctx: &str) {
        let t = store.tree();
        let mut cold = MatrixStore::with_mode(t.len(), store.mode());
        for src in EDIT_QUERIES {
            let b = bin(src);
            assert_eq!(
                store.eval(&b),
                cold.eval(t, &b),
                "{ctx}: {src} diverged from a cold compile"
            );
        }
    }

    /// A structural fork holds nothing: no compiled entry, no occupancy,
    /// and every entry the warm store held is reported dropped.
    fn assert_structural_fork_is_empty(
        warm: &SharedMatrixStore,
        fork: &SharedMatrixStore,
        stats: &EditApplyStats,
        ctx: &str,
    ) {
        let compiled = warm.stats().compiled;
        assert!(compiled > 0, "{ctx}: the store was warm");
        assert_eq!(fork.stats().compiled, 0, "{ctx}: entries survived");
        assert_eq!(fork.approx_bytes(), 0, "{ctx}: occupancy survived");
        assert_eq!(fork.mode(), warm.mode(), "{ctx}: kernel mode");
        assert_eq!(fork.shard_count(), warm.shard_count(), "{ctx}: shard count");
        assert_eq!(stats.entries_dropped, compiled, "{ctx}: {stats:?}");
        assert_eq!(stats.entries_kept, 0, "{ctx}: {stats:?}");
        assert!(stats.rows_total > 0, "{ctx}: {stats:?}");
        assert_eq!(stats.rows_invalidated, stats.rows_total, "{ctx}: {stats:?}");
    }

    /// `fork_edited` must leave a store indistinguishable from a cold store
    /// compiled on the post-edit tree — across every kernel mode and all
    /// three edit kinds.  Structural forks start empty; a relabel keeps the
    /// entries outside its label footprint.
    #[test]
    fn apply_edit_matches_cold_recompile_for_every_mode_and_edit_kind() {
        for mode in [
            KernelMode::Dense,
            KernelMode::Adaptive,
            KernelMode::AdaptiveThreaded,
            KernelMode::Lazy,
        ] {
            let t0 = Arc::new(tree());
            let store = SharedMatrixStore::with_shards_and_mode(Arc::clone(&t0), 3, mode);
            for src in EDIT_QUERIES {
                store.eval(&bin(src));
            }

            // Insert a subtree under the second book.
            let sub = Tree::from_terms("note(author,ref(title))").unwrap();
            let book2 = t0.nodes_with_label_str("book")[1];
            let (t1, delta) = t0.insert_subtree(book2, 1, &sub).unwrap();
            let (fork, stats) = store.fork_edited(Arc::new(t1), &delta);
            assert_structural_fork_is_empty(&store, &fork, &stats, &format!("{mode:?} insert"));
            assert_store_matches_cold(&fork, &format!("{mode:?} insert"));
            let store = fork;

            // Relabel a title to a name outside the query mix's footprint:
            // entries that mention neither label survive and answer from
            // the cache.
            let t1 = Arc::clone(store.tree());
            let title = t1.nodes_with_label_str("title")[0];
            let (t2, delta) = t1.relabel(title, "subtitle").unwrap();
            let (fork, stats) = store.fork_edited(Arc::new(t2), &delta);
            assert!(
                stats.entries_kept > 0 && stats.entries_dropped > 0,
                "{mode:?}: a relabel keeps exactly the entries outside its footprint: {stats:?}"
            );
            assert_eq!(
                fork.stats().compiled,
                stats.entries_kept,
                "{mode:?} relabel"
            );
            let misses = fork.stats().misses;
            fork.eval(&bin("child::book/child::author"));
            assert_eq!(
                fork.stats().misses,
                misses,
                "{mode:?}: kept entry recompiled"
            );
            assert_store_matches_cold(&fork, &format!("{mode:?} relabel"));
            let store = fork;

            // Delete the first book's whole subtree.
            let t2 = Arc::clone(store.tree());
            let book1 = t2.nodes_with_label_str("book")[0];
            let (t3, delta) = t2.delete_subtree(book1).unwrap();
            let (fork, stats) = store.fork_edited(Arc::new(t3), &delta);
            assert_structural_fork_is_empty(&store, &fork, &stats, &format!("{mode:?} delete"));
            assert_store_matches_cold(&fork, &format!("{mode:?} delete"));
            assert_eq!(fork.domain(), t2.len() - delta.count as usize);
        }
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
