//! Lazy relation algebra: symbolic products, unions and complements whose
//! rows densify on demand.
//!
//! The adaptive [`Relation`] kernels already compose Identity/Interval/CSR
//! operands symbolically — interval∘interval merges ranges in O(n), a
//! CSR∘interval product is a range-gather — but two eager costs remain and
//! they are exactly what pins every bench band at |t| ≈ 960:
//!
//! 1. **complements densify**: `¬R` of any non-trivial operand is an n×n
//!    bit matrix (≈125 GB at |t| = 1M), and every product touching it pays
//!    dense-fallback rates;
//! 2. **successor lists materialise whole matrices**: the Fig. 8 answering
//!    phase asks for *rows* of atom relations, yet the store eagerly builds
//!    all `n` of them up front.
//!
//! [`LazyRel`] fixes the first: a small expression DAG kept symbolic
//! wherever eager evaluation would densify.  Structured operands still
//! collapse eagerly through the adaptive kernels (so the DAG stays shallow);
//! only complements — and operators applied over them — become deferred
//! nodes.  Any single row of a deferred node evaluates in time proportional
//! to the rows it touches, never `n²`.
//!
//! [`LazyRows`] fixes the second: a per-relation row cache that computes
//! `row(u)` the first time the answering phase pulls it and memoises the
//! `Arc`'d result, with byte-accurate accounting of what actually
//! materialised (so the corpus memory budget stays honest).

use crate::matrix::CapacityError;
use crate::relation::{KernelMode, KernelStats, Relation};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use xpath_tree::NodeId;

/// A relation-algebra expression kept symbolic where evaluation would
/// densify.  `Eager` leaves hold compact adaptive [`Relation`]s; the other
/// variants defer exactly the operators whose eager result would be dense.
#[derive(Debug, Clone)]
pub enum LazyRel {
    /// An eagerly compiled, compact relation — the leaves of the DAG and
    /// the form every fully structured expression collapses back to.
    Eager(Relation),
    /// `¬a`, deferred: row `u` is the sorted complement of `a.row(u)`.
    Complement(Arc<LazyRel>),
    /// `a · b` with at least one deferred operand.
    Product(Arc<LazyRel>, Arc<LazyRel>),
    /// `a ∪ b` with at least one deferred operand.
    Union(Arc<LazyRel>, Arc<LazyRel>),
    /// `a ∩ b` with at least one deferred operand.
    Intersect(Arc<LazyRel>, Arc<LazyRel>),
    /// `[a]` (diagonal filter) over a deferred operand.
    DiagonalFilter(Arc<LazyRel>),
}

impl LazyRel {
    /// Wrap an eagerly compiled relation.
    pub fn eager(r: Relation) -> Arc<LazyRel> {
        Arc::new(LazyRel::Eager(r))
    }

    /// Smart product: collapses eagerly through the adaptive kernels while
    /// both operands are eager (their product stays symbolic or pays at most
    /// the guarded dense fallback), defers otherwise.
    pub fn product(
        a: &Arc<LazyRel>,
        b: &Arc<LazyRel>,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Arc<LazyRel>, CapacityError> {
        if let (LazyRel::Eager(ra), LazyRel::Eager(rb)) = (a.as_ref(), b.as_ref()) {
            return Ok(LazyRel::eager(ra.try_product(rb, mode, stats)?));
        }
        Ok(Arc::new(LazyRel::Product(Arc::clone(a), Arc::clone(b))))
    }

    /// Smart union: eager∪eager collapses, anything deferred stays a node.
    pub fn union(
        a: &Arc<LazyRel>,
        b: &Arc<LazyRel>,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Arc<LazyRel>, CapacityError> {
        if let (LazyRel::Eager(ra), LazyRel::Eager(rb)) = (a.as_ref(), b.as_ref()) {
            return Ok(LazyRel::eager(ra.try_union(rb, mode, stats)?));
        }
        Ok(Arc::new(LazyRel::Union(Arc::clone(a), Arc::clone(b))))
    }

    /// Smart intersection.
    pub fn intersect(
        a: &Arc<LazyRel>,
        b: &Arc<LazyRel>,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Arc<LazyRel>, CapacityError> {
        if let (LazyRel::Eager(ra), LazyRel::Eager(rb)) = (a.as_ref(), b.as_ref()) {
            return Ok(LazyRel::eager(ra.try_intersect(rb, mode, stats)?));
        }
        Ok(Arc::new(LazyRel::Intersect(Arc::clone(a), Arc::clone(b))))
    }

    /// Smart complement.  Under [`KernelMode::Lazy`], the trivial poles stay
    /// eager and an operand that is already dense complements in place (the
    /// memory is already paid) — every other operand, the case that would
    /// densify, defers.  Under the eager modes the complement compiles
    /// through the capacity-guarded kernels (and may therefore fail instead
    /// of aborting).
    pub fn complement(
        a: &Arc<LazyRel>,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Arc<LazyRel>, CapacityError> {
        match a.as_ref() {
            // ¬¬x = x.  Fig. 4 encodes `intersect`/`except` with doubly
            // nested complements; cancelling keeps the DAG shallow.
            LazyRel::Complement(x) => return Ok(Arc::clone(x)),
            // De Morgan: ¬(x ∪ y) = ¬x ∩ ¬y.  `a except b` arrives as
            // ¬(¬a ∪ b); rewriting yields a ∩ ¬b, whose rows filter the
            // compact side in O(|a row|) instead of materialising an O(n)
            // union row per pull — this is what keeps the MC sweep
            // subquadratic over `except`-bearing atoms.
            LazyRel::Union(x, y) => {
                let nx = LazyRel::complement(x, mode, stats)?;
                let ny = LazyRel::complement(y, mode, stats)?;
                return LazyRel::intersect(&nx, &ny, mode, stats);
            }
            // Dual: ¬(x ∩ y) = ¬x ∪ ¬y, for symmetry (unions short-circuit
            // row predicates operand by operand).
            LazyRel::Intersect(x, y) => {
                let nx = LazyRel::complement(x, mode, stats)?;
                let ny = LazyRel::complement(y, mode, stats)?;
                return LazyRel::union(&nx, &ny, mode, stats);
            }
            _ => {}
        }
        if let LazyRel::Eager(r) = a.as_ref() {
            let trivially_structured = matches!(r, Relation::Full(_)) || r.is_relation_empty();
            let in_place = matches!(r, Relation::Dense(_));
            if !matches!(mode, KernelMode::Lazy) || trivially_structured || in_place {
                return Ok(LazyRel::eager(r.try_complement(mode, stats)?));
            }
        }
        stats.complement_ops += 1;
        Ok(Arc::new(LazyRel::Complement(Arc::clone(a))))
    }

    /// Smart diagonal filter.
    pub fn diagonal_filter(
        a: &Arc<LazyRel>,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Arc<LazyRel> {
        if let LazyRel::Eager(r) = a.as_ref() {
            return LazyRel::eager(r.diagonal_filter(mode, stats));
        }
        stats.diagonal_ops += 1;
        Arc::new(LazyRel::DiagonalFilter(Arc::clone(a)))
    }

    /// Number of rows/columns of the domain.
    pub fn len(&self) -> usize {
        match self {
            LazyRel::Eager(r) => r.len(),
            LazyRel::Complement(a) | LazyRel::DiagonalFilter(a) => a.len(),
            LazyRel::Product(a, _) | LazyRel::Union(a, _) | LazyRel::Intersect(a, _) => a.len(),
        }
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The eager relation, if this node is a leaf.
    pub fn as_eager(&self) -> Option<&Relation> {
        match self {
            LazyRel::Eager(r) => Some(r),
            _ => None,
        }
    }

    /// Is any part of this expression deferred?
    pub fn is_deferred(&self) -> bool {
        !matches!(self, LazyRel::Eager(_))
    }

    /// Would materialising one row of this expression cost ~`n` (wide)
    /// rather than ~`|compact row|`?  Complements are wide, operators
    /// inherit wideness from their operands.  Used to pick the walk side of
    /// an intersection: `except` shapes normalise to `compact ∩ ¬compact`,
    /// and walking the compact side keeps every row pull row-proportional.
    fn row_is_wide(&self) -> bool {
        match self {
            LazyRel::Eager(_) | LazyRel::DiagonalFilter(_) => false,
            LazyRel::Complement(_) => true,
            LazyRel::Union(a, b) | LazyRel::Product(a, b) => a.row_is_wide() || b.row_is_wide(),
            LazyRel::Intersect(a, b) => a.row_is_wide() && b.row_is_wide(),
        }
    }

    /// Approximate heap footprint: the eager leaves plus node overhead.
    /// Shared sub-DAGs are counted once per reference — a deliberate
    /// over-approximation (the budget must never under-count).
    pub fn approx_bytes(&self) -> usize {
        let node = std::mem::size_of::<LazyRel>();
        node + match self {
            LazyRel::Eager(r) => r.approx_bytes(),
            LazyRel::Complement(a) | LazyRel::DiagonalFilter(a) => a.approx_bytes(),
            LazyRel::Product(a, b) | LazyRel::Union(a, b) | LazyRel::Intersect(a, b) => {
                a.approx_bytes() + b.approx_bytes()
            }
        }
    }

    /// Row `u` as a sorted, deduped successor list, computed on demand.
    /// Cost is proportional to the rows the expression touches for `u` —
    /// never `n²`.
    pub fn row(&self, u: NodeId) -> Vec<NodeId> {
        match self {
            LazyRel::Eager(r) => r.successor_list(u),
            LazyRel::Complement(a) => complement_ids(&a.row(u), a.len()),
            LazyRel::Union(a, b) => merge_ids(&a.row(u), &b.row(u)),
            LazyRel::Intersect(a, b) => {
                if a.row_is_wide() != b.row_is_wide() {
                    // Walk the compact side, probe the wide one: the row of
                    // `compact ∩ ¬compact` filters in O(|compact row|).
                    let (walk, probe) = if a.row_is_wide() { (b, a) } else { (a, b) };
                    walk.row(u)
                        .into_iter()
                        .filter(|&v| probe.get(u, v))
                        .collect()
                } else {
                    intersect_ids(&a.row(u), &b.row(u))
                }
            }
            LazyRel::Product(a, b) => {
                let mut out: Vec<NodeId> = Vec::new();
                for v in a.row(u) {
                    out.extend(b.row(v));
                }
                out.sort_unstable_by_key(|id| id.0);
                out.dedup();
                out
            }
            LazyRel::DiagonalFilter(a) => {
                if a.row_nonempty(u) {
                    vec![u]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Does row `u` contain at least one pair?  Products short-circuit on
    /// the first non-empty target row, so `[P1/P2]`-style filters over
    /// deferred operands never compute full rows.
    pub fn row_nonempty(&self, u: NodeId) -> bool {
        match self {
            LazyRel::Eager(r) => r.row_nonempty(u),
            LazyRel::Complement(a) => a.row(u).len() < a.len(),
            LazyRel::Union(a, b) => a.row_nonempty(u) || b.row_nonempty(u),
            LazyRel::Intersect(a, b) => {
                let (walk, probe) = if a.row_is_wide() && !b.row_is_wide() {
                    (b, a)
                } else {
                    (a, b)
                };
                walk.row_any(u, &mut |v| probe.get(u, v))
            }
            LazyRel::Product(a, b) => a.row(u).into_iter().any(|v| b.row_nonempty(v)),
            LazyRel::DiagonalFilter(a) => a.row_nonempty(u),
        }
    }

    /// Does row `u` contain a node satisfying `pred`?  Early-exits on the
    /// first hit.  Complements walk the *gaps* of the inner row instead of
    /// materialising their (up to `n`-element) complement row — with a
    /// predicate that succeeds often (the `MC` sweep tests membership in a
    /// mostly-full node set) this is `O(|inner row|)`, not `O(n)`.
    pub fn row_any(&self, u: NodeId, pred: &mut dyn FnMut(NodeId) -> bool) -> bool {
        match self {
            LazyRel::Eager(r) => r.successor_list(u).into_iter().any(&mut *pred),
            LazyRel::Complement(a) => {
                let inner = a.row(u);
                let n = a.len() as u32;
                let mut next = 0u32;
                for id in inner {
                    for v in next..id.0 {
                        if pred(NodeId(v)) {
                            return true;
                        }
                    }
                    next = id.0 + 1;
                }
                (next..n).any(|v| pred(NodeId(v)))
            }
            LazyRel::Union(a, b) => a.row_any(u, pred) || b.row_any(u, pred),
            LazyRel::Intersect(a, b) => {
                let (walk, probe) = if a.row_is_wide() && !b.row_is_wide() {
                    (b, a)
                } else {
                    (a, b)
                };
                walk.row_any(u, &mut |v| probe.get(u, v) && pred(v))
            }
            LazyRel::Product(a, b) => a.row(u).into_iter().any(|v| b.row_any(v, pred)),
            LazyRel::DiagonalFilter(a) => a.row_nonempty(u) && pred(u),
        }
    }

    /// Membership test.
    pub fn get(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            LazyRel::Eager(r) => r.get(u, v),
            LazyRel::Complement(a) => !a.get(u, v),
            LazyRel::Union(a, b) => a.get(u, v) || b.get(u, v),
            LazyRel::Intersect(a, b) => a.get(u, v) && b.get(u, v),
            LazyRel::Product(a, b) => a.row(u).into_iter().any(|w| b.get(w, v)),
            LazyRel::DiagonalFilter(a) => u == v && a.row_nonempty(u),
        }
    }

    /// Force the whole expression to a concrete [`Relation`], through the
    /// capacity-guarded eager kernels.  The compatibility path for callers
    /// that need a materialised result; fails rather than aborts when a
    /// deferred complement would exceed the dense budget.
    pub fn force(
        &self,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Relation, CapacityError> {
        match self {
            LazyRel::Eager(r) => Ok(r.clone()),
            LazyRel::Complement(a) => a.force(mode, stats)?.try_complement(mode, stats),
            LazyRel::Union(a, b) => {
                a.force(mode, stats)?
                    .try_union(&b.force(mode, stats)?, mode, stats)
            }
            LazyRel::Intersect(a, b) => {
                a.force(mode, stats)?
                    .try_intersect(&b.force(mode, stats)?, mode, stats)
            }
            LazyRel::Product(a, b) => {
                a.force(mode, stats)?
                    .try_product(&b.force(mode, stats)?, mode, stats)
            }
            LazyRel::DiagonalFilter(a) => Ok(a.force(mode, stats)?.diagonal_filter(mode, stats)),
        }
    }
}

/// Per-relation row cache: computes successor rows on first pull and
/// memoises them as shared `Arc`s.  Thread-safe (lock-free per row via
/// [`OnceLock`]); byte accounting tracks only what actually materialised.
///
/// A cache made by a store (`LazyRows::charged_to`) also charges every
/// row it materialises to that store's occupancy counter, so the store
/// reads its lazy occupancy without walking (or locking) anything.  When
/// the store lets go of the cache it calls `LazyRows::detach`: the bytes
/// charged so far are taken back, and rows that callers still holding the
/// cache materialise later are no longer charged.
#[derive(Debug)]
pub struct LazyRows {
    rel: Arc<LazyRel>,
    rows: Vec<OnceLock<Arc<Vec<NodeId>>>>,
    materialised_rows: AtomicUsize,
    materialised_bytes: AtomicUsize,
    /// The owning store's counter, if any.
    owner: Option<Arc<AtomicUsize>>,
    /// Bytes charged to `owner` so far; [`DETACHED`] is set once the owner
    /// let go of the cache.
    charged: AtomicUsize,
}

/// Flag bit of [`LazyRows::charged`]: the owner no longer counts this cache.
const DETACHED: usize = 1 << (usize::BITS - 1);

impl LazyRows {
    /// A row cache over `rel`, with no rows materialised yet.
    pub fn new(rel: Arc<LazyRel>) -> LazyRows {
        Self::with_owner(rel, None)
    }

    /// A row cache whose materialised rows are charged to `owner`.
    pub(crate) fn charged_to(rel: Arc<LazyRel>, owner: Arc<AtomicUsize>) -> LazyRows {
        Self::with_owner(rel, Some(owner))
    }

    fn with_owner(rel: Arc<LazyRel>, owner: Option<Arc<AtomicUsize>>) -> LazyRows {
        let n = rel.len();
        let mut rows = Vec::with_capacity(n);
        rows.resize_with(n, OnceLock::new);
        LazyRows {
            rel,
            rows,
            materialised_rows: AtomicUsize::new(0),
            materialised_bytes: AtomicUsize::new(0),
            owner,
            charged: AtomicUsize::new(0),
        }
    }

    /// Charge one materialised row to the owner.  The owner's counter is
    /// raised *before* the charge is recorded, so a concurrent
    /// [`LazyRows::detach`] only ever takes back bytes already added: the
    /// counter may over-count for a moment but never wraps below zero.
    /// The recording CAS releases and `detach`'s `fetch_or` acquires, so a
    /// detach that reads a charge is ordered after the raise before it.
    fn charge(&self, bytes: usize) {
        let Some(owner) = &self.owner else { return };
        owner.fetch_add(bytes, Ordering::Relaxed);
        let mut seen = self.charged.load(Ordering::Relaxed);
        loop {
            if seen & DETACHED != 0 {
                owner.fetch_sub(bytes, Ordering::Relaxed);
                return;
            }
            match self.charged.compare_exchange_weak(
                seen,
                seen + bytes,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => seen = now,
            }
        }
    }

    /// Stop charging the owner and take back what was charged.  Idempotent;
    /// a no-op for caches without an owner.
    pub(crate) fn detach(&self) {
        let Some(owner) = &self.owner else { return };
        let charged = self.charged.fetch_or(DETACHED, Ordering::AcqRel);
        if charged & DETACHED == 0 {
            owner.fetch_sub(charged, Ordering::AcqRel);
        }
    }

    /// Bytes of the row table itself, before any row materialises.
    pub(crate) fn table_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<OnceLock<Arc<Vec<NodeId>>>>()
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The underlying (possibly deferred) relation expression.
    pub fn relation(&self) -> &Arc<LazyRel> {
        &self.rel
    }

    /// Row `u`, materialising and memoising it on first pull.
    pub fn row(&self, u: NodeId) -> Arc<Vec<NodeId>> {
        self.rows[u.index()]
            .get_or_init(|| {
                let row = Arc::new(self.rel.row(u));
                let bytes = row.len() * std::mem::size_of::<NodeId>();
                self.materialised_rows.fetch_add(1, Ordering::Relaxed);
                self.materialised_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.charge(bytes);
                row
            })
            .clone()
    }

    /// Non-emptiness of row `u` without materialising it (uses the memoised
    /// row if one exists).
    pub fn row_nonempty(&self, u: NodeId) -> bool {
        if let Some(row) = self.rows[u.index()].get() {
            return !row.is_empty();
        }
        self.rel.row_nonempty(u)
    }

    /// Early-exit predicate search over row `u` without materialising it
    /// (uses the memoised row if one exists; see [`LazyRel::row_any`]).
    pub fn row_any<F: FnMut(NodeId) -> bool>(&self, u: NodeId, mut pred: F) -> bool {
        if let Some(row) = self.rows[u.index()].get() {
            return row.iter().any(|&v| pred(v));
        }
        self.rel.row_any(u, &mut pred)
    }

    /// How many rows have been pulled so far.
    pub fn materialised_rows(&self) -> usize {
        self.materialised_rows.load(Ordering::Relaxed)
    }

    /// Bytes held by the cache itself: the (lazy) row table plus exactly the
    /// rows that have materialised — not the n² worst case.  Excludes the
    /// underlying expression, which the store accounts separately.
    pub fn cached_bytes(&self) -> usize {
        self.table_bytes() + self.materialised_bytes.load(Ordering::Relaxed)
    }

    /// Honest heap footprint: the symbolic expression plus
    /// [`LazyRows::cached_bytes`].
    pub fn approx_bytes(&self) -> usize {
        self.rel.approx_bytes() + self.cached_bytes()
    }
}

/// Merge two sorted, deduped id lists.
fn merge_ids(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Intersect two sorted id lists.
fn intersect_ids(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The sorted complement of a sorted id list within `0..n`.
fn complement_ids(a: &[NodeId], n: usize) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(n - a.len());
    let mut next = 0u32;
    for &id in a {
        for v in next..id.0 {
            out.push(NodeId(v));
        }
        next = id.0 + 1;
    }
    for v in next..n as u32 {
        out.push(NodeId(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::NodeMatrix;
    use crate::relation::SparseRows;

    const LAZY: KernelMode = KernelMode::Lazy;

    fn stats() -> KernelStats {
        KernelStats::default()
    }

    /// Row-by-row comparison of a lazy expression against a reference
    /// matrix.
    fn assert_rows_match(lazy: &LazyRel, want: &NodeMatrix, label: &str) {
        assert_eq!(lazy.len(), want.len(), "{label}: domain");
        for u in 0..want.len() {
            let id = NodeId(u as u32);
            let got = lazy.row(id);
            let expect: Vec<NodeId> = want.successors(id).collect();
            assert_eq!(got, expect, "{label}: row {u}");
            assert_eq!(
                lazy.row_nonempty(id),
                !expect.is_empty(),
                "{label}: nonempty {u}"
            );
        }
    }

    /// A deterministic interval relation covering empty rows, short ranges
    /// and ranges straddling word boundaries.
    fn interval_rel(n: usize) -> Relation {
        let rows = (0..n as u32)
            .map(|u| {
                if u % 3 == 0 {
                    (u, (u + 7).min(n as u32))
                } else if u % 5 == 0 {
                    (0, (n as u32).min(2))
                } else {
                    (0, 0)
                }
            })
            .collect();
        Relation::Interval { n, rows }
    }

    /// A deterministic sparse CSR relation.
    fn sparse_rel(n: usize) -> Relation {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut state = 7u64 ^ n as u64;
        for _ in 0..3 * n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 33) as usize % n.max(1)) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((state >> 33) as usize % n.max(1)) as u32;
            pairs.push((u, v));
        }
        pairs.sort_unstable();
        pairs.dedup();
        Relation::Sparse(SparseRows::from_sorted_pairs(n, &pairs))
    }

    /// The satellite property suite: interval∘interval, CSR∘interval and
    /// complement-of-interval rows must match the dense reference at every
    /// word-boundary size.  At n ≤ 65 the reference product is the naïve
    /// triple loop; at n = 4096 the (independently pinned) word-parallel
    /// product stands in — the naïve cube would take minutes.
    #[test]
    fn symbolic_rows_match_dense_reference_at_boundary_sizes() {
        for n in [0usize, 1, 63, 64, 65, 4096] {
            let iv = interval_rel(n);
            let sp = sparse_rel(n);
            let ivm = iv.to_matrix();
            let spm = sp.to_matrix();
            let reference = |a: &NodeMatrix, b: &NodeMatrix| {
                if n <= 65 {
                    a.product_naive(b)
                } else {
                    a.product(b)
                }
            };

            let mut s = stats();
            // interval ∘ interval (collapses eagerly through the kernels).
            let a = LazyRel::eager(iv.clone());
            let prod = LazyRel::product(&a, &a, LAZY, &mut s).unwrap();
            assert_rows_match(&prod, &reference(&ivm, &ivm), &format!("iv∘iv n={n}"));

            // CSR ∘ interval (range-gather).
            let b = LazyRel::eager(sp.clone());
            let prod = LazyRel::product(&b, &a, LAZY, &mut s).unwrap();
            assert_rows_match(&prod, &reference(&spm, &ivm), &format!("sp∘iv n={n}"));

            // complement-of-interval stays symbolic; rows match ¬M.
            let not_iv = LazyRel::complement(&a, LAZY, &mut s).unwrap();
            let mut want = ivm.clone();
            want.complement();
            if n > 0 {
                assert!(not_iv.is_deferred() || iv.is_relation_empty(), "n={n}");
            }
            assert_rows_match(&not_iv, &want, &format!("¬iv n={n}"));

            // CSR ∘ complement-of-interval: deferred product, rows on demand.
            let prod = LazyRel::product(&b, &not_iv, LAZY, &mut s).unwrap();
            assert_rows_match(&prod, &reference(&spm, &want), &format!("sp∘¬iv n={n}"));

            // union / intersect / diagonal over the deferred complement.
            let uni = LazyRel::union(&b, &not_iv, LAZY, &mut s).unwrap();
            let mut want_u = spm.clone();
            want_u.union_with(&want);
            assert_rows_match(&uni, &want_u, &format!("sp∪¬iv n={n}"));
            let inter = LazyRel::intersect(&b, &not_iv, LAZY, &mut s).unwrap();
            let mut want_i = spm.clone();
            want_i.intersect_with(&want);
            assert_rows_match(&inter, &want_i, &format!("sp∩¬iv n={n}"));
            let diag = LazyRel::diagonal_filter(&inter, LAZY, &mut s);
            assert_rows_match(&diag, &want_i.diagonal_filter(), &format!("[sp∩¬iv] n={n}"));
        }
    }

    #[test]
    fn force_matches_row_semantics_and_guards_capacity() {
        let n = 130;
        let mut s = stats();
        let iv = LazyRel::eager(interval_rel(n));
        let not_iv = LazyRel::complement(&iv, LAZY, &mut s).unwrap();
        let forced = not_iv.force(LAZY, &mut s).unwrap();
        for u in 0..n {
            let id = NodeId(u as u32);
            assert_eq!(forced.successor_list(id), not_iv.row(id), "row {u}");
        }
        // A deferred complement over a capacity-busting domain must error on
        // force, not abort.
        let huge = 1_000_000;
        let sparse = LazyRel::eager(Relation::empty(huge));
        let full = LazyRel::complement(&sparse, LAZY, &mut s).unwrap(); // ¬∅ = Full: structured
        assert!(full.as_eager().is_some());
        let chain = LazyRel::eager(Relation::Identity(huge));
        let deferred = LazyRel::complement(&chain, LAZY, &mut s).unwrap();
        assert!(deferred.is_deferred());
        assert!(deferred.force(LAZY, &mut s).is_err());
        // …but its rows are still answerable, in O(row) time.
        let row = deferred.row(NodeId(5));
        assert_eq!(row.len(), huge - 1);
        assert!(!row.contains(&NodeId(5)));
        assert!(deferred.row_nonempty(NodeId(5)));
    }

    #[test]
    fn get_agrees_with_rows_across_operators() {
        let n = 65;
        let mut s = stats();
        let iv = LazyRel::eager(interval_rel(n));
        let sp = LazyRel::eager(sparse_rel(n));
        let not_iv = LazyRel::complement(&iv, LAZY, &mut s).unwrap();
        let expr = LazyRel::product(&sp, &not_iv, LAZY, &mut s).unwrap();
        for u in 0..n {
            let id = NodeId(u as u32);
            let row = expr.row(id);
            for v in 0..n {
                let vid = NodeId(v as u32);
                assert_eq!(expr.get(id, vid), row.contains(&vid), "({u},{v})");
            }
        }
    }

    #[test]
    fn lazy_rows_memoise_and_account_bytes() {
        let n = 1000;
        let mut s = stats();
        let iv = LazyRel::eager(interval_rel(n));
        let rows = LazyRows::new(LazyRel::complement(&iv, LAZY, &mut s).unwrap());
        let base = rows.approx_bytes();
        assert_eq!(rows.materialised_rows(), 0);
        // row_nonempty must not materialise anything.
        assert!(rows.row_nonempty(NodeId(1)));
        assert_eq!(rows.materialised_rows(), 0);
        let r5 = rows.row(NodeId(5));
        let again = rows.row(NodeId(5));
        assert!(Arc::ptr_eq(&r5, &again), "second pull returns the memo");
        assert_eq!(rows.materialised_rows(), 1);
        let after_one = rows.approx_bytes();
        assert!(after_one > base, "materialised bytes must show up");
        let delta = after_one - base;
        assert_eq!(delta, r5.len() * std::mem::size_of::<NodeId>());
        // Far below the dense footprint: one row, not n²/8 bytes.
        assert!(after_one < n * n / 8);
    }

    #[test]
    fn owned_rows_charge_their_owner_until_detached() {
        let n = 200;
        let mut s = stats();
        let iv = LazyRel::eager(interval_rel(n));
        let owner = Arc::new(AtomicUsize::new(0));
        let rows = LazyRows::charged_to(
            LazyRel::complement(&iv, LAZY, &mut s).unwrap(),
            Arc::clone(&owner),
        );
        rows.row(NodeId(3));
        rows.row(NodeId(3));
        rows.row(NodeId(4));
        let materialised = rows.cached_bytes() - rows.table_bytes();
        assert!(materialised > 0);
        assert_eq!(owner.load(Ordering::Relaxed), materialised);
        rows.detach();
        rows.detach();
        assert_eq!(
            owner.load(Ordering::Relaxed),
            0,
            "detach takes the charge back once"
        );
        rows.row(NodeId(9));
        assert_eq!(
            owner.load(Ordering::Relaxed),
            0,
            "a detached cache charges nothing"
        );
        assert!(rows.cached_bytes() - rows.table_bytes() > materialised);
    }

    #[test]
    fn eager_operands_collapse_without_deferral() {
        let n = 64;
        let mut s = stats();
        let a = LazyRel::eager(interval_rel(n));
        let b = LazyRel::eager(sparse_rel(n));
        for node in [
            LazyRel::product(&a, &b, LAZY, &mut s).unwrap(),
            LazyRel::union(&a, &b, LAZY, &mut s).unwrap(),
            LazyRel::intersect(&a, &b, LAZY, &mut s).unwrap(),
            LazyRel::diagonal_filter(&a, LAZY, &mut s),
        ] {
            assert!(node.as_eager().is_some(), "eager×eager must not defer");
        }
    }

    #[test]
    fn zero_and_one_node_domains() {
        for n in [0usize, 1] {
            let mut s = stats();
            let id = LazyRel::eager(Relation::Identity(n));
            let not_id = LazyRel::complement(&id, LAZY, &mut s).unwrap();
            let prod = LazyRel::product(&not_id, &id, LAZY, &mut s).unwrap();
            for u in 0..n {
                assert_eq!(prod.row(NodeId(u as u32)), Vec::<NodeId>::new(), "n={n}");
            }
            assert_eq!(prod.len(), n);
            let rows = LazyRows::new(prod);
            assert_eq!(rows.len(), n);
            assert_eq!(rows.is_empty(), n == 0);
        }
    }
}
