//! Structure-aware relation kernels: adaptive representations for the
//! Boolean node×node relations of the Theorem-2 hot path.
//!
//! The `O(|P|·|t|³)` bound of Theorem 2 is dominated by Boolean matrix
//! products, but the matrices the paper actually composes are highly
//! structured: step matrices for `child`/`parent`/sibling axes carry at
//! most `|t|` set bits, and `descendant` rows are *contiguous preorder
//! intervals* (node ids equal preorder numbers, so the subtree below `u`
//! occupies the id range `(u, u + size(u))`).  A [`Relation`] keeps each
//! operand in the cheapest faithful representation:
//!
//! | variant        | exact for                                    | storage |
//! |----------------|----------------------------------------------|---------|
//! | [`Identity`]   | `self::*`                                    | O(1)    |
//! | [`Full`]       | `nodes²` (e.g. `except` of the empty query)   | O(1)    |
//! | [`Interval`]   | `descendant(-or-self)::*`, row-wise ranges   | O(n)    |
//! | [`SparseRows`] | `child`, `parent`, sibling steps, ancestors  | O(nnz)  |
//! | [`Dense`]      | anything (complements, saturated products)   | O(n²/64)|
//!
//! Every kernel picks a specialised path per variant pair (interval rows
//! compose by range merging and OR via two boundary masks plus whole-word
//! fills; sparse operands gather only the bits that exist) and falls back to
//! the bit-packed [`NodeMatrix`] otherwise, re-[`compact`]ing the result so
//! structure lost by one operator can be rediscovered by the next.  A
//! [`KernelMode`] selects between the dense baseline (the pre-PR behaviour),
//! the adaptive kernels, and adaptive kernels plus the row-blocked
//! multithreaded dense product; [`KernelStats`] counts every dispatch so
//! regressions are visible from `pplx --stats` and the E11 ablation.
//!
//! [`Identity`]: Relation::Identity
//! [`Full`]: Relation::Full
//! [`Interval`]: Relation::Interval
//! [`SparseRows`]: Relation::Sparse
//! [`Dense`]: Relation::Dense
//! [`compact`]: Relation::compact

use crate::matrix::{dense_guard, CapacityError, NodeMatrix, PARALLEL_MIN_DIM};
use std::fmt;
use xpath_tree::{NodeId, NodeSet};

/// Which product/union/complement kernels the evaluator dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Always materialise dense [`NodeMatrix`] operands and use the serial
    /// word-parallel product — the pre-adaptive baseline, kept for the E11
    /// ablation benchmark.
    Dense,
    /// Structure-aware kernels, single-threaded.
    Adaptive,
    /// Structure-aware kernels, with the remaining large dense×dense
    /// products handled by the blocked Four-Russians product across scoped
    /// threads.
    #[default]
    AdaptiveThreaded,
    /// Everything `AdaptiveThreaded` does, plus the store keeps the relation
    /// *algebra* symbolic: complements (and expressions over them) are
    /// deferred as [`LazyRel`] nodes whose rows densify on demand, and
    /// successor lists materialise per row as the Fig. 8 answering phase
    /// pulls them.  The mode that opens the 100k–1M-node bench band.
    ///
    /// [`LazyRel`]: crate::lazy::LazyRel
    Lazy,
}

impl KernelMode {
    /// Parse a mode name as used by the `pplx --kernels` flag.
    pub fn parse(name: &str) -> Option<KernelMode> {
        Some(match name {
            "dense" => KernelMode::Dense,
            "adaptive" => KernelMode::Adaptive,
            "adaptive_threaded" | "adaptive-threaded" => KernelMode::AdaptiveThreaded,
            "lazy" => KernelMode::Lazy,
            _ => return None,
        })
    }

    /// Stable name of the mode (inverse of [`KernelMode::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Dense => "dense",
            KernelMode::Adaptive => "adaptive",
            KernelMode::AdaptiveThreaded => "adaptive_threaded",
            KernelMode::Lazy => "lazy",
        }
    }

    /// Does this mode row-block large dense×dense products across threads?
    pub(crate) fn threaded(self) -> bool {
        matches!(self, KernelMode::AdaptiveThreaded | KernelMode::Lazy)
    }
}

/// Per-kernel dispatch counters, kept by the [`MatrixStore`] and surfaced
/// through `pplx --stats` and the bench harness.
///
/// [`MatrixStore`]: crate::store::MatrixStore
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Step matrices constructed as `Identity`.
    pub step_identity: u64,
    /// Step matrices constructed as row intervals.
    pub step_interval: u64,
    /// Step matrices constructed as CSR successor lists.
    pub step_sparse: u64,
    /// Step matrices that had to densify.
    pub step_dense: u64,
    /// Products short-circuited by an `Identity`/`Full` operand.
    pub product_trivial: u64,
    /// Products through the interval kernels (range merge / masked fill).
    pub product_interval: u64,
    /// Products with a sparse operand (successor-list gather).
    pub product_sparse: u64,
    /// Serial dense×dense products.
    pub product_dense: u64,
    /// Row-blocked multithreaded dense×dense products.
    pub product_dense_threaded: u64,
    /// Unions answered by a structured (interval/sparse/trivial) kernel.
    pub union_structured: u64,
    /// Unions that fell back to dense word ORs.
    pub union_dense: u64,
    /// Intersections answered by a structured kernel.
    pub intersect_structured: u64,
    /// Intersections that fell back to dense word ANDs.
    pub intersect_dense: u64,
    /// Complement operations (always materialise unless trivial).
    pub complement_ops: u64,
    /// `[M]` diagonal-filter operations.
    pub diagonal_ops: u64,
    /// Transpose operations.
    pub transpose_ops: u64,
}

impl KernelStats {
    /// Total kernel dispatches of any kind.
    pub fn total(&self) -> u64 {
        self.step_identity
            + self.step_interval
            + self.step_sparse
            + self.step_dense
            + self.product_trivial
            + self.product_interval
            + self.product_sparse
            + self.product_dense
            + self.product_dense_threaded
            + self.union_structured
            + self.union_dense
            + self.intersect_structured
            + self.intersect_dense
            + self.complement_ops
            + self.diagonal_ops
            + self.transpose_ops
    }

    /// Accumulate another counter set (used to aggregate the per-shard
    /// counters of a `SharedMatrixStore`).
    pub fn merge(&mut self, other: &KernelStats) {
        // Exhaustive destructuring (no `..`): adding a counter field without
        // aggregating it here becomes a compile error, not a silent zero in
        // `pplx --stats`.
        let KernelStats {
            step_identity,
            step_interval,
            step_sparse,
            step_dense,
            product_trivial,
            product_interval,
            product_sparse,
            product_dense,
            product_dense_threaded,
            union_structured,
            union_dense,
            intersect_structured,
            intersect_dense,
            complement_ops,
            diagonal_ops,
            transpose_ops,
        } = *other;
        self.step_identity += step_identity;
        self.step_interval += step_interval;
        self.step_sparse += step_sparse;
        self.step_dense += step_dense;
        self.product_trivial += product_trivial;
        self.product_interval += product_interval;
        self.product_sparse += product_sparse;
        self.product_dense += product_dense;
        self.product_dense_threaded += product_dense_threaded;
        self.union_structured += union_structured;
        self.union_dense += union_dense;
        self.intersect_structured += intersect_structured;
        self.intersect_dense += intersect_dense;
        self.complement_ops += complement_ops;
        self.diagonal_ops += diagonal_ops;
        self.transpose_ops += transpose_ops;
    }

    pub(crate) fn record_step(&mut self, relation: &Relation) {
        match relation {
            Relation::Identity(_) => self.step_identity += 1,
            Relation::Full(_) | Relation::Interval { .. } => self.step_interval += 1,
            Relation::Sparse(_) => self.step_sparse += 1,
            Relation::Dense(_) => self.step_dense += 1,
        }
    }
}

impl fmt::Display for KernelStats {
    /// One-line rendering used by `pplx --stats`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps id/iv/sp/dn {}/{}/{}/{}, products triv/iv/sp/dn/thr {}/{}/{}/{}/{}, \
             unions st/dn {}/{}, intersects st/dn {}/{}, compl {}, diag {}, transp {}",
            self.step_identity,
            self.step_interval,
            self.step_sparse,
            self.step_dense,
            self.product_trivial,
            self.product_interval,
            self.product_sparse,
            self.product_dense,
            self.product_dense_threaded,
            self.union_structured,
            self.union_dense,
            self.intersect_structured,
            self.intersect_dense,
            self.complement_ops,
            self.diagonal_ops,
            self.transpose_ops,
        )
    }
}

/// CSR-style successor lists: per-row sorted column indices.
///
/// Exact and compact for the low-popcount step matrices (`child`, `parent`,
/// the four sibling axes, `ancestor` chains) and for diagonal filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseRows {
    n: usize,
    /// `offsets[u]..offsets[u+1]` indexes `cols` for row `u`; length `n+1`.
    offsets: Vec<u32>,
    /// Strictly increasing within each row.
    cols: Vec<u32>,
}

impl SparseRows {
    /// The empty relation on `n` nodes.
    pub fn empty(n: usize) -> SparseRows {
        SparseRows {
            n,
            offsets: vec![0; n + 1],
            cols: Vec::new(),
        }
    }

    /// Build from per-row column lists (each must be sorted and deduped).
    pub fn from_rows(n: usize, rows: impl IntoIterator<Item = Vec<u32>>) -> SparseRows {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        offsets.push(0);
        for row in rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
            cols.extend_from_slice(&row);
            offsets.push(cols.len() as u32);
        }
        assert_eq!(offsets.len(), n + 1, "one row list per node expected");
        SparseRows { n, offsets, cols }
    }

    /// Build from lexicographically sorted, deduped `(row, col)` pairs.
    pub fn from_sorted_pairs(n: usize, pairs: &[(u32, u32)]) -> SparseRows {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(pairs.len());
        let mut i = 0;
        offsets.push(0);
        for u in 0..n as u32 {
            while i < pairs.len() && pairs[i].0 == u {
                cols.push(pairs[i].1);
                i += 1;
            }
            offsets.push(cols.len() as u32);
        }
        debug_assert_eq!(i, pairs.len(), "pairs must be sorted by row");
        SparseRows { n, offsets, cols }
    }

    /// The sorted columns of row `u`.
    #[inline]
    pub fn row(&self, u: usize) -> &[u32] {
        &self.cols[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Approximate heap footprint of the CSR arrays, in bytes.
    pub fn approx_bytes(&self) -> usize {
        (self.offsets.len() + self.cols.len()) * std::mem::size_of::<u32>()
    }

    /// Number of stored pairs.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Transpose in O(n + nnz) by counting sort; output rows stay sorted
    /// because source rows are visited in ascending order.
    fn transpose(&self) -> SparseRows {
        let mut counts = vec![0u32; self.n + 1];
        for &c in &self.cols {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cols = vec![0u32; self.cols.len()];
        let mut next = counts;
        for u in 0..self.n {
            for &c in self.row(u) {
                cols[next[c as usize] as usize] = u as u32;
                next[c as usize] += 1;
            }
        }
        SparseRows {
            n: self.n,
            offsets,
            cols,
        }
    }
}

/// A binary relation over the nodes of one tree, in an adaptive
/// representation.  See the module docs for the variant table.
#[derive(Debug, Clone)]
pub enum Relation {
    /// The identity relation (`self::*`).
    Identity(usize),
    /// The full relation `nodes(t)²`.
    Full(usize),
    /// One document-order column range per row: row `u` covers columns
    /// `rows[u].0 .. rows[u].1` (empty rows are `(0, 0)`).
    Interval {
        /// Domain size.
        n: usize,
        /// Per-row `[lo, hi)` column ranges.
        rows: Vec<(u32, u32)>,
    },
    /// CSR successor lists.
    Sparse(SparseRows),
    /// Bit-packed fallback.
    Dense(NodeMatrix),
}

/// Maximum stored pairs for which the CSR representation is kept: the
/// break-even against dense rows, where gathering a sparse row (one
/// operation per set bit) costs the same as OR-ing a packed row (one
/// operation per 64-bit word).  Saturating: near `usize::MAX` domains must
/// report "keep sparse", not wrap around to a tiny limit and densify.
fn sparse_limit(n: usize) -> usize {
    n.saturating_mul(n.div_ceil(64))
}

fn words_per_row(n: usize) -> usize {
    n.div_ceil(64)
}

impl Relation {
    /// The empty relation on `n` nodes.
    pub fn empty(n: usize) -> Relation {
        Relation::Sparse(SparseRows::empty(n))
    }

    /// Number of rows/columns of the domain.
    pub fn len(&self) -> usize {
        match self {
            Relation::Identity(n) | Relation::Full(n) | Relation::Interval { n, .. } => *n,
            Relation::Sparse(s) => s.n,
            Relation::Dense(m) => m.len(),
        }
    }

    /// Approximate heap footprint of this representation, in bytes.  The
    /// corpus layer sums these over a store's compiled relations to decide
    /// when a session must be evicted from its memory budget.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Relation::Identity(_) | Relation::Full(_) => std::mem::size_of::<Relation>(),
            Relation::Interval { rows, .. } => rows.len() * std::mem::size_of::<(u32, u32)>(),
            Relation::Sparse(s) => s.approx_bytes(),
            Relation::Dense(m) => m.approx_bytes(),
        }
    }

    /// True if the *domain* is empty (zero nodes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the relation holds no pairs.
    pub fn is_relation_empty(&self) -> bool {
        match self {
            Relation::Identity(n) | Relation::Full(n) => *n == 0,
            Relation::Interval { rows, .. } => rows.iter().all(|&(lo, hi)| lo >= hi),
            Relation::Sparse(s) => s.nnz() == 0,
            Relation::Dense(m) => m.is_relation_empty(),
        }
    }

    /// Short name of the active representation (for stats and tests).
    pub fn variant_name(&self) -> &'static str {
        match self {
            Relation::Identity(_) => "identity",
            Relation::Full(_) => "full",
            Relation::Interval { .. } => "interval",
            Relation::Sparse(_) => "sparse",
            Relation::Dense(_) => "dense",
        }
    }

    /// Membership test.
    pub fn get(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            Relation::Identity(_) => u == v,
            Relation::Full(_) => true,
            Relation::Interval { rows, .. } => {
                let (lo, hi) = rows[u.index()];
                (lo..hi).contains(&v.0)
            }
            Relation::Sparse(s) => s.row(u.index()).binary_search(&v.0).is_ok(),
            Relation::Dense(m) => m.get(u, v),
        }
    }

    /// Number of pairs in the relation.
    pub fn count_pairs(&self) -> usize {
        match self {
            Relation::Identity(n) => *n,
            Relation::Full(n) => n * n,
            Relation::Interval { rows, .. } => rows
                .iter()
                .map(|&(lo, hi)| hi.saturating_sub(lo) as usize)
                .sum(),
            Relation::Sparse(s) => s.nnz(),
            Relation::Dense(m) => m.count_pairs(),
        }
    }

    /// The successors of `u`, in ascending (document) order.
    pub fn successor_list(&self, u: NodeId) -> Vec<NodeId> {
        match self {
            Relation::Identity(_) => vec![u],
            Relation::Full(n) => (0..*n as u32).map(NodeId).collect(),
            Relation::Interval { rows, .. } => {
                let (lo, hi) = rows[u.index()];
                (lo..hi).map(NodeId).collect()
            }
            Relation::Sparse(s) => s.row(u.index()).iter().map(|&c| NodeId(c)).collect(),
            Relation::Dense(m) => m.successors(u).collect(),
        }
    }

    /// Does row `u` contain at least one pair?
    pub fn row_nonempty(&self, u: NodeId) -> bool {
        match self {
            Relation::Identity(_) => true,
            Relation::Full(n) => *n > 0,
            Relation::Interval { rows, .. } => {
                let (lo, hi) = rows[u.index()];
                lo < hi
            }
            Relation::Sparse(s) => !s.row(u.index()).is_empty(),
            Relation::Dense(m) => m.row_nonempty(u),
        }
    }

    /// The start nodes with at least one successor.
    pub fn nonempty_rows(&self) -> NodeSet {
        let n = self.len();
        let mut out = NodeSet::empty(n);
        for u in 0..n {
            let id = NodeId(u as u32);
            if self.row_nonempty(id) {
                out.insert(id);
            }
        }
        out
    }

    /// All pairs in lexicographic order (tests and small result reporting).
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.count_pairs());
        for u in 0..self.len() {
            let id = NodeId(u as u32);
            for v in self.successor_list(id) {
                out.push((id, v));
            }
        }
        out
    }

    /// Materialise as a bit-packed [`NodeMatrix`] — the conversion used at
    /// the public boundary so existing callers keep working unchanged.
    pub fn to_matrix(&self) -> NodeMatrix {
        match self {
            Relation::Identity(n) => NodeMatrix::identity(*n),
            Relation::Full(n) => NodeMatrix::full(*n),
            Relation::Interval { n, rows } => {
                let mut m = NodeMatrix::empty(*n);
                for (u, &(lo, hi)) in rows.iter().enumerate() {
                    m.fill_row_range(NodeId(u as u32), lo as usize, hi as usize);
                }
                m
            }
            Relation::Sparse(s) => {
                let mut m = NodeMatrix::empty(s.n);
                for u in 0..s.n {
                    for &c in s.row(u) {
                        m.set(NodeId(u as u32), NodeId(c));
                    }
                }
                m
            }
            Relation::Dense(m) => m.clone(),
        }
    }

    /// Capacity-checked [`Relation::to_matrix`]: refuses to densify a
    /// symbolic operand whose bit matrix would exceed the
    /// [`DENSE_BYTE_LIMIT`] (already-dense operands just clone).
    ///
    /// [`DENSE_BYTE_LIMIT`]: crate::matrix::DENSE_BYTE_LIMIT
    pub fn try_to_matrix(&self) -> Result<NodeMatrix, CapacityError> {
        if !matches!(self, Relation::Dense(_)) {
            dense_guard(self.len())?;
        }
        Ok(self.to_matrix())
    }

    /// Wrap a dense matrix and rediscover structure ([`Relation::compact`]).
    pub fn from_matrix(m: NodeMatrix) -> Relation {
        Relation::Dense(m).compact()
    }

    /// Normalise the representation: detect `Identity`/`Full`/interval rows
    /// in a dense or interval operand, downgrade saturated CSR to dense, and
    /// keep everything else as-is.  One O(n²/64) scan in the dense case —
    /// negligible next to any product that produced the operand.
    pub fn compact(self) -> Relation {
        let n = self.len();
        match self {
            Relation::Dense(m) => {
                let mut rows: Vec<(u32, u32)> = Vec::with_capacity(n);
                let mut intervals_ok = true;
                let mut nnz = 0usize;
                for u in 0..n {
                    let words = m.row_words(NodeId(u as u32));
                    let popcount: usize = words.iter().map(|w| w.count_ones() as usize).sum();
                    nnz += popcount;
                    if !intervals_ok {
                        continue;
                    }
                    if popcount == 0 {
                        rows.push((0, 0));
                        continue;
                    }
                    let first_word = words.iter().position(|&w| w != 0).expect("popcount > 0");
                    let last_word = words.iter().rposition(|&w| w != 0).expect("popcount > 0");
                    let lo = first_word * 64 + words[first_word].trailing_zeros() as usize;
                    let hi = last_word * 64 + 63 - words[last_word].leading_zeros() as usize + 1;
                    if hi - lo == popcount {
                        rows.push((lo as u32, hi as u32));
                    } else {
                        intervals_ok = false;
                    }
                }
                if intervals_ok {
                    return interval_or_simpler(n, rows);
                }
                if nnz <= sparse_limit(n) {
                    let rows = (0..n).map(|u| {
                        m.successors(NodeId(u as u32))
                            .map(|v| v.0)
                            .collect::<Vec<u32>>()
                    });
                    return Relation::Sparse(SparseRows::from_rows(n, rows));
                }
                Relation::Dense(m)
            }
            Relation::Interval { n, rows } => interval_or_simpler(n, rows),
            Relation::Sparse(s) if s.nnz() > sparse_limit(n) => {
                // Re-compact the densified form: a saturated CSR can still
                // be interval-shaped or even `Full`.
                Relation::Dense(Relation::Sparse(s).to_matrix()).compact()
            }
            other => other,
        }
    }

    /// Interval-form rows if the relation is interval-like: borrowed for
    /// `Interval`, synthesised (O(n), no per-pair cost) for the trivial
    /// poles.
    fn interval_rows(&self) -> Option<std::borrow::Cow<'_, [(u32, u32)]>> {
        use std::borrow::Cow;
        match self {
            Relation::Identity(n) => Some(Cow::Owned((0..*n as u32).map(|u| (u, u + 1)).collect())),
            Relation::Full(n) => Some(Cow::Owned(vec![(0, *n as u32); *n])),
            Relation::Interval { rows, .. } => Some(Cow::Borrowed(rows)),
            _ => None,
        }
    }

    /// Sparse-form rows if cheaply available: borrowed for `Sparse`,
    /// synthesised (O(n)) for `Identity`.
    fn sparse_view(&self) -> Option<std::borrow::Cow<'_, SparseRows>> {
        use std::borrow::Cow;
        match self {
            Relation::Identity(n) => Some(Cow::Owned(SparseRows {
                n: *n,
                offsets: (0..=*n as u32).collect(),
                cols: (0..*n as u32).collect(),
            })),
            Relation::Sparse(s) => Some(Cow::Borrowed(s)),
            _ => None,
        }
    }

    // -- kernels ------------------------------------------------------------

    /// Relation composition `self · other`, dispatching to the cheapest
    /// kernel for the operand pair under `mode`.  Panics if a dense fallback
    /// exceeds the capacity limit; the store's fallible compilation path
    /// ([`Relation::try_product`]) reports that as an error instead.
    pub fn product(&self, other: &Relation, mode: KernelMode, stats: &mut KernelStats) -> Relation {
        self.try_product(other, mode, stats)
            .expect("dense capacity exceeded in eager kernel")
    }

    /// Fallible [`Relation::product`]: dense fallbacks over the capacity
    /// limit return a [`CapacityError`] instead of aborting the process.
    pub fn try_product(
        &self,
        other: &Relation,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Relation, CapacityError> {
        debug_assert_eq!(self.len(), other.len());
        let n = self.len();
        if mode == KernelMode::Dense {
            stats.product_dense += 1;
            // Borrow already-dense operands: the baseline must pay exactly
            // what the pre-adaptive store paid, not extra clones.
            let m = match (self, other) {
                (Relation::Dense(a), Relation::Dense(b)) => a.product(b),
                (Relation::Dense(a), b) => a.product(&b.try_to_matrix()?),
                (a, Relation::Dense(b)) => a.try_to_matrix()?.product(b),
                (a, b) => a.try_to_matrix()?.product(&b.try_to_matrix()?),
            };
            return Ok(Relation::Dense(m));
        }
        Ok(match (self, other) {
            (Relation::Identity(_), _) => {
                stats.product_trivial += 1;
                other.clone()
            }
            (_, Relation::Identity(_)) => {
                stats.product_trivial += 1;
                self.clone()
            }
            (Relation::Full(_), b) => {
                stats.product_trivial += 1;
                full_times(n, b)?
            }
            (a, Relation::Full(_)) => {
                stats.product_trivial += 1;
                times_full(n, a)
            }
            // A ∈ {Interval, Sparse}, B Interval: row u of the result is a
            // union of B's ranges — merged symbolically, materialised by
            // masked fills only if a row merges to more than one range.
            (Relation::Interval { rows, .. }, Relation::Interval { rows: b_rows, .. }) => {
                stats.product_interval += 1;
                product_into_intervals(n, SourceRows::Ranges(rows), b_rows)?
            }
            (Relation::Sparse(a), Relation::Interval { rows: b_rows, .. }) => {
                stats.product_interval += 1;
                product_into_intervals(n, SourceRows::Lists(a), b_rows)?
            }
            (Relation::Sparse(a), Relation::Sparse(b)) => {
                stats.product_sparse += 1;
                gather_sparse_target(n, SourceRows::Lists(a), b)
            }
            (Relation::Interval { rows, .. }, Relation::Sparse(b)) => {
                stats.product_sparse += 1;
                gather_sparse_target(n, SourceRows::Ranges(rows), b)
            }
            (Relation::Sparse(a), Relation::Dense(b)) => {
                stats.product_sparse += 1;
                let mut out = NodeMatrix::empty(n);
                for u in 0..n {
                    for &v in a.row(u) {
                        out.or_row_from(NodeId(u as u32), b, NodeId(v));
                    }
                }
                Relation::Dense(out).compact()
            }
            (Relation::Dense(a), Relation::Sparse(b)) => {
                stats.product_sparse += 1;
                let mut out = NodeMatrix::empty(n);
                for u in 0..n {
                    let id = NodeId(u as u32);
                    for v in a.successors(id) {
                        for &w in b.row(v.index()) {
                            out.set(id, NodeId(w));
                        }
                    }
                }
                Relation::Dense(out).compact()
            }
            (Relation::Dense(a), Relation::Interval { rows: b_rows, .. }) => {
                stats.product_interval += 1;
                let mut out = NodeMatrix::empty(n);
                for u in 0..n {
                    let id = NodeId(u as u32);
                    for v in a.successors(id) {
                        let (lo, hi) = b_rows[v.index()];
                        out.fill_row_range(id, lo as usize, hi as usize);
                    }
                }
                Relation::Dense(out).compact()
            }
            (Relation::Interval { rows, .. }, Relation::Dense(b)) => {
                stats.product_interval += 1;
                let mut out = NodeMatrix::empty(n);
                for (u, &(lo, hi)) in rows.iter().enumerate() {
                    for v in lo..hi {
                        out.or_row_from(NodeId(u as u32), b, NodeId(v));
                    }
                }
                Relation::Dense(out).compact()
            }
            (Relation::Dense(a), Relation::Dense(b)) => {
                let m = if mode.threaded() && n >= PARALLEL_MIN_DIM {
                    stats.product_dense_threaded += 1;
                    a.product_threaded(b)
                } else {
                    stats.product_dense += 1;
                    a.product(b)
                };
                Relation::Dense(m).compact()
            }
        })
    }

    /// Element-wise union.
    pub fn union(&self, other: &Relation, mode: KernelMode, stats: &mut KernelStats) -> Relation {
        self.try_union(other, mode, stats)
            .expect("dense capacity exceeded in eager kernel")
    }

    /// Fallible [`Relation::union`].
    pub fn try_union(
        &self,
        other: &Relation,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Relation, CapacityError> {
        debug_assert_eq!(self.len(), other.len());
        let n = self.len();
        if mode != KernelMode::Dense {
            match (self, other) {
                (Relation::Full(_), _) | (_, Relation::Full(_)) => {
                    stats.union_structured += 1;
                    return Ok(Relation::Full(n));
                }
                _ => {}
            }
            if let (Some(a), Some(b)) = (self.interval_rows(), other.interval_rows()) {
                stats.union_structured += 1;
                return union_interval_rows(n, &a, &b);
            }
            if let (Some(a), Some(b)) = (self.sparse_view(), other.sparse_view()) {
                stats.union_structured += 1;
                let rows = (0..n).map(|u| merge_sorted(a.row(u), b.row(u)));
                return Ok(Relation::Sparse(SparseRows::from_rows(n, rows)).compact());
            }
        }
        stats.union_dense += 1;
        let mut m = self.try_to_matrix()?;
        match other {
            Relation::Dense(b) => m.union_with(b),
            b => m.union_with(&b.try_to_matrix()?),
        }
        Ok(if mode == KernelMode::Dense {
            Relation::Dense(m)
        } else {
            Relation::Dense(m).compact()
        })
    }

    /// Element-wise intersection.
    pub fn intersect(
        &self,
        other: &Relation,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Relation {
        self.try_intersect(other, mode, stats)
            .expect("dense capacity exceeded in eager kernel")
    }

    /// Fallible [`Relation::intersect`].
    pub fn try_intersect(
        &self,
        other: &Relation,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Relation, CapacityError> {
        debug_assert_eq!(self.len(), other.len());
        let n = self.len();
        if mode != KernelMode::Dense {
            match (self, other) {
                (Relation::Full(_), b) => {
                    stats.intersect_structured += 1;
                    return Ok(b.clone());
                }
                (a, Relation::Full(_)) => {
                    stats.intersect_structured += 1;
                    return Ok(a.clone());
                }
                (Relation::Identity(_), b) | (b, Relation::Identity(_)) => {
                    stats.intersect_structured += 1;
                    let rows = (0..n).map(|u| {
                        let id = NodeId(u as u32);
                        if b.get(id, id) {
                            vec![u as u32]
                        } else {
                            Vec::new()
                        }
                    });
                    return Ok(Relation::Sparse(SparseRows::from_rows(n, rows)).compact());
                }
                _ => {}
            }
            if let (Relation::Interval { rows: a, .. }, Relation::Interval { rows: b, .. }) =
                (self, other)
            {
                stats.intersect_structured += 1;
                let rows = a
                    .iter()
                    .zip(b)
                    .map(|(&(alo, ahi), &(blo, bhi))| {
                        let lo = alo.max(blo);
                        let hi = ahi.min(bhi);
                        if lo < hi {
                            (lo, hi)
                        } else {
                            (0, 0)
                        }
                    })
                    .collect();
                return Ok(interval_or_simpler(n, rows));
            }
            if let (Some(a), Some(b)) = (self.sparse_view(), other.sparse_view()) {
                stats.intersect_structured += 1;
                let rows = (0..n).map(|u| intersect_sorted(a.row(u), b.row(u)));
                return Ok(Relation::Sparse(SparseRows::from_rows(n, rows)).compact());
            }
            if let (Relation::Sparse(a), Relation::Interval { rows: b, .. }) = (self, other) {
                stats.intersect_structured += 1;
                let rows = (0..n).map(|u| {
                    let (lo, hi) = b[u];
                    a.row(u)
                        .iter()
                        .copied()
                        .filter(|c| (lo..hi).contains(c))
                        .collect()
                });
                return Ok(Relation::Sparse(SparseRows::from_rows(n, rows)).compact());
            }
            if let (Relation::Interval { rows: a, .. }, Relation::Sparse(b)) = (self, other) {
                stats.intersect_structured += 1;
                let rows = (0..n).map(|u| {
                    let (lo, hi) = a[u];
                    b.row(u)
                        .iter()
                        .copied()
                        .filter(|c| (lo..hi).contains(c))
                        .collect()
                });
                return Ok(Relation::Sparse(SparseRows::from_rows(n, rows)).compact());
            }
        }
        stats.intersect_dense += 1;
        let mut m = self.try_to_matrix()?;
        match other {
            Relation::Dense(b) => m.intersect_with(b),
            b => m.intersect_with(&b.try_to_matrix()?),
        }
        Ok(if mode == KernelMode::Dense {
            Relation::Dense(m)
        } else {
            Relation::Dense(m).compact()
        })
    }

    /// Complement (`except`).  Almost always densifies — the complement of a
    /// sparse/interval relation is dense by construction — so the only
    /// structured cases are the trivial poles.  Under [`KernelMode::Lazy`]
    /// the store never calls this on large domains: complements stay
    /// symbolic as `LazyRel` nodes.
    pub fn complement(&self, mode: KernelMode, stats: &mut KernelStats) -> Relation {
        self.try_complement(mode, stats)
            .expect("dense capacity exceeded in eager kernel")
    }

    /// Fallible [`Relation::complement`].
    pub fn try_complement(
        &self,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Relation, CapacityError> {
        stats.complement_ops += 1;
        let n = self.len();
        if mode != KernelMode::Dense {
            if let Relation::Full(_) = self {
                return Ok(Relation::empty(n));
            }
            if self.is_relation_empty() {
                return Ok(Relation::Full(n));
            }
        }
        let mut m = self.try_to_matrix()?;
        m.complement();
        Ok(Relation::Dense(m))
    }

    /// The `[M]` diagonal filter: `u ↦ (u, u)` for every non-empty row.
    pub fn diagonal_filter(&self, _mode: KernelMode, stats: &mut KernelStats) -> Relation {
        stats.diagonal_ops += 1;
        let n = self.len();
        match self {
            Relation::Identity(_) | Relation::Full(_) => Relation::Identity(n),
            _ => {
                let rows = (0..n).map(|u| {
                    if self.row_nonempty(NodeId(u as u32)) {
                        vec![u as u32]
                    } else {
                        Vec::new()
                    }
                });
                Relation::Sparse(SparseRows::from_rows(n, rows)).compact()
            }
        }
    }

    /// The inverse relation.
    pub fn transpose(&self, mode: KernelMode, stats: &mut KernelStats) -> Relation {
        self.try_transpose(mode, stats)
            .expect("dense capacity exceeded in eager kernel")
    }

    /// Fallible [`Relation::transpose`].
    pub fn try_transpose(
        &self,
        mode: KernelMode,
        stats: &mut KernelStats,
    ) -> Result<Relation, CapacityError> {
        stats.transpose_ops += 1;
        let n = self.len();
        if mode == KernelMode::Dense {
            return Ok(Relation::Dense(self.try_to_matrix()?.transpose()));
        }
        Ok(match self {
            Relation::Identity(_) | Relation::Full(_) => self.clone(),
            Relation::Sparse(s) => Relation::Sparse(s.transpose()),
            Relation::Interval { rows, .. } => {
                let nnz: usize = rows
                    .iter()
                    .map(|&(lo, hi)| hi.saturating_sub(lo) as usize)
                    .sum();
                if nnz > sparse_limit(n) {
                    return Ok(Relation::Dense(self.try_to_matrix()?.transpose()).compact());
                }
                // Out row v collects every u whose range covers v; visiting
                // u in ascending order keeps each output row sorted.
                let mut counts = vec![0u32; n + 1];
                for &(lo, hi) in rows {
                    for v in lo..hi {
                        counts[v as usize + 1] += 1;
                    }
                }
                for i in 0..n {
                    counts[i + 1] += counts[i];
                }
                let offsets = counts.clone();
                let mut cols = vec![0u32; nnz];
                let mut next = counts;
                for (u, &(lo, hi)) in rows.iter().enumerate() {
                    for v in lo..hi {
                        cols[next[v as usize] as usize] = u as u32;
                        next[v as usize] += 1;
                    }
                }
                Relation::Sparse(SparseRows { n, offsets, cols })
            }
            Relation::Dense(m) => Relation::Dense(m.transpose()).compact(),
        })
    }
}

/// `Full · B`: every row of the result is the column support of `B` (or the
/// result is empty when `B` is).
fn full_times(n: usize, b: &Relation) -> Result<Relation, CapacityError> {
    if b.is_relation_empty() {
        return Ok(Relation::empty(n));
    }
    // The column support needs only one packed row; collect it without
    // materialising `b` (interval/sparse rows fill the scratch directly).
    let stride = words_per_row(n);
    let mut support = vec![0u64; stride];
    match b {
        Relation::Dense(bm) => {
            for u in 0..n {
                for (s, w) in support.iter_mut().zip(bm.row_words(NodeId(u as u32))) {
                    *s |= w;
                }
            }
        }
        _ => {
            for u in 0..n {
                for v in b.successor_list(NodeId(u as u32)) {
                    support[v.index() / 64] |= 1u64 << (v.index() % 64);
                }
            }
        }
    }
    // All rows equal the support row: interval-shaped iff the support is one
    // contiguous range, which `compact` will rediscover — but avoid the n²
    // materialisation when the support is a single range.
    let popcount: usize = support.iter().map(|w| w.count_ones() as usize).sum();
    if popcount > 0 {
        let first_word = support.iter().position(|&w| w != 0).expect("popcount > 0");
        let last_word = support.iter().rposition(|&w| w != 0).expect("popcount > 0");
        let lo = first_word * 64 + support[first_word].trailing_zeros() as usize;
        let hi = last_word * 64 + 63 - support[last_word].leading_zeros() as usize + 1;
        if hi - lo == popcount {
            return Ok(interval_or_simpler(n, vec![(lo as u32, hi as u32); n]));
        }
    }
    dense_guard(n)?;
    let mut out = NodeMatrix::empty(n);
    for u in 0..n {
        out.or_words_into_row(NodeId(u as u32), &support);
    }
    Ok(Relation::Dense(out).compact())
}

/// `A · Full`: row `u` is full iff row `u` of `A` is non-empty.
fn times_full(n: usize, a: &Relation) -> Relation {
    let rows = (0..n)
        .map(|u| {
            if a.row_nonempty(NodeId(u as u32)) {
                (0, n as u32)
            } else {
                (0, 0)
            }
        })
        .collect();
    interval_or_simpler(n, rows)
}

/// Row source for the interval-target product: either interval ranges or
/// CSR lists.
enum SourceRows<'a> {
    Ranges(&'a [(u32, u32)]),
    Lists(&'a SparseRows),
}

impl SourceRows<'_> {
    fn for_each_v(&self, u: usize, mut f: impl FnMut(usize)) {
        match self {
            SourceRows::Ranges(rows) => {
                let (lo, hi) = rows[u];
                for v in lo..hi {
                    f(v as usize);
                }
            }
            SourceRows::Lists(s) => {
                for &v in s.row(u) {
                    f(v as usize);
                }
            }
        }
    }
}

/// Product where the target operand is interval-shaped: merge the ranges of
/// `b_rows` symbolically per output row.  While every row merges into a
/// single range the result stays an `Interval`; the first row that does not
/// switches to a dense accumulator filled by boundary masks.
fn product_into_intervals(
    n: usize,
    a: SourceRows<'_>,
    b_rows: &[(u32, u32)],
) -> Result<Relation, CapacityError> {
    let mut rows_out: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut dense_out: Option<NodeMatrix> = None;
    let mut scratch: Vec<(u32, u32)> = Vec::new();
    for u in 0..n {
        scratch.clear();
        a.for_each_v(u, |v| {
            let (lo, hi) = b_rows[v];
            if lo < hi {
                scratch.push((lo, hi));
            }
        });
        merge_intervals(&mut scratch);
        match (&mut dense_out, scratch.len()) {
            (None, 0) => rows_out.push((0, 0)),
            (None, 1) => rows_out.push(scratch[0]),
            (None, _) => {
                // Materialise the interval prefix, then keep filling.
                let mut m = NodeMatrix::try_empty(n)?;
                for (r, &(lo, hi)) in rows_out.iter().enumerate() {
                    m.fill_row_range(NodeId(r as u32), lo as usize, hi as usize);
                }
                for &(lo, hi) in &scratch {
                    m.fill_row_range(NodeId(u as u32), lo as usize, hi as usize);
                }
                dense_out = Some(m);
            }
            (Some(m), _) => {
                for &(lo, hi) in &scratch {
                    m.fill_row_range(NodeId(u as u32), lo as usize, hi as usize);
                }
            }
        }
    }
    Ok(match dense_out {
        Some(m) => Relation::Dense(m).compact(),
        None => interval_or_simpler(n, rows_out),
    })
}

/// Sort by start and coalesce overlapping/adjacent ranges in place.
fn merge_intervals(ranges: &mut Vec<(u32, u32)>) {
    if ranges.len() <= 1 {
        return;
    }
    ranges.sort_unstable();
    let mut write = 0;
    for i in 1..ranges.len() {
        let (lo, hi) = ranges[i];
        if lo <= ranges[write].1 {
            ranges[write].1 = ranges[write].1.max(hi);
        } else {
            write += 1;
            ranges[write] = (lo, hi);
        }
    }
    ranges.truncate(write + 1);
}

/// Classify interval rows: all-empty → empty sparse, exact diagonal →
/// `Identity`, all-full → `Full`, otherwise keep the interval form.
fn interval_or_simpler(n: usize, rows: Vec<(u32, u32)>) -> Relation {
    debug_assert_eq!(rows.len(), n);
    let mut all_empty = true;
    let mut identity = true;
    let mut full = true;
    for (u, &(lo, hi)) in rows.iter().enumerate() {
        let empty = lo >= hi;
        all_empty &= empty;
        identity &= lo == u as u32 && hi == u as u32 + 1;
        full &= lo == 0 && hi == n as u32;
    }
    if n == 0 {
        return Relation::Identity(0);
    }
    if all_empty {
        return Relation::empty(n);
    }
    if identity {
        return Relation::Identity(n);
    }
    if full {
        return Relation::Full(n);
    }
    Relation::Interval { n, rows }
}

/// Per-row union of two interval relations: two ranges either coalesce into
/// one (kept symbolic) or the whole result falls back to masked fills.
fn union_interval_rows(
    n: usize,
    a: &[(u32, u32)],
    b: &[(u32, u32)],
) -> Result<Relation, CapacityError> {
    let mut rows_out: Vec<(u32, u32)> = Vec::with_capacity(n);
    for u in 0..n {
        let mut pair = vec![a[u], b[u]];
        pair.retain(|&(lo, hi)| lo < hi);
        merge_intervals(&mut pair);
        match pair.len() {
            0 => rows_out.push((0, 0)),
            1 => rows_out.push(pair[0]),
            _ => {
                // Rare: disjoint ranges — materialise everything.
                let mut m = NodeMatrix::try_empty(n)?;
                for (r, &(lo, hi)) in rows_out.iter().enumerate() {
                    m.fill_row_range(NodeId(r as u32), lo as usize, hi as usize);
                }
                for r in u..n {
                    for &(lo, hi) in &[a[r], b[r]] {
                        m.fill_row_range(NodeId(r as u32), lo as usize, hi as usize);
                    }
                }
                return Ok(Relation::Dense(m).compact());
            }
        }
    }
    Ok(interval_or_simpler(n, rows_out))
}

/// Merge two sorted, deduped column lists.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
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

/// Intersect two sorted column lists.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
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

/// Product with a CSR target operand: gather target rows through a reusable
/// bitset scratch row, emitting sorted CSR output directly — no `n²/64`
/// scan, cost proportional to the gathered bits plus the output.
fn gather_sparse_target(n: usize, a: SourceRows<'_>, b: &SparseRows) -> Relation {
    let stride = words_per_row(n);
    let mut scratch = vec![0u64; stride];
    let mut touched: Vec<usize> = Vec::new();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut cols: Vec<u32> = Vec::new();
    offsets.push(0u32);
    for u in 0..n {
        let row_start = cols.len();
        a.for_each_v(u, |v| {
            for &w in b.row(v) {
                let wi = w as usize / 64;
                let bit = 1u64 << (w % 64);
                if scratch[wi] & bit == 0 {
                    if scratch[wi] == 0 {
                        touched.push(wi);
                    }
                    scratch[wi] |= bit;
                    cols.push(w);
                }
            }
        });
        cols[row_start..].sort_unstable();
        offsets.push(cols.len() as u32);
        for &wi in &touched {
            scratch[wi] = 0;
        }
        touched.clear();
    }
    Relation::Sparse(SparseRows { n, offsets, cols }).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> KernelStats {
        KernelStats::default()
    }

    fn sparse_of(n: usize, pairs: &[(u32, u32)]) -> Relation {
        let mut sorted: Vec<(u32, u32)> = pairs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Relation::Sparse(SparseRows::from_sorted_pairs(n, &sorted))
    }

    #[test]
    fn compact_detects_identity_full_interval_sparse() {
        let n = 70;
        assert_eq!(
            Relation::from_matrix(NodeMatrix::identity(n)).variant_name(),
            "identity"
        );
        assert_eq!(
            Relation::from_matrix(NodeMatrix::full(n)).variant_name(),
            "full"
        );
        let mut iv = NodeMatrix::empty(n);
        iv.fill_row_range(NodeId(0), 10, 40);
        iv.fill_row_range(NodeId(3), 60, 70);
        assert_eq!(Relation::from_matrix(iv).variant_name(), "interval");
        let mut sp = NodeMatrix::empty(n);
        sp.set(NodeId(0), NodeId(5));
        sp.set(NodeId(0), NodeId(64));
        assert_eq!(Relation::from_matrix(sp).variant_name(), "sparse");
    }

    #[test]
    fn products_match_dense_reference_across_variant_pairs() {
        let n = 70;
        let identity = Relation::Identity(n);
        let full = Relation::Full(n);
        let interval = Relation::Interval {
            n,
            rows: (0..n as u32)
                .map(|u| {
                    if u % 3 == 0 {
                        (u, (u + 5).min(n as u32))
                    } else {
                        (0, 0)
                    }
                })
                .collect(),
        };
        let sparse = sparse_of(n, &[(0, 1), (1, 64), (5, 5), (64, 3), (69, 69), (69, 0)]);
        let dense = Relation::Dense({
            let mut m = NodeMatrix::empty(n);
            let mut state = 99u64;
            for _ in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = (state >> 33) as usize % n;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = (state >> 33) as usize % n;
                m.set(NodeId(u as u32), NodeId(v as u32));
            }
            m
        });
        let variants = [&identity, &full, &interval, &sparse, &dense];
        let mut s = stats();
        for a in variants {
            for b in variants {
                for mode in [
                    KernelMode::Dense,
                    KernelMode::Adaptive,
                    KernelMode::AdaptiveThreaded,
                ] {
                    let got = a.product(b, mode, &mut s).to_matrix();
                    let want = a.to_matrix().product_naive(&b.to_matrix());
                    assert_eq!(
                        got,
                        want,
                        "{} · {} under {:?}",
                        a.variant_name(),
                        b.variant_name(),
                        mode
                    );
                }
            }
        }
        assert!(s.total() > 0);
        assert!(s.product_trivial > 0);
        assert!(s.product_interval > 0);
        assert!(s.product_sparse > 0);
    }

    #[test]
    fn union_intersect_complement_diag_transpose_match_dense_reference() {
        let n = 66;
        let interval = Relation::Interval {
            n,
            rows: (0..n as u32).map(|u| (u / 2, u)).collect(),
        };
        let sparse = sparse_of(n, &[(0, 65), (65, 0), (30, 31), (30, 2)]);
        let identity = Relation::Identity(n);
        let full = Relation::Full(n);
        let variants = [&identity, &full, &interval, &sparse];
        let mut s = stats();
        for mode in [KernelMode::Dense, KernelMode::Adaptive] {
            for a in variants {
                let am = a.to_matrix();
                // complement
                let mut want = am.clone();
                want.complement();
                assert_eq!(a.complement(mode, &mut s).to_matrix(), want);
                // diagonal
                assert_eq!(
                    a.diagonal_filter(mode, &mut s).to_matrix(),
                    am.diagonal_filter()
                );
                // transpose
                assert_eq!(a.transpose(mode, &mut s).to_matrix(), am.transpose_naive());
                for b in variants {
                    let bm = b.to_matrix();
                    let mut want_u = am.clone();
                    want_u.union_with(&bm);
                    assert_eq!(a.union(b, mode, &mut s).to_matrix(), want_u);
                    let mut want_i = am.clone();
                    want_i.intersect_with(&bm);
                    assert_eq!(a.intersect(b, mode, &mut s).to_matrix(), want_i);
                }
            }
        }
        assert!(s.union_structured > 0);
        assert!(s.intersect_structured > 0);
    }

    #[test]
    fn zero_and_one_node_domains() {
        for n in [0usize, 1] {
            let mut s = stats();
            let e = Relation::empty(n);
            let f = Relation::Full(n);
            let i = Relation::Identity(n);
            for a in [&e, &f, &i] {
                for b in [&e, &f, &i] {
                    let got = a.product(b, KernelMode::Adaptive, &mut s).to_matrix();
                    assert_eq!(got, a.to_matrix().product_naive(&b.to_matrix()), "n={n}");
                }
                assert_eq!(
                    a.complement(KernelMode::Adaptive, &mut s).count_pairs(),
                    n * n - a.count_pairs(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn kernel_mode_names_round_trip() {
        for mode in [
            KernelMode::Dense,
            KernelMode::Adaptive,
            KernelMode::AdaptiveThreaded,
        ] {
            assert_eq!(KernelMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(KernelMode::parse("bogus"), None);
        assert_eq!(KernelMode::default(), KernelMode::AdaptiveThreaded);
    }

    #[test]
    fn stats_render_every_counter() {
        let mut s = stats();
        s.step_interval = 2;
        s.product_sparse = 7;
        let line = s.to_string();
        assert!(line.contains("products"));
        assert!(s.total() == 9);
    }

    #[test]
    fn saturated_sparse_output_densifies() {
        // A chain u -> u+1 composed with Full-ish sparse rows would stay
        // CSR; force saturation instead: every row points to every column.
        let n = 80;
        let all: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
            .collect();
        let r = sparse_of(n, &all).compact();
        assert_eq!(r.variant_name(), "full");
    }
}
