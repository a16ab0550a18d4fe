//! Bit-packed Boolean node×node matrices.
//!
//! `M[u, v] = 1` means the pair `(u, v)` belongs to the binary query.  Rows
//! are stored contiguously as `u64` words, so the Boolean matrix product —
//! the dominant cost of the PPLbin algorithm — processes 64 columns per word
//! operation while retaining the cubic asymptotics of the paper's analysis.

use std::fmt;
use xpath_tree::{NodeId, NodeSet};

/// Hard ceiling on a single dense materialisation, in bytes.  At |t| = 1M an
/// n×n bit matrix is ~125 GB; any kernel that would cross this limit reports
/// a [`CapacityError`] instead of attempting (and aborting on) the
/// allocation.  2 GiB admits every |t| ≤ ~131k dense fallback while keeping
/// the 1M stress band strictly symbolic.
pub const DENSE_BYTE_LIMIT: usize = 2 * 1024 * 1024 * 1024;

/// A dense n×n materialisation was refused because it would exceed
/// [`DENSE_BYTE_LIMIT`] (or overflow the address space outright).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityError {
    /// Domain size whose dense form was requested.
    pub n: usize,
    /// Bytes the n×n bit matrix would need (may exceed `usize`).
    pub required_bytes: u128,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dense {n}×{n} bit matrix needs {req} bytes, over the {limit}-byte limit",
            n = self.n,
            req = self.required_bytes,
            limit = DENSE_BYTE_LIMIT
        )
    }
}

impl std::error::Error for CapacityError {}

/// Check that a dense `n`×`n` bit matrix may be materialised.  All checked
/// arithmetic — `n` around `u32::MAX` would overflow `n * stride` long
/// before the allocator gets a say.
pub fn dense_guard(n: usize) -> Result<(), CapacityError> {
    let words = (n as u128) * (n.div_ceil(64) as u128);
    let required_bytes = words * 8;
    if required_bytes > DENSE_BYTE_LIMIT as u128 {
        return Err(CapacityError { n, required_bytes });
    }
    Ok(())
}

/// A square Boolean matrix indexed by node ids.
#[derive(Clone, PartialEq, Eq)]
pub struct NodeMatrix {
    /// Number of nodes (rows == columns == `n`).
    n: usize,
    /// Words per row.
    stride: usize,
    /// Row-major bit storage, `n * stride` words.
    words: Vec<u64>,
}

impl NodeMatrix {
    /// The all-zero matrix (the empty relation).
    pub fn empty(n: usize) -> NodeMatrix {
        let stride = n.div_ceil(64);
        let len = n
            .checked_mul(stride)
            .expect("matrix dimensions overflow the address space");
        NodeMatrix {
            n,
            stride,
            words: vec![0; len],
        }
    }

    /// Capacity-checked [`NodeMatrix::empty`]: refuses allocations over
    /// [`DENSE_BYTE_LIMIT`] instead of aborting in the allocator.
    pub fn try_empty(n: usize) -> Result<NodeMatrix, CapacityError> {
        dense_guard(n)?;
        Ok(NodeMatrix::empty(n))
    }

    /// The all-one matrix (the full relation `nodes(t)²`).
    pub fn full(n: usize) -> NodeMatrix {
        let mut m = NodeMatrix::empty(n);
        for w in m.words.iter_mut() {
            *w = u64::MAX;
        }
        m.clear_tails();
        m
    }

    /// The identity relation (`self::*`).
    pub fn identity(n: usize) -> NodeMatrix {
        let mut m = NodeMatrix::empty(n);
        for i in 0..n {
            m.set(NodeId(i as u32), NodeId(i as u32));
        }
        m
    }

    fn clear_tails(&mut self) {
        let extra = self.stride * 64 - self.n;
        if extra == 0 || self.stride == 0 {
            return;
        }
        let mask = u64::MAX >> extra;
        for r in 0..self.n {
            self.words[r * self.stride + self.stride - 1] &= mask;
        }
    }

    /// Number of rows/columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix has zero rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Approximate heap footprint of the bit storage, in bytes (used by the
    /// corpus layer's memory-budget accounting).
    pub fn approx_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    #[inline]
    fn row_range(&self, u: NodeId) -> std::ops::Range<usize> {
        let start = u.index() * self.stride;
        start..start + self.stride
    }

    /// Set `M[u, v] = 1`.
    #[inline]
    pub fn set(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(u.index() < self.n && v.index() < self.n);
        self.words[u.index() * self.stride + v.index() / 64] |= 1u64 << (v.index() % 64);
    }

    /// Read `M[u, v]`.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> bool {
        debug_assert!(u.index() < self.n && v.index() < self.n);
        (self.words[u.index() * self.stride + v.index() / 64] >> (v.index() % 64)) & 1 == 1
    }

    /// The raw words of row `u`.
    pub fn row_words(&self, u: NodeId) -> &[u64] {
        &self.words[self.row_range(u)]
    }

    /// OR the row `v` of `other` into row `u` of `self` (word-parallel).
    pub(crate) fn or_row_from(&mut self, u: NodeId, other: &NodeMatrix, v: NodeId) {
        debug_assert_eq!(self.n, other.n);
        let dst = u.index() * self.stride;
        let src = v.index() * other.stride;
        for k in 0..self.stride {
            self.words[dst + k] |= other.words[src + k];
        }
    }

    /// OR a raw word slice into row `u` (for same-crate kernels).
    pub(crate) fn or_words_into_row(&mut self, u: NodeId, words: &[u64]) {
        debug_assert_eq!(words.len(), self.stride);
        let dst = u.index() * self.stride;
        for (k, &w) in words.iter().enumerate() {
            self.words[dst + k] |= w;
        }
    }

    /// Set every column of `lo..hi` in row `u` using two boundary masks and
    /// whole-word fills for the interior.
    pub fn fill_row_range(&mut self, u: NodeId, lo: usize, hi: usize) {
        debug_assert!(hi <= self.n);
        if lo >= hi {
            return;
        }
        let row = u.index() * self.stride;
        let (w_lo, b_lo) = (lo / 64, lo % 64);
        let (w_hi, b_hi) = ((hi - 1) / 64, (hi - 1) % 64);
        let lo_mask = u64::MAX << b_lo;
        let hi_mask = u64::MAX >> (63 - b_hi);
        if w_lo == w_hi {
            self.words[row + w_lo] |= lo_mask & hi_mask;
        } else {
            self.words[row + w_lo] |= lo_mask;
            for w in &mut self.words[row + w_lo + 1..row + w_hi] {
                *w = u64::MAX;
            }
            self.words[row + w_hi] |= hi_mask;
        }
    }

    /// Iterate over the columns set in row `u` (the successors of `u`).
    ///
    /// The iterator walks the packed words directly — no allocation per word
    /// (or at all), so it is safe to use inside the product/transpose hot
    /// paths.
    pub fn successors(&self, u: NodeId) -> SuccessorIter<'_> {
        SuccessorIter {
            words: self.row_words(u),
            next_word: 0,
            base: 0,
            current: 0,
        }
    }

    /// Number of pairs in the relation.
    pub fn count_pairs(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the relation empty?
    pub fn is_relation_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Does row `u` contain at least one 1?
    pub fn row_nonempty(&self, u: NodeId) -> bool {
        self.row_words(u).iter().any(|&w| w != 0)
    }

    /// Element-wise union (`self ∨= other`).
    pub fn union_with(&mut self, other: &NodeMatrix) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Element-wise intersection (`self ∧= other`).
    pub fn intersect_with(&mut self, other: &NodeMatrix) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Element-wise difference (`self ∧= ¬other`).
    pub fn difference_with(&mut self, other: &NodeMatrix) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Complement every entry (`¬M`, the `except` operator).
    pub fn complement(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.clear_tails();
    }

    /// Boolean matrix product `self · other` (relation composition):
    /// `(A·B)[u, w] = ⋁_v A[u, v] ∧ B[v, w]`.
    ///
    /// Implementation: for every set bit `v` of row `u` of `A`, OR row `v`
    /// of `B` into row `u` of the result — `O(n³ / 64)` word operations.
    pub fn product(&self, other: &NodeMatrix) -> NodeMatrix {
        debug_assert_eq!(self.n, other.n);
        let mut out = NodeMatrix::empty(self.n);
        for u in 0..self.n {
            let a_row = &self.words[u * self.stride..(u + 1) * self.stride];
            let out_row_start = u * self.stride;
            for (wi, &word) in a_row.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let v = wi * 64 + bit;
                    let b_row_start = v * other.stride;
                    for k in 0..self.stride {
                        out.words[out_row_start + k] |= other.words[b_row_start + k];
                    }
                }
            }
        }
        out
    }

    /// Blocked Boolean matrix product: Four-Russians-style row-combination
    /// lookup over 8-row groups of `other`, on top of the existing 64-bit
    /// word parallelism.
    ///
    /// For each group `g` of eight consecutive rows of `B`, the 256 possible
    /// OR-combinations of those rows are tabulated once (each entry extends a
    /// smaller combination by one row, so the table costs 256 row-ORs, not
    /// 8·256).  Row `u` of the output then absorbs the whole group with a
    /// single table lookup indexed by byte `g` of row `u` of `A` — eight
    /// columns per probe instead of one per set bit, an ~8× word-operation
    /// saving on dense operands while zero bytes skip in O(1).
    pub fn product_blocked(&self, other: &NodeMatrix) -> NodeMatrix {
        debug_assert_eq!(self.n, other.n);
        let mut out = NodeMatrix::empty(self.n);
        if self.n == 0 {
            return out;
        }
        let stride = self.stride;
        let mut table = vec![0u64; 256 * stride];
        for g in 0..self.n.div_ceil(8) {
            build_group_table(&other.words, self.n, stride, g, &mut table);
            apply_group_table(&self.words, &mut out.words, stride, g, &table);
        }
        out
    }

    /// Boolean matrix product with the output rows computed in parallel
    /// blocks by scoped threads, each running the blocked Four-Russians
    /// kernel of [`NodeMatrix::product_blocked`] over its own row range
    /// (with a private combination table, so no synchronisation at all).
    ///
    /// Falls back to the serial blocked product when the matrix is small or
    /// only one hardware thread is available — thread spawn overhead
    /// dominates below a few hundred rows.
    pub fn product_threaded(&self, other: &NodeMatrix) -> NodeMatrix {
        debug_assert_eq!(self.n, other.n);
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if self.n < PARALLEL_MIN_DIM || threads < 2 {
            return self.product_blocked(other);
        }
        let mut out = NodeMatrix::empty(self.n);
        let n = self.n;
        let stride = self.stride;
        let rows_per_block = n.div_ceil(threads.min(n));
        let a = &self.words;
        let b = &other.words;
        std::thread::scope(|scope| {
            for (block, out_block) in out.words.chunks_mut(rows_per_block * stride).enumerate() {
                scope.spawn(move || {
                    let first_row = block * rows_per_block;
                    let block_rows = out_block.len() / stride;
                    let mut table = vec![0u64; 256 * stride];
                    for g in 0..n.div_ceil(8) {
                        build_group_table(b, n, stride, g, &mut table);
                        apply_group_table(
                            &a[first_row * stride..(first_row + block_rows) * stride],
                            out_block,
                            stride,
                            g,
                            &table,
                        );
                    }
                });
            }
        });
        out
    }

    /// Reference implementation of the product using a triple loop over
    /// individual entries.  Used by tests and by the ablation benchmark that
    /// compares the word-parallel product against the naïve cubic one.
    pub fn product_naive(&self, other: &NodeMatrix) -> NodeMatrix {
        debug_assert_eq!(self.n, other.n);
        let mut out = NodeMatrix::empty(self.n);
        for u in 0..self.n {
            for v in 0..self.n {
                if !self.get(NodeId(u as u32), NodeId(v as u32)) {
                    continue;
                }
                for w in 0..self.n {
                    if other.get(NodeId(v as u32), NodeId(w as u32)) {
                        out.set(NodeId(u as u32), NodeId(w as u32));
                    }
                }
            }
        }
        out
    }

    /// The `[M]` operation of the paper: `[M][u, u'] = 1` iff `u = u'` and
    /// row `u` of `M` is non-empty.
    pub fn diagonal_filter(&self) -> NodeMatrix {
        let mut out = NodeMatrix::empty(self.n);
        for u in 0..self.n {
            let id = NodeId(u as u32);
            if self.row_nonempty(id) {
                out.set(id, id);
            }
        }
        out
    }

    /// Transpose (the inverse relation), computed tile-by-tile: each 64×64
    /// bit block is gathered into registers, transposed with the word-level
    /// butterfly network, and written to the mirrored block of the output.
    /// All-zero tiles are skipped, so sparse matrices transpose in time
    /// proportional to the words scanned rather than the bits set.
    pub fn transpose(&self) -> NodeMatrix {
        let mut out = NodeMatrix::empty(self.n);
        let stride = self.stride;
        let mut tile = [0u64; 64];
        for bi in 0..stride {
            let row0 = bi * 64;
            let rows = 64.min(self.n - row0);
            for bj in 0..stride {
                let mut any = 0u64;
                for (k, t) in tile.iter_mut().enumerate() {
                    *t = if k < rows {
                        self.words[(row0 + k) * stride + bj]
                    } else {
                        0
                    };
                    any |= *t;
                }
                if any == 0 {
                    continue;
                }
                transpose64(&mut tile);
                let col0 = bj * 64;
                let cols = 64.min(self.n - col0);
                for (k, &t) in tile.iter().take(cols).enumerate() {
                    if t != 0 {
                        out.words[(col0 + k) * stride + bi] = t;
                    }
                }
            }
        }
        out
    }

    /// The pre-optimisation transpose: one `set` call per stored bit,
    /// driven by the [`NodeMatrix::successors`] iterator.  Kept as the
    /// reference implementation for the property tests pinning the
    /// word-blocked [`NodeMatrix::transpose`].
    pub fn transpose_naive(&self) -> NodeMatrix {
        let mut out = NodeMatrix::empty(self.n);
        for u in 0..self.n {
            let id = NodeId(u as u32);
            for v in self.successors(id) {
                out.set(v, id);
            }
        }
        out
    }

    /// The set of start nodes with at least one successor
    /// (`{u | ∃v. M[u,v]}`).
    pub fn nonempty_rows(&self) -> NodeSet {
        let mut s = NodeSet::empty(self.n);
        for u in 0..self.n {
            let id = NodeId(u as u32);
            if self.row_nonempty(id) {
                s.insert(id);
            }
        }
        s
    }

    /// Collect the relation as a sorted vector of pairs (for tests and small
    /// result reporting).
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.count_pairs());
        for u in 0..self.n {
            let id = NodeId(u as u32);
            for v in self.successors(id) {
                out.push((id, v));
            }
        }
        out
    }
}

/// Minimum dimension for which [`NodeMatrix::product_threaded`] actually
/// spawns threads; below this the serial product wins.
pub const PARALLEL_MIN_DIM: usize = 256;

/// Tabulate the 256 OR-combinations of the eight `B` rows `8g .. 8g+8`
/// (rows past the domain count as zero).  Entry `c` extends entry
/// `c & (c-1)` — the combination without `c`'s lowest set bit — by row
/// `8g + trailing_zeros(c)`, so the whole table costs 255 row-ORs.
fn build_group_table(b: &[u64], n: usize, stride: usize, g: usize, table: &mut [u64]) {
    table[..stride].fill(0);
    let rows = (n - 8 * g).min(8);
    for c in 1..256usize {
        let i = c.trailing_zeros() as usize;
        let rest = (c & (c - 1)) * stride;
        let dst = c * stride;
        if i >= rows {
            table.copy_within(rest..rest + stride, dst);
            continue;
        }
        let row = (8 * g + i) * stride;
        for k in 0..stride {
            table[dst + k] = table[rest + k] | b[row + k];
        }
    }
}

/// OR the tabulated combinations of one 8-row group into the output: row
/// `r` of `out_rows` absorbs `table[byte g of row r of a_rows]`.  All-zero
/// bytes (no set bit in those eight columns) skip in O(1).
fn apply_group_table(a_rows: &[u64], out_rows: &mut [u64], stride: usize, g: usize, table: &[u64]) {
    let word = g / 8;
    let shift = (g % 8) * 8;
    for (a_row, out_row) in a_rows
        .chunks_exact(stride)
        .zip(out_rows.chunks_exact_mut(stride))
    {
        let byte = ((a_row[word] >> shift) & 0xFF) as usize;
        if byte == 0 {
            continue;
        }
        let t = &table[byte * stride..(byte + 1) * stride];
        for (o, &w) in out_row.iter_mut().zip(t) {
            *o |= w;
        }
    }
}

/// Transpose a 64×64 bit block in place (bit `j` of `a[k]` swaps with bit
/// `k` of `a[j]`) via the log-depth butterfly of Hacker's Delight §7-3:
/// swap 32×32 half-blocks, then 16×16, … down to single bits, each level in
/// 64 word operations.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k | j] ^= t;
            a[k] ^= t << j;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Allocation-free iterator over the set columns of one matrix row, in
/// ascending column order.  Returned by [`NodeMatrix::successors`].
pub struct SuccessorIter<'a> {
    words: &'a [u64],
    /// Index of the next word to load.
    next_word: usize,
    /// Column of bit 0 of the word currently being drained.
    base: usize,
    /// Remaining bits of the current word.
    current: u64,
}

impl Iterator for SuccessorIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            let &w = self.words.get(self.next_word)?;
            self.base = self.next_word * 64;
            self.next_word += 1;
            self.current = w;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId((self.base + bit) as u32))
    }
}

impl fmt::Debug for NodeMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "NodeMatrix({}x{})", self.n, self.n)?;
        if self.n <= 32 {
            for u in 0..self.n {
                let row: String = (0..self.n)
                    .map(|v| {
                        if self.get(NodeId(u as u32), NodeId(v as u32)) {
                            '1'
                        } else {
                            '.'
                        }
                    })
                    .collect();
                writeln!(f, "  {row}")?;
            }
        } else {
            writeln!(f, "  ({} pairs)", self.count_pairs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(n: usize, pairs: &[(u32, u32)]) -> NodeMatrix {
        let mut out = NodeMatrix::empty(n);
        for &(u, v) in pairs {
            out.set(NodeId(u), NodeId(v));
        }
        out
    }

    #[test]
    fn set_get_count() {
        let mut a = NodeMatrix::empty(70);
        assert!(a.is_relation_empty());
        a.set(NodeId(0), NodeId(69));
        a.set(NodeId(69), NodeId(0));
        assert!(a.get(NodeId(0), NodeId(69)));
        assert!(!a.get(NodeId(69), NodeId(69)));
        assert_eq!(a.count_pairs(), 2);
        assert_eq!(
            a.pairs(),
            vec![(NodeId(0), NodeId(69)), (NodeId(69), NodeId(0))]
        );
    }

    #[test]
    fn identity_and_full() {
        let id = NodeMatrix::identity(65);
        assert_eq!(id.count_pairs(), 65);
        let full = NodeMatrix::full(65);
        assert_eq!(full.count_pairs(), 65 * 65);
        let mut c = full.clone();
        c.complement();
        assert!(c.is_relation_empty());
    }

    #[test]
    fn complement_respects_domain_tail() {
        for n in [1, 63, 64, 65, 130] {
            let mut m = NodeMatrix::empty(n);
            m.complement();
            assert_eq!(m.count_pairs(), n * n, "n={n}");
        }
    }

    #[test]
    fn product_matches_naive_product() {
        // Pseudo-random sparse matrices over a domain straddling a word
        // boundary.
        let n = 70;
        let mut a = NodeMatrix::empty(n);
        let mut b = NodeMatrix::empty(n);
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..300 {
            a.set(NodeId((next() % n) as u32), NodeId((next() % n) as u32));
            b.set(NodeId((next() % n) as u32), NodeId((next() % n) as u32));
        }
        let fast = a.product(&b);
        let slow = a.product_naive(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn product_is_relation_composition() {
        let a = m(5, &[(0, 1), (1, 2)]);
        let b = m(5, &[(1, 3), (2, 4)]);
        let c = a.product(&b);
        assert_eq!(
            c.pairs(),
            vec![(NodeId(0), NodeId(3)), (NodeId(1), NodeId(4))]
        );
        // Identity is neutral.
        assert_eq!(a.product(&NodeMatrix::identity(5)), a);
        assert_eq!(NodeMatrix::identity(5).product(&a), a);
    }

    #[test]
    fn diagonal_filter_selects_rows_with_successors() {
        let a = m(4, &[(0, 3), (2, 1)]);
        let d = a.diagonal_filter();
        assert_eq!(
            d.pairs(),
            vec![(NodeId(0), NodeId(0)), (NodeId(2), NodeId(2))]
        );
        assert_eq!(
            d.nonempty_rows().iter().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn union_intersection_difference() {
        let mut a = m(4, &[(0, 1), (1, 2)]);
        let b = m(4, &[(1, 2), (2, 3)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count_pairs(), 3);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.pairs(), vec![(NodeId(1), NodeId(2))]);
        a.difference_with(&b);
        assert_eq!(a.pairs(), vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn transpose_inverts_pairs() {
        let a = m(4, &[(0, 1), (2, 3)]);
        let t = a.transpose();
        assert_eq!(
            t.pairs(),
            vec![(NodeId(1), NodeId(0)), (NodeId(3), NodeId(2))]
        );
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn successors_iteration() {
        let a = m(70, &[(5, 0), (5, 64), (5, 69)]);
        let succ: Vec<_> = a.successors(NodeId(5)).collect();
        assert_eq!(succ, vec![NodeId(0), NodeId(64), NodeId(69)]);
        assert!(a.successors(NodeId(6)).next().is_none());
    }

    #[test]
    fn blocked_transpose_matches_per_bit_transpose() {
        for n in [1usize, 5, 63, 64, 65, 130, 200] {
            let mut a = NodeMatrix::empty(n);
            let mut state = 0x5EEDu64.wrapping_add(n as u64);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            for _ in 0..3 * n {
                a.set(NodeId((next() % n) as u32), NodeId((next() % n) as u32));
            }
            assert_eq!(a.transpose(), a.transpose_naive(), "n={n}");
        }
    }

    #[test]
    fn blocked_product_matches_naive_product_at_word_boundaries() {
        // The Four-Russians kernel groups columns in bytes and rows in
        // words; every off-by-one shows up at n ∈ {1, 7, 8, 9, 63, 64, 65}.
        for n in [1usize, 7, 8, 9, 63, 64, 65, 130] {
            let mut a = NodeMatrix::empty(n);
            let mut b = NodeMatrix::empty(n);
            let mut state = 0xB10Cu64.wrapping_add(n as u64);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            for _ in 0..4 * n {
                a.set(NodeId((next() % n) as u32), NodeId((next() % n) as u32));
                b.set(NodeId((next() % n) as u32), NodeId((next() % n) as u32));
            }
            assert_eq!(a.product_blocked(&b), a.product_naive(&b), "n={n}");
        }
        assert_eq!(
            NodeMatrix::empty(0)
                .product_blocked(&NodeMatrix::empty(0))
                .len(),
            0
        );
    }

    #[test]
    fn blocked_product_handles_dense_operands() {
        let n = 100;
        let full = NodeMatrix::full(n);
        let id = NodeMatrix::identity(n);
        assert_eq!(full.product_blocked(&id), full);
        assert_eq!(id.product_blocked(&full), full);
        assert_eq!(full.product_blocked(&full), full);
    }

    #[test]
    fn dense_guard_rejects_absurd_allocations() {
        assert!(dense_guard(0).is_ok());
        assert!(dense_guard(1024).is_ok());
        // 1M nodes → ~125 GB: must refuse, not abort.
        let err = dense_guard(1_000_000).unwrap_err();
        assert_eq!(err.n, 1_000_000);
        assert!(err.required_bytes > DENSE_BYTE_LIMIT as u128);
        assert!(err.to_string().contains("1000000"));
        // Sizes that would overflow `n * stride` on 32-bit-ish math are
        // still reported, not wrapped.
        assert!(dense_guard(usize::MAX / 2).is_err());
        assert!(NodeMatrix::try_empty(1_000_000).is_err());
        assert_eq!(NodeMatrix::try_empty(64).unwrap().len(), 64);
    }

    #[test]
    fn threaded_product_matches_serial_product() {
        // Exercise both the serial fallback (n < PARALLEL_MIN_DIM) and the
        // scoped-thread path.
        for n in [65usize, PARALLEL_MIN_DIM + 13] {
            let mut a = NodeMatrix::empty(n);
            let mut b = NodeMatrix::empty(n);
            let mut state = 0xF00Du64.wrapping_add(n as u64);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            for _ in 0..4 * n {
                a.set(NodeId((next() % n) as u32), NodeId((next() % n) as u32));
                b.set(NodeId((next() % n) as u32), NodeId((next() % n) as u32));
            }
            assert_eq!(a.product_threaded(&b), a.product(&b), "n={n}");
        }
    }

    #[test]
    fn fill_row_range_matches_per_bit_sets() {
        for n in [1usize, 63, 64, 65, 130] {
            for (lo, hi) in [(0, 0), (0, 1), (0, n), (n / 3, 2 * n / 3 + 1), (n - 1, n)] {
                let mut filled = NodeMatrix::empty(n);
                filled.fill_row_range(NodeId(0), lo, hi);
                let mut reference = NodeMatrix::empty(n);
                for v in lo..hi {
                    reference.set(NodeId(0), NodeId(v as u32));
                }
                assert_eq!(filled, reference, "n={n} range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn debug_rendering_small_and_large() {
        let a = m(3, &[(0, 1)]);
        let s = format!("{a:?}");
        assert!(s.contains(".1."));
        let big = NodeMatrix::empty(100);
        assert!(format!("{big:?}").contains("pairs"));
    }

    // -- word-boundary edge cases ------------------------------------------
    //
    // The bit-packed storage strides in 64-bit words; every off-by-one in
    // `clear_tails` / `stride` shows up exactly at n ∈ {0, 1, 63, 64, 65}.

    /// Word counts per row for the boundary sizes.
    #[test]
    fn stride_at_word_boundaries() {
        for (n, words_per_row) in [(0usize, 0usize), (1, 1), (63, 1), (64, 1), (65, 2)] {
            let m = NodeMatrix::empty(n);
            assert_eq!(m.stride, words_per_row, "n={n}");
            assert_eq!(m.words.len(), n * words_per_row, "n={n}");
            assert_eq!(m.len(), n);
            assert_eq!(m.count_pairs(), 0, "n={n}");
            if n >= 1 {
                assert_eq!(m.row_words(NodeId(0)).len(), words_per_row, "n={n}");
            }
        }
    }

    #[test]
    fn zero_sized_matrix_supports_every_operation() {
        let mut z = NodeMatrix::empty(0);
        assert!(z.is_empty());
        assert!(z.is_relation_empty());
        assert_eq!(z.count_pairs(), 0);
        assert!(z.pairs().is_empty());
        z.complement();
        assert_eq!(z.count_pairs(), 0, "complement must not invent bits");
        let f = NodeMatrix::full(0);
        assert_eq!(f.count_pairs(), 0);
        assert_eq!(z.product(&f).count_pairs(), 0);
        assert_eq!(z.transpose().len(), 0);
        assert_eq!(z.diagonal_filter().len(), 0);
        assert_eq!(NodeMatrix::identity(0).count_pairs(), 0);
    }

    #[test]
    fn single_node_matrix() {
        let mut one = NodeMatrix::full(1);
        assert_eq!(one.count_pairs(), 1);
        assert!(one.get(NodeId(0), NodeId(0)));
        assert_eq!(one, NodeMatrix::identity(1));
        assert_eq!(one.product(&one), one);
        assert_eq!(one.transpose(), one);
        one.complement();
        assert!(one.is_relation_empty());
    }

    #[test]
    fn full_clears_tail_bits_exactly() {
        // The tail mask is what separates `count_pairs` from over-counting:
        // at n=63 one spare bit per row, at n=64 none, at n=65 63 spare bits
        // in the second word of each row.
        for (n, last_word_mask) in [(1usize, 1u64), (63, u64::MAX >> 1), (64, u64::MAX), (65, 1)] {
            let f = NodeMatrix::full(n);
            assert_eq!(f.count_pairs(), n * n, "n={n}");
            for u in 0..n {
                let row = f.row_words(NodeId(u as u32));
                assert_eq!(*row.last().unwrap(), last_word_mask, "n={n} row {u}");
                for w in &row[..row.len() - 1] {
                    assert_eq!(*w, u64::MAX, "n={n} row {u} interior word");
                }
            }
            // The last column must be populated and column n (if it existed)
            // must not leak into `successors`.
            let succ: Vec<NodeId> = f.successors(NodeId(0)).collect();
            assert_eq!(succ.len(), n, "n={n}");
            assert_eq!(succ.last(), Some(&NodeId(n as u32 - 1)), "n={n}");
        }
    }

    #[test]
    fn product_round_trips_at_word_boundaries() {
        // (A·I) = (I·A) = A, and A·F has exactly `nonempty_rows(A) * n`
        // pairs, for domains on both sides of the word boundary.
        for n in [1usize, 63, 64, 65] {
            let mut a = NodeMatrix::empty(n);
            // A sparse pattern touching the first, last and boundary columns.
            let cols = [0, n / 2, n - 1];
            for (i, &c) in cols.iter().enumerate() {
                a.set(NodeId((i % n) as u32), NodeId(c as u32));
            }
            let id = NodeMatrix::identity(n);
            assert_eq!(a.product(&id), a, "A·I, n={n}");
            assert_eq!(id.product(&a), a, "I·A, n={n}");
            let f = NodeMatrix::full(n);
            let af = a.product(&f);
            assert_eq!(af.count_pairs(), a.nonempty_rows().len() * n, "A·F, n={n}");
            assert_eq!(a.product(&a), a.product_naive(&a), "A·A, n={n}");
        }
    }

    #[test]
    fn transpose_round_trips_at_word_boundaries() {
        for n in [1usize, 63, 64, 65] {
            let mut a = NodeMatrix::empty(n);
            a.set(NodeId(0), NodeId(n as u32 - 1));
            if n > 1 {
                a.set(NodeId(n as u32 - 1), NodeId(1));
            }
            let t = a.transpose();
            assert_eq!(t.transpose(), a, "Aᵀᵀ = A, n={n}");
            assert!(t.get(NodeId(n as u32 - 1), NodeId(0)), "n={n}");
            // Full and identity are symmetric; transposition fixes them.
            assert_eq!(NodeMatrix::full(n).transpose(), NodeMatrix::full(n));
            assert_eq!(NodeMatrix::identity(n).transpose(), NodeMatrix::identity(n));
            // (A·B)ᵀ = Bᵀ·Aᵀ.
            let b = NodeMatrix::full(n);
            assert_eq!(
                a.product(&b).transpose(),
                b.transpose().product(&a.transpose()),
                "n={n}"
            );
        }
    }
}
