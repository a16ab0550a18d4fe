//! Differential property tests (proptest shim) for [`NodeMatrix`].
//!
//! The bit-packed storage strides in 64-bit words, so every off-by-one in
//! the tail masking shows up exactly at domain sizes n ∈ {63, 64, 65}.  The
//! tests below pin the word-parallel operations to their per-entry
//! reference semantics on random matrices straddling the word boundary, and
//! check the tail-clearing invariant after *chains* of complement and
//! difference operations (a single op can clear tails by luck; chains
//! cannot).

use proptest::prelude::*;
use xpath_pplbin::NodeMatrix;
use xpath_tree::NodeId;

/// The word-boundary domain sizes under test.
const BOUNDARY_SIZES: [usize; 3] = [63, 64, 65];

fn matrix_from_pairs(n: usize, pairs: &[(usize, usize)]) -> NodeMatrix {
    let mut m = NodeMatrix::empty(n);
    for &(u, v) in pairs {
        m.set(NodeId((u % n) as u32), NodeId((v % n) as u32));
    }
    m
}

/// Brute-force pair count via `get`, independent of the packed counters.
fn count_by_get(m: &NodeMatrix) -> usize {
    let n = m.len();
    let mut count = 0;
    for u in 0..n {
        for v in 0..n {
            if m.get(NodeId(u as u32), NodeId(v as u32)) {
                count += 1;
            }
        }
    }
    count
}

/// The tail-clearing invariant: no stored bit outside the n×n domain.
///
/// `count_pairs` sums raw popcounts and `successors` walks raw words, so if
/// a tail bit leaked, one of the three comparisons below must diverge.
fn assert_tails_clear(m: &NodeMatrix, context: &str) {
    let n = m.len();
    assert_eq!(
        m.count_pairs(),
        count_by_get(m),
        "{context}: popcount vs get"
    );
    for u in 0..n {
        let row: Vec<NodeId> = m.successors(NodeId(u as u32)).collect();
        assert!(
            row.iter().all(|v| v.index() < n),
            "{context}: successors leaked a column ≥ n in row {u}: {row:?}"
        );
    }
    assert_eq!(
        m.pairs().len(),
        m.count_pairs(),
        "{context}: pairs() vs count_pairs()"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn product_matches_naive_product_across_word_boundaries(
        pairs_a in prop::collection::vec((0usize..65, 0usize..65), 0..240),
        pairs_b in prop::collection::vec((0usize..65, 0usize..65), 0..240),
    ) {
        for &n in &BOUNDARY_SIZES {
            let a = matrix_from_pairs(n, &pairs_a);
            let b = matrix_from_pairs(n, &pairs_b);
            let fast = a.product(&b);
            let slow = a.product_naive(&b);
            prop_assert_eq!(&fast, &slow, "product disagrees at n={}", n);
            assert_tails_clear(&fast, &format!("product n={n}"));
        }
    }

    #[test]
    fn blocked_transpose_matches_per_bit_transpose_across_word_boundaries(
        pairs in prop::collection::vec((0usize..130, 0usize..130), 0..400),
    ) {
        // The word-blocked 64×64 tile transpose must agree bit-for-bit with
        // the per-bit reference (`transpose_naive`) on every domain size
        // around the word boundary, including multi-word rows.
        for &n in &[1usize, 63, 64, 65, 128, 130] {
            let a = matrix_from_pairs(n, &pairs);
            let blocked = a.transpose();
            let per_bit = a.transpose_naive();
            prop_assert_eq!(&blocked, &per_bit, "transpose disagrees at n={}", n);
            assert_tails_clear(&blocked, &format!("transpose n={n}"));
            // Involution and product contravariance as sanity checks.
            prop_assert_eq!(blocked.transpose(), a.clone(), "Aᵀᵀ != A at n={}", n);
            let b = matrix_from_pairs(n, &pairs[..pairs.len() / 2]);
            prop_assert_eq!(
                a.product(&b).transpose(),
                b.transpose().product(&a.transpose()),
                "(A·B)ᵀ != Bᵀ·Aᵀ at n={}", n
            );
        }
    }

    #[test]
    fn complement_and_difference_clear_tails_after_chained_ops(
        pairs_a in prop::collection::vec((0usize..65, 0usize..65), 0..200),
        pairs_b in prop::collection::vec((0usize..65, 0usize..65), 0..200),
    ) {
        for &n in &BOUNDARY_SIZES {
            let a = matrix_from_pairs(n, &pairs_a);
            let b = matrix_from_pairs(n, &pairs_b);

            // Involution: ¬¬A = A, and ¬A has exactly the complementary count.
            let mut c = a.clone();
            c.complement();
            assert_tails_clear(&c, &format!("¬A n={n}"));
            prop_assert_eq!(c.count_pairs(), n * n - a.count_pairs());
            c.complement();
            prop_assert_eq!(&c, &a, "double complement at n={}", n);

            // A ∖ B == A ∧ ¬B, entry for entry.
            let mut diff = a.clone();
            diff.difference_with(&b);
            let mut via_complement = a.clone();
            let mut not_b = b.clone();
            not_b.complement();
            via_complement.intersect_with(&not_b);
            prop_assert_eq!(&diff, &via_complement, "A∖B vs A∧¬B at n={}", n);
            assert_tails_clear(&diff, &format!("A∖B n={n}"));

            // Chained: ((¬A ∖ B) ∪ ¬B) then product with the full relation —
            // every intermediate must keep the tail clear or the final
            // counts blow past n².
            let mut chained = a.clone();
            chained.complement();
            chained.difference_with(&b);
            let mut not_b2 = b.clone();
            not_b2.complement();
            chained.union_with(&not_b2);
            assert_tails_clear(&chained, &format!("chain n={n}"));
            let widened = chained.product(&NodeMatrix::full(n));
            assert_tails_clear(&widened, &format!("chain·F n={n}"));
            prop_assert!(widened.count_pairs() <= n * n);
            prop_assert_eq!(
                widened.count_pairs(),
                chained.nonempty_rows().len() * n,
                "M·F must have |nonempty rows|·n pairs at n={}", n
            );

            // Difference with self empties the relation; complement of the
            // empty relation is full — tails must survive the round trip.
            let mut zero = chained.clone();
            let chained_copy = chained.clone();
            zero.difference_with(&chained_copy);
            prop_assert!(zero.is_relation_empty());
            zero.complement();
            prop_assert_eq!(zero.count_pairs(), n * n, "¬∅ must be full at n={}", n);
        }
    }
}
