//! Differential property tests for the adaptive [`Relation`] kernels.
//!
//! Every kernel (interval, sparse, dense, threaded) must agree with the
//! per-entry reference semantics — `NodeMatrix::product_naive` for
//! composition and the element-wise dense operations for the rest — on
//!
//! * random relations in every representation, at the word-boundary domain
//!   sizes n ∈ {0, 1, 63, 64, 65} where tail-masking bugs live, and
//! * step relations and full PPLbin expressions over random trees from the
//!   existing generators (all shape families, so the interval kernels see
//!   deep paths and the sibling kernels see stars).

use proptest::prelude::*;
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::{parse_path, NameTest};
use xpath_pplbin::{
    eval_relation, step_matrix, step_relation, KernelMode, KernelStats, NodeMatrix, Relation,
    SparseRows,
};
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_tree::{axes::ALL_AXES, NodeId};

/// The word-boundary domain sizes under test (0 exercises the zero-row
/// matrix; trees cannot be empty, so it only appears in the raw-relation
/// tests).
const BOUNDARY_SIZES: [usize; 5] = [0, 1, 63, 64, 65];

const ALL_MODES: [KernelMode; 3] = [
    KernelMode::Dense,
    KernelMode::Adaptive,
    KernelMode::AdaptiveThreaded,
];

fn matrix_from_pairs(n: usize, pairs: &[(usize, usize)]) -> NodeMatrix {
    let mut m = NodeMatrix::empty(n);
    if n == 0 {
        return m;
    }
    for &(u, v) in pairs {
        m.set(NodeId((u % n) as u32), NodeId((v % n) as u32));
    }
    m
}

/// A pool of relations over the same domain, one per representation, all
/// derived from the same random raw material.
fn variant_pool(n: usize, pairs: &[(usize, usize)], ranges: &[(usize, usize)]) -> Vec<Relation> {
    let mut pool = vec![
        Relation::Identity(n),
        Relation::Full(n),
        Relation::empty(n),
        Relation::Dense(matrix_from_pairs(n, pairs)),
        Relation::from_matrix(matrix_from_pairs(n, pairs)),
    ];
    // Interval rows from the random ranges (cycled over the rows).
    if n > 0 {
        let rows: Vec<(u32, u32)> = (0..n)
            .map(|u| {
                let (a, b) = ranges[u % ranges.len().max(1)];
                let lo = (a % n) as u32;
                let hi = (b % (n + 1)) as u32;
                if lo < hi {
                    (lo, hi)
                } else {
                    (0, 0)
                }
            })
            .collect();
        pool.push(Relation::Interval { n, rows });
        // CSR from the sorted pair list.
        let mut sorted: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(u, v)| ((u % n) as u32, (v % n) as u32))
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        pool.push(Relation::Sparse(SparseRows::from_sorted_pairs(n, &sorted)));
    }
    pool
}

/// Compare a relation against its dense materialisation, entry by entry and
/// through the row accessors.
fn assert_faithful(r: &Relation, context: &str) {
    let m = r.to_matrix();
    let n = r.len();
    assert_eq!(r.count_pairs(), m.count_pairs(), "{context}: count_pairs");
    assert_eq!(r.pairs(), m.pairs(), "{context}: pairs");
    for u in 0..n {
        let id = NodeId(u as u32);
        let list = r.successor_list(id);
        let expected: Vec<NodeId> = m.successors(id).collect();
        assert_eq!(list, expected, "{context}: successors of {u}");
        assert_eq!(
            r.row_nonempty(id),
            !expected.is_empty(),
            "{context}: row {u}"
        );
        for v in 0..n {
            assert_eq!(
                r.get(id, NodeId(v as u32)),
                m.get(id, NodeId(v as u32)),
                "{context}: get({u},{v})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_product_kernel_matches_product_naive(
        pairs_a in prop::collection::vec((0usize..65, 0usize..65), 0..160),
        pairs_b in prop::collection::vec((0usize..65, 0usize..65), 0..160),
        ranges in prop::collection::vec((0usize..65, 0usize..66), 1..8),
    ) {
        for &n in &BOUNDARY_SIZES {
            let left = variant_pool(n, &pairs_a, &ranges);
            let right = variant_pool(n, &pairs_b, &ranges);
            let mut stats = KernelStats::default();
            for a in &left {
                for b in &right {
                    let want = a.to_matrix().product_naive(&b.to_matrix());
                    for mode in ALL_MODES {
                        let got = a.product(b, mode, &mut stats);
                        prop_assert_eq!(
                            got.to_matrix(), want.clone(),
                            "{} · {} under {:?} at n={}",
                            a.variant_name(), b.variant_name(), mode, n
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn union_intersect_complement_diag_transpose_match_dense_reference(
        pairs_a in prop::collection::vec((0usize..65, 0usize..65), 0..120),
        pairs_b in prop::collection::vec((0usize..65, 0usize..65), 0..120),
        ranges in prop::collection::vec((0usize..65, 0usize..66), 1..8),
    ) {
        for &n in &BOUNDARY_SIZES {
            let left = variant_pool(n, &pairs_a, &ranges);
            let right = variant_pool(n, &pairs_b, &ranges);
            let mut stats = KernelStats::default();
            for a in &left {
                assert_faithful(a, &format!("{} n={n}", a.variant_name()));
                let am = a.to_matrix();
                for mode in ALL_MODES {
                    let mut want_c = am.clone();
                    want_c.complement();
                    prop_assert_eq!(
                        a.complement(mode, &mut stats).to_matrix(), want_c,
                        "¬{} under {:?} at n={}", a.variant_name(), mode, n
                    );
                    prop_assert_eq!(
                        a.diagonal_filter(mode, &mut stats).to_matrix(),
                        am.diagonal_filter(),
                        "[{}] under {:?} at n={}", a.variant_name(), mode, n
                    );
                    prop_assert_eq!(
                        a.transpose(mode, &mut stats).to_matrix(),
                        am.transpose(),
                        "{}ᵀ under {:?} at n={}", a.variant_name(), mode, n
                    );
                }
                for b in &right {
                    let bm = b.to_matrix();
                    for mode in ALL_MODES {
                        let mut want_u = am.clone();
                        want_u.union_with(&bm);
                        prop_assert_eq!(
                            a.union(b, mode, &mut stats).to_matrix(), want_u,
                            "{} ∪ {} under {:?} at n={}",
                            a.variant_name(), b.variant_name(), mode, n
                        );
                        let mut want_i = am.clone();
                        want_i.intersect_with(&bm);
                        prop_assert_eq!(
                            a.intersect(b, mode, &mut stats).to_matrix(), want_i,
                            "{} ∩ {} under {:?} at n={}",
                            a.variant_name(), b.variant_name(), mode, n
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn step_relations_match_brute_force_on_random_trees(
        seed in 0u64..1_000_000,
        size in 2usize..70,
    ) {
        for shape in [
            TreeShape::RandomAttachment,
            TreeShape::BoundedBranching { max_children: 4 },
            TreeShape::Path,
            TreeShape::Star,
        ] {
            let tree = random_tree(&TreeGenConfig { size, shape, alphabet: 3, seed });
            let n = tree.len();
            for axis in ALL_AXES {
                for test in [NameTest::Wildcard, NameTest::name("l0"), NameTest::name("zzz")] {
                    let r = step_relation(&tree, axis, &test);
                    let mut want = NodeMatrix::empty(n);
                    for u in tree.nodes() {
                        for v in tree.nodes() {
                            if axis.relates(&tree, u, v) && test.matches(tree.label_str(v)) {
                                want.set(u, v);
                            }
                        }
                    }
                    prop_assert_eq!(
                        r.to_matrix(), want,
                        "{:?} {:?} on {:?} seed {} size {}", axis, test, shape, seed, size
                    );
                }
            }
        }
    }

    #[test]
    fn eval_relation_modes_agree_on_random_trees(
        seed in 0u64..1_000_000,
        size in 2usize..90,
    ) {
        let suite: Vec<_> = [
            "descendant::*/child::l0",
            "child::*/child::*/child::*",
            "descendant::l1/ancestor::*",
            "descendant::*/descendant::*",
            "(child::l0 union following_sibling::*)/descendant::l2",
            "descendant::* except child::*",
            "descendant::*[child::l0]",
            "parent::*/descendant::l0",
        ]
        .iter()
        .map(|s| from_variable_free_path(&parse_path(s).unwrap()).unwrap())
        .collect();
        for shape in [TreeShape::BoundedBranching { max_children: 3 }, TreeShape::Path] {
            let tree = random_tree(&TreeGenConfig { size, shape, alphabet: 3, seed });
            for bin in &suite {
                let mut stats = KernelStats::default();
                let dense = eval_relation(&tree, bin, KernelMode::Dense, &mut stats).to_matrix();
                for mode in [KernelMode::Adaptive, KernelMode::AdaptiveThreaded] {
                    let got = eval_relation(&tree, bin, mode, &mut stats).to_matrix();
                    prop_assert_eq!(
                        &got, &dense,
                        "{:?} disagrees with dense on {:?} seed {} size {}",
                        mode, shape, seed, size
                    );
                }
            }
        }
    }
}

#[test]
fn step_matrix_is_the_materialised_step_relation() {
    let tree = random_tree(&TreeGenConfig {
        size: 40,
        shape: TreeShape::BoundedBranching { max_children: 4 },
        alphabet: 2,
        seed: 7,
    });
    for axis in ALL_AXES {
        for test in [NameTest::Wildcard, NameTest::name("l1")] {
            assert_eq!(
                step_relation(&tree, axis, &test).to_matrix(),
                step_matrix(&tree, axis, &test),
                "{axis:?} {test:?}"
            );
        }
    }
}
