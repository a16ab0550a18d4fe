//! Large-document stress tests for the lazy relation algebra.
//!
//! These are the `|t| ≫ 960` scenarios the lazy kernels exist for: documents
//! where a single dense complement matrix (`|t|²/8` bytes) would not even
//! allocate.  The 1M-node run is `#[ignore]`d — fast in release (~1 s) but
//! disproportionately slow under the debug profile the default suite uses —
//! and is exercised in release by hand or by scheduled CI:
//!
//! ```text
//! cargo test -p xpath_tests --release --test lazy_stress -- --ignored
//! ```

use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::parse_path;
use xpath_pplbin::{KernelMode, MatrixStore, DENSE_BYTE_LIMIT};
use xpath_tree::generate::dblp;
use xpath_tree::NodeId;

/// Compile `src` (a variable-free path) through a lazy store over `tree`
/// and return the store and the successor source.
fn lazy_source(tree: &xpath_tree::Tree, src: &str) -> (MatrixStore, xpath_pplbin::SuccessorSource) {
    let path = parse_path(src).unwrap();
    let bin = from_variable_free_path(&path).unwrap();
    let mut store = MatrixStore::with_mode(tree.len(), KernelMode::Lazy);
    let source = store
        .successor_source(tree, &bin)
        .expect("lazy compilation must not densify");
    (store, source)
}

/// At 100k nodes a dense complement is ~1.25 GB — still under the byte
/// limit, but the lazy path must answer per-row queries while staying a
/// couple of orders of magnitude below it.
#[test]
fn lazy_rows_on_100k_nodes_stay_memory_bounded() {
    let tree = dblp(100_000, 0xE14);
    let n = tree.len() as u64;
    // Nodes that are not articles, restricted to author parents — eager
    // evaluation of the `except` compiles a complement-shaped product.
    let (store, source) = lazy_source(
        &tree,
        "(descendant-or-self::* except descendant::article)/child::author",
    );
    assert_eq!(source.len(), tree.len());
    let mut pairs = 0usize;
    for u in (0..1_000u64).map(|i| NodeId((i * (n / 1_000)) as u32)) {
        pairs += source.row_vec(u).len();
        let _ = source.row_nonempty(u);
    }
    assert!(pairs > 0, "stress query selected nothing");
    // 1000 rows of a 100k-node document: far below the dense 1.25 GB.
    assert!(
        store.approx_bytes() < 64 << 20,
        "lazy store ballooned to {} bytes",
        store.approx_bytes()
    );
}

/// The headline scenario: |t| = 1,000,000.  A dense complement would need
/// `10¹²/8 = 125 GB`, far past [`DENSE_BYTE_LIMIT`]; the lazy store must
/// still answer row queries, and *forcing* the relation must fail with a
/// capacity error instead of aborting the process.
#[test]
#[ignore = "1M-node stress run; fast in release, slow under the debug profile"]
fn lazy_rows_on_1m_nodes_answer_without_densifying() {
    let tree = dblp(1_000_000, 0xE14);
    assert_eq!(tree.len(), 1_000_000);
    let dense_bytes = (tree.len() as u128 * tree.len() as u128).div_ceil(8);
    assert!(dense_bytes > DENSE_BYTE_LIMIT as u128);

    let path = parse_path("descendant-or-self::* except descendant::article").unwrap();
    let bin = from_variable_free_path(&path).unwrap();
    let mut store = MatrixStore::with_mode(tree.len(), KernelMode::Lazy);
    let source = store
        .successor_source(&tree, &bin)
        .expect("lazy compilation must not densify");

    // Sample rows across the document; each pull is per-row work only.
    let mut nonempty = 0usize;
    for u in (0..200u32).map(|i| NodeId(i * 5_000)) {
        if !source.row_vec(u).is_empty() {
            nonempty += 1;
        }
    }
    assert!(nonempty > 0, "stress query selected nothing");
    assert!(
        store.approx_bytes() < 1 << 30,
        "lazy store ballooned to {} bytes",
        store.approx_bytes()
    );

    // Eager materialisation of the same relation must refuse, not abort.
    let err = store
        .try_eval_relation(&tree, &bin)
        .expect_err("forcing a 1M-node complement must exceed the dense guard");
    let msg = err.to_string();
    assert!(msg.contains("1000000"), "unexpected capacity error: {msg}");
}
