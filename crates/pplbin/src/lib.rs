//! # `xpath_pplbin` — the Boolean-matrix engine for PPLbin (Theorem 2)
//!
//! Section 4 of the paper gives an algorithm answering binary queries of the
//! variable-free language **PPLbin** (Core XPath 1.0 + `except`) in time
//! `O(|P|·|t|³)`: the binary query of an expression `P` over a tree `t` is
//! represented as a `|t|×|t|` Boolean matrix `M_P^t`, and the operators map
//! to matrix operations over the Boolean semiring:
//!
//! ```text
//! M_{P1/P2}        = M_{P1} · M_{P2}          (Boolean product)
//! M_{P1 union P2}  = M_{P1} + M_{P2}          (element-wise ∨)
//! M_{except P}     = ¬ M_P                     (element-wise complement)
//! M_{[P]}          = [M_P]                     (diagonal of rows with a 1)
//! ```
//!
//! This crate provides:
//!
//! * [`matrix::NodeMatrix`] — bit-packed Boolean node×node matrices with the
//!   four operations above (the product is the naïve cubic one, word-
//!   parallelised over 64-bit blocks, exactly the bound the paper uses;
//!   the `O(n^2.376)` fast-multiplication remark of the paper is out of
//!   scope, see DESIGN.md);
//! * [`eval`] — evaluation of [`xpath_ast::BinExpr`] to matrices
//!   ([`eval::answer_binary`]), including step-matrix construction for every
//!   axis;
//! * [`corexpath1`] — set-at-a-time evaluation after Gottlob–Koch–Pichler:
//!   the *linear-time* evaluator of the `except`-free fragment (Core XPath
//!   1.0, the E9 baseline and the unary queries recalled in Section 4), and
//!   the node sets of *diagonals* — subsets of the identity such as
//!   `self::name`, `[P]` and `except (except self::* union [P])` — from the
//!   pre-image `{u | ∃v ∈ S. (u, v) ∈ P}`, falling back to the matrices
//!   only for a subterm outside that class;
//! * [`relation`] — [`relation::Relation`], the adaptive relation
//!   representation (identity / full / per-row intervals / CSR successor
//!   lists / dense bits) with structure-aware product, union, intersection,
//!   complement, diagonal-filter and transpose kernels, plus a row-blocked
//!   multithreaded dense product; axis-shaped operands compose without the
//!   `n³/64` dense scan;
//! * [`store`] — [`store::MatrixStore`], a per-document cache that
//!   hash-conses PPLbin subterms and memoises their compiled relations, so a
//!   workload of queries over one tree pays each `|t|³` product once; and
//!   [`store::SharedMatrixStore`], its sharded thread-safe wrapper
//!   (`&self` evaluation behind per-shard `Mutex`es) that lets one document
//!   serve queries from many threads at once;
//! * [`view`] — [`view::StepView`], the rows of a plain axis step read
//!   straight off the tree snapshot, [`view::FilteredStepView`], the rows
//!   of a step between two diagonals `D₁/axis::name/D₂` read off the tree
//!   and two node sets, and [`view::AtomClass`], the one classifier that
//!   says which atoms those are.  A `SharedMatrixStore` serves step atoms
//!   without compiling or caching anything and filtered steps from cached
//!   node sets of |t| bits, so only the remaining atoms — `except` over a
//!   relation that is not diagonal, unions of steps, chains of steps —
//!   pay Theorem 2's matrices.

#![forbid(unsafe_code)]

pub mod corexpath1;
pub mod eval;
pub mod lazy;
pub mod matrix;
pub mod relation;
pub mod store;
pub mod view;

pub use corexpath1::{
    diagonal_set, has_successor_set, is_diagonal, pre_set, succ_set, unary_from_root, NotCoreXPath1,
};
pub use eval::{answer_binary, eval_binexpr, eval_relation, step_matrix, step_relation};
pub use lazy::{LazyRel, LazyRows};
pub use matrix::{dense_guard, CapacityError, NodeMatrix, DENSE_BYTE_LIMIT};
pub use relation::{KernelMode, KernelStats, Relation, SparseRows};
pub use store::{
    CacheStats, EditApplyStats, ExprId, MatrixStore, SharedMatrixStore, SuccessorSource,
    DEFAULT_STORE_SHARDS,
};
pub use view::{AtomClass, FilteredStepView, StepView};
