//! # `xpath_hcl` — the hybrid composition language HCL(L) and the
//! polynomial-time n-ary answering algorithm
//!
//! This crate implements Sections 5 and 7 of the paper:
//!
//! * [`lang`] — the language `HCL(L)` of Fig. 5/6: expressions are binary
//!   queries `b ∈ L`, variables `x`, compositions `C/C'`, filters `[C]` and
//!   unions `C ∪ C'`.  The fragment `HCL⁻(L)` forbids variable sharing in
//!   compositions (condition NVS(/)).
//! * [`oracle`] — the binary-query oracle: atoms of `L` are precompiled on a
//!   tree into per-node successor lists, so that the answering algorithm can
//!   treat query answering for `L` as a constant-time oracle, exactly as in
//!   Prop. 10/11.  A [`oracle::PplBinAtoms`] implementation backs atoms by
//!   the Boolean-matrix engine of `xpath_pplbin` (through a shared store,
//!   plain steps by views of the tree); [`oracle::AxisAtoms`] backs raw axis
//!   steps by tree views.
//! * [`share`] — *sharing expressions* and *equation systems* (Lemma 3): the
//!   linear-time normalisation that removes unions from the left of
//!   compositions without the exponential blow-up of naive distribution.
//! * [`mc`] — the `MC` satisfiability table of Prop. 10.
//! * [`answer`] — the `vals` algorithm of Fig. 8 (Prop. 11), computing the
//!   answer set of an n-ary query in time
//!   `O(Σ_b p(|b|,|t|) + n·|C|·|t|²·|A|)`.
//! * [`translate`] — the linear-time translations between PPL and
//!   `HCL⁻(PPLbin)` (Fig. 4 / Fig. 7, Prop. 5), which together with the
//!   answering algorithm yield Theorem 1.
//!
//! ## Example
//!
//! ```
//! use xpath_ast::{parse_path, Var};
//! use xpath_hcl::translate::ppl_to_hcl;
//! use xpath_hcl::answer::answer_hcl_pplbin;
//! use xpath_tree::Tree;
//!
//! let tree = Tree::from_terms("bib(book(author,title),book(author,author,title))").unwrap();
//! let ppl = parse_path(
//!     "descendant::book[child::author[. is $y] and child::title[. is $z]]",
//! ).unwrap();
//! let hcl = ppl_to_hcl(&ppl).unwrap();
//! let answers = answer_hcl_pplbin(&tree, &hcl, &[Var::new("y"), Var::new("z")]).unwrap();
//! assert_eq!(answers.len(), 3); // one author-title pair per (author, book)
//! ```

#![forbid(unsafe_code)]

pub mod answer;
pub mod lang;
pub mod mc;
pub mod oracle;
pub mod share;
pub mod translate;

pub use answer::{
    answer_hcl, answer_hcl_pplbin, stream_hcl, stream_hcl_pplbin, stream_hcl_pplbin_shared,
    AnswerStream, HclError,
};
pub use lang::Hcl;
pub use oracle::{AtomId, AxisAtoms, CompiledAtoms, PplBinAtoms};
pub use share::{EquationSystem, ShareId};
pub use translate::{hcl_to_ppl, ppl_to_hcl, TranslateError};
