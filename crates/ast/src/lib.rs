//! # `xpath_ast` — Core XPath 2.0 syntax and the PPL fragment
//!
//! This crate implements the *syntactic* side of the paper:
//!
//! * [`expr`] — the abstract syntax of Core XPath 2.0 exactly as in Fig. 1 of
//!   the paper: path expressions with steps, node references (`.` and `$x`),
//!   composition, `union`, `intersect`, `except`, filters, `for … return …`
//!   loops, and test expressions with `is`-comparisons, `not`, `and`, `or`.
//! * [`parser`] — a recursive-descent parser for the concrete syntax used in
//!   the paper (with the usual XPath abbreviations `name` ≡ `child::name`).
//! * [`printer`] — `Display` implementations that print expressions back in
//!   the paper's notation.
//! * [`ppl`] — the checker for Definition 1: the seven restrictions
//!   N(for), NV(intersect), NV(except), NV(not), NVS(/), NVS([]), NVS(and)
//!   that carve the polynomial-time path language **PPL** out of
//!   Core XPath 2.0, with precise per-subexpression diagnostics.
//! * [`binexpr`] — the variable-free dialect **PPLbin** (Fig. 3) and the
//!   linear-time translation of Fig. 4 from variable-free Core XPath 2.0
//!   into PPLbin.
//! * [`dsl`] — programmatic constructors for building queries without going
//!   through the parser.
//!
//! The evaluation algorithms live in the sibling crates `xpath_naive`
//! (specification semantics of Fig. 2), `xpath_pplbin` (Boolean-matrix
//! evaluation, Thm. 2) and `xpath_hcl` (the n-ary answering algorithm of
//! Fig. 8).
//!
//! ```
//! use xpath_ast::parse_path;
//!
//! // The author/title pair query from the paper's introduction.
//! let p = parse_path(
//!     "descendant::book[child::author[. is $y] and child::title[. is $z]]",
//! ).unwrap();
//! assert_eq!(xpath_ast::ppl::check_ppl(&p), Ok(()));
//! let vars = xpath_ast::expr::free_vars_path(&p);
//! assert_eq!(vars.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod binexpr;
pub mod dsl;
pub mod expr;
pub mod parser;
pub mod ppl;
pub mod printer;

pub use binexpr::BinExpr;
pub use expr::{NameTest, NodeRef, PathExpr, TestExpr, Var};
pub use parser::{parse_path, ParseError, MAX_QUERY_DEPTH};
pub use ppl::{check_ppl, check_pplbin, PplViolation, Restriction};
pub use xpath_tree::Axis;
