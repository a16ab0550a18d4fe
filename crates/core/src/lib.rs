//! # `ppl_xpath` — the polynomial-time fragment of Core XPath 2.0 with variables
//!
//! This crate is the public facade of the reproduction of
//! *"Polynomial Time Fragments of XPath with Variables"*
//! (Filiot, Niehren, Talbot, Tison — PODS 2007).  It wires the individual
//! components of the workspace into the pipeline of Theorem 1:
//!
//! ```text
//!   parse (xpath_ast)                     —  Core XPath 2.0 concrete syntax
//!     → check PPL, Def. 1 (xpath_ast)     —  N(for), NV(·), NVS(·)
//!     → translate, Fig. 7 (xpath_hcl)     —  PPL → HCL⁻(PPLbin)
//!     → normalise, Lemma 3 (xpath_hcl)    —  sharing expressions
//!     → compile atoms, Thm. 2 (xpath_pplbin) — Boolean node matrices
//!     → answer, Fig. 8 (xpath_hcl)        —  O(|P||t|³ + n|P||t|²|A|)
//! ```
//!
//! ## Quick start — sessions and plans
//!
//! The serving API separates *compilation*, *planning* and *execution*: a
//! [`Session`] owns a document plus a thread-safe matrix cache, a
//! [`QueryPlan`] is a prepared query with an engine chosen by the
//! [`Planner`], and executing a plan (from any thread, any number of times)
//! only pays evaluation:
//!
//! ```
//! use ppl_xpath::Session;
//!
//! let session = Session::from_xml(
//!     "<bib><book><author/><title/></book><book><author/><author/><title/></book></bib>",
//! ).unwrap();
//!
//! // Prepare once: parse, Definition 1 check, Fig. 7 translation, and the
//! // planner's cost decision over the four engines.
//! let plan = session.plan(
//!     "descendant::book[child::author[. is $y] and child::title[. is $z]]",
//!     &["y", "z"],
//! ).unwrap();
//! println!("{}", plan.explain());        // which engine, and why
//!
//! // Execute anywhere: `Session` is `Send + Sync`, so clones of it (and
//! // the plan) can serve from as many threads as the traffic needs.
//! let answers = session.execute(&plan).unwrap();
//! assert_eq!(answers.len(), 3);          // one pair per (author, book)
//!
//! // Or stream lazily instead of materialising the answer set.
//! let first = session.answers_stream(&plan).unwrap().next().unwrap();
//! assert_eq!(session.label(first[0]), "author");
//! ```
//!
//! Batches fan out over worker threads sharing one cache:
//!
//! ```
//! # use ppl_xpath::Session;
//! # let session = Session::from_terms("bib(book(author,title),book(author,title))").unwrap();
//! let plans = vec![
//!     session.plan("descendant::book[child::author[. is $a]]", &["a"]).unwrap(),
//!     session.plan("descendant::book[child::title[. is $t]]", &["t"]).unwrap(),
//! ];
//! let answers = session.answer_batch_parallel(&plans, 8).unwrap();
//! assert_eq!(answers.len(), 2);
//! ```
//!
//! ## What else is in the box
//!
//! * [`Planner`] — the cost-based engine choice (PPL membership, arity,
//!   axis mix, acyclicity, tree size, cache warmth), with explicit
//!   overrides for every engine.
//! * [`Session::answer_batch_parallel`] / [`Session::answers_stream`] —
//!   multi-threaded batch serving and lazy tuple streaming;
//!   [`Session::cache_stats`] exposes the matrix-cache hit/miss counters.
//! * [`Engine`] — evaluate the same query with any of the four strategies
//!   ([`Engine::answer`] forces one), for differential testing and the
//!   benchmark experiments.  A forced `hcl` plan bypasses the cache.
//! * [`SharedMatrixStore::eval`] (through [`Session::store`]) — the
//!   variable-free PPLbin engine of Theorem 2 (binary queries as Boolean
//!   matrices).
//! * Re-exports of the component crates under [`components`], and a
//!   [`prelude`] for glob imports.
//!
//! Multi-document serving lives one layer up, in the `xpath_corpus` crate
//! (which depends on this one): a `Corpus` pools one session per named
//! document behind a memory-bounded LRU, fans queries out across
//! documents, and backs the `pplxd` TCP daemon — with `pplx --connect`
//! as the client.

#![forbid(unsafe_code)]

pub mod engine;
pub mod plan;
pub mod query;
pub mod session;

pub use engine::Engine;
pub use plan::{PlanChoice, Planner, QueryFeatures, QueryPlan};
pub use query::{AnswerSet, CompileError, QueryError};
pub use session::{AnswerIter, DocumentError, Session};
pub use xpath_pplbin::{CacheStats, KernelMode, KernelStats, MatrixStore, SharedMatrixStore};

/// Re-exports of the underlying component crates for advanced users.
pub mod components {
    pub use xpath_acq as acq;
    pub use xpath_ast as ast;
    pub use xpath_fo as fo;
    pub use xpath_hcl as hcl;
    pub use xpath_naive as naive;
    pub use xpath_pplbin as pplbin;
    pub use xpath_tree as tree;
    pub use xpath_xml as xml;
}

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{AnswerSet, Engine, Planner, QueryPlan, Session};
    pub use xpath_ast::{parse_path, PathExpr, Var};
    pub use xpath_tree::{Axis, NodeId, Tree};
}
