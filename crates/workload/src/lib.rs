//! # `xpath_workload` — workloads for the benchmark harness and the tests
//!
//! The paper is a theory paper: its "evaluation" is a set of complexity
//! theorems.  To validate their *shape* empirically we need controllable
//! workloads; this crate provides them:
//!
//! * [`suites`] — parameterised query suites over the bibliography and
//!   restaurant documents of `xpath_tree::generate` (the documents the
//!   paper's introduction motivates), plus PPLbin query generators of
//!   controllable size and sweeps of tree sizes;
//! * [`sat`] — random 3-SAT instances and the Proposition 3 reduction from
//!   SAT to query non-emptiness of Core XPath 2.0 *with* variable sharing
//!   (the hardness side that motivates the NVS restrictions of PPL);
//! * [`edits`] — random edit scripts over live documents, the input to the
//!   differential edit-fuzz that validates sessions carried through edits.

#![forbid(unsafe_code)]

pub mod edits;
pub mod sat;
pub mod suites;

pub use edits::{random_edit, random_edit_script, ScriptEdit};
pub use sat::{encode_sat_query, encode_sat_tree, random_3sat, SatInstance};
pub use suites::{
    bibliography_pairs_query, chain_query, corpus_documents, dblp_suite, planner_mix_suite,
    pplbin_suite, restaurant_query, tree_sweep,
};
