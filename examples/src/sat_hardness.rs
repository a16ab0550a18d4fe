//! Why PPL forbids variable sharing — the Proposition 3 reduction in action.
//!
//! Proposition 3: query non-emptiness for Core XPath 2.0 without `for` loops
//! and without variables below negation is NP-complete (by reduction from
//! SAT), which is why PPL additionally forbids *variable sharing* in
//! compositions, filters and conjunctions.
//!
//! This example
//!
//! 1. generates random 3-SAT instances of growing size,
//! 2. encodes each as a (tree, query) pair following the reduction,
//! 3. shows that the PPL checker rejects every encoded query (naming the
//!    violated restrictions), and
//! 4. answers the query with the naive engine, whose running time grows
//!    exponentially with the number of propositional variables, and checks
//!    the result against a brute-force SAT solver.
//!
//! Run with: `cargo run -p examples --bin sat_hardness --release`

use ppl_xpath::{Engine, QueryError, Session};
use std::time::Instant;
use xpath_ast::ppl::check_ppl;
use xpath_workload::{encode_sat_query, encode_sat_tree, random_3sat};

fn main() {
    println!("Proposition 3: SAT reduces to query non-emptiness with variable sharing\n");
    println!(
        "{:>5} | {:>7} | {:>6} | {:>12} | {:>6} | violations",
        "vars", "clauses", "sat?", "naive time", "agree"
    );
    println!("{}", "-".repeat(70));

    // The naive engine enumerates |t|^vars assignments, so even 5 variables
    // (a 16-node tree) would already take ~10^10 elementary steps — the
    // sweep stops at 4 and the growth factor per added variable is the
    // exponential signal.
    for num_vars in 2..=4 {
        let num_clauses = num_vars + 2;
        let instance = random_3sat(num_vars, num_clauses, 41 + num_vars as u64);
        let tree = encode_sat_tree(&instance);
        let (query, _assignment_vars) = encode_sat_query(&instance);
        let session = Session::from_tree(tree);

        // The PPL checker rejects the encoding: this is the hardness side of
        // the fragment design.
        let violations = check_ppl(&query).expect_err("the encoding shares variables");
        let mut names: Vec<&str> = violations
            .iter()
            .map(|v| v.restriction.paper_name())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert!(matches!(
            Engine::Ppl.answer(&session, &query, &[]),
            Err(QueryError::Ppl(_))
        ));

        // Non-emptiness via the naive engine (Boolean query, arity 0).
        let started = Instant::now();
        let nonempty = !Engine::NaiveEnumeration
            .answer(&session, &query, &[])
            .unwrap()
            .is_empty();
        let elapsed = started.elapsed();

        let expected = instance.brute_force_satisfiable();
        println!(
            "{:>5} | {:>7} | {:>6} | {:>12} | {:>6} | {}",
            num_vars,
            num_clauses,
            nonempty,
            format!("{elapsed:?}"),
            nonempty == expected,
            names.join(", ")
        );
        assert_eq!(nonempty, expected, "the reduction must be faithful");
    }

    println!(
        "\nThe naive time grows roughly by a factor |t| per extra variable \
         (assignment enumeration), matching the NP-hardness of Prop. 3;\n\
         the PPL checker rejects every encoded query because the clause \
         filters re-use the assignment variables (NVS([]) / NVS(and))."
    );
}
