//! Wide-tuple extraction — the "restaurant guide" scenario the paper uses to
//! motivate output-sensitive complexity: the tuple width `n` "can easily get
//! up to 10 or more" (name, address, phone number, …), so query answering
//! must be polynomial in the size of the *answer set*, not in the number
//! `|t|ⁿ` of candidate tuples.
//!
//! This example sweeps the tuple width from 1 to 11 on a restaurant guide
//! and reports, for each width, the answer-set size and the running time of
//! the polynomial engine; for small widths it also shows the exponential
//! growth of the naive assignment-enumeration baseline.
//!
//! Run with: `cargo run -p examples --bin restaurants --release`

use ppl_xpath::{Engine, Planner, Session};
use std::time::Instant;
use xpath_tree::generate::{restaurants, RESTAURANT_ATTRIBUTES};
use xpath_workload::restaurant_query;

fn main() {
    let session = Session::from_tree(restaurants(60, &RESTAURANT_ATTRIBUTES, 6));
    println!(
        "restaurant guide: {} nodes, {} restaurants, {} attribute columns",
        session.len(),
        session.tree().nodes_with_label_str("restaurant").len(),
        RESTAURANT_ATTRIBUTES.len()
    );
    println!(
        "candidate tuple space |t|^n at n=11: {:.2e}\n",
        (session.len() as f64).powi(11)
    );

    // The naive baseline enumerates |t|^n assignments, so it only gets a
    // small 6-restaurant document and only the first two widths — which is
    // exactly the point the paper makes.
    let small = Session::from_tree(restaurants(6, &RESTAURANT_ATTRIBUTES, 6));

    println!(
        "{:>3} | {:>10} | {:>12} | {:>26}",
        "n", "|A|", "PPL engine", "naive engine (6 rest.)"
    );
    println!("{}", "-".repeat(62));
    for width in 1..=RESTAURANT_ATTRIBUTES.len() {
        let (query, vars) = restaurant_query(width);
        let plan = Planner::default()
            .plan_with(&session, query.clone(), vars.clone(), Some(Engine::Ppl))
            .unwrap();

        let started = Instant::now();
        let answers = session.execute(&plan).unwrap();
        let ppl_time = started.elapsed();

        let naive_cell = if width <= 2 {
            let started = Instant::now();
            let naive = Engine::NaiveEnumeration
                .answer(&small, &query, &vars)
                .unwrap();
            let ppl_small = Engine::Ppl.answer(&small, &query, &vars).unwrap();
            assert_eq!(naive.len(), ppl_small.len());
            format!("{:?}", started.elapsed())
        } else {
            "(skipped: would enumerate |t|^n)".to_string()
        };

        println!(
            "{:>3} | {:>10} | {:>12} | {:>26}",
            width,
            answers.len(),
            format!("{ppl_time:?}"),
            naive_cell
        );
    }

    // Show one full-width answer with resolved attribute labels.
    let (query, vars) = restaurant_query(11);
    let answers = Engine::Ppl.answer(&session, &query, &vars).unwrap();
    if let Some(tuple) = answers.tuples().first() {
        println!("\nexample full-width tuple:");
        for (var, node) in answers.variables().iter().zip(tuple) {
            println!("  {var} = {}", session.describe(*node));
        }
    }
}
