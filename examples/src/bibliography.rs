//! Bibliography extraction — the motivating scenario of the paper's
//! introduction, at a realistic document size.
//!
//! The same author–title extraction is expressed three ways and all three
//! are checked to agree:
//!
//! 1. as an XQuery-style nested `for` loop (Core XPath 2.0 with `for`,
//!    answered by the naive specification engine);
//! 2. as the PPL query with free variables (the paper's introduction),
//!    answered by the polynomial-time pipeline;
//! 3. as an acyclic conjunctive query over axis relations, answered by
//!    Yannakakis' algorithm.
//!
//! Run with: `cargo run -p examples --bin bibliography`

use ppl_xpath::{Engine, Planner, Session};
use std::time::Instant;
use xpath_acq::{answer_acq, hcl_to_acq};
use xpath_ast::{parse_path, Var};
use xpath_tree::generate::bibliography;

fn main() {
    // A bibliography with 120 books and up to 4 authors per book.
    let session = Session::from_tree(bibliography(120, 4));
    println!(
        "bibliography document: {} nodes, {} books, {} authors",
        session.len(),
        session.tree().nodes_with_label_str("book").len(),
        session.tree().nodes_with_label_str("author").len(),
    );

    // --- 1. XQuery style: nested for loops (naive engine, small subset) ---
    // The for-loop formulation is outside PPL (no for loops allowed), so it
    // runs on the specification engine.  To keep the exponential baseline
    // affordable we evaluate it on a 4-book prefix only.
    let small = Session::from_tree(bibliography(4, 4));
    let xquery_style = parse_path(
        "for $b in descendant::book return \
           child::book[. is $b]/child::author[. is $y]\
             [parent::book[child::title[. is $z]]]",
    )
    .unwrap();
    let started = Instant::now();
    let naive_pairs = Engine::NaiveEnumeration
        .answer(&small, &xquery_style, &[Var::new("y"), Var::new("z")])
        .unwrap();
    println!(
        "\n[1] for-loop formulation, naive engine, 4 books  : {:4} pairs in {:?}",
        naive_pairs.len(),
        started.elapsed()
    );

    // --- 2. PPL with variables (the paper's introduction) ------------------
    let intro =
        parse_path("descendant::book[child::author[. is $y] and child::title[. is $z]]").unwrap();
    let yz = [Var::new("y"), Var::new("z")];
    let ppl = Planner::default()
        .plan_with(&session, intro.clone(), yz.to_vec(), Some(Engine::Ppl))
        .unwrap();
    let started = Instant::now();
    let pairs = session.execute(&ppl).unwrap();
    println!(
        "[2] PPL formulation, polynomial engine, 120 books: {:4} pairs in {:?}",
        pairs.len(),
        started.elapsed()
    );

    // The two formulations agree on the common 10-book document.
    let ppl_small = Engine::Ppl.answer(&small, &intro, &yz).unwrap();
    assert_eq!(
        naive_pairs.tuples(),
        ppl_small.tuples(),
        "the two formulations must select the same pairs"
    );
    println!("    (both formulations agree on the shared 4-book prefix)");

    // --- 3. Acyclic conjunctive query via Yannakakis -----------------------
    let hcl = ppl.hcl().expect("the intro query is in PPL");
    // The intro query translates to a union-free HCL⁻ expression, so it is a
    // single ACQ; answer it with Yannakakis and compare.
    let (cq, db) = hcl_to_acq(session.tree(), hcl, &yz).unwrap();
    let started = Instant::now();
    let acq_answers = answer_acq(&cq, &db).unwrap();
    println!(
        "[3] ACQ formulation, Yannakakis, 120 books       : {:4} pairs in {:?}",
        acq_answers.len(),
        started.elapsed()
    );
    println!("    query: {cq}");
    assert_eq!(acq_answers.len(), pairs.len());

    // Show a few answers with resolved labels.
    println!("\nfirst answers:");
    for tuple in pairs.iter().take(5) {
        println!(
            "  author {} of book {}  ↦  title {}",
            session.describe(tuple[0]),
            session.describe(session.tree().parent(tuple[0]).unwrap()),
            session.describe(tuple[1])
        );
    }
}
