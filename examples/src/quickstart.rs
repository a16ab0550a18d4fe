//! Quickstart: parse an XML document into a session, plan a PPL query with
//! two output variables, run it and print the answers.
//!
//! Run with: `cargo run -p examples --bin quickstart`

use ppl_xpath::{Engine, Session};
use xpath_ast::{parse_path, Var};

fn main() {
    // The bibliography document from the paper's introduction.
    let xml = r#"
        <bib>
          <book><author/><title/></book>
          <book><author/><author/><title/></book>
        </bib>"#;
    let session = Session::from_xml(xml).expect("well-formed XML");
    println!("document: {}", session.tree().to_terms());
    println!("nodes   : {}", session.len());
    println!();

    // The author–title pair query of the introduction (XPath 2.0 style,
    // with free variables $y and $z selecting the pair).
    // Planning parses, checks Definition 1, translates (Fig. 7) and picks
    // an engine; `explain` shows the pipeline and the decision.
    let plan = session
        .plan(
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
            &["y", "z"],
        )
        .expect("the query parses");
    assert!(plan.features().ppl, "the query is in the PPL fragment");

    println!("{}", plan.explain());

    let answers = session.execute(&plan).expect("evaluation succeeds");
    println!("answer set ({} tuples):", answers.len());
    print!("{}", answers.render(&session));
    assert_eq!(answers.len(), 3);

    // Forced onto the polynomial engine, queries outside the fragment are
    // rejected with precise diagnostics.
    let shared = parse_path("child::book[child::author[. is $x]]/child::title[. is $x]").unwrap();
    let rejected = Engine::Ppl.answer(&session, &shared, &[Var::new("x")]);
    match rejected {
        Err(err) => println!("\nrejected as expected:\n{err}"),
        Ok(_) => unreachable!("variable sharing across '/' violates NVS(/)"),
    }
}
