//! FO completeness in practice — Lemma 1 and the expressiveness side of the
//! paper.
//!
//! The paper's expressiveness results say that Core XPath 2.0 (and already
//! its polynomial fragment PPL) captures all n-ary first-order queries.
//! This example exercises the constructive half that is implemented in the
//! workspace:
//!
//! 1. parse FO formulas over the signature `{ch*, ns*, lab_a}`,
//! 2. translate them to Core XPath 2.0 with the Lemma 1 translation,
//! 3. answer both sides with their naive evaluators and check they agree,
//! 4. for quantifier-free formulas, show that the image has no `for` loops
//!    (Lemma 2) and — when it happens to satisfy the NVS restrictions — run
//!    it through the polynomial PPL pipeline as well.
//!
//! Run with: `cargo run -p examples --bin fo_completeness`

use ppl_xpath::{Engine, Session};
use xpath_ast::ppl::check_ppl;
use xpath_ast::Var;
use xpath_fo::{fo_answer_nary, fo_to_xpath, parse_formula};
use xpath_tree::Tree;

fn main() {
    let session = Session::from_tree(
        Tree::from_terms("bib(book(author,title),book(author,author,title),article(title))")
            .unwrap(),
    );
    println!("document: {}\n", session.tree().to_terms());

    // (formula source, output variables)
    let formulas = [
        (
            "lab(book, x) and lab(title, y) and chstar(x, y)",
            vec!["x", "y"],
        ),
        (
            "exists b. lab(book, b) and chstar(b, x) and lab(author, x)",
            vec!["x"],
        ),
        (
            "lab(book, x) and not (exists a. lab(author, a) and chstar(x, a) and not (x = a))",
            vec!["x"],
        ),
        (
            "lab(book, x) and nsstar(x, y) and lab(article, y)",
            vec!["x", "y"],
        ),
    ];

    for (src, outputs) in formulas {
        let phi = parse_formula(src).expect("formula parses");
        let vars: Vec<Var> = outputs.iter().map(|n| Var::new(n)).collect();
        println!("FO  φ = {phi}");
        println!(
            "    size {} | quantifier rank {}",
            phi.size(),
            phi.quantifier_rank()
        );

        // FO side: Tarskian evaluation.
        let fo_answers = fo_answer_nary(session.tree(), &phi, &vars);

        // XPath side: Lemma 1 translation, naive Core XPath 2.0 evaluation.
        let xpath = fo_to_xpath(&phi);
        println!("    ⟦φ⟧ = {xpath}");
        let xp_answers = Engine::NaiveEnumeration
            .answer(&session, &xpath, &vars)
            .unwrap();

        let xp_set: std::collections::BTreeSet<Vec<_>> =
            xp_answers.tuples().iter().cloned().collect();
        assert_eq!(fo_answers, xp_set, "Lemma 1: the two sides must agree");
        println!("    both sides agree: {} answer tuple(s)", fo_answers.len());

        if xpath.has_for() {
            println!("    (image uses for-loops: quantifiers were present)");
        } else {
            match check_ppl(&xpath) {
                Ok(()) => {
                    let fast = Engine::Ppl.answer(&session, &xpath, &vars).unwrap();
                    assert_eq!(fast.tuples().len(), fo_answers.len());
                    println!("    image is even in PPL: polynomial engine agrees too");
                }
                Err(violations) => {
                    println!(
                        "    image is for-free (Lemma 2) but shares variables: {}",
                        violations
                            .iter()
                            .map(|v| v.restriction.paper_name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
            }
        }
        for tuple in fo_answers.iter().take(3) {
            let cells: Vec<String> = tuple.iter().map(|n| session.describe(*n)).collect();
            println!("      ↦ ({})", cells.join(", "));
        }
        println!();
    }

    println!(
        "Every FO query translated in linear time and produced identical answers\n\
         (Lemma 1); eliminating the quantifiers while staying polynomial is what\n\
         the PPL fragment achieves in general (Theorem 1)."
    );
}
