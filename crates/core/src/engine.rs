//! Engine selection — the four evaluation strategies behind one enum.
//!
//! [`Engine`] is a plain `Copy` enum naming the strategies; one private
//! `match` in [`Session`] runs a plan on its engine.
//!
//! The non-`ppl` engines exist for three reasons:
//!
//! * **differential testing** — on small inputs all four engines must agree
//!   tuple-for-tuple (checked extensively by the fuzz suite);
//! * **benchmarking** — the E4/E10/E12 experiments measure the crossovers
//!   between them;
//! * **planning** — the [`Planner`] runs `ppl` unless the query is outside
//!   PPL or tiny (then `naive`); `--engine` flags force any engine.
//!
//! [`Planner`]: crate::Planner

use crate::plan::Planner;
use crate::query::{AnswerSet, QueryError};
use crate::session::Session;
use std::fmt;
use xpath_ast::{PathExpr, Var};

/// Which algorithm answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The paper's polynomial-time pipeline (Fig. 7 translation + Fig. 8
    /// answering over PPLbin matrices), compiled through the session's
    /// shared matrix cache; plain step atoms are views of the tree.
    Ppl,
    /// The same Fig. 8 pipeline with cold-compiled atoms (no cache) — the
    /// reference path of the differential tests.
    Hcl,
    /// Yannakakis' algorithm on the ACQ image (Props. 7/8/9).
    Acq,
    /// The specification semantics of Fig. 2 with assignment enumeration —
    /// exponential in the number of variables, but accepts every Core
    /// XPath 2.0 expression (including `for` and variable sharing).
    NaiveEnumeration,
}

impl Engine {
    /// All four engines, in the order of the explain candidate table.
    pub const ALL: [Engine; 4] = [
        Engine::Ppl,
        Engine::Acq,
        Engine::Hcl,
        Engine::NaiveEnumeration,
    ];

    /// The short name used by `pplx --engine` and the bench rows.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ppl => "ppl",
            Engine::Hcl => "hcl",
            Engine::Acq => "acq",
            Engine::NaiveEnumeration => "naive",
        }
    }

    /// Parse a `pplx --engine` name.
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "ppl" => Some(Engine::Ppl),
            "hcl" => Some(Engine::Hcl),
            "acq" => Some(Engine::Acq),
            "naive" | "naive_enumeration" => Some(Engine::NaiveEnumeration),
            _ => None,
        }
    }

    /// One-line description shown in the `QueryPlan::explain` candidate
    /// table.
    pub fn describe(self) -> &'static str {
        match self {
            Engine::Ppl => "Fig. 8 over the shared store (Thm. 1, step atoms as tree views)",
            Engine::Hcl => "Fig. 8 with cold-compiled atoms (Thm. 1, no cache)",
            Engine::Acq => "Yannakakis on the ACQ image (Props. 7/8/9)",
            Engine::NaiveEnumeration => "Fig. 2 assignment enumeration (spec semantics, Θ(|t|ⁿ))",
        }
    }

    /// Answer an n-ary query given as a raw Core XPath 2.0 path expression
    /// with this engine forced: the query is prepared with
    /// [`Planner::plan_with`] and executed on `session`.  With
    /// [`Engine::NaiveEnumeration`] any Core XPath 2.0 expression (including
    /// `for` loops and variable sharing) is accepted; the other engines
    /// require the PPL fragment and report Definition 1 diagnostics
    /// otherwise.
    pub fn answer(
        self,
        session: &Session,
        query: &PathExpr,
        output: &[Var],
    ) -> Result<AnswerSet, QueryError> {
        let plan = Planner::default()
            .plan_with(session, query.clone(), output.to_vec(), Some(self))
            .map_err(QueryError::Ppl)?;
        session.execute(&plan)
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::parse_path;

    fn doc() -> Session {
        Session::from_terms("bib(book(author,title),book(author,author,title))").unwrap()
    }

    #[test]
    fn engines_agree_on_ppl_queries() {
        let d = doc();
        let q = parse_path(
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
        )
        .unwrap();
        let output = [Var::new("y"), Var::new("z")];
        let fast = Engine::Ppl.answer(&d, &q, &output).unwrap();
        let slow = Engine::NaiveEnumeration.answer(&d, &q, &output).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 3);
        // The two engines added by the planner redesign agree too.
        assert_eq!(Engine::Hcl.answer(&d, &q, &output).unwrap(), fast);
        assert_eq!(Engine::Acq.answer(&d, &q, &output).unwrap(), fast);
    }

    #[test]
    fn naive_engine_accepts_for_loops_that_ppl_rejects() {
        let d = doc();
        let q = parse_path(
            "for $x in child::book return child::book[. is $x]/child::title[. is $t]",
        )
        .unwrap();
        let output = [Var::new("t")];
        assert!(Engine::Ppl.answer(&d, &q, &output).is_err());
        assert!(Engine::Hcl.answer(&d, &q, &output).is_err());
        assert!(Engine::Acq.answer(&d, &q, &output).is_err());
        let slow = Engine::NaiveEnumeration.answer(&d, &q, &output).unwrap();
        assert_eq!(slow.len(), 2);
    }

    #[test]
    fn ppl_fragment_rejection_is_distinguishable_from_evaluation_failure() {
        // Regression: compile errors used to be folded into
        // `QueryError::Naive(String)`, so callers could not tell "query is
        // outside PPL" from "evaluation failed".
        use crate::query::{CompileError, QueryError};
        let d = doc();
        let q = parse_path(
            "for $x in child::book return child::book[. is $x]/child::title[. is $t]",
        )
        .unwrap();
        let err = Engine::Ppl.answer(&d, &q, &[Var::new("t")]).unwrap_err();
        match &err {
            QueryError::Ppl(CompileError::NotPpl(violations)) => {
                assert!(!violations.is_empty())
            }
            other => panic!("expected QueryError::Ppl(NotPpl), got {other:?}"),
        }
        assert!(err.to_string().contains("PPL compilation failed"));
        assert!(err.to_string().contains("N(for)"));
        // Naive-side failures still map to QueryError::Naive.
        let unbound = parse_path("child::book[. is $x]").unwrap();
        let naive_err = Engine::NaiveEnumeration
            .answer(&d, &unbound, &[Var::new("x"), Var::new("ghost")])
            .map(|a| a.len());
        if let Err(e) = naive_err {
            assert!(matches!(e, QueryError::Naive(_)));
        }
    }

    #[test]
    fn names_round_trip_and_dispatch_matches() {
        for engine in Engine::ALL {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
            assert!(!engine.describe().is_empty());
            assert_eq!(format!("{engine}"), engine.name());
        }
        assert_eq!(Engine::parse("naive_enumeration"), Some(Engine::NaiveEnumeration));
        assert_eq!(Engine::parse("auto"), None);
        assert_eq!(Engine::parse("zippy"), None);
    }
}
