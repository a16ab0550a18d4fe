//! Query results and errors: the [`AnswerSet`] of an executed plan, and the
//! errors raised while compiling ([`CompileError`]) or answering
//! ([`QueryError`]) it.

use crate::session::Session;
use std::collections::BTreeSet;
use std::fmt;
use xpath_ast::ppl::PplViolation;
use xpath_ast::{ParseError, Var};
use xpath_hcl::{HclError, TranslateError};
use xpath_tree::NodeId;

/// Errors raised while compiling a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The concrete syntax could not be parsed.
    Parse(ParseError),
    /// The expression is syntactically valid Core XPath 2.0 but violates the
    /// PPL restrictions of Definition 1; each violation is reported.
    NotPpl(Vec<PplViolation>),
    /// Auto planning refused a query outside PPL: naive enumeration, the
    /// only engine that accepts it, was estimated at `cost` steps, above the
    /// planner's `ceiling`.  Proposition 3 makes such queries NP-hard, so
    /// there is no polynomial engine to fall back to; forcing `naive` runs
    /// the query anyway.
    Refused {
        cost: u128,
        ceiling: u128,
        violations: Vec<PplViolation>,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::NotPpl(violations) => {
                write!(f, "query is not in the PPL fragment (Definition 1):")?;
                for v in violations {
                    write!(f, "\n  - {v}")?;
                }
                Ok(())
            }
            CompileError::Refused {
                cost,
                ceiling,
                violations,
            } => {
                write!(
                    f,
                    "outside PPL: estimated cost {cost} of naive enumeration exceeds the \
                     ceiling {ceiling} (force the naive engine to run it anyway):"
                )?;
                for v in violations {
                    write!(f, "\n  - {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> CompileError {
        CompileError::Parse(e)
    }
}

impl From<TranslateError> for CompileError {
    fn from(e: TranslateError) -> CompileError {
        match e {
            TranslateError::NotPpl(v) => CompileError::NotPpl(v),
        }
    }
}

/// Errors raised while answering a compiled query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The PPL engine rejected the expression at compile time (parse error
    /// or a Definition 1 fragment violation) — the query never ran.
    Ppl(CompileError),
    /// The HCL engine rejected the expression (cannot happen for plans
    /// prepared by the [`Planner`], which enforces NVS(/)).
    ///
    /// [`Planner`]: crate::Planner
    Hcl(HclError),
    /// The ACQ/Yannakakis engine failed (e.g. the Prop. 9 union
    /// distribution exceeded its disjunct budget).
    Acq(String),
    /// The naive baseline failed (e.g. an unbound variable when evaluating a
    /// raw Core XPath 2.0 expression).
    Naive(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Ppl(e) => write!(f, "PPL compilation failed: {e}"),
            QueryError::Hcl(e) => write!(f, "{e}"),
            QueryError::Acq(e) => write!(f, "acq evaluation failed: {e}"),
            QueryError::Naive(e) => write!(f, "naive evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CompileError> for QueryError {
    fn from(e: CompileError) -> QueryError {
        QueryError::Ppl(e)
    }
}

/// The answer set of an n-ary query: sorted, duplicate-free tuples of nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerSet {
    variables: Vec<Var>,
    tuples: Vec<Vec<NodeId>>,
}

impl AnswerSet {
    pub(crate) fn new(variables: Vec<Var>, tuples: BTreeSet<Vec<NodeId>>) -> AnswerSet {
        AnswerSet {
            variables,
            tuples: tuples.into_iter().collect(),
        }
    }

    /// The output variables, in tuple order.
    pub fn variables(&self) -> &[Var] {
        &self.variables
    }

    /// Tuple width `n`.
    pub fn arity(&self) -> usize {
        self.variables.len()
    }

    /// Number of answer tuples `|A|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the answer set empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, in lexicographic node order.
    pub fn tuples(&self) -> &[Vec<NodeId>] {
        &self.tuples
    }

    /// Iterate over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<NodeId>> {
        self.tuples.iter()
    }

    /// Render the answers with node labels resolved against a session's
    /// document — convenient for examples and debugging.
    ///
    /// Arity-0 (satisfiability) answer sets hold at most one *empty* tuple;
    /// rendering that as a bare `()` line interleaves awkwardly with
    /// `explain()` output, so the empty tuple is normalised to an explicit
    /// `(satisfiable)` marker (and an unsatisfiable 0-ary set renders as
    /// nothing, like every other empty answer set).
    pub fn render(&self, session: &Session) -> String {
        if self.arity() == 0 {
            return if self.is_empty() {
                String::new()
            } else {
                "(satisfiable)\n".to_string()
            };
        }
        let mut out = String::new();
        for tuple in &self.tuples {
            let cells: Vec<String> = self
                .variables
                .iter()
                .zip(tuple)
                .map(|(v, n)| format!("{v}={}", session.describe(*n)))
                .collect();
            out.push_str(&format!("({})\n", cells.join(", ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use xpath_ast::parse_path;

    fn session() -> Session {
        Session::from_terms("bib(book(author,title),book(author,author,title))").unwrap()
    }

    /// Answer `src` with the `ppl` engine forced.
    fn ppl(s: &Session, src: &str, vars: &[&str]) -> Result<AnswerSet, QueryError> {
        let output: Vec<Var> = vars.iter().map(|n| Var::new(n)).collect();
        Engine::Ppl.answer(s, &parse_path(src).unwrap(), &output)
    }

    #[test]
    fn compile_and_answer_the_intro_query() {
        let s = session();
        let src = "descendant::book[child::author[. is $y] and child::title[. is $z]]";
        let plan = s.plan(src, &["y", "z"]).unwrap();
        assert_eq!(plan.output().len(), 2);
        assert_eq!(plan.features().size, plan.source().size());
        let ans = ppl(&s, src, &["y", "z"]).unwrap();
        assert_eq!(ans.len(), 3);
        assert_eq!(ans.arity(), 2);
        assert!(!ans.is_empty());
        let rendered = ans.render(&s);
        assert_eq!(rendered.lines().count(), 3);
        assert!(rendered.contains("$y=author#"));
        assert!(
            !ppl(&s, src, &[]).unwrap().is_empty(),
            "satisfiable as a Boolean query"
        );
    }

    #[test]
    fn compile_errors_are_informative() {
        let s = session();
        let parse_err = s.plan("child::", &[]).unwrap_err();
        assert!(matches!(parse_err, CompileError::Parse(_)));
        let ppl_err = ppl(&s, "for $x in child::a return child::b", &[]).unwrap_err();
        match &ppl_err {
            QueryError::Ppl(CompileError::NotPpl(v)) => assert!(!v.is_empty()),
            other => panic!("expected NotPpl, got {other:?}"),
        }
        assert!(ppl_err.to_string().contains("N(for)"));
        let shared = ppl(&s, "child::a[. is $x]/child::b[. is $x]", &["x"]).unwrap_err();
        assert!(shared.to_string().contains("NVS(/)"));
    }

    #[test]
    fn explain_lists_pipeline_stages() {
        let plan = session()
            .plan("descendant::book[child::author[. is $y]]", &["y"])
            .unwrap();
        let text = plan.explain();
        assert!(text.contains("query        : descendant::book"));
        assert!(text.contains("HCL⁻(PPLbin)"));
        assert!(text.contains("b0 ="));
    }

    #[test]
    fn binary_queries() {
        // Theorem 2: a variable-free query is a Boolean node matrix,
        // compiled once through the session store.
        use xpath_ast::binexpr::from_variable_free_path;
        let s = session();
        let bin =
            from_variable_free_path(&parse_path("child::book/child::author").unwrap()).unwrap();
        let m = s.store().eval(&bin);
        assert_eq!(m.pairs().len(), 3);
        assert_eq!(m.successors(s.root()).count(), 3);
        assert_eq!(m.count_pairs(), 3);
        assert!(bin.size() >= 2);
        let err = from_variable_free_path(&parse_path("child::a[. is $x]").unwrap()).unwrap_err();
        assert!(err.to_string().contains("N($x)"));
    }

    #[test]
    fn zero_ary_render_is_normalised() {
        // Regression: satisfiable 0-ary answer sets used to render as a bare
        // "()" line that interleaved awkwardly with explain() output.
        let s = session();
        let ans = ppl(&s, "descendant::book[child::author]", &[]).unwrap();
        assert_eq!(ans.arity(), 0);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.render(&s), "(satisfiable)\n");
        assert!(!ans.render(&s).contains("()"), "no bare empty-tuple line");
        let unsat = ppl(&s, "descendant::publisher", &[]).unwrap();
        assert_eq!(unsat.render(&s), "");
    }

    #[test]
    fn unsatisfiable_queries_have_empty_answers() {
        let s = session();
        let ans = ppl(&s, "descendant::publisher[. is $p]", &["p"]).unwrap();
        assert!(ans.is_empty());
        assert!(ppl(&s, "descendant::publisher", &[]).unwrap().is_empty());
        assert_eq!(ans.render(&s), "");
    }
}
