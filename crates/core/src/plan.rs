//! Query planning: engine-agnostic prepared plans and the engine choice.
//!
//! A [`QueryPlan`] is the prepared form of one query against one session:
//! the parsed source, the output variables, the `HCL⁻(PPLbin)` image of
//! Fig. 7 (when the query is in the PPL fragment), the [`QueryFeatures`]
//! the planner read, and the chosen [`Engine`].  Preparation is where all
//! per-query compilation happens; executing a plan (possibly many times,
//! possibly from many threads) only pays evaluation.
//!
//! The [`Planner`] decides in three cases:
//!
//! * queries outside PPL (Definition 1) can only run on the Fig. 2
//!   specification engine — `naive` — and are refused outright when the
//!   enumeration estimate exceeds [`NAIVE_COST_CEILING`]: Proposition 3
//!   makes them NP-hard, so there is no polynomial fallback to offer;
//! * tiny instances (`|t|^(n+1)·|P|` under [`Planner::naive_budget`]) run on
//!   `naive` too: assignment enumeration is cheaper than building the
//!   Fig. 8 tables;
//! * everything else runs `ppl`, Fig. 8 over the session's store, where
//!   plain step atoms are views of the tree and only composite atoms pay
//!   the Theorem 1 compile term, once per document.
//!
//! An explicit override (`pplx --engine hcl`, [`Planner::plan_with`]) skips
//! the decision — and the ceiling — but still records the features, so
//! `--explain` shows what auto would have seen.  `hcl` (the cold Fig. 8
//! pipeline) and `acq` (Yannakakis, Props. 7/8/9) are never chosen
//! automatically: they exist for overrides and differential testing.

use crate::engine::Engine;
use crate::query::CompileError;
use crate::session::Session;
use std::fmt;
use xpath_ast::ppl::check_ppl;
use xpath_ast::{BinExpr, PathExpr, Var};
use xpath_hcl::{ppl_to_hcl, Hcl};

/// Default union distribution budget of `acq` plans (Prop. 9 distribution
/// is exponential in union nesting depth; a plan exceeding its budget fails
/// with `QueryError::Acq` instead of blowing up).
pub const ACQ_DISJUNCT_BUDGET: usize = 256;

/// Auto planning refuses a query outside PPL whose [`naive_cost`] exceeds
/// this estimate, rather than let one request enumerate for hours.  A forced
/// `naive` plan still runs.
///
/// [`naive_cost`]: QueryFeatures::naive_cost
pub const NAIVE_COST_CEILING: u128 = 1_000_000_000;

/// The features of one (query, document) pair the planner decides on,
/// reported by [`QueryPlan::explain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFeatures {
    /// `|P|` — size of the source expression.
    pub size: usize,
    /// `n` — number of output variables.
    pub arity: usize,
    /// `|t|` — node count of the session's document.
    pub tree_size: usize,
    /// Is the query in the PPL fragment (Definition 1)?
    pub ppl: bool,
}

impl QueryFeatures {
    /// Estimated cost of naive assignment enumeration:
    /// `|t|^(arity+1) · |P|` (each of the `|t|^arity` assignments pays one
    /// evaluation pass, itself roughly `|P|·|t|`).
    pub fn naive_cost(&self) -> u128 {
        let t = self.tree_size.max(1) as u128;
        t.saturating_pow(self.arity as u32 + 1)
            .saturating_mul(self.size.max(1) as u128)
    }
}

/// How the plan's engine was selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// The planner's decision.
    Auto,
    /// An explicit caller override (`--engine …`).
    Forced,
}

/// An engine-agnostic prepared query: compile once, execute anywhere.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    source: PathExpr,
    output: Vec<Var>,
    /// The Fig. 7 image; `None` exactly when the query is outside PPL (then
    /// only the naive engine can execute the plan).
    hcl: Option<Hcl<BinExpr>>,
    engine: Engine,
    choice: PlanChoice,
    features: QueryFeatures,
    /// Human-readable decision trace.
    decision: String,
    /// Union distribution budget `acq` execution honours for this plan
    /// (from [`Planner::acq_disjunct_budget`]).
    acq_disjunct_budget: usize,
}

impl QueryPlan {
    /// The source Core XPath 2.0 expression.
    pub fn source(&self) -> &PathExpr {
        &self.source
    }

    /// The output variables, in tuple order.
    pub fn output(&self) -> &[Var] {
        &self.output
    }

    /// The `HCL⁻(PPLbin)` image, when the query is in PPL.
    pub fn hcl(&self) -> Option<&Hcl<BinExpr>> {
        self.hcl.as_ref()
    }

    /// The engine this plan executes on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Was the engine forced by the caller rather than chosen by the
    /// planner?
    pub fn is_forced(&self) -> bool {
        self.choice == PlanChoice::Forced
    }

    /// The features the planner read.
    pub fn features(&self) -> &QueryFeatures {
        &self.features
    }

    /// Union distribution budget `acq` execution honours for this plan
    /// (Prop. 9 distribution is exponential in union nesting depth).
    pub fn acq_disjunct_budget(&self) -> usize {
        self.acq_disjunct_budget
    }

    /// A human-readable plan report: the candidate table over all four
    /// engines, the features that drove the decision, the decision trace,
    /// and — for PPL plans — the compiled pipeline (HCL image and PPLbin
    /// atoms).
    pub fn explain(&self) -> String {
        let f = &self.features;
        let mut out = String::new();
        out.push_str(&format!("query        : {}\n", self.source));
        out.push_str(&format!(
            "output vars  : ({})\n",
            self.output
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "shape        : |P|={} arity={} |t|={} ppl={} naive_cost={}\n",
            f.size,
            f.arity,
            f.tree_size,
            f.ppl,
            f.naive_cost()
        ));
        out.push_str("candidates   :\n");
        for engine in Engine::ALL {
            let eligible = engine == Engine::NaiveEnumeration || f.ppl;
            let marker = if engine == self.engine { "->" } else { "  " };
            out.push_str(&format!(
                "  {marker} {:<5} {} — {}\n",
                engine.name(),
                if eligible { "eligible " } else { "ineligible" },
                engine.describe()
            ));
        }
        out.push_str(&format!(
            "chosen       : {} ({})\n",
            self.engine.name(),
            match self.choice {
                PlanChoice::Auto => "auto",
                PlanChoice::Forced => "forced by caller",
            }
        ));
        out.push_str(&format!("decision     : {}\n", self.decision));
        if let Some(hcl) = &self.hcl {
            let atoms = hcl.atoms();
            out.push_str(&format!("HCL⁻(PPLbin) : {hcl}\n"));
            out.push_str(&format!("HCL size     : {}\n", hcl.size()));
            out.push_str(&format!("PPLbin atoms : {}\n", atoms.len()));
            for (i, a) in atoms.iter().enumerate() {
                out.push_str(&format!("  b{i} = {a}\n"));
            }
        }
        out
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} via {}", self.source, self.engine.name())
    }
}

/// The engine selector: naive for queries outside PPL (up to
/// [`NAIVE_COST_CEILING`]) and for tiny instances, `ppl` for everything
/// else.  Warm `ppl` beat `acq` on 79 of the 80 served (query, document)
/// pairs even before step atoms became views of the tree (EXPERIMENTS.md,
/// "The `acq` planner rule"), so neither cache state nor query shape
/// enters the decision.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Instances with `naive_cost()` at or below this run on the naive
    /// engine: enumeration is cheaper than building the Fig. 8 tables.
    pub naive_budget: u128,
    /// Union distribution budget when executing `acq` plans on union-bearing
    /// queries (Prop. 9 is exponential in union nesting).
    pub acq_disjunct_budget: usize,
}

impl Default for Planner {
    fn default() -> Planner {
        Planner {
            naive_budget: 2_048,
            acq_disjunct_budget: ACQ_DISJUNCT_BUDGET,
        }
    }
}

impl Planner {
    /// Plan with automatic engine choice.
    pub fn plan(
        &self,
        session: &Session,
        path: PathExpr,
        output: Vec<Var>,
    ) -> Result<QueryPlan, CompileError> {
        self.plan_with(session, path, output, None)
    }

    /// Plan with an optional engine override.
    ///
    /// Overriding with `ppl`, `hcl` or `acq` requires the query to be in the
    /// PPL fragment and returns the Definition 1 diagnostics otherwise;
    /// `naive` accepts any Core XPath 2.0 expression.  `None` plans a
    /// non-PPL query onto `naive` unless its enumeration estimate exceeds
    /// [`NAIVE_COST_CEILING`], which fails with [`CompileError::Refused`].
    pub fn plan_with(
        &self,
        session: &Session,
        path: PathExpr,
        output: Vec<Var>,
        engine: Option<Engine>,
    ) -> Result<QueryPlan, CompileError> {
        let ppl_check = check_ppl(&path);
        let hcl = match &ppl_check {
            Ok(()) => Some(ppl_to_hcl(&path)?),
            Err(_) => None,
        };
        let features = QueryFeatures {
            size: path.size(),
            arity: output.len(),
            tree_size: session.len(),
            ppl: hcl.is_some(),
        };
        let naive_cost = features.naive_cost();
        let (engine, choice, decision) = match (engine, ppl_check) {
            (Some(forced), Err(violations)) if forced != Engine::NaiveEnumeration => {
                return Err(CompileError::NotPpl(violations));
            }
            (Some(forced), _) => (
                forced,
                PlanChoice::Forced,
                format!("engine {} forced by caller", forced.name()),
            ),
            (None, Err(violations)) if naive_cost > NAIVE_COST_CEILING => {
                return Err(CompileError::Refused {
                    cost: naive_cost,
                    ceiling: NAIVE_COST_CEILING,
                    violations,
                });
            }
            (None, Err(_)) => (
                Engine::NaiveEnumeration,
                PlanChoice::Auto,
                format!(
                    "outside PPL (Definition 1): only the specification engine applies, \
                     |t|^(n+1)·|P| = {naive_cost} ≤ ceiling {NAIVE_COST_CEILING}"
                ),
            ),
            (None, Ok(())) if naive_cost <= self.naive_budget => (
                Engine::NaiveEnumeration,
                PlanChoice::Auto,
                format!(
                    "tiny instance: |t|^(n+1)·|P| = {naive_cost} ≤ budget {} — \
                     enumeration beats compilation",
                    self.naive_budget
                ),
            ),
            (None, Ok(())) => (
                Engine::Ppl,
                PlanChoice::Auto,
                "in PPL: Fig. 8 over the session store (step atoms are tree views)".into(),
            ),
        };
        Ok(QueryPlan {
            source: path,
            output,
            hcl,
            engine,
            choice,
            features,
            decision,
            acq_disjunct_budget: self.acq_disjunct_budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::parse_path;

    fn session_of(terms: &str) -> Session {
        Session::from_terms(terms).unwrap()
    }

    fn big_session() -> Session {
        // A bibliography large enough to push every cost past naive_budget.
        let mut terms = String::from("bib(");
        for i in 0..120 {
            if i > 0 {
                terms.push(',');
            }
            terms.push_str("book(author,title)");
        }
        terms.push(')');
        session_of(&terms)
    }

    #[test]
    fn non_ppl_queries_plan_onto_naive() {
        let s = session_of("bib(book(title),book(title))");
        let path =
            parse_path("for $x in child::book return child::book[. is $x]/child::title[. is $t]")
                .unwrap();
        let plan = Planner::default()
            .plan(&s, path, vec![Var::new("t")])
            .unwrap();
        assert_eq!(plan.engine(), Engine::NaiveEnumeration);
        assert!(plan.hcl().is_none());
        assert!(!plan.features().ppl);
        assert!(plan.explain().contains("outside PPL"));
    }

    #[test]
    fn tiny_instances_plan_onto_naive() {
        let s = session_of("a(b,c)");
        let plan = s.plan("child::b[. is $x]", &["x"]).unwrap();
        assert_eq!(plan.engine(), Engine::NaiveEnumeration);
        assert!(plan.features().ppl, "query is PPL, the choice is by size");
        assert!(plan.hcl().is_some(), "PPL plans keep their image");
    }

    #[test]
    fn step_only_queries_plan_onto_ppl() {
        let s = big_session();
        let plan = s
            .plan(
                "descendant::book[child::author[. is $a]]/child::title[. is $t]",
                &["a", "t"],
            )
            .unwrap();
        assert_eq!(plan.engine(), Engine::Ppl, "{}", plan.explain());
        assert_eq!(s.execute(&plan).unwrap().len(), 120);
    }

    #[test]
    fn dense_atoms_plan_onto_ppl_and_warm_sessions_stay_ppl() {
        let s = big_session();
        let src = "descendant::book[not((descendant::* except child::author)/child::title)][. is $x]";
        let plan = s.plan(src, &["x"]).unwrap();
        assert_eq!(plan.engine(), Engine::Ppl, "{}", plan.explain());
        // Execute once; the warm session plans exactly as the cold one did.
        s.execute(&plan).unwrap();
        assert!(s.cache_stats().compiled > 0);
        let replanned = s.plan(src, &["x"]).unwrap();
        assert_eq!(replanned.engine(), Engine::Ppl);
        assert_eq!(replanned.explain(), plan.explain());
    }

    #[test]
    fn costly_non_ppl_queries_are_refused_unless_naive_is_forced() {
        // The wedge: `$a` shared across `/` breaks NVS(/); arity 4 over 121
        // nodes is ~10¹¹ enumeration steps.
        let s = big_session();
        let src = "descendant::*[. is $a]/descendant-or-self::*[. is $a][. is $b]\
                   /descendant-or-self::*[. is $c][. is $d]";
        let vars = ["a", "b", "c", "d"];
        let err = s.plan(src, &vars).unwrap_err();
        let CompileError::Refused { cost, ceiling, violations } = &err else {
            panic!("expected a refusal, got {err:?}");
        };
        assert!(cost > ceiling);
        assert_eq!(*ceiling, NAIVE_COST_CEILING);
        assert!(!violations.is_empty());
        assert!(err.to_string().starts_with("outside PPL: estimated cost"), "{err}");
        let forced = Planner::default()
            .plan_with(
                &s,
                parse_path(src).unwrap(),
                vars.iter().map(|v| Var::new(v)).collect(),
                Some(Engine::NaiveEnumeration),
            )
            .unwrap();
        assert_eq!(forced.engine(), Engine::NaiveEnumeration);
    }

    #[test]
    fn forced_engines_demand_ppl_membership_except_naive() {
        let s = session_of("a(b)");
        let non_ppl = parse_path("for $x in child::b return child::b[. is $x]").unwrap();
        for engine in [Engine::Ppl, Engine::Hcl, Engine::Acq] {
            let err = Planner::default()
                .plan_with(&s, non_ppl.clone(), vec![], Some(engine))
                .unwrap_err();
            assert!(matches!(err, CompileError::NotPpl(_)), "{engine:?}");
        }
        let ok = Planner::default()
            .plan_with(&s, non_ppl, vec![], Some(Engine::NaiveEnumeration))
            .unwrap();
        assert_eq!(ok.engine(), Engine::NaiveEnumeration);
    }

    #[test]
    fn explain_reports_all_four_candidates() {
        let s = big_session();
        let plan = s.plan("descendant::author[. is $a]", &["a"]).unwrap();
        let report = plan.explain();
        for name in ["ppl", "hcl", "acq", "naive"] {
            assert!(report.contains(name), "missing {name} in:\n{report}");
        }
        assert!(report.contains("chosen"));
        assert!(report.contains("PPLbin atoms"));
        assert!(report.contains(&format!("|t|={}", s.len())));
        assert_eq!(format!("{plan}"), format!("{} via {}", plan.source(), plan.engine().name()));
    }
}
