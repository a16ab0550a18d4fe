//! Query planning: engine-agnostic prepared plans and the cost-based
//! engine choice.
//!
//! A [`QueryPlan`] is the prepared form of one query against one session:
//! the parsed source, the output variables, the `HCL⁻(PPLbin)` image of
//! Fig. 7 (when the query is in the PPL fragment), the structural
//! [`QueryFeatures`] the planner extracted, and the chosen [`Engine`].
//! Preparation is where all per-query compilation happens; executing a plan
//! (possibly many times, possibly from many threads) only pays evaluation.
//!
//! The [`Planner`] picks among the four engines by inspecting query shape
//! and tree size:
//!
//! * queries outside PPL (Definition 1) can only run on the Fig. 2
//!   specification engine — `naive`;
//! * tiny instances (`|t|^(n+1)·|P|` under [`Planner::naive_budget`]) run on
//!   `naive` too: assignment enumeration is cheaper than compiling matrices;
//! * a session already warm for every PPLbin atom of the plan always runs
//!   `ppl` — cached matrices make answering `O(n·|C|·|t|²·|A|)` with no
//!   compilation at all;
//! * union-free, GYO-acyclic images whose atoms are all plain axis steps
//!   run `acq` (Yannakakis, Props. 7/8): the binary database stays sparse
//!   and the semijoin program touches `O(|db|·|Q|)` pairs instead of `|t|²`
//!   rows per node;
//! * everything else — dense (`except`-bearing) atoms, unions, wide
//!   compositions — runs `ppl`, whose cached dense products are built for
//!   exactly that shape.
//!
//! An explicit override (`pplx --engine hcl`, [`Planner::plan_with`]) skips
//! the decision but still records the features, so `--explain` shows what
//! auto would have seen.  `hcl` — the cold Fig. 8 pipeline, compiling every
//! atom from scratch — is never chosen automatically: it is dominated by
//! `ppl` and exists for overrides and differential testing.

use crate::engine::Engine;
use crate::query::CompileError;
use crate::session::Session;
use std::fmt;
use xpath_acq::gyo_join_forest;
use xpath_ast::ppl::check_ppl;
use xpath_ast::{BinExpr, PathExpr, Var};
use xpath_hcl::{ppl_to_hcl, Hcl};

/// Default union distribution budget of `acq` plans (Prop. 9 distribution
/// is exponential in union nesting depth; a plan exceeding its budget fails
/// with `QueryError::Acq` instead of blowing up).
pub const ACQ_DISJUNCT_BUDGET: usize = 256;

/// Structural features of one (query, document) pair, extracted at plan
/// time and reported by [`QueryPlan::explain`].
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
    /// Is the HCL⁻ image union-free (the `N(∪)` fragment of Section 6)?
    pub union_free: bool,
    /// Does the GYO reduction certify the ACQ image acyclic?  (Union-free
    /// images of HCL⁻ are tree-shaped by construction — Prop. 8 — so this
    /// is expected to hold whenever `union_free` does.)
    pub acyclic: bool,
    /// Distinct PPLbin atoms of the image.
    pub atoms: usize,
    /// Atoms that are single axis steps (the sparse/interval-friendly
    /// shape — the "axis mix" of the plan).
    pub step_atoms: usize,
    /// Atoms containing an `except` complement (dense compilation).
    pub dense_atoms: usize,
    /// Atoms already compiled in the session's shared store at plan time.
    pub cached_atoms: usize,
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
    /// The planner's cost decision.
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
    /// Human-readable decision trace, one rule per line.
    decision: Vec<String>,
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

    /// Was the engine forced by the caller rather than chosen by cost?
    pub fn is_forced(&self) -> bool {
        self.choice == PlanChoice::Forced
    }

    /// The structural features the planner extracted.
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
            "shape        : |P|={} arity={} |t|={} ppl={} union_free={} acyclic={}\n",
            f.size, f.arity, f.tree_size, f.ppl, f.union_free, f.acyclic
        ));
        out.push_str(&format!(
            "atom mix     : {} atoms ({} steps, {} dense, {} cached)\n",
            f.atoms, f.step_atoms, f.dense_atoms, f.cached_atoms
        ));
        out.push_str("candidates   :\n");
        for engine in Engine::ALL {
            let eligible = match engine {
                Engine::NaiveEnumeration => true,
                _ => f.ppl,
            };
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
        for line in &self.decision {
            out.push_str(&format!("decision     : {line}\n"));
        }
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

/// The cost-based engine selector.  The thresholds are tunable.  The `acq`
/// rule is uncalibrated: in `BENCH_4.json` (E12, |t| = 180) auto planning
/// took 1524.4 µs against 1175.9 µs for always-`ppl`.  EXPERIMENTS.md
/// ("Fig. 8 answering kernel") records what removing the rule costs.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Instances with `naive_cost()` at or below this run on the naive
    /// engine: enumeration is cheaper than any matrix compilation.
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
    /// `naive` accepts any Core XPath 2.0 expression; `None` never fails on
    /// fragment grounds (non-PPL queries plan onto `naive`).
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
        let features = self.features(session, &path, &output, hcl.as_ref());

        if let Some(forced) = engine {
            if forced != Engine::NaiveEnumeration {
                if let Err(violations) = ppl_check {
                    return Err(CompileError::NotPpl(violations));
                }
            }
            return Ok(QueryPlan {
                source: path,
                output,
                hcl,
                engine: forced,
                choice: PlanChoice::Forced,
                features,
                decision: vec![format!("engine {} forced by caller", forced.name())],
                acq_disjunct_budget: self.acq_disjunct_budget,
            });
        }

        let (engine, decision) = self.decide(&features);
        Ok(QueryPlan {
            source: path,
            output,
            hcl,
            engine,
            choice: PlanChoice::Auto,
            features,
            decision,
            acq_disjunct_budget: self.acq_disjunct_budget,
        })
    }

    /// The auto decision over extracted features (exposed for tests; does
    /// not need the session).
    fn decide(&self, f: &QueryFeatures) -> (Engine, Vec<String>) {
        if !f.ppl {
            return (
                Engine::NaiveEnumeration,
                vec!["outside PPL (Definition 1): only the specification engine applies".into()],
            );
        }
        let naive_cost = f.naive_cost();
        if naive_cost <= self.naive_budget {
            return (
                Engine::NaiveEnumeration,
                vec![format!(
                    "tiny instance: |t|^(n+1)·|P| = {naive_cost} ≤ budget {} — enumeration beats compilation",
                    self.naive_budget
                )],
            );
        }
        if f.atoms > 0 && f.cached_atoms == f.atoms {
            return (
                Engine::Ppl,
                vec![format!(
                    "session warm: all {} atoms already compiled in the shared store",
                    f.atoms
                )],
            );
        }
        if f.union_free && f.acyclic && f.arity >= 1 && f.dense_atoms == 0 && f.step_atoms == f.atoms
        {
            return (
                Engine::Acq,
                vec![format!(
                    "union-free acyclic image, all {} atoms plain steps: sparse Yannakakis semijoins",
                    f.atoms
                )],
            );
        }
        (
            Engine::Ppl,
            vec![format!(
                "default: {} dense atoms / union_free={} favour the cached matrix pipeline",
                f.dense_atoms, f.union_free
            )],
        )
    }

    /// Extract [`QueryFeatures`] for one (query, session) pair.
    fn features(
        &self,
        session: &Session,
        path: &PathExpr,
        output: &[Var],
        hcl: Option<&Hcl<BinExpr>>,
    ) -> QueryFeatures {
        let mut features = QueryFeatures {
            size: path.size(),
            arity: output.len(),
            tree_size: session.len(),
            ppl: hcl.is_some(),
            union_free: false,
            acyclic: false,
            atoms: 0,
            step_atoms: 0,
            dense_atoms: 0,
            cached_atoms: 0,
        };
        let Some(hcl) = hcl else {
            return features;
        };
        features.union_free = hcl.is_union_free();
        let mut distinct: Vec<&BinExpr> = Vec::new();
        for atom in hcl.atoms() {
            if !distinct.contains(&atom) {
                distinct.push(atom);
            }
        }
        features.atoms = distinct.len();
        for atom in &distinct {
            if matches!(atom, BinExpr::Step(_, _)) {
                features.step_atoms += 1;
            }
            if has_complement(atom) {
                features.dense_atoms += 1;
            }
            if session.store().is_compiled(atom) {
                features.cached_atoms += 1;
            }
        }
        if features.union_free {
            // GYO acyclicity of the ACQ image (Prop. 8: expected to hold).
            // `hcl_to_cq` only translates — no tree, no atom evaluation —
            // so plan preparation stays cheap.
            features.acyclic = xpath_acq::hcl_to_cq(hcl, output)
                .map(|(cq, _)| gyo_join_forest(&cq).is_some())
                .unwrap_or(false);
        }
        features
    }
}

/// Does a PPLbin expression contain an `except` complement (forcing dense
/// compilation of that subterm)?
fn has_complement(expr: &BinExpr) -> bool {
    match expr {
        BinExpr::Step(_, _) => false,
        BinExpr::Seq(a, b) | BinExpr::Union(a, b) => has_complement(a) || has_complement(b),
        BinExpr::Except(_) => true,
        BinExpr::Test(p) => has_complement(p),
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
        assert!(plan.features().ppl, "query is PPL, choice is cost-based");
        assert!(plan.hcl().is_some(), "PPL plans keep their image");
    }

    #[test]
    fn step_only_acyclic_queries_plan_onto_acq() {
        let s = big_session();
        let plan = s
            .plan(
                "descendant::book[child::author[. is $a]]/child::title[. is $t]",
                &["a", "t"],
            )
            .unwrap();
        assert_eq!(plan.engine(), Engine::Acq, "{}", plan.explain());
        let f = plan.features();
        assert!(f.union_free && f.acyclic);
        assert_eq!(f.dense_atoms, 0);
        assert_eq!(f.step_atoms, f.atoms);
    }

    #[test]
    fn dense_atoms_plan_onto_ppl_and_warm_sessions_stay_ppl() {
        let s = big_session();
        let src = "descendant::book[not((descendant::* except child::author)/child::title)][. is $x]";
        let plan = s.plan(src, &["x"]).unwrap();
        assert_eq!(plan.engine(), Engine::Ppl, "{}", plan.explain());
        assert!(plan.features().dense_atoms > 0);
        assert_eq!(plan.features().cached_atoms, 0);
        // Execute once; replanning must see a warm session.
        s.execute(&plan).unwrap();
        let replanned = s.plan(src, &["x"]).unwrap();
        assert_eq!(replanned.engine(), Engine::Ppl);
        assert_eq!(
            replanned.features().cached_atoms,
            replanned.features().atoms
        );
        assert!(replanned.explain().contains("session warm") || replanned.explain().contains("dense"));
    }

    #[test]
    fn warm_sessions_override_the_acq_choice() {
        let s = big_session();
        let src = "descendant::book[child::author[. is $a]]/child::title[. is $t]";
        let cold = s.plan(src, &["a", "t"]).unwrap();
        assert_eq!(cold.engine(), Engine::Acq);
        // Warm every atom through a forced-ppl plan, then replan.
        let forced = Planner::default()
            .plan_with(
                &s,
                parse_path(src).unwrap(),
                vec![Var::new("a"), Var::new("t")],
                Some(Engine::Ppl),
            )
            .unwrap();
        assert!(forced.is_forced());
        s.execute(&forced).unwrap();
        let warm = s.plan(src, &["a", "t"]).unwrap();
        assert_eq!(warm.engine(), Engine::Ppl, "{}", warm.explain());
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
