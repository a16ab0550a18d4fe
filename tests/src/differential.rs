//! Cross-engine differential fuzzing.
//!
//! This module generates random **PPL** queries (Definition 1) together with
//! random trees and checks that every evaluation pipeline in the workspace
//! produces exactly the same answer set, tuple for tuple:
//!
//! 1. [`Engine::Ppl`] — the Theorem-1 polynomial pipeline
//!    (Fig. 7 translation → Lemma 3 normalisation → Fig. 8 answering);
//! 2. [`Engine::NaiveEnumeration`] — the Fig. 2 specification semantics with
//!    assignment enumeration, the exponential ground truth;
//! 3. the Fig. 8 algorithm invoked directly on the HCL⁻ image
//!    (`ppl_to_hcl` + `answer_hcl_pplbin`), bypassing the core facade;
//! 4. the ACQ/Yannakakis path (`hcl_to_acq` + `answer_acq` on union-free
//!    images, `hcl_to_union_acq` otherwise — Props. 7/8/9).
//!
//! A second generator produces random FO formulas and checks the Lemma 1
//! round trip: `fo_answer_nary` (Tarskian satisfaction) must agree with the
//! naive engine run on `fo_to_xpath(φ)`.
//!
//! The query generator is *constructive*: it partitions the requested output
//! variables over the syntax tree so that each NVS restriction holds by
//! construction, and then re-checks the invariant with [`check_ppl`] — a
//! rejected query is a generator bug, not a skip.
//!
//! Everything is deterministic per seed, so a failing case reproduces across
//! runs; the panic message carries the term-syntax tree and the printed
//! query for one-line reproduction.

use ppl_xpath::{Engine, Planner, QueryPlan, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use xpath_acq::{answer_acq, hcl_to_acq, hcl_to_union_acq};
use xpath_ast::ppl::check_ppl;
use xpath_ast::{NameTest, NodeRef, PathExpr, TestExpr, Var};
use xpath_fo::{fo_answer_nary, fo_to_xpath, Formula};
use xpath_hcl::{answer_hcl_pplbin, ppl_to_hcl};
use xpath_naive::answer_nary;
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_tree::{Axis, NodeId, Tree};

/// Upper bound on the number of union-free disjuncts the ACQ cross-check is
/// willing to materialise per query (Prop. 9 distribution is exponential in
/// the union nesting depth).
const ACQ_DISJUNCT_BUDGET: usize = 256;

// ---------------------------------------------------------------------------
// Configuration and reporting
// ---------------------------------------------------------------------------

/// Configuration of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// RNG seed; runs are deterministic per seed.
    pub seed: u64,
    /// Number of (tree, query) pairs to check.
    pub cases: usize,
    /// Maximum tree size in nodes (sizes are drawn from `1..=max`).
    pub max_tree_size: usize,
    /// Number of distinct labels `l0 … l{alphabet-1}` used by trees and
    /// name tests (sharing the alphabet keeps queries selective but not
    /// trivially empty).
    pub alphabet: usize,
    /// Maximum tuple width (output variables per query). The naive engine
    /// enumerates `|t|^n` assignments, so keep this small.
    pub max_vars: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xD1FF_5EED,
            cases: 200,
            max_tree_size: 12,
            alphabet: 3,
            max_vars: 3,
        }
    }
}

/// Aggregate statistics of a fuzzing run, for meta-assertions (the fuzz
/// must actually exercise non-trivial queries, not vacuously agree on
/// empty answer sets).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// (tree, query) pairs checked.
    pub cases: usize,
    /// Cases whose answer set was non-empty.
    pub nonempty_answers: usize,
    /// Total answer tuples across all cases.
    pub total_tuples: usize,
    /// Cases whose query contained at least one `union`.
    pub union_queries: usize,
    /// Cases checked against the ACQ/Yannakakis path (a case is skipped
    /// only when union distribution exceeds `ACQ_DISJUNCT_BUDGET`).
    pub acq_checked: usize,
    /// Widest tuple arity seen.
    pub max_arity: usize,
}

// ---------------------------------------------------------------------------
// Random PPL query generation
// ---------------------------------------------------------------------------

/// Seeded generator of random trees and random PPL queries.
pub struct QueryGen {
    rng: StdRng,
    alphabet: usize,
}

impl QueryGen {
    pub fn new(seed: u64, alphabet: usize) -> QueryGen {
        QueryGen {
            rng: StdRng::seed_from_u64(seed),
            alphabet: alphabet.max(1),
        }
    }

    /// A random tree of one of the five generator shapes.
    pub fn gen_tree(&mut self, max_size: usize) -> Tree {
        let size = self.rng.gen_range(1..=max_size.max(1));
        let shape = match self.rng.gen_range(0u32..5) {
            0 => TreeShape::RandomAttachment,
            1 => TreeShape::BoundedBranching {
                max_children: self.rng.gen_range(1usize..=4),
            },
            2 => TreeShape::Path,
            3 => TreeShape::Star,
            _ => TreeShape::Complete {
                arity: self.rng.gen_range(2usize..=3),
            },
        };
        random_tree(&TreeGenConfig {
            size,
            shape,
            alphabet: self.alphabet,
            seed: self.rng.gen_range(0u64..=u64::MAX),
        })
    }

    /// A random PPL query binding exactly `arity` output variables
    /// `v0 … v{arity-1}`. The result always satisfies [`check_ppl`].
    pub fn gen_query(&mut self, arity: usize) -> (PathExpr, Vec<Var>) {
        let vars: Vec<Var> = (0..arity).map(|i| Var::new(&format!("v{i}"))).collect();
        let path = self.gen_path(3, &vars);
        (path, vars)
    }

    fn gen_axis(&mut self) -> Axis {
        // Favour the downward axes (selective but frequently non-empty);
        // include every axis the data model defines.
        match self.rng.gen_range(0u32..12) {
            0 | 1 => Axis::Child,
            2 | 3 => Axis::Descendant,
            4 => Axis::SelfAxis,
            5 => Axis::Parent,
            6 => Axis::Ancestor,
            7 => Axis::DescendantOrSelf,
            8 => Axis::AncestorOrSelf,
            9 => Axis::FollowingSibling,
            _ => Axis::PrecedingSibling,
        }
    }

    fn gen_name(&mut self) -> NameTest {
        if self.rng.gen_bool(0.4) {
            NameTest::Wildcard
        } else {
            NameTest::name(&format!("l{}", self.rng.gen_range(0..self.alphabet)))
        }
    }

    fn gen_step(&mut self) -> PathExpr {
        let axis = self.gen_axis();
        let name = self.gen_name();
        PathExpr::Step(axis, name)
    }

    /// A random variable-free path expression (the PPLbin source fragment).
    pub fn gen_varfree_path(&mut self, depth: u32) -> PathExpr {
        if depth == 0 {
            return if self.rng.gen_bool(0.1) {
                PathExpr::NodeRef(NodeRef::Dot)
            } else {
                self.gen_step()
            };
        }
        match self.rng.gen_range(0u32..10) {
            0..=3 => self.gen_step(),
            4 => PathExpr::Seq(
                Box::new(self.gen_varfree_path(depth - 1)),
                Box::new(self.gen_varfree_path(depth - 1)),
            ),
            5 => PathExpr::Union(
                Box::new(self.gen_varfree_path(depth - 1)),
                Box::new(self.gen_varfree_path(depth - 1)),
            ),
            6 => PathExpr::Intersect(
                Box::new(self.gen_varfree_path(depth - 1)),
                Box::new(self.gen_varfree_path(depth - 1)),
            ),
            7 => PathExpr::Except(
                Box::new(self.gen_varfree_path(depth - 1)),
                Box::new(self.gen_varfree_path(depth - 1)),
            ),
            _ => PathExpr::Filter(
                Box::new(self.gen_varfree_path(depth - 1)),
                Box::new(self.gen_varfree_test(depth - 1)),
            ),
        }
    }

    /// A random variable-free test expression.
    pub fn gen_varfree_test(&mut self, depth: u32) -> TestExpr {
        if depth == 0 {
            return TestExpr::Path(self.gen_step());
        }
        match self.rng.gen_range(0u32..8) {
            0..=2 => TestExpr::Path(self.gen_varfree_path(depth - 1)),
            3 => TestExpr::Not(Box::new(self.gen_varfree_test(depth - 1))),
            4 => TestExpr::And(
                Box::new(self.gen_varfree_test(depth - 1)),
                Box::new(self.gen_varfree_test(depth - 1)),
            ),
            5 => TestExpr::Or(
                Box::new(self.gen_varfree_test(depth - 1)),
                Box::new(self.gen_varfree_test(depth - 1)),
            ),
            _ => TestExpr::Path(self.gen_step()),
        }
    }

    /// A random path expression whose free variables are exactly `vars`.
    ///
    /// The NVS conditions are maintained structurally: variables are
    /// *partitioned* between the two sides of `/`, `[]` and `and`, while
    /// `union` and `or` duplicate the full set on both sides (which
    /// Definition 1 permits).
    pub fn gen_path(&mut self, depth: u32, vars: &[Var]) -> PathExpr {
        if vars.is_empty() {
            return self.gen_varfree_path(depth.min(2));
        }
        // Unions may share variables freely — both branches bind the full set.
        if depth > 0 && self.rng.gen_bool(0.2) {
            return PathExpr::Union(
                Box::new(self.gen_path(depth - 1, vars)),
                Box::new(self.gen_path(depth - 1, vars)),
            );
        }
        // Goto-style anchor `$v / P(rest)` (NVS(/) holds: disjoint parts).
        if depth > 0 && vars.len() >= 2 && self.rng.gen_bool(0.15) {
            let (head, rest) = vars.split_first().expect("vars nonempty");
            return PathExpr::Seq(
                Box::new(PathExpr::NodeRef(NodeRef::Var(head.clone()))),
                Box::new(self.gen_path(depth - 1, rest)),
            );
        }

        // Conjunctive node: `base [. is $v]? [T(filter_vars)]? (/ P(tail))?`
        // with {v} ⊎ filter_vars ⊎ tail = vars.
        let split = self.rng.gen_range(0..=vars.len());
        let (here, tail) = vars.split_at(split);
        let (self_bound, filter_vars) = if !here.is_empty() && self.rng.gen_bool(0.7) {
            (Some(&here[0]), &here[1..])
        } else {
            (None, here)
        };

        let mut node = self.gen_step();
        if self.rng.gen_bool(0.2) {
            node = PathExpr::Filter(Box::new(node), Box::new(self.gen_varfree_test(1)));
        }
        if let Some(v) = self_bound {
            node = PathExpr::Filter(
                Box::new(node),
                Box::new(TestExpr::Comp(NodeRef::Dot, NodeRef::Var(v.clone()))),
            );
        }
        if !filter_vars.is_empty() {
            let test = self.gen_test(depth.saturating_sub(1), filter_vars);
            node = PathExpr::Filter(Box::new(node), Box::new(test));
        }
        if !tail.is_empty() {
            let rest = self.gen_path(depth.saturating_sub(1), tail);
            node = PathExpr::Seq(Box::new(node), Box::new(rest));
        } else if self.rng.gen_bool(0.15) {
            // A trailing variable-free hop keeps `/` exercised on the right.
            node = PathExpr::Seq(Box::new(node), Box::new(self.gen_varfree_path(1)));
        }
        node
    }

    /// A random test expression whose free variables are exactly `vars`
    /// (which must be non-empty).
    pub fn gen_test(&mut self, depth: u32, vars: &[Var]) -> TestExpr {
        debug_assert!(!vars.is_empty());
        if depth == 0 {
            // Base case: bind every variable via `. is $v` conjunctions
            // (distinct variables, so NVS(and) holds).
            return vars
                .iter()
                .map(|v| TestExpr::Comp(NodeRef::Dot, NodeRef::Var(v.clone())))
                .reduce(|a, b| TestExpr::And(Box::new(a), Box::new(b)))
                .expect("vars nonempty");
        }
        match self.rng.gen_range(0u32..10) {
            // `or` duplicates the full variable set, like union.
            0 | 1 => TestExpr::Or(
                Box::new(self.gen_test(depth - 1, vars)),
                Box::new(self.gen_test(depth - 1, vars)),
            ),
            // `and` partitions the variable set.
            2 | 3 if vars.len() >= 2 => {
                let cut = self.rng.gen_range(1..vars.len());
                let (a, b) = vars.split_at(cut);
                TestExpr::And(
                    Box::new(self.gen_test(depth - 1, a)),
                    Box::new(self.gen_test(depth - 1, b)),
                )
            }
            // `$a is $b` — both sides must denote the same node.
            4 if vars.len() == 2 => {
                TestExpr::Comp(NodeRef::Var(vars[0].clone()), NodeRef::Var(vars[1].clone()))
            }
            // `. is $v` for a single variable.
            5 if vars.len() == 1 => TestExpr::Comp(NodeRef::Dot, NodeRef::Var(vars[0].clone())),
            // A path test whose navigation binds the variables.
            _ => TestExpr::Path(self.gen_path(depth - 1, vars)),
        }
    }
}

// ---------------------------------------------------------------------------
// FO formula generation (Lemma 1 round trip)
// ---------------------------------------------------------------------------

/// Seeded generator of random FO formulas over a fixed variable scope.
pub struct FormulaGen {
    rng: StdRng,
    alphabet: usize,
}

impl FormulaGen {
    pub fn new(seed: u64, alphabet: usize) -> FormulaGen {
        FormulaGen {
            rng: StdRng::seed_from_u64(seed),
            alphabet: alphabet.max(1),
        }
    }

    fn gen_atom(&mut self, scope: &[String]) -> Formula {
        let pick = |rng: &mut StdRng, scope: &[String]| -> String {
            scope[rng.gen_range(0..scope.len())].clone()
        };
        match self.rng.gen_range(0u32..4) {
            0 => {
                let x = pick(&mut self.rng, scope);
                let y = pick(&mut self.rng, scope);
                Formula::ns_star(&x, &y)
            }
            1 => {
                let x = pick(&mut self.rng, scope);
                let y = pick(&mut self.rng, scope);
                Formula::ch_star(&x, &y)
            }
            _ => {
                let label = format!("l{}", self.rng.gen_range(0..self.alphabet));
                let x = pick(&mut self.rng, scope);
                Formula::label(&label, &x)
            }
        }
    }

    /// A random formula whose free variables are contained in `scope`.
    /// `quantifiers` bounds the number of `∃` introduced below this node.
    pub fn gen_formula(&mut self, depth: u32, quantifiers: u32, scope: &[String]) -> Formula {
        if depth == 0 {
            return self.gen_atom(scope);
        }
        match self.rng.gen_range(0u32..8) {
            0 | 1 => self.gen_atom(scope),
            2 => self.gen_formula(depth - 1, quantifiers, scope).negate(),
            3 | 4 => self
                .gen_formula(depth - 1, quantifiers, scope)
                .and(self.gen_formula(depth - 1, quantifiers, scope)),
            5 => self
                .gen_formula(depth - 1, quantifiers, scope)
                .or(self.gen_formula(depth - 1, quantifiers, scope)),
            _ if quantifiers > 0 => {
                let fresh = format!("q{}", quantifiers);
                let mut inner_scope = scope.to_vec();
                inner_scope.push(fresh.clone());
                Formula::exists(
                    &fresh,
                    self.gen_formula(depth - 1, quantifiers - 1, &inner_scope),
                )
            }
            _ => self.gen_atom(scope),
        }
    }
}

// ---------------------------------------------------------------------------
// The cross-engine check
// ---------------------------------------------------------------------------

fn answer_tuples(set: &ppl_xpath::AnswerSet) -> BTreeSet<Vec<NodeId>> {
    set.tuples().iter().cloned().collect()
}

/// Prepare `query` on `session` with `engine` forced.
fn forced_plan(
    session: &Session,
    query: &PathExpr,
    outputs: &[Var],
    engine: Engine,
) -> Result<QueryPlan, ppl_xpath::CompileError> {
    Planner::default().plan_with(session, query.clone(), outputs.to_vec(), Some(engine))
}

/// Check one (tree, query) pair across all four pipelines. Panics with a
/// reproducible diagnostic on the first disagreement. Returns
/// `(tuple_count, acq_checked)`.
pub fn check_case(tree: &Tree, query: &PathExpr, outputs: &[Var]) -> (usize, bool) {
    let ctx = |engine: &str| {
        format!(
            "{engine} failed\n  query : {query}\n  output: {outputs:?}\n  tree  : {}",
            tree.to_terms()
        )
    };

    check_ppl(query).unwrap_or_else(|violations| {
        panic!(
            "generator produced a non-PPL query ({violations:?})\n{}",
            ctx("check_ppl")
        )
    });

    let session = Session::from_tree(tree.clone());

    // 1. Ground truth: the Fig. 2 specification semantics.
    let naive = answer_nary(tree, query, outputs)
        .unwrap_or_else(|e| panic!("{e}\n{}", ctx("naive enumeration")));

    // 2. The polynomial pipeline through the public facade.
    let ppl = Engine::Ppl
        .answer(&session, query, outputs)
        .unwrap_or_else(|e| panic!("{e}\n{}", ctx("Engine::Ppl")));
    assert_eq!(
        answer_tuples(&ppl),
        naive,
        "Engine::Ppl disagrees with the naive engine\n{}",
        ctx("differential")
    );

    // 2b. The batched API over the now-warm session cache: the answer must
    //     come out of cached matrices tuple-for-tuple identical.
    let compiled = forced_plan(&session, query, outputs, Engine::Ppl)
        .unwrap_or_else(|e| panic!("{e}\n{}", ctx("Planner::plan_with")));
    let batch = session
        .answer_batch(std::slice::from_ref(&compiled))
        .unwrap_or_else(|e| panic!("{e}\n{}", ctx("Session::answer_batch")));
    assert_eq!(
        answer_tuples(&batch[0]),
        naive,
        "answer_batch (cached matrices) disagrees with the naive engine\n{}",
        ctx("differential")
    );

    // 3. The Fig. 8 algorithm on the HCL⁻ image, bypassing the facade.
    let hcl = ppl_to_hcl(query).unwrap_or_else(|e| panic!("{e}\n{}", ctx("ppl_to_hcl")));
    let via_hcl = answer_hcl_pplbin(tree, &hcl, outputs)
        .unwrap_or_else(|e| panic!("{e}\n{}", ctx("answer_hcl_pplbin")));
    assert_eq!(
        via_hcl,
        naive,
        "answer_hcl_pplbin disagrees with the naive engine\n{}",
        ctx("differential")
    );

    // 4. The ACQ/Yannakakis path (Props. 7/8/9). Union-free images map to a
    //    single conjunctive query; unions are distributed under a budget.
    let acq_checked = if hcl.is_union_free() {
        let (cq, db) = hcl_to_acq(tree, &hcl, outputs)
            .unwrap_or_else(|e| panic!("{e}\n{}", ctx("hcl_to_acq")));
        let via_acq = answer_acq(&cq, &db).unwrap_or_else(|e| panic!("{e}\n{}", ctx("answer_acq")));
        assert_eq!(
            via_acq,
            naive,
            "Yannakakis disagrees with the naive engine\n{}",
            ctx("differential")
        );
        true
    } else {
        match hcl_to_union_acq(tree, &hcl, outputs, ACQ_DISJUNCT_BUDGET) {
            Ok(union_acq) => {
                let via_acq = union_acq
                    .answer()
                    .unwrap_or_else(|e| panic!("{e}\n{}", ctx("UnionAcq::answer")));
                assert_eq!(
                    via_acq,
                    naive,
                    "union-of-ACQs disagrees with the naive engine\n{}",
                    ctx("differential")
                );
                true
            }
            // Distribution blow-up: the other three engines still cover the
            // case; record the skip so the report stays honest.
            Err(_) => false,
        }
    };

    (naive.len(), acq_checked)
}

fn has_union(p: &PathExpr) -> bool {
    match p {
        PathExpr::Step(_, _) | PathExpr::NodeRef(_) => false,
        PathExpr::Union(_, _) => true,
        PathExpr::Seq(a, b) | PathExpr::Intersect(a, b) | PathExpr::Except(a, b) => {
            has_union(a) || has_union(b)
        }
        PathExpr::Filter(p, t) => has_union(p) || test_has_union(t),
        PathExpr::For(_, a, b) => has_union(a) || has_union(b),
    }
}

fn test_has_union(t: &TestExpr) -> bool {
    match t {
        TestExpr::Path(p) => has_union(p),
        TestExpr::Comp(_, _) => false,
        TestExpr::Not(t) => test_has_union(t),
        TestExpr::And(a, b) | TestExpr::Or(a, b) => test_has_union(a) || test_has_union(b),
    }
}

/// Run the PPL cross-engine fuzz: `cfg.cases` random (tree, query) pairs,
/// all four pipelines compared tuple-for-tuple on each.
pub fn run_ppl_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut gen = QueryGen::new(cfg.seed, cfg.alphabet);
    let mut arity_rng = StdRng::seed_from_u64(cfg.seed ^ 0xA217);
    let mut report = FuzzReport::default();

    for _ in 0..cfg.cases {
        // Weighted arity: mostly 1–2 variables; wide tuples and boolean
        // queries are the tails. The naive baseline is Θ(|t|ⁿ), so trees
        // shrink as the arity grows.
        let arity = match arity_rng.gen_range(0u32..20) {
            0 | 1 => 0,
            2..=9 => 1,
            10..=16 => 2.min(cfg.max_vars),
            _ => cfg.max_vars,
        };
        let max_size = if arity >= 3 {
            cfg.max_tree_size.min(8)
        } else {
            cfg.max_tree_size
        };
        let tree = gen.gen_tree(max_size);
        let (query, outputs) = gen.gen_query(arity);

        let (tuples, acq_checked) = check_case(&tree, &query, &outputs);
        report.cases += 1;
        report.total_tuples += tuples;
        if tuples > 0 {
            report.nonempty_answers += 1;
        }
        if has_union(&query) {
            report.union_queries += 1;
        }
        if acq_checked {
            report.acq_checked += 1;
        }
        report.max_arity = report.max_arity.max(arity);
    }
    report
}

/// Statistics of one batched-API fuzz run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchFuzzReport {
    /// Trees checked (one batch per tree).
    pub trees: usize,
    /// Queries answered across all batches.
    pub queries: usize,
    /// Total answer tuples across all batches.
    pub total_tuples: usize,
    /// Trees whose batch hit the document cache at least once (shared
    /// subterms or repeated queries).
    pub cache_hits_seen: usize,
}

/// Fuzz the batched query API: for each random tree, generate a set of
/// random PPL queries, answer the whole set of forced-`ppl` plans at once
/// with [`Session::answer_batch`] (shared matrix cache) and check every
/// answer against the per-query paths — a forced-`hcl` plan (cold atoms) on
/// a fresh session and the naive specification engine.
pub fn run_batch_fuzz(cfg: &FuzzConfig, queries_per_tree: usize) -> BatchFuzzReport {
    assert!(queries_per_tree >= 1);
    let mut gen = QueryGen::new(cfg.seed ^ 0xBA7C4, cfg.alphabet);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBA7C5);
    let mut report = BatchFuzzReport::default();

    for _ in 0..cfg.cases {
        let tree = gen.gen_tree(cfg.max_tree_size);
        let session = Session::from_tree(tree.clone());
        let mut compiled: Vec<QueryPlan> = Vec::with_capacity(queries_per_tree);
        let mut expected: Vec<BTreeSet<Vec<NodeId>>> = Vec::with_capacity(queries_per_tree);
        for _ in 0..queries_per_tree {
            let arity = rng.gen_range(0..=cfg.max_vars.min(2));
            let (query, outputs) = gen.gen_query(arity);
            let naive = answer_nary(&tree, &query, &outputs).unwrap_or_else(|e| {
                panic!(
                    "naive failed: {e}\n  query: {query}\n  tree: {}",
                    tree.to_terms()
                )
            });
            expected.push(naive);
            compiled.push(
                forced_plan(&session, &query, &outputs, Engine::Ppl).unwrap_or_else(|e| {
                    panic!(
                        "compile failed: {e}\n  query: {query}\n  tree: {}",
                        tree.to_terms()
                    )
                }),
            );
        }

        let batch = session
            .answer_batch(&compiled)
            .unwrap_or_else(|e| panic!("answer_batch failed: {e}\n  tree: {}", tree.to_terms()));
        assert_eq!(batch.len(), compiled.len());
        for (i, (answer, naive)) in batch.iter().zip(&expected).enumerate() {
            let ctx = || {
                format!(
                    "  query : {}\n  tree  : {}",
                    compiled[i].source(),
                    tree.to_terms()
                )
            };
            assert_eq!(
                &answer_tuples(answer),
                naive,
                "answer_batch[{i}] disagrees with the naive engine\n{}",
                ctx()
            );
            // Per-query cold answering on a fresh session must agree too.
            let cold_session = Session::from_tree(tree.clone());
            let cold = Engine::Hcl
                .answer(&cold_session, compiled[i].source(), compiled[i].output())
                .unwrap_or_else(|e| panic!("cold answering failed: {e}\n{}", ctx()));
            assert_eq!(
                cold,
                batch[i],
                "answer_batch[{i}] disagrees with cold per-query answering\n{}",
                ctx()
            );
            report.total_tuples += answer.len();
        }
        report.trees += 1;
        report.queries += compiled.len();
        if session.cache_stats().hits > 0 {
            report.cache_hits_seen += 1;
        }
    }
    report
}

/// Run the FO round-trip fuzz: random formulas evaluated by Tarskian
/// satisfaction must agree with the naive engine on their XPath image
/// (Lemma 1 / Prop. 1). Returns the total tuple count across all cases.
pub fn run_fo_fuzz(seed: u64, cases: usize, max_tree_size: usize, alphabet: usize) -> usize {
    let mut trees = QueryGen::new(seed ^ 0xF0, alphabet);
    let mut formulas = FormulaGen::new(seed, alphabet);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1);
    let mut total = 0usize;

    for _ in 0..cases {
        let tree = trees.gen_tree(max_tree_size);
        let n_free = rng.gen_range(1usize..=2);
        let scope: Vec<String> = (0..n_free).map(|i| format!("x{i}")).collect();
        let phi = formulas.gen_formula(3, 1, &scope);
        let outputs: Vec<Var> = scope.iter().map(|s| Var::new(s)).collect();

        let fo_side = fo_answer_nary(&tree, &phi, &outputs);
        let xpath = fo_to_xpath(&phi);
        let xp_side = answer_nary(&tree, &xpath, &outputs).unwrap_or_else(|e| {
            panic!(
                "naive evaluation of the FO image failed: {e}\n  formula: {phi:?}\n  tree: {}",
                tree.to_terms()
            )
        });
        assert_eq!(
            fo_side,
            xp_side,
            "FO round trip broken\n  formula: {phi:?}\n  xpath  : {xpath}\n  tree   : {}",
            tree.to_terms()
        );
        total += fo_side.len();
    }
    total
}

// ---------------------------------------------------------------------------
// Planner / Session fuzzing (prepared plans, engine choice, streaming)
// ---------------------------------------------------------------------------

/// Statistics of one planner fuzz run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PlannerFuzzReport {
    /// (tree, query) pairs checked.
    pub cases: usize,
    /// Total answer tuples across all cases.
    pub total_tuples: usize,
    /// Auto plans that chose the `ppl` engine.
    pub chose_ppl: usize,
    /// Auto plans that chose the `acq` engine.
    pub chose_acq: usize,
    /// Auto plans that chose the `naive` engine.
    pub chose_naive: usize,
    /// Forced-engine executions compared against the ground truth.
    pub forced_checks: usize,
    /// Forced `acq` executions skipped on the Prop. 9 disjunct budget.
    pub acq_budget_skips: usize,
    /// Streaming drains compared against the materialised answers.
    pub stream_checks: usize,
}

/// Fuzz the planner API: for random (tree, PPL-query) pairs, the auto plan
/// and every forced-engine plan must agree tuple-for-tuple with naive
/// enumeration, the plan must explain itself, and the streaming path must
/// yield exactly the materialised answers (no duplicates, no misses).
pub fn run_planner_fuzz(cfg: &FuzzConfig) -> PlannerFuzzReport {
    use ppl_xpath::QueryError;

    let mut gen = QueryGen::new(cfg.seed ^ 0x91A7, cfg.alphabet);
    let mut arity_rng = StdRng::seed_from_u64(cfg.seed ^ 0x91A8);
    let mut report = PlannerFuzzReport::default();

    for case in 0..cfg.cases {
        let arity = arity_rng.gen_range(0..=cfg.max_vars.min(2));
        let tree = gen.gen_tree(cfg.max_tree_size);
        let (query, outputs) = gen.gen_query(arity);
        let ctx = || {
            format!(
                "case {case}\n  query : {query}\n  output: {outputs:?}\n  tree  : {}",
                tree.to_terms()
            )
        };
        let naive: BTreeSet<Vec<NodeId>> = answer_nary(&tree, &query, &outputs)
            .unwrap_or_else(|e| panic!("naive failed: {e}\n{}", ctx()));

        let session = Session::from_tree(tree.clone());
        let planner = Planner::default();

        // 1. Auto plan: must pick some engine, explain itself, and agree.
        let plan = planner
            .plan(&session, query.clone(), outputs.clone())
            .unwrap_or_else(|e| panic!("auto planning failed: {e}\n{}", ctx()));
        let explain = plan.explain();
        assert!(
            explain.contains("chosen") && explain.contains(plan.engine().name()),
            "explain() does not report the decision\n{}",
            ctx()
        );
        let auto_answers = session
            .execute(&plan)
            .unwrap_or_else(|e| panic!("auto plan failed: {e}\n{}", ctx()));
        assert_eq!(
            answer_tuples(&auto_answers),
            naive,
            "auto plan ({}) disagrees with the naive engine\n{}",
            plan.engine().name(),
            ctx()
        );
        match plan.engine() {
            Engine::Ppl => report.chose_ppl += 1,
            Engine::Acq => report.chose_acq += 1,
            Engine::NaiveEnumeration => report.chose_naive += 1,
            Engine::Hcl => panic!("planner must never auto-choose hcl\n{}", ctx()),
        }

        // 2. Every forced engine agrees too (acq may hit the union budget).
        for engine in Engine::ALL {
            let forced = planner
                .plan_with(&session, query.clone(), outputs.clone(), Some(engine))
                .unwrap_or_else(|e| panic!("forced {engine} planning failed: {e}\n{}", ctx()));
            match session.execute(&forced) {
                Ok(answers) => {
                    assert_eq!(
                        answer_tuples(&answers),
                        naive,
                        "forced {engine} disagrees with the naive engine\n{}",
                        ctx()
                    );
                    report.forced_checks += 1;
                }
                Err(QueryError::Acq(message)) if engine == Engine::Acq => {
                    assert!(
                        message.contains("budget") || message.contains("disjunct"),
                        "unexpected acq failure: {message}\n{}",
                        ctx()
                    );
                    report.acq_budget_skips += 1;
                }
                Err(e) => panic!("forced {engine} failed: {e}\n{}", ctx()),
            }
        }

        // 3. Streaming yields exactly the materialised answers, without
        //    duplicates, and prefix consumption is a subset.
        let streamed: Vec<Vec<NodeId>> = session
            .answers_stream(&plan)
            .unwrap_or_else(|e| panic!("streaming failed: {e}\n{}", ctx()))
            .collect();
        assert_eq!(
            streamed.len(),
            naive.len(),
            "stream duplicated tuples\n{}",
            ctx()
        );
        let streamed_set: BTreeSet<Vec<NodeId>> = streamed.into_iter().collect();
        assert_eq!(streamed_set, naive, "stream disagrees\n{}", ctx());
        if !naive.is_empty() {
            let prefix: BTreeSet<Vec<NodeId>> = session
                .answers_stream(&plan)
                .unwrap_or_else(|e| panic!("streaming failed: {e}\n{}", ctx()))
                .take(1)
                .collect();
            assert!(prefix.is_subset(&naive), "prefix not a subset\n{}", ctx());
        }
        report.stream_checks += 1;

        report.cases += 1;
        report.total_tuples += naive.len();
    }
    report
}

// ---------------------------------------------------------------------------
// Corpus eviction fuzzing (memory-bounded session pool)
// ---------------------------------------------------------------------------

/// Statistics of one corpus fuzz run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CorpusFuzzReport {
    /// Documents in the fuzzed corpus.
    pub docs: usize,
    /// Queries fanned out over the corpus.
    pub queries: usize,
    /// Total answer tuples across all (document, query) cells.
    pub total_tuples: usize,
    /// Tier-1 evictions (matrix caches dropped) observed.
    pub cache_evictions: u64,
    /// Tier-2 evictions (sessions dropped) observed.
    pub session_evictions: u64,
    /// Sessions rebuilt after eviction.
    pub rebuilds: u64,
    /// Plan-cache hits across the run.
    pub plan_hits: u64,
}

/// Fuzz the corpus layer's eviction correctness: random documents are served
/// from a `Corpus` whose memory budget is deliberately smaller than the
/// working set (so the LRU pool thrashes — caches dropped, sessions rebuilt
/// mid-run), and every per-document answer is checked tuple-for-tuple
/// against a fresh cold `Session` over the same document.  Plans are forced
/// onto the `ppl` engine so the matrix caches the evictor manages are
/// actually exercised.
pub fn run_corpus_fuzz(cfg: &FuzzConfig, docs: usize, queries: usize) -> CorpusFuzzReport {
    use xpath_corpus::{Corpus, CorpusConfig};

    let mut gen = QueryGen::new(cfg.seed ^ 0xC0A9, cfg.alphabet);
    let mut arity_rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0AA);
    let corpus = Corpus::with_config(CorpusConfig {
        // A few hundred bytes: far below the matrices of even one warmed
        // document, so answering steadily evicts and rebuilds.
        memory_budget: Some(384),
        threads: 3,
        queue_capacity: 2,
        engine: Some(Engine::Ppl),
        ..CorpusConfig::default()
    });
    let mut trees: Vec<(String, Tree)> = Vec::with_capacity(docs);
    for i in 0..docs {
        let tree = gen.gen_tree(cfg.max_tree_size);
        let name = format!("doc{i:02}");
        corpus.insert_tree(&name, tree.clone());
        trees.push((name, tree));
    }

    let mut report = CorpusFuzzReport {
        docs,
        ..CorpusFuzzReport::default()
    };
    for case in 0..queries {
        let arity = arity_rng.gen_range(0..=cfg.max_vars.min(2));
        let (query, outputs) = gen.gen_query(arity);
        let source = query.to_string();
        let vars: Vec<&str> = outputs.iter().map(|v| v.name()).collect();
        let ctx = |name: &str| {
            format!("case {case}, doc {name}\n  query : {source}\n  output: {outputs:?}")
        };

        let per_doc = corpus
            .answer_all(&source, &vars)
            .unwrap_or_else(|e| panic!("corpus answer_all failed: {e}\n{}", ctx("*")));
        assert_eq!(per_doc.len(), docs, "one answer set per document");

        for ((name, tree), doc_answer) in trees.iter().zip(&per_doc) {
            assert_eq!(&doc_answer.name, name, "fan-out must tag by name, in order");
            // Ground truth: a fresh cold session per document, same engine.
            let cold = Session::from_tree(tree.clone());
            let plan = Planner::default()
                .plan_with(&cold, query.clone(), outputs.clone(), Some(Engine::Ppl))
                .unwrap_or_else(|e| panic!("cold planning failed: {e}\n{}", ctx(name)));
            let expected = cold
                .execute(&plan)
                .unwrap_or_else(|e| panic!("cold execution failed: {e}\n{}", ctx(name)));
            assert_eq!(
                doc_answer.answers,
                expected,
                "eviction-thrashing corpus disagrees with a cold session\n{}",
                ctx(name)
            );
            report.total_tuples += expected.len();
        }
        report.queries += 1;
    }
    let stats = corpus.stats();
    report.cache_evictions = stats.cache_evictions;
    report.session_evictions = stats.session_evictions;
    report.rebuilds = stats.rebuilds;
    report.plan_hits = stats.plan_hits;
    report
}

// ---------------------------------------------------------------------------
// Kernel-mode differential fuzzing (PPLbin relation kernels)
// ---------------------------------------------------------------------------

/// Fuzz the adaptive relation kernels directly: random variable-free PPLbin
/// expressions over random trees, evaluated under every [`KernelMode`]
/// (dense baseline, adaptive, adaptive + threads), must produce identical
/// matrices.  Returns the total number of pairs checked.
///
/// [`KernelMode`]: xpath_pplbin::KernelMode
pub fn run_kernel_mode_fuzz(
    seed: u64,
    cases: usize,
    max_tree_size: usize,
    alphabet: usize,
) -> usize {
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_pplbin::{eval_relation, KernelMode, KernelStats};

    let mut gen = QueryGen::new(seed, alphabet);
    let mut total = 0usize;
    for case in 0..cases {
        let tree = gen.gen_tree(max_tree_size);
        let path = gen.gen_varfree_path(3);
        let bin = from_variable_free_path(&path)
            .unwrap_or_else(|e| panic!("variable-free path {path} did not lower: {e:?}"));
        let mut stats = KernelStats::default();
        let dense = eval_relation(&tree, &bin, KernelMode::Dense, &mut stats).to_matrix();
        for mode in [KernelMode::Adaptive, KernelMode::AdaptiveThreaded] {
            let got = eval_relation(&tree, &bin, mode, &mut stats).to_matrix();
            assert_eq!(
                got,
                dense,
                "kernel mode {mode:?} disagrees with dense (case {case})\n  query: {path}\n  tree : {}",
                tree.to_terms()
            );
        }
        total += dense.count_pairs();
    }
    total
}

// ---------------------------------------------------------------------------
// Lazy-vs-eager differential fuzzing (deferred relation algebra)
// ---------------------------------------------------------------------------

/// Statistics of one lazy-vs-eager fuzz run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LazyFuzzReport {
    /// Variable-free relation cases checked row-for-row.
    pub relation_cases: usize,
    /// Full PPL query cases checked tuple-for-tuple.
    pub query_cases: usize,
    /// Total (u, v) pairs across all relation cases.
    pub total_pairs: usize,
    /// Total answer tuples across all query cases.
    pub total_tuples: usize,
    /// Complement nodes the lazy stores actually deferred (the fuzz must
    /// exercise the symbolic path, not collapse everything eagerly).
    pub deferred_complements: u64,
}

/// Fuzz the lazy relation algebra against the eager kernels.
///
/// Two layers are compared per seed:
///
/// 1. **Relations** — random variable-free PPLbin expressions compiled
///    through a `KernelMode::Lazy` [`MatrixStore`] must agree with the dense
///    baseline both when *forced* to an eager relation and when read
///    row-by-row through [`SuccessorSource`] (the per-row path the Fig. 8
///    stream actually uses), including `row_nonempty` and early-exit
///    `row_any` answers.
/// 2. **Queries** — random PPL queries answered end-to-end through a lazy
///    store must match the naive specification engine and an eager
///    (adaptive) store, tuple for tuple.
///
/// [`MatrixStore`]: xpath_pplbin::MatrixStore
/// [`SuccessorSource`]: xpath_pplbin::SuccessorSource
pub fn run_lazy_fuzz(
    seed: u64,
    cases: usize,
    max_tree_size: usize,
    alphabet: usize,
) -> LazyFuzzReport {
    use std::sync::Arc;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_hcl::stream_hcl_pplbin_shared;
    use xpath_pplbin::{eval_relation, KernelMode, KernelStats, MatrixStore, SharedMatrixStore};

    let mut gen = QueryGen::new(seed, alphabet);
    let mut arity_rng = StdRng::seed_from_u64(seed ^ 0x1A2);
    let mut report = LazyFuzzReport::default();

    for case in 0..cases {
        // Layer 1: relation semantics, row for row.
        let tree = gen.gen_tree(max_tree_size);
        let n = tree.len();
        let path = gen.gen_varfree_path(3);
        let bin = from_variable_free_path(&path)
            .unwrap_or_else(|e| panic!("variable-free path {path} did not lower: {e:?}"));
        let ctx = || format!("case {case}\n  query: {path}\n  tree : {}", tree.to_terms());

        let mut stats = KernelStats::default();
        let dense = eval_relation(&tree, &bin, KernelMode::Dense, &mut stats).to_matrix();

        let mut store = MatrixStore::with_mode(n, KernelMode::Lazy);
        let forced = store
            .try_eval_relation(&tree, &bin)
            .unwrap_or_else(|e| panic!("lazy force failed: {e}\n{}", ctx()))
            .to_matrix();
        assert_eq!(
            forced,
            dense,
            "forced lazy relation disagrees with dense\n{}",
            ctx()
        );

        let source = store
            .successor_source(&tree, &bin)
            .unwrap_or_else(|e| panic!("successor_source failed: {e}\n{}", ctx()));
        for u in 0..n {
            let uid = NodeId(u as u32);
            let row = source.row_vec(uid);
            let expected: Vec<NodeId> = dense.successors(uid).collect();
            assert_eq!(row, expected, "row {u} disagrees with dense\n{}", ctx());
            assert_eq!(
                source.row_nonempty(uid),
                !expected.is_empty(),
                "row_nonempty({u}) disagrees\n{}",
                ctx()
            );
            // Early-exit predicate search must see exactly the same row.
            if let Some(&witness) = expected.first() {
                assert!(
                    source.row_any(uid, |v| v == witness),
                    "row_any missed {witness:?} in row {u}\n{}",
                    ctx()
                );
            }
            assert!(
                !source.row_any(uid, |_| false),
                "row_any fabricated a witness in row {u}\n{}",
                ctx()
            );
            report.total_pairs += expected.len();
        }
        report.deferred_complements += store.kernel_stats().complement_ops;
        report.relation_cases += 1;

        // Layer 2: end-to-end answers over the same tree.
        let arity = arity_rng.gen_range(0..=2usize);
        let (query, outputs) = gen.gen_query(arity);
        let qctx = || {
            format!(
                "case {case}\n  query : {query}\n  output: {outputs:?}\n  tree  : {}",
                tree.to_terms()
            )
        };
        let naive = answer_nary(&tree, &query, &outputs)
            .unwrap_or_else(|e| panic!("naive failed: {e}\n{}", qctx()));
        let hcl = ppl_to_hcl(&query).unwrap_or_else(|e| panic!("{e}\n{}", qctx()));

        // One shard: subterms are shared exactly as in a single `MatrixStore`.
        let shared = Arc::new(tree.clone());
        let answer_with = |mode: KernelMode, what: &str| {
            let store = SharedMatrixStore::with_shards_and_mode(Arc::clone(&shared), 1, mode);
            let tuples: BTreeSet<Vec<NodeId>> = stream_hcl_pplbin_shared(&hcl, &outputs, &store)
                .unwrap_or_else(|e| panic!("{what} store answering failed: {e}\n{}", qctx()))
                .collect();
            (tuples, store)
        };
        let (lazy, lazy_store) = answer_with(KernelMode::Lazy, "lazy");
        assert_eq!(
            lazy,
            naive,
            "lazy store disagrees with the naive engine\n{}",
            qctx()
        );

        let (eager, _) = answer_with(KernelMode::Adaptive, "eager");
        assert_eq!(lazy, eager, "lazy and eager stores disagree\n{}", qctx());

        report.deferred_complements += lazy_store.kernel_stats().complement_ops;
        report.total_tuples += naive.len();
        report.query_cases += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_always_produces_ppl_queries() {
        let mut gen = QueryGen::new(7, 3);
        for arity in [0usize, 1, 2, 3] {
            for _ in 0..50 {
                let (q, vars) = gen.gen_query(arity);
                assert!(
                    check_ppl(&q).is_ok(),
                    "non-PPL query generated (arity {arity}): {q}"
                );
                let free = q.free_vars();
                assert_eq!(free.len(), arity, "wrong variable count in {q}");
                for v in &vars {
                    assert!(free.contains(v), "{v} unbound in {q}");
                }
            }
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let (a, _) = QueryGen::new(11, 3).gen_query(2);
        let (b, _) = QueryGen::new(11, 3).gen_query(2);
        assert_eq!(a, b);
        let (c, _) = QueryGen::new(12, 3).gen_query(2);
        assert_ne!(a, c, "different seeds should give different queries");
    }

    #[test]
    fn generated_queries_parse_print_round_trip() {
        let mut gen = QueryGen::new(23, 3);
        for _ in 0..60 {
            let (q, _) = gen.gen_query(2);
            let printed = q.to_string();
            let reparsed = xpath_ast::parse_path(&printed)
                .unwrap_or_else(|e| panic!("{printed} failed to reparse: {e}"));
            assert_eq!(reparsed, q, "round trip changed {printed}");
        }
    }

    #[test]
    fn check_case_accepts_known_good_queries() {
        let tree = Tree::from_terms("l0(l1(l0,l2),l1(l2))").unwrap();
        let q = xpath_ast::parse_path("descendant::l1[child::l0[. is $v0] or child::l2[. is $v0]]")
            .unwrap();
        let (tuples, acq) = check_case(&tree, &q, &[Var::new("v0")]);
        assert!(tuples > 0);
        assert!(acq);
    }

    #[test]
    #[should_panic(expected = "non-PPL query")]
    fn check_case_rejects_non_ppl_queries() {
        let tree = Tree::from_terms("a(b)").unwrap();
        let q = xpath_ast::parse_path("child::b[. is $x]/child::c[. is $x]").unwrap();
        check_case(&tree, &q, &[Var::new("x")]);
    }
}
