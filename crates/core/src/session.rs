//! Thread-safe query serving: one document, many concurrent clients.
//!
//! A [`Session`] owns a sharded, lock-protected [`SharedMatrixStore`] bound
//! to one document tree snapshot, so it is `Send + Sync` and can answer
//! queries from many threads at once while still amortising the `|t|³`
//! PPLbin matrix compilation across all of them.  Plain axis-step atoms are
//! answered straight from the snapshot and never enter the cache.  Cloning
//! a session is cheap (one `Arc` clone) and shares both the tree and the
//! cache.
//!
//! The serving workflow is *prepare once, execute anywhere*:
//!
//! 1. [`Session::plan`] (or [`Planner::plan_with`]) compiles a query into an
//!    engine-agnostic [`QueryPlan`] — parse, Definition 1 check, Fig. 7
//!    translation, plus the planner's engine choice;
//! 2. [`Session::execute`] answers a plan on its chosen engine;
//!    [`Session::answer_batch_parallel`] fans a batch of plans out over
//!    worker threads sharing the one matrix store;
//! 3. [`Session::answers_stream`] yields tuples lazily instead of
//!    materialising the whole [`AnswerSet`].
//!
//! Both `execute` and `answers_stream` go through one private dispatch on
//! [`QueryPlan::engine`]: the Fig. 8 engines (`ppl` through the shared
//! store, `hcl` compiled cold) give a lazy [`AnswerStream`]; `acq` and
//! `naive`, whose algorithms are not incremental, give a materialised
//! tuple set.

use crate::engine::Engine;
use crate::plan::{Planner, QueryPlan};
use crate::query::{AnswerSet, CompileError, QueryError};
use std::collections::{btree_set, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xpath_acq::{answer_acq, hcl_to_acq, hcl_to_union_acq};
use xpath_ast::{parse_path, BinExpr, PathExpr, Var};
use xpath_hcl::{stream_hcl_pplbin, stream_hcl_pplbin_shared, AnswerStream, Hcl};
use xpath_naive::answer_nary;
use xpath_pplbin::{CacheStats, KernelMode, KernelStats, SharedMatrixStore};
use xpath_tree::{NodeId, Tree, TreeError};
use xpath_xml::{parse_with, ParseOptions, XmlError};

/// Errors raised while loading a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocumentError {
    /// XML parsing failed.
    Xml(XmlError),
    /// Term-syntax parsing failed.
    Terms(TreeError),
}

impl fmt::Display for DocumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocumentError::Xml(e) => write!(f, "failed to parse XML document: {e}"),
            DocumentError::Terms(e) => write!(f, "failed to parse term document: {e}"),
        }
    }
}

impl std::error::Error for DocumentError {}

/// A thread-safe serving handle over one document.
///
/// `Session` is `Send + Sync` (compile-time asserted below): share one
/// instance — or cheap clones of it — across as many serving threads as the
/// traffic needs.  All threads hit the same sharded matrix cache, so an atom
/// compiled for one client is a cache hit for every other.
#[derive(Debug, Clone)]
pub struct Session {
    /// The matrix cache, bound to (and owning a handle on) the document.
    store: Arc<SharedMatrixStore>,
}

// `Session` must stay shareable across serving threads; fail the build, not
// production, if a future field change loses `Send`/`Sync`.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Session>();

impl Session {
    /// Parse an XML document (elements only) into a session.
    pub fn from_xml(xml: &str) -> Result<Session, DocumentError> {
        Self::from_xml_with(xml, &ParseOptions::default())
    }

    /// Parse an XML document with explicit [`ParseOptions`].
    pub fn from_xml_with(xml: &str, options: &ParseOptions) -> Result<Session, DocumentError> {
        Ok(Session::from_tree(
            parse_with(xml, options).map_err(DocumentError::Xml)?,
        ))
    }

    /// Parse the compact term syntax `a(b,c(d))` into a session.
    pub fn from_terms(terms: &str) -> Result<Session, DocumentError> {
        Ok(Session::from_tree(
            Tree::from_terms(terms).map_err(DocumentError::Terms)?,
        ))
    }

    /// Wrap an already constructed tree.
    pub fn from_tree(tree: Tree) -> Session {
        Session::from_shared_tree(Arc::new(tree))
    }

    /// Wrap an already shared tree without cloning it.  This is the cheap
    /// session-(re)build path of the corpus layer: evicting a session under
    /// a memory budget drops only its matrix cache, and the next request
    /// rebuilds the session around the same `Arc<Tree>`.
    pub fn from_shared_tree(tree: Arc<Tree>) -> Session {
        Session {
            store: Arc::new(SharedMatrixStore::new(tree)),
        }
    }

    /// A post-edit copy of this session: the tree is replaced by `new_tree`
    /// and the matrix cache is carried through the edit (patched row-wise
    /// where possible — see [`SharedMatrixStore::fork_edited`]) instead of
    /// recompiled.  `self` is untouched and keeps answering over the old
    /// snapshot, so in-flight queries never observe a half-applied edit.
    pub fn fork_edited(
        &self,
        new_tree: Arc<Tree>,
        delta: &xpath_tree::EditDelta,
    ) -> (Session, xpath_pplbin::EditApplyStats) {
        let (store, stats) = self.store.fork_edited(new_tree, delta);
        (
            Session {
                store: Arc::new(store),
            },
            stats,
        )
    }

    /// The shared handle to the underlying tree (an `Arc` clone).
    pub fn shared_tree(&self) -> Arc<Tree> {
        Arc::clone(self.store.tree())
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        self.store.tree()
    }

    /// Number of nodes `|t|`.
    pub fn len(&self) -> usize {
        self.tree().len()
    }

    /// Documents always have a root, so this is always `false`.
    pub fn is_empty(&self) -> bool {
        self.tree().is_empty()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.tree().root()
    }

    /// Label of a node.
    pub fn label(&self, node: NodeId) -> &str {
        self.tree().label_str(node)
    }

    /// Render a node as `label#preorder` (used when printing answers).
    pub fn describe(&self, node: NodeId) -> String {
        let tree = self.tree();
        format!("{}#{}", tree.label_str(node), tree.preorder(node))
    }

    /// The shared matrix store backing this session.
    pub fn store(&self) -> &SharedMatrixStore {
        &self.store
    }

    // -- planning -----------------------------------------------------------

    /// Prepare a query given in Core XPath 2.0 concrete syntax: parse it and
    /// let the default [`Planner`] pick an engine for this session's
    /// document.  [`QueryPlan::explain`] reports the decision.
    pub fn plan(&self, source: &str, vars: &[&str]) -> Result<QueryPlan, CompileError> {
        let path = parse_path(source)?;
        let output: Vec<Var> = vars.iter().map(|n| Var::new(n)).collect();
        self.plan_path(path, output)
    }

    /// Prepare an already parsed query with the default [`Planner`].
    pub fn plan_path(&self, path: PathExpr, output: Vec<Var>) -> Result<QueryPlan, CompileError> {
        Planner::default().plan(self, path, output)
    }

    // -- execution ----------------------------------------------------------

    /// Run a plan on its engine: the one dispatch behind
    /// [`Session::execute`] and [`Session::answers_stream`].
    fn run(&self, plan: &QueryPlan) -> Result<Tuples, QueryError> {
        let output = plan.output();
        let tree = self.tree();
        let tuples = match plan.engine() {
            Engine::Ppl => Tuples::Stream(Box::new(
                stream_hcl_pplbin_shared(image(plan)?, output, &self.store)
                    .map_err(QueryError::Hcl)?,
            )),
            Engine::Hcl => Tuples::Stream(Box::new(
                stream_hcl_pplbin(tree, image(plan)?, output).map_err(QueryError::Hcl)?,
            )),
            Engine::Acq => {
                let hcl = image(plan)?;
                Tuples::Set(if hcl.is_union_free() {
                    let (cq, db) = hcl_to_acq(tree, hcl, output).map_err(acq_error)?;
                    answer_acq(&cq, &db).map_err(acq_error)?
                } else {
                    hcl_to_union_acq(tree, hcl, output, plan.acq_disjunct_budget())
                        .map_err(acq_error)?
                        .answer()
                        .map_err(acq_error)?
                })
            }
            Engine::NaiveEnumeration => Tuples::Set(
                answer_nary(tree, plan.source(), output)
                    .map_err(|e| QueryError::Naive(e.to_string()))?,
            ),
        };
        Ok(tuples)
    }

    /// Execute a prepared plan on its chosen engine.
    pub fn execute(&self, plan: &QueryPlan) -> Result<AnswerSet, QueryError> {
        let tuples = match self.run(plan)? {
            Tuples::Stream(stream) => stream.collect(),
            Tuples::Set(set) => set,
        };
        Ok(AnswerSet::new(plan.output().to_vec(), tuples))
    }

    /// Plan and execute in one call (auto engine choice).
    pub fn answer(&self, source: &str, vars: &[&str]) -> Result<AnswerSet, QueryError> {
        let plan = self.plan(source, vars).map_err(QueryError::Ppl)?;
        self.execute(&plan)
    }

    /// Execute a batch of plans sequentially on the calling thread, sharing
    /// this session's matrix cache.  Answers are returned in input order.
    pub fn answer_batch(&self, plans: &[QueryPlan]) -> Result<Vec<AnswerSet>, QueryError> {
        plans.iter().map(|p| self.execute(p)).collect()
    }

    /// Execute a batch of plans across `threads` worker threads, all sharing
    /// this session's matrix cache — the multi-threaded serving path that
    /// the thread-safe store exists for.  Plans are pulled from a shared
    /// queue (so stragglers balance), answers are returned in input order,
    /// and on failure the error of the smallest failing plan index is
    /// returned, exactly as the sequential path would.
    ///
    /// `threads == 0` or `1` falls back to [`Session::answer_batch`].
    pub fn answer_batch_parallel(
        &self,
        plans: &[QueryPlan],
        threads: usize,
    ) -> Result<Vec<AnswerSet>, QueryError> {
        let workers = threads.min(plans.len());
        if workers <= 1 {
            return self.answer_batch(plans);
        }
        let next = AtomicUsize::new(0);
        // First failing index seen so far (usize::MAX = none): workers stop
        // claiming plans past a known failure, so an early error does not
        // pay for the rest of the batch — while still preferring the error
        // of the *smallest* failing index, like the sequential path.
        let failed_before = AtomicUsize::new(usize::MAX);
        let slots: Vec<Mutex<Option<Result<AnswerSet, QueryError>>>> =
            (0..plans.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= plans.len() || i > failed_before.load(Ordering::Relaxed) {
                        break;
                    }
                    let result = self.execute(&plans[i]);
                    if result.is_err() {
                        failed_before.fetch_min(i, Ordering::Relaxed);
                    }
                    // A panicking `execute` on another worker poisons its own
                    // slot, never ours — but recover anyway so one bad plan
                    // cannot wedge the whole batch.
                    *slots[i]
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(result);
                });
            }
        });
        let first_failure = failed_before.into_inner();
        slots
            .into_iter()
            .take(first_failure.saturating_add(1))
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .unwrap_or_else(|| {
                        unreachable!("slots up to the first failure are always filled")
                    })
            })
            .collect()
    }

    /// Execute a prepared plan as a lazy stream of answer tuples.
    ///
    /// Plans on the Fig. 8 engines stream genuinely: atom matrices and the
    /// `MC` table are computed up front, but the exploration of the query's
    /// top-level leaves — from the image nodes of a leading atom, or from
    /// the start nodes of any other leaf — happens on demand, so taking `k`
    /// tuples does not pay for the full answer set.  `acq` and `naive`
    /// plans iterate their materialised tuple set.  Either way the plan
    /// runs exactly as [`Session::execute`] runs it: streaming never
    /// changes a plan's answers, errors, or cache side effects.
    pub fn answers_stream(&self, plan: &QueryPlan) -> Result<AnswerIter, QueryError> {
        let inner = match self.run(plan)? {
            Tuples::Stream(stream) => AnswerIterInner::Streaming(stream),
            Tuples::Set(set) => AnswerIterInner::Materialised(set.into_iter()),
        };
        Ok(AnswerIter {
            variables: plan.output().to_vec(),
            inner,
        })
    }

    // -- cache management ---------------------------------------------------

    /// Aggregate hit/miss counters of the shared matrix cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Aggregate per-kernel dispatch counters.
    pub fn kernel_stats(&self) -> KernelStats {
        self.store.kernel_stats()
    }

    /// Select the relation kernels used for future compilations.
    pub fn set_kernel_mode(&self, mode: KernelMode) {
        self.store.set_mode(mode);
    }

    /// Drop every cached matrix in every shard.
    pub fn clear_cache(&self) {
        self.store.clear();
    }
}

/// What [`Session::run`] produced: a lazy Fig. 8 stream or a materialised
/// tuple set.
enum Tuples {
    Stream(Box<AnswerStream>),
    Set(BTreeSet<Vec<NodeId>>),
}

/// The HCL image of a plan.  Only naive plans of non-PPL queries lack one,
/// and those never reach a Fig. 8 or `acq` engine; the Definition 1
/// diagnostics are reported anyway rather than panicking.
fn image(plan: &QueryPlan) -> Result<&Hcl<BinExpr>, QueryError> {
    plan.hcl().ok_or_else(|| {
        QueryError::Ppl(CompileError::NotPpl(
            xpath_ast::ppl::check_ppl(plan.source())
                .err()
                .unwrap_or_default(),
        ))
    })
}

fn acq_error(e: impl fmt::Display) -> QueryError {
    QueryError::Acq(e.to_string())
}

/// A lazy iterator over the answer tuples of an executed plan.
///
/// Yields one `Vec<NodeId>` per answer tuple (one node per output variable,
/// in [`AnswerIter::variables`] order).  Streams from the Fig. 8 engines
/// (`ppl`, `hcl`) are lazy and yield in discovery order: leaf by leaf, then
/// image or start node by node (see [`xpath_hcl::AnswerStream`]).
/// Materialised fallbacks (`acq` and naive plans) yield in lexicographic
/// order.  The iterator is self-contained and `Send`.
#[derive(Debug)]
pub struct AnswerIter {
    variables: Vec<Var>,
    inner: AnswerIterInner,
}

#[derive(Debug)]
enum AnswerIterInner {
    Streaming(Box<AnswerStream>),
    Materialised(btree_set::IntoIter<Vec<NodeId>>),
}

// Streams must be movable to consumer threads.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<AnswerIter>();

impl AnswerIter {
    /// The output variables, in tuple order.
    pub fn variables(&self) -> &[Var] {
        &self.variables
    }

    /// Is this iterator backed by the lazy Fig. 8 stream (as opposed to a
    /// materialised answer set)?
    pub fn is_streaming(&self) -> bool {
        matches!(self.inner, AnswerIterInner::Streaming(_))
    }

    /// Drain the iterator into a sorted, deduplicated [`AnswerSet`].
    pub fn collect_set(self) -> AnswerSet {
        let variables = self.variables.clone();
        AnswerSet::new(variables, self.collect())
    }
}

impl Iterator for AnswerIter {
    type Item = Vec<NodeId>;

    fn next(&mut self) -> Option<Vec<NodeId>> {
        match &mut self.inner {
            AnswerIterInner::Streaming(s) => s.next(),
            AnswerIterInner::Materialised(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn session() -> Session {
        Session::from_terms("bib(book(author,title),book(author,author,title))").unwrap()
    }

    /// A query whose atom `descendant::book[child::author]` is composite,
    /// so answering it compiles into the store (plain step atoms are tree
    /// views and never do).
    const COMPOSITE: &str = "descendant::book[child::author]/child::author[. is $a]";

    /// Plan with the ppl engine forced (the auto planner sends the tiny
    /// test documents to naive, which never touches the cache).
    fn ppl_plan(s: &Session, src: &str, vars: &[&str]) -> QueryPlan {
        Planner::default()
            .plan_with(
                s,
                xpath_ast::parse_path(src).unwrap(),
                vars.iter().map(|n| Var::new(n)).collect(),
                Some(Engine::Ppl),
            )
            .unwrap()
    }

    #[test]
    fn sessions_are_send_sync_and_cheap_to_clone() {
        fn takes_send_sync<T: Send + Sync>(_: &T) {}
        let s = session();
        takes_send_sync(&s);
        let clone = s.clone();
        assert_eq!(clone.len(), s.len());
        // Clones share the cache: warming one warms the other.  (Forced to
        // ppl — the planner would route this tiny instance to naive.)
        let plan = ppl_plan(&s, COMPOSITE, &["a"]);
        s.execute(&plan).unwrap();
        assert!(clone.cache_stats().compiled > 0);
    }

    #[test]
    fn plan_execute_round_trip() {
        let s = session();
        let plan = s
            .plan(
                "descendant::book[child::author[. is $y] and child::title[. is $z]]",
                &["y", "z"],
            )
            .unwrap();
        let answers = s.execute(&plan).unwrap();
        assert_eq!(answers.len(), 3);
        assert_eq!(s.answer(
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
            &["y", "z"],
        ).unwrap(), answers);
    }

    #[test]
    fn batch_parallel_matches_sequential() {
        let s = session();
        let sources = [
            ("descendant::book[child::author[. is $a]]", vec!["a"]),
            ("descendant::book[child::title[. is $t]]", vec!["t"]),
            ("descendant::author[. is $a]", vec!["a"]),
            ("descendant::book[child::author]", vec![]),
        ];
        let plans: Vec<QueryPlan> = sources
            .iter()
            .map(|(src, vars)| s.plan(src, vars).unwrap())
            .collect();
        let sequential = s.answer_batch(&plans).unwrap();
        for threads in [0, 1, 2, 4, 8] {
            let parallel = s.answer_batch_parallel(&plans, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn batch_parallel_error_matches_sequential_error() {
        let s = session();
        let union_src = "descendant::author[. is $x] union descendant::title[. is $x]";
        let failing = Planner {
            acq_disjunct_budget: 1,
            ..Planner::default()
        }
        .plan_with(
            &s,
            xpath_ast::parse_path(union_src).unwrap(),
            vec![Var::new("x")],
            Some(Engine::Acq),
        )
        .unwrap();
        let ok = |src: &str| ppl_plan(&s, src, &["a"]);
        let plans = vec![
            ok("descendant::author[. is $a]"),
            failing.clone(),
            ok("descendant::title[. is $a]"),
            failing,
            ok("descendant::book[. is $a]"),
        ];
        let sequential_err = s.answer_batch(&plans).unwrap_err();
        for threads in [2, 4, 8] {
            let parallel_err = s.answer_batch_parallel(&plans, threads).unwrap_err();
            assert_eq!(
                parallel_err.to_string(),
                sequential_err.to_string(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn streaming_answers_agree_with_execute() {
        // The one dispatch behind `execute` and `answers_stream`: for every
        // engine both give the same answers, and exactly the Fig. 8 engines
        // stream.
        let s = session();
        let src = "descendant::book[child::author[. is $a]]";
        let mut answers = Vec::new();
        for engine in Engine::ALL {
            let plan = Planner::default()
                .plan_with(
                    &s,
                    xpath_ast::parse_path(src).unwrap(),
                    vec![Var::new("a")],
                    Some(engine),
                )
                .unwrap();
            let set = s.execute(&plan).unwrap();
            let iter = s.answers_stream(&plan).unwrap();
            assert_eq!(
                iter.is_streaming(),
                matches!(engine, Engine::Ppl | Engine::Hcl),
                "{engine}"
            );
            assert_eq!(iter.variables(), plan.output());
            assert_eq!(iter.collect_set(), set, "{engine}");
            // Prefix consumption yields a known tuple.
            let first = s.answers_stream(&plan).unwrap().next().unwrap();
            assert!(set.tuples().contains(&first), "{engine}");
            answers.push(set);
        }
        assert_eq!(answers[0].len(), 3);
        for (engine, other) in Engine::ALL.iter().zip(&answers) {
            assert_eq!(other, &answers[0], "{engine} disagrees with ppl");
        }
    }

    #[test]
    fn all_four_executors_agree_on_a_ppl_query() {
        let s = session();
        let src = "descendant::book[child::author[. is $y] and child::title[. is $z]]";
        let mut answers = Vec::new();
        for engine in Engine::ALL {
            let plan = Planner::default()
                .plan_with(
                    &s,
                    xpath_ast::parse_path(src).unwrap(),
                    vec![Var::new("y"), Var::new("z")],
                    Some(engine),
                )
                .unwrap();
            assert_eq!(plan.engine(), engine);
            assert!(!engine.describe().is_empty());
            answers.push(s.execute(&plan).unwrap());
        }
        assert_eq!(answers[0].len(), 3);
        for other in &answers[1..] {
            assert_eq!(other, &answers[0]);
        }
    }

    #[test]
    fn acq_executor_honours_the_planner_disjunct_budget() {
        // Regression: the budget used to be a dead field on Planner while
        // the executor always used the 256 default.
        let s = session();
        let src = "descendant::author[. is $x] union descendant::title[. is $x]";
        let tight = Planner {
            acq_disjunct_budget: 1,
            ..Planner::default()
        };
        let plan = tight
            .plan_with(
                &s,
                xpath_ast::parse_path(src).unwrap(),
                vec![Var::new("x")],
                Some(Engine::Acq),
            )
            .unwrap();
        assert_eq!(plan.acq_disjunct_budget(), 1);
        let err = s.execute(&plan).unwrap_err();
        assert!(matches!(err, QueryError::Acq(_)), "{err}");
        assert!(err.to_string().contains("budget") || err.to_string().contains("disjunct"));
    }

    #[test]
    fn acq_executor_handles_union_queries_via_distribution() {
        let s = session();
        let src = "descendant::author[. is $x] union descendant::title[. is $x]";
        let output = [Var::new("x")];
        let query = xpath_ast::parse_path(src).unwrap();
        let acq = Engine::Acq.answer(&s, &query, &output).unwrap();
        let naive = Engine::NaiveEnumeration
            .answer(&s, &query, &output)
            .unwrap();
        assert_eq!(acq, naive);
        assert_eq!(acq.len(), 5); // 3 authors + 2 titles
    }

    #[test]
    fn errors_are_wrapped() {
        assert!(matches!(
            Session::from_xml("<a><b></a>"),
            Err(DocumentError::Xml(_))
        ));
        assert!(matches!(
            Session::from_terms("a(("),
            Err(DocumentError::Terms(_))
        ));
        let err = Session::from_xml("").unwrap_err();
        assert!(err.to_string().contains("XML"));
    }

    #[test]
    fn from_xml_and_terms_agree() {
        let a = Session::from_xml("<a><b/><c><d/></c></a>").unwrap();
        let b = Session::from_terms("a(b,c(d))").unwrap();
        assert_eq!(a.tree().to_terms(), b.tree().to_terms());
        assert_eq!(a.len(), 4);
        assert_eq!(a.label(a.root()), "a");
        assert_eq!(xpath_xml::to_xml(a.tree()), "<a><b/><c><d/></c></a>");
        assert!(!a.is_empty());
    }

    #[test]
    fn describe_nodes() {
        let s = Session::from_terms("a(b,c)").unwrap();
        assert_eq!(s.describe(s.root()), "a#0");
        let c = s.tree().nodes_with_label_str("c")[0];
        assert_eq!(s.describe(c), "c#2");
    }

    #[test]
    fn cached_binexpr_evaluation_matches_cold() {
        use xpath_ast::binexpr::from_variable_free_path;
        let s = Session::from_terms("a(b(c),b,c)").unwrap();
        let bin = from_variable_free_path(
            &xpath_ast::parse_path("descendant::* except child::*").unwrap(),
        )
        .unwrap();
        let warm = s.store().eval(&bin);
        assert_eq!(warm, xpath_pplbin::answer_binary(s.tree(), &bin));
        assert_eq!(s.store().eval(&bin), warm);
        // Cloning a session shares its tree and cache state.
        let clone = s.clone();
        assert_eq!(clone.cache_stats(), s.cache_stats());
    }

    #[test]
    fn repeated_queries_hit_the_document_cache() {
        let s = session();
        let plan = ppl_plan(
            &s,
            "descendant::book[child::author][child::author[. is $y] and child::title[. is $z]]",
            &["y", "z"],
        );
        assert_eq!(s.cache_stats().lookups(), 0);
        let first = s.execute(&plan).unwrap();
        let after_first = s.cache_stats();
        assert!(after_first.misses > 0, "first run must compile matrices");
        let second = s.execute(&plan).unwrap();
        let after_second = s.cache_stats();
        assert_eq!(first, second);
        assert_eq!(
            after_second.misses, after_first.misses,
            "second run must not recompile"
        );
        assert!(after_second.hits > after_first.hits);
        s.clear_cache();
        assert_eq!(s.cache_stats().lookups(), 0);
        assert_eq!(s.execute(&plan).unwrap(), first);
    }

    #[test]
    fn answer_batch_matches_per_query_answers_and_shares_matrices() {
        let s = session();
        let plans = [
            ppl_plan(&s, "descendant::book[child::title][child::author[. is $a]]", &["a"]),
            ppl_plan(&s, "descendant::book[child::title][child::title[. is $t]]", &["t"]),
            ppl_plan(&s, "descendant::book[child::title][child::author[. is $a]]", &["a"]),
        ];
        let batch = s.answer_batch(&plans).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], batch[2], "equal queries give equal answers");
        for (plan, got) in plans.iter().zip(&batch) {
            let cold = Engine::Hcl
                .answer(&s, plan.source(), plan.output())
                .unwrap();
            assert_eq!(&cold, got);
        }
        // `descendant::book[child::title]` is shared by all three queries;
        // with hash consing it is compiled exactly once.
        let stats = s.cache_stats();
        assert!(
            stats.hits > 0,
            "batch must reuse shared subterms: {stats:?}"
        );
        assert!(s.answer_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn hcl_streams_keep_the_cold_contract() {
        // Regression: forced-hcl streams used to compile through the shared
        // store, silently warming the cache the hcl engine promises not to
        // touch.
        let s = session();
        let plan = Planner::default()
            .plan_with(
                &s,
                xpath_ast::parse_path("descendant::author[. is $a]").unwrap(),
                vec![Var::new("a")],
                Some(Engine::Hcl),
            )
            .unwrap();
        let set = s.execute(&plan).unwrap();
        let stream = s.answers_stream(&plan).unwrap();
        assert!(stream.is_streaming());
        assert_eq!(stream.collect_set(), set);
        assert_eq!(
            s.cache_stats().lookups(),
            0,
            "hcl plans must never touch the session cache"
        );
    }

    #[test]
    fn acq_streams_honour_the_executor_contract() {
        // Streaming an acq plan must behave exactly like executing it:
        // same disjunct-budget errors, no session-cache side effects.
        let s = session();
        let src = "descendant::author[. is $x] union descendant::title[. is $x]";
        let tight = Planner {
            acq_disjunct_budget: 1,
            ..Planner::default()
        };
        let plan = tight
            .plan_with(
                &s,
                xpath_ast::parse_path(src).unwrap(),
                vec![Var::new("x")],
                Some(Engine::Acq),
            )
            .unwrap();
        let err = s.execute(&plan).unwrap_err();
        assert!(matches!(err, QueryError::Acq(_)), "{err}");
        assert!(err.to_string().contains("budget") || err.to_string().contains("disjunct"));
        assert!(matches!(s.answers_stream(&plan), Err(QueryError::Acq(_))));
        let ok = Planner::default()
            .plan_with(
                &s,
                xpath_ast::parse_path(src).unwrap(),
                vec![Var::new("x")],
                Some(Engine::Acq),
            )
            .unwrap();
        let iter = s.answers_stream(&ok).unwrap();
        assert!(!iter.is_streaming(), "acq has no incremental algorithm");
        assert_eq!(iter.collect_set(), s.execute(&ok).unwrap());
        assert_eq!(s.cache_stats().lookups(), 0, "acq never touches the cache");
    }

    #[test]
    fn fork_edited_serves_the_new_tree_and_keeps_the_old_snapshot() {
        let s = session();
        let plan = ppl_plan(&s, COMPOSITE, &["a"]);
        let before = s.execute(&plan).unwrap();
        assert!(s.cache_stats().compiled > 0, "warm before the edit");

        let sub = xpath_tree::Tree::from_terms("book(author,title)").unwrap();
        let (new_tree, delta) = s.tree().insert_subtree(s.root(), 2, &sub).unwrap();
        let (forked, stats) = s.fork_edited(Arc::new(new_tree), &delta);
        assert!(stats.rows_total > 0, "the warm cache was carried over");
        assert_eq!(forked.len(), s.len() + 3);

        // The fork answers over the edited document (one more author)…
        let forked_plan = ppl_plan(&forked, COMPOSITE, &["a"]);
        assert_eq!(forked.execute(&forked_plan).unwrap().len(), before.len() + 1);
        // …while the original snapshot is untouched.
        assert_eq!(s.execute(&plan).unwrap(), before);
    }

    #[test]
    fn cache_management_round_trip() {
        let s = session();
        let plan = ppl_plan(&s, COMPOSITE, &["a"]);
        s.execute(&plan).unwrap();
        assert!(s.cache_stats().compiled > 0);
        s.clear_cache();
        assert_eq!(s.cache_stats().lookups(), 0);
        s.set_kernel_mode(KernelMode::Dense);
        assert_eq!(s.store().mode(), KernelMode::Dense);
        assert_eq!(s.describe(s.root()), "bib#0");
        assert_eq!(s.label(s.root()), "bib");
        assert!(!s.is_empty());
    }
}
