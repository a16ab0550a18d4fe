//! Thread-safe query serving: one document, many concurrent clients.
//!
//! A [`Session`] owns a document tree plus a sharded, lock-protected
//! [`SharedMatrixStore`], so — unlike the historical `RefCell`-backed
//! [`Document`](crate::Document) cache — it is `Send + Sync` and can answer queries from many
//! threads at once while still amortising the `|t|³` PPLbin matrix
//! compilation across all of them.  Cloning a session is cheap (two `Arc`
//! clones) and shares both the tree and the cache.
//!
//! The serving workflow is *prepare once, execute anywhere*:
//!
//! 1. [`Session::plan`] (or [`Planner::plan_with`]) compiles a query into an
//!    engine-agnostic [`QueryPlan`] — parse, Definition 1 check, Fig. 7
//!    translation, plus the planner's cost decision over the four engines;
//! 2. [`Session::execute`] answers a plan through the [`Executor`] of its
//!    chosen engine; [`Session::answer_batch_parallel`] fans a batch of
//!    plans out over worker threads sharing the one matrix store;
//! 3. [`Session::answers_stream`] yields tuples lazily instead of
//!    materialising the whole [`AnswerSet`].
//!
//! [`Executor`]: crate::exec::Executor

use crate::document::DocumentError;
use crate::plan::{Planner, QueryPlan};
use crate::query::{AnswerSet, CompileError, QueryError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xpath_ast::{parse_path, PathExpr, Var};
use xpath_hcl::{stream_hcl_pplbin_shared, AnswerStream};
use xpath_pplbin::{CacheStats, KernelMode, KernelStats, SharedMatrixStore};
use xpath_tree::{NodeId, Tree};
use xpath_xml::{parse_with, ParseOptions};

/// A thread-safe serving handle over one document.
///
/// `Session` is `Send + Sync` (compile-time asserted below): share one
/// instance — or cheap clones of it — across as many serving threads as the
/// traffic needs.  All threads hit the same sharded matrix cache, so an atom
/// compiled for one client is a cache hit for every other.
#[derive(Debug, Clone)]
pub struct Session {
    tree: Arc<Tree>,
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
        let store = SharedMatrixStore::new(tree.len());
        Session {
            tree,
            store: Arc::new(store),
        }
    }

    /// Assemble a session from an already shared tree and an already built
    /// store — the fork-and-swap path of live edits: the corpus layer edits
    /// a tree, carries the old session's cache through the edit with
    /// [`SharedMatrixStore::fork_edited`], and wraps both here without
    /// recompiling anything.
    ///
    /// Panics if the store's domain does not match the tree.
    pub fn from_parts(tree: Arc<Tree>, store: SharedMatrixStore) -> Session {
        assert_eq!(
            store.domain(),
            tree.len(),
            "Session::from_parts: store domain does not match the tree"
        );
        Session {
            tree,
            store: Arc::new(store),
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
        let (store, stats) = self.store.fork_edited(&new_tree, delta);
        (Session::from_parts(new_tree, store), stats)
    }

    /// The shared handle to the underlying tree (an `Arc` clone).
    pub fn shared_tree(&self) -> Arc<Tree> {
        Arc::clone(&self.tree)
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Number of nodes `|t|`.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Documents always have a root, so this is always `false`.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// Label of a node.
    pub fn label(&self, node: NodeId) -> &str {
        self.tree.label_str(node)
    }

    /// Render a node as `label#preorder` (used when printing answers).
    pub fn describe(&self, node: NodeId) -> String {
        format!("{}#{}", self.tree.label_str(node), self.tree.preorder(node))
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

    /// Execute a prepared plan: dispatch to the [`Executor`] of the plan's
    /// chosen engine.
    ///
    /// [`Executor`]: crate::exec::Executor
    pub fn execute(&self, plan: &QueryPlan) -> Result<AnswerSet, QueryError> {
        plan.engine().executor().execute(self, plan)
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
    /// tuples does not pay for the full answer set.
    /// Each engine keeps the exact contract of [`Session::execute`] —
    /// `ppl` plans compile through the shared store, `hcl` plans compile
    /// cold (never touching the session cache), and `acq` and `naive`
    /// plans, whose algorithms are not incremental (Yannakakis semijoins
    /// with the plan's disjunct budget; assignment enumeration), are
    /// executed by their own executor and then iterated — streaming never
    /// changes a plan's answers, errors, or cache side effects.
    pub fn answers_stream(&self, plan: &QueryPlan) -> Result<AnswerIter, QueryError> {
        use crate::engine::Engine;
        let stream = match (plan.hcl(), plan.engine()) {
            (Some(hcl), Engine::Ppl) => {
                stream_hcl_pplbin_shared(&self.tree, hcl, plan.output(), &self.store)
                    .map_err(QueryError::Hcl)?
            }
            (Some(hcl), Engine::Hcl) => {
                xpath_hcl::stream_hcl_pplbin(&self.tree, hcl, plan.output())
                    .map_err(QueryError::Hcl)?
            }
            _ => {
                let set = self.execute(plan)?;
                return Ok(AnswerIter::materialised(
                    plan.output().to_vec(),
                    set.tuples().to_vec(),
                ));
            }
        };
        Ok(AnswerIter::streaming(plan.output().to_vec(), stream))
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
    Materialised(std::vec::IntoIter<Vec<NodeId>>),
}

// Streams must be movable to consumer threads.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<AnswerIter>();

impl AnswerIter {
    fn streaming(variables: Vec<Var>, stream: AnswerStream) -> AnswerIter {
        AnswerIter {
            variables,
            inner: AnswerIterInner::Streaming(Box::new(stream)),
        }
    }

    fn materialised(variables: Vec<Var>, tuples: Vec<Vec<NodeId>>) -> AnswerIter {
        AnswerIter {
            variables,
            inner: AnswerIterInner::Materialised(tuples.into_iter()),
        }
    }

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
        let plan = ppl_plan(&s, "descendant::author[. is $a]", &["a"]);
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
        let s = session();
        // Forced to ppl: the auto planner routes this tiny instance to
        // naive, which (correctly) does not stream.
        let plan = ppl_plan(&s, "descendant::book[child::author[. is $a]]", &["a"]);
        let set = s.execute(&plan).unwrap();
        let iter = s.answers_stream(&plan).unwrap();
        assert!(iter.is_streaming());
        assert_eq!(iter.variables(), plan.output());
        assert_eq!(iter.collect_set(), set);
        // Prefix consumption yields distinct known tuples.
        let mut prefix = s.answers_stream(&plan).unwrap();
        let first = prefix.next().unwrap();
        assert!(set.tuples().contains(&first));
        // A forced-naive plan streams via materialisation.
        let naive = Planner::default()
            .plan_with(
                &s,
                xpath_ast::parse_path("descendant::book[child::author[. is $a]]").unwrap(),
                vec![Var::new("a")],
                Some(Engine::NaiveEnumeration),
            )
            .unwrap();
        let fallback = s.answers_stream(&naive).unwrap();
        assert!(
            !fallback.is_streaming(),
            "naive plans must not stream through the matrix engines"
        );
        assert_eq!(fallback.collect_set(), set);
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
        assert!(matches!(s.execute(&plan), Err(QueryError::Acq(_))));
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
        let plan = ppl_plan(&s, "descendant::author[. is $a]", &["a"]);
        let before = s.execute(&plan).unwrap();
        assert!(s.cache_stats().compiled > 0, "warm before the edit");

        let sub = xpath_tree::Tree::from_terms("book(author,title)").unwrap();
        let (new_tree, delta) = s.tree().insert_subtree(s.root(), 2, &sub).unwrap();
        let (forked, stats) = s.fork_edited(Arc::new(new_tree), &delta);
        assert!(stats.rows_total > 0, "the warm cache was carried over");
        assert_eq!(forked.len(), s.len() + 3);

        // The fork answers over the edited document (one more author)…
        let forked_plan = ppl_plan(&forked, "descendant::author[. is $a]", &["a"]);
        assert_eq!(forked.execute(&forked_plan).unwrap().len(), before.len() + 1);
        // …while the original snapshot is untouched.
        assert_eq!(s.execute(&plan).unwrap(), before);
    }

    #[test]
    fn cache_management_round_trip() {
        let s = session();
        let plan = ppl_plan(&s, "descendant::author[. is $a]", &["a"]);
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
