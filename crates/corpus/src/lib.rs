//! # `xpath_corpus` — multi-document serving over the Theorem-1 pipeline
//!
//! `ppl_xpath::Session` (PR 4) makes *one* document servable from many
//! threads; this crate scales that to *many* documents.  A [`Corpus`] ingests
//! named XML documents (strings, files, or a directory walk) and owns one
//! session per document behind a **memory-bounded LRU pool**:
//!
//! * **byte accounting** — each pooled session is charged its tree size plus
//!   the occupancy of its shared matrix store (`SharedMatrixStore::
//!   approx_bytes`, summing compiled relations and Prop. 10 successor
//!   lists).  The `|t|³` PPLbin compilation of Theorem 1 is exactly the
//!   state worth caching per document — and exactly the state that grows
//!   without bound if nobody evicts it;
//! * **two-tier LRU eviction** — when the pool exceeds
//!   [`CorpusConfig::memory_budget`], the least-recently-used session first
//!   drops its matrix cache (cheap to rebuild: the answers are recomputed,
//!   never wrong), and only then the session itself; the tree is always
//!   retained, so an evicted document rebuilds its session from the shared
//!   `Arc<Tree>` on the next request.  [`CorpusStats`] counts admissions,
//!   evictions and rebuilds;
//! * **shared plan cache** — plans are keyed by `(query, output variables,
//!   tree-size band)`, so one `Planner` decision (parse, Definition 1
//!   check, Fig. 7 translation, engine choice) is reused across documents of
//!   similar size instead of being re-derived per document;
//! * **cross-document fan-out** — [`Corpus::answer_all`] and
//!   [`Corpus::answer_where`] execute one query over every (matching)
//!   document on a fixed `std::thread::scope` worker pool fed through a
//!   bounded work queue ([`queue::BoundedQueue`]), returning per-document
//!   answers tagged by document name.
//!
//! The [`protocol`] module is the sans-IO half of the `pplxd` wire
//! protocol (`LOAD` / `QUERY` / `QUERYALL` / `MUTATE` / `STATS` / `EVICT`
//! / `QUIT` / `SHUTDOWN`); [`server::serve`] serves it over TCP on the one
//! serving loop, the Linux-only `reactor` epoll event loop with request
//! pipelining and backpressure.  A [`server::Service`] says what a
//! request does: a [`Corpus`] answers it, a [`router::Router`] routes it
//! to backend daemons.  The `pplxd` binary is a thin wrapper around
//! [`server::serve`], and `pplx --connect host:port` is the matching
//! client.
//!
//! ```
//! use xpath_corpus::Corpus;
//!
//! let corpus = Corpus::new();
//! corpus.insert_xml("bib1", "<bib><book><author/><title/></book></bib>").unwrap();
//! corpus.insert_xml("bib2", "<bib><book><author/></book><book><author/></book></bib>").unwrap();
//!
//! let per_doc = corpus.answer_all("descendant::author[. is $a]", &["a"]).unwrap();
//! assert_eq!(per_doc.len(), 2);
//! assert_eq!(per_doc[0].name, "bib1");
//! assert_eq!(per_doc[0].answers.len(), 1);
//! assert_eq!(per_doc[1].answers.len(), 2);
//! ```

pub mod protocol;
pub mod queue;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod router;
pub mod server;

use ppl_xpath::session::DocumentError;
use ppl_xpath::{AnswerSet, CompileError, Engine, Planner, QueryError, QueryPlan, Session};
use queue::BoundedQueue;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use xpath_sync::atomic::{AtomicU64, Ordering};
use xpath_sync::Mutex;
use xpath_ast::{parse_path, Var};
use xpath_pplbin::{EditApplyStats, KernelMode};
use xpath_tree::{EditKind, NodeId, Tree, TreeError};
use xpath_xml::{parse_with, ParseOptions};

/// Configuration of a [`Corpus`].
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Approximate byte budget for the session pool (tree bytes + matrix
    /// store occupancy, summed over live sessions).  `None` = unbounded.
    pub memory_budget: Option<usize>,
    /// Worker threads of the cross-document fan-out pool.
    pub threads: usize,
    /// Capacity of the bounded fan-out work queue.
    pub queue_capacity: usize,
    /// Engine forced on every plan (`None` = let the planner decide per
    /// size band).
    pub engine: Option<Engine>,
    /// XML parse options used by the ingestion paths.
    pub parse_options: ParseOptions,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            memory_budget: None,
            threads: 4,
            queue_capacity: 8,
            engine: None,
            parse_options: ParseOptions::default(),
        }
    }
}

/// Counters describing a [`Corpus`]'s pool behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Documents currently ingested.
    pub documents: usize,
    /// Documents with a live (non-evicted) session.
    pub live_sessions: usize,
    /// Approximate bytes charged to the session pool right now.
    pub pool_bytes: usize,
    /// Sessions built (first admission or rebuild after eviction).
    pub admissions: u64,
    /// Admissions that were rebuilds of a previously evicted session.
    pub rebuilds: u64,
    /// Tier-1 evictions: a session's matrix cache was dropped.
    pub cache_evictions: u64,
    /// Tier-2 evictions: a whole session was dropped from the pool.
    pub session_evictions: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (a planner decision was derived).
    pub plan_misses: u64,
    /// Live edits applied through [`Corpus::mutate`].
    pub edits: u64,
    /// Edits that carried a warm session through the edit incrementally.
    pub edits_incremental: u64,
    /// Edits applied to a document without a live session (next query
    /// compiles cold).
    pub edits_full: u64,
    /// Matrix rows recomputed (not merely remapped) across all edits.
    pub edit_rows_invalidated: u64,
}

/// Errors raised by corpus operations.
#[derive(Debug)]
pub enum CorpusError {
    /// The named document is not in the corpus.
    UnknownDocument(String),
    /// Ingestion of a document failed.
    Document {
        /// The document being ingested.
        name: String,
        /// The underlying parse failure.
        source: DocumentError,
    },
    /// Query compilation / planning failed (document-independent).
    Compile(CompileError),
    /// Query execution failed on one document.
    Query {
        /// The document whose execution failed.
        name: String,
        /// The underlying engine error.
        source: QueryError,
    },
    /// A filesystem ingestion path failed.
    Io(String),
    /// A fan-out worker panicked while answering one document.  The panic is
    /// caught at the job boundary so one bad document cannot take down the
    /// pool (or, in `pplxd`, the daemon) — the failure is reported like any
    /// other per-document error.
    Panicked {
        /// The document whose job panicked.
        name: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A live edit ([`Corpus::mutate`]) was rejected by the tree layer.
    Edit {
        /// The document being edited.
        name: String,
        /// The underlying tree-edit failure.
        source: TreeError,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::UnknownDocument(name) => write!(f, "unknown document '{name}'"),
            CorpusError::Document { name, source } => {
                write!(f, "cannot ingest document '{name}': {source}")
            }
            // A refusal is a verdict on the query's cost, not a failure to
            // compile it; it names itself (`outside PPL: estimated cost …`).
            CorpusError::Compile(e @ CompileError::Refused { .. }) => write!(f, "{e}"),
            CorpusError::Compile(e) => write!(f, "query does not compile: {e}"),
            CorpusError::Query { name, source } => {
                write!(f, "query failed on document '{name}': {source}")
            }
            CorpusError::Io(message) => write!(f, "{message}"),
            CorpusError::Panicked { name, message } => {
                write!(f, "worker panicked on document '{name}': {message}")
            }
            CorpusError::Edit { name, source } => {
                write!(f, "cannot edit document '{name}': {source}")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// The answers of one document in a cross-document fan-out, tagged by the
/// document's name and carrying the tree snapshot the answers were
/// computed against — node ids in `answers` index *this* tree, which stays
/// valid even if the corpus document is concurrently replaced by a `LOAD`.
#[derive(Debug, Clone)]
pub struct DocAnswer {
    /// The document name the answers belong to.
    pub name: String,
    /// The answer set over that document.
    pub answers: AnswerSet,
    /// The tree the answers were computed against.
    pub tree: Arc<Tree>,
}

/// Equality ignores the tree snapshot: two fan-out results agree when the
/// same documents produced the same answer tuples.
impl PartialEq for DocAnswer {
    fn eq(&self, other: &DocAnswer) -> bool {
        self.name == other.name && self.answers == other.answers
    }
}

impl Eq for DocAnswer {}

/// One edit of a live document, applied through [`Corpus::mutate`].
#[derive(Debug, Clone)]
pub enum DocEdit {
    /// Graft a copy of `subtree` as the `index`-th child of `parent`.
    Insert {
        /// Preorder id of the parent node (current tree coordinates).
        parent: u32,
        /// Child position under `parent` (clamped by the tree layer's
        /// contract: out-of-range indices are rejected).
        index: usize,
        /// The subtree to graft.
        subtree: Tree,
    },
    /// Remove the subtree rooted at `node` (never the root).
    Delete {
        /// Preorder id of the subtree root to remove.
        node: u32,
    },
    /// Change the label of `node`.
    Relabel {
        /// Preorder id of the node to relabel.
        node: u32,
        /// The new label.
        label: String,
    },
}

/// What one [`Corpus::mutate`] call did.
#[derive(Debug, Clone)]
pub struct MutateOutcome {
    /// Which kind of edit was applied.
    pub kind: EditKind,
    /// Node count of the document after the edit.
    pub nodes: usize,
    /// The document's edit epoch after this edit (1 for the first edit
    /// since ingestion; a `LOAD` replacing the document resets it).
    pub epoch: u64,
    /// Whether a warm session was carried through the edit incrementally
    /// (`false`: the document had no live session, so there was nothing to
    /// patch and the next query compiles cold).
    pub incremental: bool,
    /// Per-entry patch/rebuild counters of the incremental carry-over
    /// (all zero when `incremental` is false).
    pub stats: EditApplyStats,
}

/// One pooled document: the always-retained tree plus the evictable session.
#[derive(Debug)]
struct DocEntry {
    tree: Arc<Tree>,
    tree_bytes: usize,
    session: Option<Session>,
    last_used: u64,
    ever_built: bool,
    /// Edits applied since this document was (last) ingested.
    epoch: u64,
}

impl DocEntry {
    fn pooled_bytes(&self) -> usize {
        match &self.session {
            Some(session) => self.tree_bytes + session.store().approx_bytes(),
            None => 0,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    docs: BTreeMap<String, DocEntry>,
    tick: u64,
    admissions: u64,
    rebuilds: u64,
    cache_evictions: u64,
    session_evictions: u64,
    edits: u64,
    edits_incremental: u64,
    edits_full: u64,
    edit_rows_invalidated: u64,
}

/// Key of the shared plan cache: `(query source, output variables,
/// tree-size band)`.  Documents in the same power-of-two size band share one
/// planner decision.
type PlanKey = (String, String, u32);

/// A corpus of named documents served through a memory-bounded session pool.
///
/// All methods take `&self`; the type is `Send + Sync` and is meant to be
/// shared by however many serving threads the traffic needs (the `pplxd`
/// serving loop's workers all execute against one corpus).
#[derive(Debug)]
pub struct Corpus {
    config: CorpusConfig,
    inner: Mutex<Inner>,
    plans: Mutex<HashMap<PlanKey, QueryPlan>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    /// Fault injection for the pool tests: fan-out jobs for these documents
    /// panic, exercising the catch-at-job-boundary path.
    #[cfg(test)]
    panic_docs: Mutex<std::collections::HashSet<String>>,
}

/// Render a caught panic payload (`String` / `&str` payloads, which is what
/// `panic!` produces; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Corpus>();

/// Kernel mode of every pooled session's matrix store: the single-threaded
/// structure-aware kernels.  The corpus already answers requests in
/// parallel, so splitting one product across threads as well (the
/// `AdaptiveThreaded` default) oversubscribes the cores, and a split product
/// waits for its slower half.  Under load from other processes, those waits
/// made the daemon's latency and throughput swing from one run to the next.
pub const SESSION_KERNELS: KernelMode = KernelMode::Adaptive;

/// Approximate heap bytes of a tree: per-node bookkeeping plus label
/// storage.  Deliberately coarse — the budget it feeds is approximate by
/// contract.
fn approx_tree_bytes(tree: &Tree) -> usize {
    let labels: usize = tree
        .nodes()
        .map(|n| tree.label_str(n).len())
        .sum();
    tree.len() * 32 + labels
}

/// The power-of-two size band of a tree (`⌊log2 |t|⌋ + 1`): documents in the
/// same band share plan-cache entries.
fn size_band(tree_size: usize) -> u32 {
    usize::BITS - tree_size.leading_zeros()
}

impl Default for Corpus {
    fn default() -> Corpus {
        Corpus::new()
    }
}

impl Corpus {
    /// An empty corpus with the default configuration (unbounded pool).
    pub fn new() -> Corpus {
        Corpus::with_config(CorpusConfig::default())
    }

    /// An empty corpus with an explicit configuration.
    pub fn with_config(config: CorpusConfig) -> Corpus {
        Corpus {
            config,
            inner: Mutex::new(Inner::default()),
            plans: Mutex::new(HashMap::new()),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            #[cfg(test)]
            panic_docs: Mutex::new(std::collections::HashSet::new()),
        }
    }

    /// The configuration the corpus was created with.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    fn lock(&self) -> xpath_sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    // -- ingestion -----------------------------------------------------------

    /// Ingest an XML document under `name` (replacing any previous document
    /// of that name).  Returns the node count.
    pub fn insert_xml(&self, name: &str, xml: &str) -> Result<usize, CorpusError> {
        let tree = parse_with(xml, &self.config.parse_options).map_err(|e| {
            CorpusError::Document {
                name: name.to_string(),
                source: DocumentError::Xml(e),
            }
        })?;
        Ok(self.insert_tree(name, tree))
    }

    /// Ingest a document given in the compact term syntax `a(b,c(d))`.
    pub fn insert_terms(&self, name: &str, terms: &str) -> Result<usize, CorpusError> {
        let tree = Tree::from_terms(terms).map_err(|e| CorpusError::Document {
            name: name.to_string(),
            source: DocumentError::Terms(e),
        })?;
        Ok(self.insert_tree(name, tree))
    }

    /// Ingest an already constructed tree.  Returns the node count.
    pub fn insert_tree(&self, name: &str, tree: Tree) -> usize {
        let nodes = tree.len();
        let tree_bytes = approx_tree_bytes(&tree);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.docs.insert(
            name.to_string(),
            DocEntry {
                tree: Arc::new(tree),
                tree_bytes,
                session: None,
                last_used: tick,
                ever_built: false,
                epoch: 0,
            },
        );
        nodes
    }

    /// Ingest one XML file; the document name is the file stem.  Returns the
    /// name used.
    pub fn load_file(&self, path: &Path) -> Result<String, CorpusError> {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| CorpusError::Io(format!("no usable file name in {}", path.display())))?
            .to_string();
        let xml = std::fs::read_to_string(path)
            .map_err(|e| CorpusError::Io(format!("cannot read {}: {e}", path.display())))?;
        self.insert_xml(&name, &xml)?;
        Ok(name)
    }

    /// Walk a directory (recursively, skipping symlinks entirely so link
    /// cycles cannot loop the walk) and ingest every `*.xml` file.
    /// Document names are the `/`-separated paths relative to `dir`, minus
    /// the extension (`sub/two` for `dir/sub/two.xml`), so files sharing a
    /// stem in different subdirectories never overwrite each other.
    /// Returns the ingested document names, sorted.
    pub fn load_dir(&self, dir: &Path) -> Result<Vec<String>, CorpusError> {
        let io_err = |path: &Path, e: std::io::Error| {
            CorpusError::Io(format!("cannot read {}: {e}", path.display()))
        };
        let mut names = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(current) = stack.pop() {
            let entries = std::fs::read_dir(&current).map_err(|e| io_err(&current, e))?;
            for entry in entries {
                let entry = entry.map_err(|e| io_err(&current, e))?;
                let path = entry.path();
                let meta = std::fs::symlink_metadata(&path).map_err(|e| io_err(&path, e))?;
                if meta.is_dir() {
                    stack.push(path);
                } else if meta.is_file() && path.extension().is_some_and(|ext| ext == "xml") {
                    let name = path
                        .strip_prefix(dir)
                        .unwrap_or(&path)
                        .with_extension("")
                        .components()
                        .filter_map(|c| c.as_os_str().to_str())
                        .collect::<Vec<_>>()
                        .join("/");
                    if name.is_empty() {
                        return Err(CorpusError::Io(format!(
                            "no usable document name for {}",
                            path.display()
                        )));
                    }
                    let xml =
                        std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
                    self.insert_xml(&name, &xml)?;
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    // -- inspection ----------------------------------------------------------

    /// Number of ingested documents.
    pub fn len(&self) -> usize {
        self.lock().docs.len()
    }

    /// True when no documents are ingested.
    pub fn is_empty(&self) -> bool {
        self.lock().docs.is_empty()
    }

    /// Is `name` in the corpus?
    pub fn contains(&self, name: &str) -> bool {
        self.lock().docs.contains_key(name)
    }

    /// The ingested document names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().docs.keys().cloned().collect()
    }

    /// The tree of a document, without touching the LRU state (used by the
    /// daemon to render answer tuples).
    pub fn tree(&self, name: &str) -> Option<Arc<Tree>> {
        self.lock().docs.get(name).map(|e| Arc::clone(&e.tree))
    }

    /// Remove a document (tree, session and all) from the corpus.
    pub fn remove(&self, name: &str) -> bool {
        self.lock().docs.remove(name).is_some()
    }

    /// Pool and plan-cache counters.
    pub fn stats(&self) -> CorpusStats {
        let inner = self.lock();
        CorpusStats {
            documents: inner.docs.len(),
            live_sessions: inner.docs.values().filter(|e| e.session.is_some()).count(),
            pool_bytes: inner.docs.values().map(DocEntry::pooled_bytes).sum(),
            admissions: inner.admissions,
            rebuilds: inner.rebuilds,
            cache_evictions: inner.cache_evictions,
            session_evictions: inner.session_evictions,
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            edits: inner.edits,
            edits_incremental: inner.edits_incremental,
            edits_full: inner.edits_full,
            edit_rows_invalidated: inner.edit_rows_invalidated,
        }
    }

    // -- the session pool ----------------------------------------------------

    /// The serving session of a document: touches the LRU clock, rebuilds
    /// the session if it was evicted, and enforces the memory budget.
    /// The returned session is a cheap clone sharing the pooled cache.
    pub fn session(&self, name: &str) -> Result<Session, CorpusError> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let (session, built, rebuilt) = {
            let entry = inner
                .docs
                .get_mut(name)
                .ok_or_else(|| CorpusError::UnknownDocument(name.to_string()))?;
            entry.last_used = tick;
            match &entry.session {
                Some(session) => (session.clone(), false, false),
                None => {
                    let session = Session::from_shared_tree(Arc::clone(&entry.tree));
                    session.store().set_mode(SESSION_KERNELS);
                    let rebuilt = entry.ever_built;
                    entry.session = Some(session.clone());
                    entry.ever_built = true;
                    (session, true, rebuilt)
                }
            }
        };
        if built {
            inner.admissions += 1;
        }
        if rebuilt {
            inner.rebuilds += 1;
        }
        self.enforce_budget(&mut inner, Some(name));
        Ok(session)
    }

    /// Drop a document's session (and its matrix cache) from the pool; the
    /// tree is kept and the session rebuilds on the next request.  Returns
    /// whether a live session was dropped.
    pub fn evict(&self, name: &str) -> bool {
        let mut inner = self.lock();
        let Some(entry) = inner.docs.get_mut(name) else {
            return false;
        };
        let had_session = entry.session.take().is_some();
        if had_session {
            inner.session_evictions += 1;
        }
        had_session
    }

    /// Drop every live session from the pool.  Returns how many were
    /// dropped.
    pub fn evict_all(&self) -> usize {
        let mut inner = self.lock();
        let mut dropped = 0;
        for entry in inner.docs.values_mut() {
            if entry.session.take().is_some() {
                dropped += 1;
            }
        }
        inner.session_evictions += dropped as u64;
        dropped
    }

    // -- live edits ----------------------------------------------------------

    /// Apply one edit to a live document, carrying its warm session through
    /// the edit instead of recompiling it.
    ///
    /// Fork-and-swap: the edit runs on a *snapshot* (tree `Arc` + session
    /// clone) taken under the lock, the expensive work —
    /// [`Tree::insert_subtree`]-family edits plus
    /// [`Session::fork_edited`]'s row-wise cache patching — happens with
    /// the lock *released*, and the result is swapped in only if the
    /// document was not concurrently replaced (checked by tree pointer
    /// identity; a race retries on the new snapshot).  Concurrent queries
    /// therefore never block behind an edit and never observe a
    /// half-applied one: they hold `Arc`s to the old tree/session pair
    /// until they finish, and the swap is a single pointer exchange.
    pub fn mutate(&self, name: &str, edit: &DocEdit) -> Result<MutateOutcome, CorpusError> {
        loop {
            let (tree, session) = {
                let inner = self.lock();
                let entry = inner
                    .docs
                    .get(name)
                    .ok_or_else(|| CorpusError::UnknownDocument(name.to_string()))?;
                (Arc::clone(&entry.tree), entry.session.clone())
            };
            let (new_tree, delta) = match edit {
                DocEdit::Insert { parent, index, subtree } => {
                    tree.insert_subtree(NodeId(*parent), *index, subtree)
                }
                DocEdit::Delete { node } => tree.delete_subtree(NodeId(*node)),
                DocEdit::Relabel { node, label } => tree.relabel(NodeId(*node), label),
            }
            .map_err(|source| CorpusError::Edit {
                name: name.to_string(),
                source,
            })?;
            let new_tree = Arc::new(new_tree);
            let (new_session, stats) = match &session {
                Some(s) => {
                    let (forked, stats) = s.fork_edited(Arc::clone(&new_tree), &delta);
                    (Some(forked), stats)
                }
                None => (None, EditApplyStats::default()),
            };

            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let Some(entry) = inner.docs.get_mut(name) else {
                return Err(CorpusError::UnknownDocument(name.to_string()));
            };
            if !Arc::ptr_eq(&entry.tree, &tree) {
                // Lost the race against a LOAD or another MUTATE: redo the
                // edit on the current snapshot.
                continue;
            }
            entry.tree_bytes = approx_tree_bytes(&new_tree);
            entry.tree = Arc::clone(&new_tree);
            entry.session = new_session;
            entry.last_used = tick;
            entry.epoch += 1;
            let outcome = MutateOutcome {
                kind: delta.kind,
                nodes: new_tree.len(),
                epoch: entry.epoch,
                incremental: session.is_some(),
                stats,
            };
            inner.edits += 1;
            if outcome.incremental {
                inner.edits_incremental += 1;
            } else {
                inner.edits_full += 1;
            }
            inner.edit_rows_invalidated += stats.rows_invalidated;
            self.enforce_budget(&mut inner, Some(name));
            return Ok(outcome);
        }
    }

    /// The edit epoch of a document (0 = never edited since ingestion).
    pub fn epoch(&self, name: &str) -> Option<u64> {
        self.lock().docs.get(name).map(|e| e.epoch)
    }

    /// Re-run budget enforcement (normally done automatically after every
    /// session access and query).
    pub fn maintain(&self) {
        let mut inner = self.lock();
        self.enforce_budget(&mut inner, None);
    }

    /// Evict least-recently-used pool state until the budget holds again.
    /// Tier 1 drops a victim's matrix cache; tier 2 drops the session.  The
    /// `protect`ed document (the one just requested) is evicted only when it
    /// is the last live session — and then only its cache, never the
    /// session itself.
    fn enforce_budget(&self, inner: &mut Inner, protect: Option<&str>) {
        let Some(budget) = self.config.memory_budget else {
            return;
        };
        loop {
            let pool: usize = inner.docs.values().map(DocEntry::pooled_bytes).sum();
            if pool <= budget {
                return;
            }
            let victim = inner
                .docs
                .iter()
                .filter(|(name, entry)| {
                    entry.session.is_some() && Some(name.as_str()) != protect
                })
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    let entry = inner.docs.get_mut(&name).expect("victim exists");
                    let session = entry.session.as_ref().expect("victim has a session");
                    if session.store().approx_bytes() > 0 {
                        session.clear_cache();
                        inner.cache_evictions += 1;
                    } else {
                        entry.session = None;
                        inner.session_evictions += 1;
                    }
                }
                None => {
                    // Only the protected session is left: drop its cache if
                    // that helps, otherwise the budget simply cannot be met
                    // (a single tree outweighs it) and we stop.
                    let Some(name) = protect else { return };
                    let Some(entry) = inner.docs.get_mut(name) else { return };
                    let Some(session) = entry.session.as_ref() else { return };
                    if session.store().approx_bytes() == 0 {
                        return;
                    }
                    session.clear_cache();
                    inner.cache_evictions += 1;
                }
            }
        }
    }

    // -- planning ------------------------------------------------------------

    /// Prepare `query` for `session` through the shared plan cache: one
    /// planner decision per `(query, vars, size band)`.
    fn plan_for(
        &self,
        session: &Session,
        query: &str,
        vars: &[&str],
    ) -> Result<QueryPlan, CorpusError> {
        let key: PlanKey = (query.to_string(), vars.join(","), size_band(session.len()));
        if let Some(plan) = self
            .plans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&key)
        {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan.clone());
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let path = parse_path(query).map_err(|e| CorpusError::Compile(e.into()))?;
        let output: Vec<Var> = vars.iter().map(|n| Var::new(n)).collect();
        let plan = Planner::default()
            .plan_with(session, path, output, self.config.engine)
            .map_err(CorpusError::Compile)?;
        self.plans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, plan.clone());
        Ok(plan)
    }

    /// Drop every cached plan (used by tests; plans are also correct across
    /// evictions, so there is no correctness reason to call this).
    pub fn clear_plan_cache(&self) {
        self.plans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clear();
    }

    // -- answering -----------------------------------------------------------

    /// Answer one query over one document, through the session pool and the
    /// shared plan cache.
    pub fn answer(&self, name: &str, query: &str, vars: &[&str]) -> Result<AnswerSet, CorpusError> {
        self.answer_tagged(name, query, vars).map(|doc| doc.answers)
    }

    /// Like [`Corpus::answer`], but returns the answers together with the
    /// tree snapshot they were computed against.  Callers that render node
    /// ids (the `pplxd` daemon) must use *this* tree: re-fetching the
    /// document after answering races with concurrent `LOAD`s replacing it.
    pub fn answer_tagged(
        &self,
        name: &str,
        query: &str,
        vars: &[&str],
    ) -> Result<DocAnswer, CorpusError> {
        let session = self.session(name)?;
        let plan = self.plan_for(&session, query, vars)?;
        let answers = session.execute(&plan).map_err(|e| CorpusError::Query {
            name: name.to_string(),
            source: e,
        })?;
        // Execution grows the matrix cache; re-check the budget.
        let mut inner = self.lock();
        self.enforce_budget(&mut inner, None);
        drop(inner);
        Ok(DocAnswer {
            name: name.to_string(),
            answers,
            tree: session.shared_tree(),
        })
    }

    /// Answer one query over *every* document: fan out over the fixed
    /// worker pool, return per-document answers tagged by name, in name
    /// order.  On failure the error of the lexicographically smallest
    /// failing document is returned.
    pub fn answer_all(&self, query: &str, vars: &[&str]) -> Result<Vec<DocAnswer>, CorpusError> {
        self.answer_where(|_| true, query, vars)
    }

    /// Answer one query over every document whose name satisfies `pred`
    /// (same contract as [`Corpus::answer_all`]).
    pub fn answer_where<F>(
        &self,
        pred: F,
        query: &str,
        vars: &[&str],
    ) -> Result<Vec<DocAnswer>, CorpusError>
    where
        F: Fn(&str) -> bool,
    {
        let mut out = Vec::new();
        for (_, result) in self.answer_where_detailed(pred, query, vars) {
            out.push(result?);
        }
        Ok(out)
    }

    /// Like [`Corpus::answer_all`], but a failing document does not abort
    /// the fan-out: every document reports its own `Result`, tagged by
    /// name, in name order.  The `pplxd` `QUERYALL` command uses this so
    /// healthy documents still answer next to a sick one.
    pub fn answer_all_detailed(
        &self,
        query: &str,
        vars: &[&str],
    ) -> Vec<(String, Result<DocAnswer, CorpusError>)> {
        self.answer_where_detailed(|_| true, query, vars)
    }

    /// [`Corpus::answer_all_detailed`] restricted to documents whose name
    /// satisfies `pred`.
    pub fn answer_where_detailed<F>(
        &self,
        pred: F,
        query: &str,
        vars: &[&str],
    ) -> Vec<(String, Result<DocAnswer, CorpusError>)>
    where
        F: Fn(&str) -> bool,
    {
        let names: Vec<String> = self.names().into_iter().filter(|n| pred(n)).collect();
        if names.is_empty() {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<Result<DocAnswer, CorpusError>>>> =
            names.iter().map(|_| Mutex::new(None)).collect();
        let work: BoundedQueue<usize> = BoundedQueue::new(self.config.queue_capacity.max(1));
        let workers = self.config.threads.clamp(1, names.len());
        xpath_sync::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(i) = work.pop() {
                        // Catch panics at the job boundary: a panicking
                        // document must surface as a per-document error,
                        // not unwind the worker (which would poison shared
                        // locks and re-panic the whole scope).
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || {
                                #[cfg(test)]
                                if self
                                    .panic_docs
                                    .lock()
                                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                                    .contains(&names[i])
                                {
                                    panic!("injected job panic");
                                }
                                self.answer_tagged(&names[i], query, vars)
                            },
                        ))
                        .unwrap_or_else(|payload| {
                            Err(CorpusError::Panicked {
                                name: names[i].clone(),
                                message: panic_message(payload.as_ref()),
                            })
                        });
                        *slots[i]
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(result);
                    }
                });
            }
            for i in 0..names.len() {
                work.push(i); // backpressure: blocks at queue capacity
            }
            work.close();
        });
        names
            .into_iter()
            .zip(slots)
            .map(|(name, slot)| {
                let result = slot
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .expect("every queued document gets a result");
                (name, result)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_doc_corpus() -> Corpus {
        let corpus = Corpus::new();
        corpus
            .insert_xml("bib1", "<bib><book><author/><title/></book></bib>")
            .unwrap();
        corpus
            .insert_terms("bib2", "bib(book(author,title),book(author,author,title))")
            .unwrap();
        corpus
    }

    /// A corpus whose every plan is forced onto the cached-matrix engine —
    /// tiny test documents would otherwise plan onto naive, which never
    /// touches the pool's matrix caches.
    fn ppl_corpus(budget: Option<usize>) -> Corpus {
        Corpus::with_config(CorpusConfig {
            memory_budget: budget,
            engine: Some(Engine::Ppl),
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn panicked_job_does_not_kill_the_pool() {
        let corpus = two_doc_corpus();
        corpus
            .panic_docs
            .lock()
            .unwrap()
            .insert("bib1".to_string());
        // The injected panic must come back as a per-document error — not
        // unwind through the worker, the scope, or the caller.
        let err = corpus
            .answer_all("descendant::book[child::author[. is $a]]", &["a"])
            .expect_err("the panicking document must fail the fan-out");
        match &err {
            CorpusError::Panicked { name, message } => {
                assert_eq!(name, "bib1");
                assert!(message.contains("injected"), "unexpected payload: {message}");
            }
            other => panic!("expected a Panicked error, got: {other}"),
        }
        // The pool (queue, sessions, plan cache) must still serve normally.
        corpus.panic_docs.lock().unwrap().clear();
        let answers = corpus
            .answer_all("descendant::book[child::author[. is $a]]", &["a"])
            .expect("the corpus must keep serving after a panicked job");
        assert_eq!(answers.len(), 2);
        assert!(answers.iter().all(|a| !a.answers.is_empty()));
    }

    #[test]
    fn ingestion_and_inspection_round_trip() {
        let corpus = two_doc_corpus();
        assert_eq!(corpus.len(), 2);
        assert!(!corpus.is_empty());
        assert!(corpus.contains("bib1"));
        assert!(!corpus.contains("bib3"));
        assert_eq!(corpus.names(), vec!["bib1", "bib2"]);
        assert_eq!(corpus.tree("bib2").unwrap().len(), 8);
        assert!(corpus.tree("nope").is_none());
        assert!(corpus.remove("bib1"));
        assert!(!corpus.remove("bib1"));
        assert_eq!(corpus.names(), vec!["bib2"]);
    }

    #[test]
    fn ingestion_errors_carry_the_document_name() {
        let corpus = Corpus::new();
        let err = corpus.insert_xml("broken", "<a><b></a>").unwrap_err();
        assert!(matches!(err, CorpusError::Document { .. }));
        assert!(err.to_string().contains("broken"), "{err}");
        let err = corpus.insert_terms("alsobad", "a(()").unwrap_err();
        assert!(err.to_string().contains("alsobad"), "{err}");
        assert!(corpus.is_empty(), "failed ingestion must not insert");
    }

    #[test]
    fn answers_match_a_fresh_session_per_document() {
        let corpus = two_doc_corpus();
        let query = "descendant::book[child::author[. is $y] and child::title[. is $z]]";
        let a1 = corpus.answer("bib1", query, &["y", "z"]).unwrap();
        let a2 = corpus.answer("bib2", query, &["y", "z"]).unwrap();
        assert_eq!(a1.len(), 1);
        assert_eq!(a2.len(), 3);
        let fresh = Session::from_terms("bib(book(author,title),book(author,author,title))").unwrap();
        assert_eq!(fresh.answer(query, &["y", "z"]).unwrap(), a2);
        let err = corpus.answer("nope", query, &["y", "z"]).unwrap_err();
        assert!(matches!(err, CorpusError::UnknownDocument(_)));
        let err = corpus.answer("bib1", "child::(", &[]).unwrap_err();
        assert!(matches!(err, CorpusError::Compile(_)));
    }

    #[test]
    fn answer_all_tags_and_orders_by_document_name() {
        let corpus = two_doc_corpus();
        let per_doc = corpus
            .answer_all("descendant::author[. is $a]", &["a"])
            .unwrap();
        assert_eq!(per_doc.len(), 2);
        assert_eq!(per_doc[0].name, "bib1");
        assert_eq!(per_doc[0].answers.len(), 1);
        assert_eq!(per_doc[1].name, "bib2");
        assert_eq!(per_doc[1].answers.len(), 3);
        // Single-threaded config answers identically.
        let single = Corpus::with_config(CorpusConfig {
            threads: 1,
            queue_capacity: 1,
            ..CorpusConfig::default()
        });
        single
            .insert_xml("bib1", "<bib><book><author/><title/></book></bib>")
            .unwrap();
        single
            .insert_terms("bib2", "bib(book(author,title),book(author,author,title))")
            .unwrap();
        assert_eq!(
            single.answer_all("descendant::author[. is $a]", &["a"]).unwrap(),
            per_doc
        );
    }

    #[test]
    fn answer_tagged_snapshots_the_tree_across_replacement() {
        // The daemon renders node ids against DocAnswer::tree; that
        // snapshot must stay valid even after a concurrent LOAD replaces
        // the document with a smaller one.
        let corpus = Corpus::new();
        corpus.insert_terms("d", "bib(book(author,title),book(author))").unwrap();
        let tagged = corpus.answer("d", "descendant::author[. is $a]", &["a"]).unwrap();
        let doc = corpus.answer_tagged("d", "descendant::author[. is $a]", &["a"]).unwrap();
        assert_eq!(doc.answers, tagged);
        assert_eq!(doc.tree.len(), 6);
        corpus.insert_terms("d", "r(a)").unwrap(); // replacement shrinks the doc
        for tuple in doc.answers.tuples() {
            for &node in tuple {
                assert_eq!(doc.tree.label_str(node), "author", "snapshot stays indexable");
            }
        }
        assert_eq!(corpus.tree("d").unwrap().len(), 2, "corpus serves the new doc");
    }

    #[test]
    fn answer_where_filters_by_name() {
        let corpus = two_doc_corpus();
        let only2 = corpus
            .answer_where(|n| n.ends_with('2'), "descendant::author[. is $a]", &["a"])
            .unwrap();
        assert_eq!(only2.len(), 1);
        assert_eq!(only2[0].name, "bib2");
        assert!(corpus
            .answer_where(|_| false, "descendant::author", &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fan_out_with_many_documents_and_few_workers() {
        // More documents than workers and than queue capacity: the bounded
        // queue must backpressure, and every document must still answer.
        let corpus = Corpus::with_config(CorpusConfig {
            threads: 3,
            queue_capacity: 2,
            ..CorpusConfig::default()
        });
        for i in 0..17 {
            corpus
                .insert_terms(&format!("doc{i:02}"), "r(a(b),a(b,b))")
                .unwrap();
        }
        let per_doc = corpus.answer_all("descendant::b[. is $x]", &["x"]).unwrap();
        assert_eq!(per_doc.len(), 17);
        for (i, doc) in per_doc.iter().enumerate() {
            assert_eq!(doc.name, format!("doc{i:02}"), "name order");
            assert_eq!(doc.answers.len(), 3);
        }
    }

    #[test]
    fn fan_out_reports_the_smallest_failing_document() {
        let corpus = Corpus::with_config(CorpusConfig {
            engine: Some(Engine::Acq),
            ..CorpusConfig::default()
        });
        corpus.insert_terms("a", "r(l0,l1)").unwrap();
        corpus.insert_terms("b", "r(l0,l1)").unwrap();
        // Nest unions 9 deep: 2^9 = 512 disjuncts exceed the acq engine's
        // Prop. 9 distribution budget (256), so execution fails per
        // document and the fan-out must surface the smallest document name.
        let mut query = String::from("descendant::l0[. is $x]");
        for _ in 0..9 {
            query = format!("({query}) union ({query})");
        }
        let err = corpus.answer_all(&query, &["x"]).unwrap_err();
        match err {
            CorpusError::Query { name, .. } => assert_eq!(name, "a"),
            other => panic!("expected a per-document query error, got {other}"),
        }
        let err = corpus.answer("missing", "child::l0", &[]).unwrap_err();
        assert!(matches!(err, CorpusError::UnknownDocument(_)));
    }

    #[test]
    fn plan_cache_shares_decisions_within_a_size_band() {
        let corpus = Corpus::new();
        // Two documents in the same power-of-two size band (5 and 7 nodes)
        // share one planner decision; the third (64 nodes) derives its own.
        corpus.insert_terms("d1", "bib(book(author,title),book)").unwrap();
        corpus
            .insert_terms("d2", "bib(book(author,title),book(author,title))")
            .unwrap();
        corpus.answer("d1", "descendant::author[. is $a]", &["a"]).unwrap();
        corpus.answer("d2", "descendant::author[. is $a]", &["a"]).unwrap();
        corpus.answer("d1", "descendant::author[. is $a]", &["a"]).unwrap();
        let stats = corpus.stats();
        assert_eq!(stats.plan_misses, 1, "{stats:?}");
        assert_eq!(stats.plan_hits, 2, "{stats:?}");
        // A different variable list is a different plan.
        corpus.answer("d1", "descendant::author[. is $a]", &[]).unwrap();
        assert_eq!(corpus.stats().plan_misses, 2);
        // Documents in a *different* band derive their own decision.
        let mut big = String::from("bib(");
        for i in 0..200 {
            if i > 0 {
                big.push(',');
            }
            big.push_str("book(author,title)");
        }
        big.push(')');
        corpus.insert_terms("big", &big).unwrap();
        corpus.answer("big", "descendant::author[. is $a]", &["a"]).unwrap();
        assert_eq!(corpus.stats().plan_misses, 3);
        corpus.clear_plan_cache();
        corpus.answer("d1", "descendant::author[. is $a]", &["a"]).unwrap();
        assert_eq!(corpus.stats().plan_misses, 4);
    }

    #[test]
    fn sessions_are_pooled_and_admissions_counted() {
        let corpus = ppl_corpus(None);
        corpus.insert_terms("d", "r(a,b)").unwrap();
        assert_eq!(corpus.stats().live_sessions, 0);
        let s1 = corpus.session("d").unwrap();
        let s2 = corpus.session("d").unwrap();
        // Same pooled session: warming one warms the other.
        s1.answer("descendant::a[. is $x]", &["x"]).ok();
        assert_eq!(s2.cache_stats().lookups(), s1.cache_stats().lookups());
        let stats = corpus.stats();
        assert_eq!(stats.admissions, 1, "{stats:?}");
        assert_eq!(stats.rebuilds, 0);
        assert_eq!(stats.live_sessions, 1);
        assert!(matches!(
            corpus.session("missing").unwrap_err(),
            CorpusError::UnknownDocument(_)
        ));
    }

    #[test]
    fn explicit_eviction_drops_sessions_and_rebuild_is_counted() {
        let corpus = ppl_corpus(None);
        corpus.insert_terms("d", "r(a,b)").unwrap();
        corpus.answer("d", "descendant::a[. is $x]", &["x"]).unwrap();
        assert!(corpus.stats().pool_bytes > 0);
        assert!(corpus.evict("d"));
        assert!(!corpus.evict("d"), "already evicted");
        assert!(!corpus.evict("missing"));
        let stats = corpus.stats();
        assert_eq!(stats.live_sessions, 0);
        assert_eq!(stats.pool_bytes, 0, "evicted sessions must not be charged");
        // The next answer rebuilds the session and is still correct.
        let again = corpus.answer("d", "descendant::a[. is $x]", &["x"]).unwrap();
        assert_eq!(again.len(), 1);
        let stats = corpus.stats();
        assert_eq!(stats.admissions, 2);
        assert_eq!(stats.rebuilds, 1);
        // evict_all over several documents.
        corpus.insert_terms("e", "r(a)").unwrap();
        corpus.answer("e", "child::a", &[]).unwrap();
        assert_eq!(corpus.evict_all(), 2);
        assert_eq!(corpus.stats().live_sessions, 0);
    }

    #[test]
    fn budget_enforcement_evicts_lru_first_and_answers_stay_correct() {
        // Budget far below the working set of four warmed documents: the
        // pool must thrash, counters must move, and answers must stay
        // exactly the cold-session answers.
        let corpus = ppl_corpus(Some(512));
        let query = "descendant::l1[not(descendant::* except child::l0)][. is $x]";
        for i in 0..4 {
            corpus
                .insert_terms(&format!("d{i}"), "l0(l1(l0,l2),l1(l2),l0(l1))")
                .unwrap();
        }
        for round in 0..3 {
            for i in 0..4 {
                let name = format!("d{i}");
                let got = corpus.answer(&name, query, &["x"]).unwrap();
                let cold = Session::from_shared_tree(corpus.tree(&name).unwrap());
                let plan = Planner::default()
                    .plan_with(
                        &cold,
                        parse_path(query).unwrap(),
                        vec![Var::new("x")],
                        Some(Engine::Ppl),
                    )
                    .unwrap();
                assert_eq!(got, cold.execute(&plan).unwrap(), "round {round} doc {name}");
            }
        }
        let stats = corpus.stats();
        assert!(
            stats.cache_evictions + stats.session_evictions > 0,
            "a 512-byte budget must evict: {stats:?}"
        );
        assert!(stats.rebuilds > 0, "thrash must rebuild sessions: {stats:?}");
        if let Some(budget) = corpus.config().memory_budget {
            assert!(
                stats.pool_bytes <= budget + 4 * 512,
                "pool must settle near the budget: {stats:?}"
            );
        }
    }

    #[test]
    fn unbounded_corpus_never_evicts() {
        let corpus = ppl_corpus(None);
        for i in 0..3 {
            corpus.insert_terms(&format!("d{i}"), "r(a(b),a)").unwrap();
        }
        for _ in 0..2 {
            corpus.answer_all("descendant::a[. is $x]", &["x"]).unwrap();
        }
        let stats = corpus.stats();
        assert_eq!(stats.cache_evictions, 0);
        assert_eq!(stats.session_evictions, 0);
        assert_eq!(stats.live_sessions, 3);
        assert!(stats.pool_bytes > 0);
    }

    #[test]
    fn load_file_and_load_dir_ingest_xml_files() {
        let dir = std::env::temp_dir().join(format!("xpath_corpus_test_{}", std::process::id()));
        let sub = dir.join("sub");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(dir.join("one.xml"), "<r><a/></r>").unwrap();
        std::fs::write(sub.join("two.xml"), "<r><a/><a/></r>").unwrap();
        // Same stem in a different directory: path-derived names keep both.
        std::fs::write(sub.join("one.xml"), "<other><b/></other>").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not xml").unwrap();
        // A symlink loop must not hang the walk (best-effort: some
        // filesystems refuse symlink creation; then nothing to test).
        #[cfg(unix)]
        let _ = std::os::unix::fs::symlink(&dir, sub.join("loop"));
        let corpus = Corpus::new();
        let names = corpus.load_dir(&dir).unwrap();
        assert_eq!(names, vec!["one", "sub/one", "sub/two"]);
        assert_eq!(corpus.len(), 3);
        assert!(!corpus.answer("sub/two", "child::a", &[]).unwrap().is_empty());
        assert!(!corpus.answer("sub/one", "child::b", &[]).unwrap().is_empty());
        assert!(!corpus.answer("one", "child::a", &[]).unwrap().is_empty());
        let err = corpus.load_file(&dir.join("missing.xml")).unwrap_err();
        assert!(matches!(err, CorpusError::Io(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_answering_over_a_shared_corpus() {
        let corpus = Arc::new(ppl_corpus(Some(4096)));
        for i in 0..4 {
            corpus.insert_terms(&format!("d{i}"), "l0(l1(l0,l2),l1(l2))").unwrap();
        }
        let expected = corpus
            .answer("d0", "descendant::l1[. is $x]", &["x"])
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let corpus = Arc::clone(&corpus);
                let expected = expected.clone();
                scope.spawn(move || {
                    for i in 0..4 {
                        let got = corpus
                            .answer(&format!("d{i}"), "descendant::l1[. is $x]", &["x"])
                            .unwrap();
                        assert_eq!(got, expected);
                    }
                });
            }
        });
        assert!(corpus.stats().plan_hits > 0);
    }

    #[test]
    fn size_bands_group_power_of_two_sizes() {
        assert_eq!(size_band(1), 1);
        assert_eq!(size_band(2), 2);
        assert_eq!(size_band(3), 2);
        assert_eq!(size_band(4), 3);
        assert_eq!(size_band(1023), 10);
        assert_eq!(size_band(1024), 11);
    }

    // -- live edits ----------------------------------------------------------

    /// After every edit the mutated document must answer exactly like a
    /// cold corpus ingested from the post-edit tree.
    fn assert_matches_cold(corpus: &Corpus, name: &str, query: &str) {
        let tree = corpus.tree(name).expect("document must exist");
        let cold = ppl_corpus(None);
        cold.insert_tree(name, (*tree).clone());
        let got = corpus.answer(name, query, &["x"]).unwrap();
        let want = cold.answer(name, query, &["x"]).unwrap();
        assert_eq!(got, want, "warm-mutated answers diverge from cold for {query}");
    }

    #[test]
    fn mutate_insert_is_incremental_on_a_warm_document() {
        let corpus = ppl_corpus(None);
        corpus
            .insert_terms("bib", "bib(book(author,title),book(author,author,title))")
            .unwrap();
        let query = "descendant::book[child::author[. is $x]]";
        // Warm the session so the edit has caches to carry over.
        corpus.answer("bib", query, &["x"]).unwrap();
        let subtree = Tree::from_terms("book(author,title)").unwrap();
        let outcome = corpus
            .mutate("bib", &DocEdit::Insert { parent: 0, index: 2, subtree })
            .unwrap();
        assert_eq!(outcome.kind, EditKind::Insert);
        assert!(outcome.incremental, "a warm document must fork its session");
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.nodes, 8 + 3);
        assert_matches_cold(&corpus, "bib", query);
        assert_matches_cold(&corpus, "bib", "child::book/child::author[. is $x]");
        let stats = corpus.stats();
        assert_eq!(stats.edits, 1);
        assert_eq!(stats.edits_incremental, 1);
        assert_eq!(stats.edits_full, 0);
    }

    #[test]
    fn mutate_on_a_cold_document_counts_as_a_full_rebuild() {
        let corpus = ppl_corpus(None);
        corpus.insert_terms("d", "r(a(b),a(b,b))").unwrap();
        let outcome = corpus
            .mutate("d", &DocEdit::Delete { node: 1 })
            .unwrap();
        assert!(!outcome.incremental, "no session existed to fork");
        assert_eq!(outcome.stats, EditApplyStats::default());
        let stats = corpus.stats();
        assert_eq!(stats.edits_full, 1);
        assert_eq!(stats.edits_incremental, 0);
        assert_matches_cold(&corpus, "d", "descendant::b[. is $x]");
    }

    #[test]
    fn delete_and_relabel_round_trip_and_bump_the_epoch() {
        let corpus = ppl_corpus(None);
        corpus
            .insert_terms("bib", "bib(book(author,title),book(author))")
            .unwrap();
        let query = "descendant::author[. is $x]";
        corpus.answer("bib", query, &["x"]).unwrap();
        corpus.mutate("bib", &DocEdit::Delete { node: 4 }).unwrap();
        assert_matches_cold(&corpus, "bib", query);
        let outcome = corpus
            .mutate(
                "bib",
                &DocEdit::Relabel { node: 3, label: "subtitle".to_string() },
            )
            .unwrap();
        assert_eq!(outcome.kind, EditKind::Relabel);
        assert_eq!(outcome.epoch, 2);
        assert_eq!(corpus.epoch("bib"), Some(2));
        assert_matches_cold(&corpus, "bib", query);
        assert_matches_cold(&corpus, "bib", "descendant::subtitle[. is $x]");
        // Replacement by LOAD resets the epoch: it is a new document.
        corpus.insert_terms("bib", "bib(book)").unwrap();
        assert_eq!(corpus.epoch("bib"), Some(0));
    }

    #[test]
    fn mutate_errors_name_the_document_and_leave_it_untouched() {
        let corpus = ppl_corpus(None);
        corpus.insert_terms("d", "r(a,b)").unwrap();
        let err = corpus
            .mutate("d", &DocEdit::Delete { node: 99 })
            .unwrap_err();
        match &err {
            CorpusError::Edit { name, .. } => assert_eq!(name, "d"),
            other => panic!("expected an Edit error, got: {other}"),
        }
        // Deleting the root is an edit error, not a corpus panic.
        let err = corpus.mutate("d", &DocEdit::Delete { node: 0 }).unwrap_err();
        assert!(matches!(err, CorpusError::Edit { .. }), "got: {err}");
        let err = corpus
            .mutate("nope", &DocEdit::Delete { node: 1 })
            .unwrap_err();
        assert!(matches!(err, CorpusError::UnknownDocument(_)), "got: {err}");
        assert_eq!(corpus.epoch("d"), Some(0));
        assert_eq!(corpus.stats().edits, 0);
    }

    #[test]
    fn queries_racing_a_mutate_see_a_consistent_snapshot() {
        let corpus = Arc::new(ppl_corpus(None));
        corpus
            .insert_terms("bib", "bib(book(author,title),book(author,title))")
            .unwrap();
        let query = "descendant::book[child::author[. is $x]]";
        let before = corpus.answer("bib", query, &["x"]).unwrap();
        std::thread::scope(|scope| {
            let writer = {
                let corpus = Arc::clone(&corpus);
                scope.spawn(move || {
                    for i in 0..16 {
                        let subtree = Tree::from_terms("book(author,title)").unwrap();
                        corpus
                            .mutate(
                                "bib",
                                &DocEdit::Insert { parent: 0, index: 2 + i, subtree },
                            )
                            .unwrap();
                    }
                })
            };
            for _ in 0..4 {
                let corpus = Arc::clone(&corpus);
                let before = before.clone();
                scope.spawn(move || {
                    for _ in 0..24 {
                        // Every read must be internally consistent: at least
                        // the pre-edit books, every answer tuple a real book
                        // node of the snapshot it was answered against.
                        let got = corpus.answer("bib", query, &["x"]).unwrap();
                        assert!(got.len() >= before.len());
                        assert!(got.len() <= before.len() + 16);
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(corpus.epoch("bib"), Some(16));
        let after = corpus.answer("bib", query, &["x"]).unwrap();
        assert_eq!(after.len(), before.len() + 16);
        assert_matches_cold(&corpus, "bib", query);
    }
}
