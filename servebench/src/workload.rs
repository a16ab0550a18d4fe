//! Seeded workload generation: documents, request streams and edit scripts.
//!
//! The daemon only ever sees the `LOAD` / `QUERY` / `MUTATE` lines built
//! here.  Documents and edit scripts come from a fixed seed; the
//! request streams come from the workload seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use xpath_tree::{NodeId, Tree};
use xpath_workload::{corpus_documents, dblp_suite, planner_mix_suite};

/// The three workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Evicting,
    Write,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "read_warm" => Some(Kind::Warm),
            "read_evicting" => Some(Kind::Evicting),
            "read_write" => Some(Kind::Write),
            _ => None,
        }
    }
}

/// Closed-loop client connections per workload (the machine has 2 cores).
pub const CONNECTIONS: usize = 2;
/// Nodes of each DBLP-style document.
const DBLP_NODES: usize = 2000;
/// Base size of the random `l0–l2` documents (bands of 1×, 2×, 3× this).
const RANDOM_BASE: usize = 700;
/// One `MUTATE` per this many requests of a connection's write traffic.
const MUTATE_EVERY: usize = 10;
/// Seed of the documents and of their edit scripts.  Both stay the same for
/// every workload seed, so runs with different seeds measure the same data
/// and the same edits; the workload seed draws the request streams (which
/// query comes next, and which queries run between two edits).
const DOCUMENT_SEED: u64 = 2007;

/// One ingested document.
pub struct Doc {
    pub name: String,
    pub tree: Arc<Tree>,
    /// The one-line XML sent with `LOAD`.
    pub xml: String,
    /// Labels edits may use (stationary relabels stay inside the alphabet).
    alphabet: Vec<String>,
}

/// The two kinds of timed traffic.  The read workloads send `Read` traffic,
/// then `Write` traffic to a second daemon; `read_write` sends only `Write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Uniform draws from every distinct `QUERY` line.
    Read,
    /// Each connection queries the two random documents it owns and sends
    /// their edit scripts, one edit after every nine queries.
    Write,
}

/// What a connection sends during a timed window: every `MUTATE_EVERY`-th
/// line is the next line of `edits` (from the start again after the last),
/// and every other line a uniform draw from `queries` with this
/// connection's own generator.  Read traffic has no edits.
pub struct Stream {
    rng: StdRng,
    queries: Arc<Vec<String>>,
    edits: Arc<Vec<String>>,
    sent: usize,
}

impl Stream {
    /// The next request line.
    pub fn next_line(&mut self) -> &str {
        self.sent += 1;
        if !self.edits.is_empty() && self.sent.is_multiple_of(MUTATE_EVERY) {
            let edit = (self.sent / MUTATE_EVERY - 1) % self.edits.len();
            return &self.edits[edit];
        }
        &self.queries[self.rng.gen_range(0..self.queries.len())]
    }
}

/// A fully generated workload.
pub struct Workload {
    pub kind: Kind,
    pub docs: Vec<Doc>,
    /// Every distinct `QUERY` line, in the fixed warm-up order.
    pub warmup: Vec<String>,
    /// The edit script of each of the four random documents, by name.
    pub scripts: Vec<(String, Vec<String>)>,
    seed: u64,
}

fn query_line(doc: &str, query: &str, vars: &[String]) -> String {
    if vars.is_empty() {
        format!("QUERY {doc} {query}")
    } else {
        format!("QUERY {doc} {query} -> {}", vars.join(","))
    }
}

fn make_doc(name: String, tree: Tree) -> Doc {
    let mut alphabet: Vec<String> = tree
        .nodes()
        .map(|n| tree.label_str(n).to_string())
        .collect();
    alphabet.sort();
    alphabet.dedup();
    // The root label (e.g. `dblp`) is not a record label; keep edits to the
    // labels that occur below the root.
    let root = tree.label_str(tree.root()).to_string();
    if tree.nodes_with_label_str(&root).len() == 1 {
        alphabet.retain(|l| *l != root);
    }
    Doc {
        xml: xpath_xml::to_xml(&tree),
        name,
        tree: Arc::new(tree),
        alphabet,
    }
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut docs = Vec::new();
        if kind != Kind::Write {
            for i in 0..4u64 {
                let tree = xpath_tree::generate::dblp(DBLP_NODES, DOCUMENT_SEED + i);
                docs.push(make_doc(format!("dblp{i}"), tree));
            }
        }
        for (name, tree) in corpus_documents(4, RANDOM_BASE, DOCUMENT_SEED) {
            docs.push(make_doc(name, tree));
        }
        let suite_for = |doc: &Doc| {
            if doc.name.starts_with("dblp") {
                dblp_suite()
            } else {
                planner_mix_suite()
            }
        };
        let lines_for = |doc: &Doc| -> Vec<String> {
            suite_for(doc)
                .iter()
                .map(|(q, vars)| query_line(&doc.name, q, vars))
                .collect()
        };
        let warmup: Vec<String> = docs.iter().flat_map(lines_for).collect();
        let scripts = docs
            .iter()
            .filter(|d| !d.name.starts_with("dblp"))
            .map(|d| (d.name.clone(), edit_script(d)))
            .collect();
        Workload {
            kind,
            docs,
            warmup,
            scripts,
            seed,
        }
    }

    /// The traffic whose queries the query metrics describe.
    pub fn query_traffic(&self) -> Traffic {
        match self.kind {
            Kind::Write => Traffic::Write,
            _ => Traffic::Read,
        }
    }

    /// The request stream of connection `c` for `traffic`.  In write
    /// traffic, connection c owns the random documents 2c and 2c+1: it
    /// queries only them and sends their edit scripts interleaved.
    pub fn stream(&self, c: usize, traffic: Traffic) -> Stream {
        let (queries, edits) = match traffic {
            Traffic::Read => (self.warmup.clone(), Vec::new()),
            Traffic::Write => {
                let [(a, script_a), (b, script_b)] =
                    [&self.scripts[2 * c], &self.scripts[2 * c + 1]];
                let owns = |line: &&String| {
                    let doc = line.split(' ').nth(1);
                    doc == Some(a.as_str()) || doc == Some(b.as_str())
                };
                let queries = self.warmup.iter().filter(owns).cloned().collect();
                let edits = script_a
                    .iter()
                    .zip(script_b)
                    .flat_map(|(x, y)| [x.clone(), y.clone()])
                    .collect();
                (queries, edits)
            }
        };
        let salt = match traffic {
            Traffic::Read => 0xC0FFEE ^ ((c as u64 + 1) << 40),
            Traffic::Write => (c as u64 + 1) << 32,
        };
        Stream {
            rng: StdRng::seed_from_u64(self.seed ^ salt),
            queries: Arc::new(queries),
            edits: Arc::new(edits),
            sent: 0,
        }
    }

    pub fn load_lines(&self) -> Vec<String> {
        self.docs
            .iter()
            .map(|d| format!("LOAD {} {}", d.name, d.xml))
            .collect()
    }

    pub fn total_nodes(&self) -> usize {
        self.docs.iter().map(|d| d.tree.len()).sum()
    }
}

/// Relabel pairs per edit script (a node to another label of the alphabet,
/// then back).
const RELABEL_PAIRS: usize = 6;
/// Edits per script.
pub const SCRIPT_LEN: usize = 2 * (RELABEL_PAIRS + STRUCTURAL_PAIRS);
/// Insert/delete pairs per edit script (a small subtree in, then out).
///
/// An edit's latency depends mostly on its kind and on its document's size:
/// a relabel takes well under a millisecond, a structural edit several, and
/// more on a larger document.  The four documents have three sizes (700,
/// 1400, 2100 and 700 nodes), so the distinct edits, ordered by latency,
/// form blocks: the relabels of the two small documents, of the 1400-node
/// one and of the 2100-node one, then the structural edits in the same
/// order.  A percentile that falls on the boundary between two blocks jumps
/// between them from run to run.  With six relabel pairs to one structural
/// pair, the median of the 56 distinct edits lies a third of the way into
/// the 1400-node document's relabels, and the 90th percentile among the
/// small documents' structural edits.
const STRUCTURAL_PAIRS: usize = 1;

/// The stationary edit script of `doc`.  Each pair of edits leaves the
/// document exactly as it found it, so node ids are always drawn against
/// the original tree.  The script depends only on the document.
fn edit_script(doc: &Doc) -> Vec<String> {
    let rng = &mut StdRng::seed_from_u64(DOCUMENT_SEED ^ crate::check::fnv(doc.name.as_bytes()));
    let tree = &doc.tree;
    let n = tree.len() as u32;
    let name = &doc.name;
    let mut out = Vec::with_capacity(SCRIPT_LEN);
    let pick = |rng: &mut StdRng| doc.alphabet[rng.gen_range(0..doc.alphabet.len())].clone();
    for _ in 0..RELABEL_PAIRS {
        let node = NodeId(rng.gen_range(1..n));
        let original = tree.label_str(node).to_string();
        let mut label = pick(rng);
        while label == original && doc.alphabet.len() > 1 {
            label = pick(rng);
        }
        out.push(format!(
            "MUTATE {name} RELABEL {} {label}",
            tree.preorder(node)
        ));
        out.push(format!(
            "MUTATE {name} RELABEL {} {original}",
            tree.preorder(node)
        ));
    }
    for _ in 0..STRUCTURAL_PAIRS {
        let parent = NodeId(rng.gen_range(0..n));
        let index = rng.gen_range(0..=tree.children(parent).count());
        let size = rng.gen_range(1..5usize);
        let mut terms = pick(rng);
        if size > 1 {
            let kids: Vec<String> = (1..size).map(|_| pick(rng)).collect();
            terms = format!("{terms}({})", kids.join(","));
        }
        let subtree = Tree::from_terms(&terms).expect("generated term syntax is valid");
        let (edited, _) = tree
            .insert_subtree(parent, index, &subtree)
            .expect("insert position is drawn from the tree");
        let inserted = edited
            .children(parent)
            .nth(index)
            .expect("the inserted subtree is the index-th child");
        out.push(format!(
            "MUTATE {name} INSERT {} {index} {terms}",
            tree.preorder(parent)
        ));
        out.push(format!(
            "MUTATE {name} DELETE {}",
            edited.preorder(inserted)
        ));
    }
    out
}
