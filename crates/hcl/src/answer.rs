//! The n-ary query answering algorithm for HCL⁻(L) — Fig. 8 and Prop. 11 of
//! the paper.
//!
//! Given a normalised sharing expression `(D, ∆)` (Lemma 3), a compiled
//! binary-query oracle (Prop. 10) and the output variable sequence `x`, the
//! algorithm computes
//!
//! ```text
//! q_{D_∆, x}(t) = { (α(x₁), …, α(xₙ)) | ⟦D_∆⟧^{t,α} ≠ ∅ }
//! ```
//!
//! in time `O((|D|+|∆|) · |t|² · n · |A|)` where `|A|` is the size of the
//! answer set, using
//!
//! * the `MC` table to prune unsatisfiable branches in O(1),
//! * memoisation of the intermediate valuation sets `vals(D₀, u)`, each a
//!   block of flat `u32` rows shared with a child whenever the two sets are
//!   equal, and
//! * duplicate elimination (by sorting rows) after every union and
//!   projection.
//!
//! The top level does not run `vals(D, u)` for every start node `u`.  The
//! root is split through parameters and unions into leaves, and an
//! atom-headed leaf `b/D'` is explored once per node of the image of `b`
//! (the `D'`-satisfying successors of the `b/D'`-satisfying nodes); only
//! other leaves are explored per start node.  A `descendant::…`-headed query
//! thus builds `O(|t|)` valuation sets rather than `O(|t|·depth)`.  The
//! argument is in the [`AnswerStream`] documentation.
//!
//! The algorithm is exposed in two shapes: the materialising entry points
//! (`answer_*`, returning a sorted `BTreeSet` of tuples) and the *streaming*
//! [`AnswerStream`] iterator, which explores image and start nodes lazily
//! and yields each answer tuple as soon as it is derived — a consumer that
//! stops after `k` tuples pays only for the nodes explored so far, not for
//! the full `|A|`.

use crate::lang::Hcl;
use crate::mc::McTable;
use crate::oracle::{intern_atoms, AtomId, CompiledAtoms, PplBinAtoms};
use crate::share::{EquationSystem, ShareId, ShareNode};
use std::collections::BTreeSet;
use std::fmt;
use xpath_ast::{BinExpr, Var};
use xpath_pplbin::{CapacityError, SharedMatrixStore, SuccessorSource};
use xpath_tree::{NodeId, NodeSet, Tree};

/// An answer tuple: one node per output variable, in the order of the output
/// variable sequence.
pub type Tuple = Vec<NodeId>;

/// Errors of the HCL answering pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HclError {
    /// The expression violates NVS(/) — it is in HCL(L) but not HCL⁻(L), so
    /// the polynomial algorithm does not apply.
    VariableSharing(Vec<Var>),
    /// Compiling an atom would materialise a dense matrix over the capacity
    /// budget (e.g. an eager complement at |t| = 1M, ~125 GB).
    Capacity(CapacityError),
}

impl fmt::Display for HclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HclError::VariableSharing(vars) => {
                let names: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                write!(
                    f,
                    "variable sharing in composition (NVS(/) violated) for {}",
                    names.join(", ")
                )
            }
            HclError::Capacity(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for HclError {}

impl From<CapacityError> for HclError {
    fn from(err: CapacityError) -> HclError {
        HclError::Capacity(err)
    }
}

/// Answer an `HCL⁻(PPLbin)` query on a tree.
///
/// This is the instantiation used by Theorem 1: atoms are PPLbin expressions
/// compiled with the Boolean-matrix engine (Theorem 2), and the combined
/// complexity is `O(|P|·|t|³ + n·|P|·|t|²·|A|)`.
pub fn answer_hcl_pplbin(
    tree: &Tree,
    hcl: &Hcl<BinExpr>,
    output: &[Var],
) -> Result<BTreeSet<Tuple>, HclError> {
    answer_hcl(tree, hcl, output, |t: &Tree, atoms: &[BinExpr]| {
        Ok(PplBinAtoms::compile(t, atoms))
    })
}

/// Answer an `HCL⁻(L)` query with a caller-provided atom compiler.
pub fn answer_hcl<B, F>(
    tree: &Tree,
    hcl: &Hcl<B>,
    output: &[Var],
    compile: F,
) -> Result<BTreeSet<Tuple>, HclError>
where
    B: Clone + Eq + std::hash::Hash,
    F: FnOnce(&Tree, &[B]) -> Result<CompiledAtoms, HclError>,
{
    Ok(stream_hcl(tree, hcl, output, compile)?.collect())
}

/// Build a lazy [`AnswerStream`] for an `HCL⁻(L)` query with a
/// caller-provided atom compiler.  Atom compilation (the `|t|³` part) still
/// happens up front; the Fig. 8 `vals`/`extend` exploration is deferred to
/// iteration.
pub fn stream_hcl<B, F>(
    tree: &Tree,
    hcl: &Hcl<B>,
    output: &[Var],
    compile: F,
) -> Result<AnswerStream, HclError>
where
    B: Clone + Eq + std::hash::Hash,
    F: FnOnce(&Tree, &[B]) -> Result<CompiledAtoms, HclError>,
{
    hcl.check_no_sharing().map_err(HclError::VariableSharing)?;
    let (interned, atoms) = intern_atoms(hcl);
    let compiled = compile(tree, &atoms)?;
    let eq = EquationSystem::from_hcl(&interned);
    Ok(AnswerStream::new(eq, compiled, output.to_vec()))
}

/// Build a lazy [`AnswerStream`] with cold-compiled PPLbin atoms.
pub fn stream_hcl_pplbin(
    tree: &Tree,
    hcl: &Hcl<BinExpr>,
    output: &[Var],
) -> Result<AnswerStream, HclError> {
    stream_hcl(tree, hcl, output, |t: &Tree, atoms: &[BinExpr]| {
        Ok(PplBinAtoms::compile(t, atoms))
    })
}

/// Build a lazy [`AnswerStream`] over the store's tree snapshot, with atoms
/// compiled through the [`SharedMatrixStore`]; the shard locks are released
/// before this function returns, so iteration is lock-free.
pub fn stream_hcl_pplbin_shared(
    hcl: &Hcl<BinExpr>,
    output: &[Var],
    store: &SharedMatrixStore,
) -> Result<AnswerStream, HclError> {
    stream_hcl(store.tree(), hcl, output, |t: &Tree, atoms: &[BinExpr]| {
        Ok(PplBinAtoms::try_compile_with_shared(t, atoms, store)?)
    })
}

/// A slot of a valuation row that no variable test has bound yet.
const UNBOUND: u32 = u32::MAX;

/// Handle of a block of valuation rows in a [`Blocks`] arena.  The memo
/// table stores one per `(node, start node)` pair, so it stays 4 bytes.
type BlockId = u32;
/// Memo entry of a pair whose `vals` has not been computed yet.
const UNSEEN: BlockId = 0;
/// The empty set of valuations.
const EMPTY: BlockId = 1;
/// The single all-unbound row, `vals(self, u)`.
const UNIT: BlockId = 2;

/// Arena of valuation sets.  A set is a block of `u32` rows, `width` slots
/// each (one per output position, at least one), with [`UNBOUND`] for a
/// variable not bound yet.  Blocks are immutable once sealed, so a node whose
/// `vals` equals a child's reuses the child's [`BlockId`].
#[derive(Debug)]
struct Blocks {
    width: usize,
    data: Vec<u32>,
    /// `spans[id]` — the range of block `id` in `data`.
    spans: Vec<(usize, usize)>,
    /// Rows of the block being built.
    scratch: Vec<u32>,
}

impl Blocks {
    fn new(width: usize) -> Blocks {
        Blocks {
            width,
            data: vec![UNBOUND; width],
            // UNSEEN, EMPTY, UNIT.
            spans: vec![(0, 0), (0, 0), (0, width)],
            scratch: Vec::new(),
        }
    }

    fn rows(&self, id: BlockId) -> &[u32] {
        let (start, end) = self.spans[id as usize];
        &self.data[start..end]
    }

    /// Does some row of `id` leave one of `positions` unbound?
    fn has_unbound(&self, id: BlockId, positions: &[usize]) -> bool {
        self.rows(id)
            .chunks_exact(self.width)
            .any(|row| positions.iter().any(|&p| row[p] == UNBOUND))
    }

    /// Seal `data[start..]` as a block; the empty and the all-unbound
    /// single-row blocks map to [`EMPTY`] and [`UNIT`].
    fn seal_tail(&mut self, start: usize) -> BlockId {
        let end = self.data.len();
        if end == start {
            return EMPTY;
        }
        if end - start == self.width && self.data[start..].iter().all(|&s| s == UNBOUND) {
            self.data.truncate(start);
            return UNIT;
        }
        self.spans.push((start, end));
        (self.spans.len() - 1) as BlockId
    }

    /// Seal the scratch rows as a block, sorted and without duplicates.
    fn seal_scratch(&mut self) -> BlockId {
        let width = self.width;
        let mut scratch = std::mem::take(&mut self.scratch);
        let start = self.data.len();
        if width == 1 {
            scratch.sort_unstable();
            scratch.dedup();
            self.data.extend_from_slice(&scratch);
        } else {
            let mut rows: Vec<&[u32]> = scratch.chunks_exact(width).collect();
            rows.sort_unstable();
            rows.dedup();
            for row in rows {
                self.data.extend_from_slice(row);
            }
        }
        scratch.clear();
        self.scratch = scratch;
        self.seal_tail(start)
    }

    /// Append the rows of `id` to the scratch block.
    fn append(&mut self, id: BlockId) {
        let (start, end) = self.spans[id as usize];
        self.scratch.extend_from_slice(&self.data[start..end]);
    }

    /// Append the rows of `id`, extended to every one of `positions`, to the
    /// scratch block.
    fn append_padded(&mut self, id: BlockId, positions: &[usize], domain: usize) {
        let (start, end) = self.spans[id as usize];
        for row in self.data[start..end].chunks_exact(self.width) {
            extend_row(row, positions.iter().copied(), domain, |full| {
                self.scratch.extend_from_slice(full)
            });
        }
    }

    /// `x/D` at `u`: the rows of `id` with slot `pos` bound to `u`.  NVS(/)
    /// keeps `x` unbound in the tail, so the rows stay distinct.
    fn bind(&mut self, id: BlockId, pos: usize, u: NodeId) -> BlockId {
        let (start, end) = self.spans[id as usize];
        let tail = self.data.len();
        self.data.extend_from_within(start..end);
        for row in self.data[tail..].chunks_exact_mut(self.width) {
            debug_assert_eq!(
                row[pos], UNBOUND,
                "NVS(/) keeps output variables unbound in the tail"
            );
            row[pos] = u.0;
        }
        self.seal_tail(tail)
    }

    /// `[D']/D''` at `u`: every compatible merge `α'·α''` of a row of `left`
    /// with a row of `right` (rows that disagree on a slot cannot occur under
    /// NVS(/), but are dropped to keep the algorithm safe on any input).
    fn product(&mut self, left: BlockId, right: BlockId) -> BlockId {
        let width = self.width;
        let (ls, le) = self.spans[left as usize];
        let (rs, re) = self.spans[right as usize];
        for a in self.data[ls..le].chunks_exact(width) {
            'rows: for b in self.data[rs..re].chunks_exact(width) {
                let base = self.scratch.len();
                for (&x, &y) in a.iter().zip(b) {
                    let slot = match (x, y) {
                        (x, UNBOUND) => x,
                        (UNBOUND, y) => y,
                        (x, y) if x == y => x,
                        _ => {
                            self.scratch.truncate(base);
                            continue 'rows;
                        }
                    };
                    self.scratch.push(slot);
                }
            }
        }
        self.seal_scratch()
    }
}

/// `extend_{t,X}` on one row: every way of binding the unbound slots among
/// `positions` to one of the `domain` nodes, passed to `emit` in
/// lexicographic order.  A row with no such slot is passed as is.
fn extend_row(
    row: &[u32],
    positions: impl Iterator<Item = usize>,
    domain: usize,
    mut emit: impl FnMut(&[u32]),
) {
    let free: Vec<usize> = positions.filter(|&p| row[p] == UNBOUND).collect();
    if free.is_empty() {
        emit(row);
        return;
    }
    if domain == 0 {
        return;
    }
    let mut full = row.to_vec();
    for &p in &free {
        full[p] = 0;
    }
    'odometer: loop {
        emit(&full);
        for &p in free.iter().rev() {
            full[p] += 1;
            if (full[p] as usize) < domain {
                continue 'odometer;
            }
            full[p] = 0;
        }
        return;
    }
}

/// A set of `u32` rows of one width, kept flat in insertion order: an
/// open-addressing table of row indices, hashed by a multiplicative hash of
/// the row's slots.  Inserting a row copies its slots once; nothing is
/// boxed per row.
#[derive(Debug)]
struct RowSet {
    width: usize,
    /// The rows, `width` slots each, in insertion order.
    rows: Vec<u32>,
    /// Per slot of the table, the index of a row plus one (0: empty).  A
    /// power of two long and at most half full; allocated by the first
    /// insert (most streams never hold a partial row).
    table: Vec<u32>,
}

impl RowSet {
    fn new(width: usize) -> RowSet {
        debug_assert!(width > 0);
        RowSet {
            width,
            rows: Vec::new(),
            table: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// The table slot at which to start probing for `row`: the top bits of
    /// a multiplicative hash.
    fn home(&self, row: &[u32]) -> usize {
        let mut h = 0u64;
        for &x in row {
            h = (h.rotate_left(5) ^ u64::from(x)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        (h >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// Insert `row`; false if it was already in the set.
    fn insert(&mut self, row: &[u32]) -> bool {
        debug_assert_eq!(row.len(), self.width);
        if 2 * (self.len() + 1) > self.table.len() {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut at = self.home(row);
        loop {
            match self.table[at] {
                0 => break,
                k if self.row(k as usize - 1) == row => return false,
                _ => at = (at + 1) & mask,
            }
        }
        self.rows.extend_from_slice(row);
        self.table[at] = self.len() as u32;
        true
    }

    /// Double the table (16 slots at first) and re-place every row.
    fn grow(&mut self) {
        self.table = vec![0; (2 * self.table.len()).max(16)];
        let mask = self.table.len() - 1;
        for i in 0..self.len() {
            let mut at = self.home(self.row(i));
            while self.table[at] != 0 {
                at = (at + 1) & mask;
            }
            self.table[at] = i as u32 + 1;
        }
    }
}

/// The distinct total rows a stream has found, in discovery order: the
/// tuples yielded so far followed by the tuples pending.
#[derive(Debug)]
enum Found {
    /// Arity 0: whether the empty tuple was found.
    Empty(bool),
    /// Arity 1: the nodes found, as a set and in discovery order.
    Nodes(NodeSet, Vec<u32>),
    /// Arity 2 and above.
    Rows(RowSet),
}

impl Found {
    fn new(arity: usize, domain: usize) -> Found {
        match arity {
            0 => Found::Empty(false),
            1 => Found::Nodes(NodeSet::empty(domain), Vec::new()),
            n => Found::Rows(RowSet::new(n)),
        }
    }

    fn len(&self) -> usize {
        match self {
            Found::Empty(found) => usize::from(*found),
            Found::Nodes(_, order) => order.len(),
            Found::Rows(rows) => rows.len(),
        }
    }

    /// Add the total row `row` unless it was found before.
    fn insert(&mut self, row: &[u32]) {
        match self {
            Found::Empty(found) => *found = true,
            Found::Nodes(set, order) => {
                if set.insert(NodeId(row[0])) {
                    order.push(row[0]);
                }
            }
            Found::Rows(rows) => {
                rows.insert(row);
            }
        }
    }

    /// The `i`-th tuple found.
    fn tuple(&self, i: usize) -> Tuple {
        match self {
            Found::Empty(_) => Vec::new(),
            Found::Nodes(_, order) => vec![NodeId(order[i])],
            Found::Rows(rows) => rows.row(i).iter().map(|&v| NodeId(v)).collect(),
        }
    }
}

/// One sharing node with its output positions resolved by
/// [`AnswerStream::new`].
#[derive(Debug, Clone, Copy)]
enum Op {
    SelfEnd,
    Param(ShareId),
    Atom(AtomId, ShareId),
    /// `x/D` with the output position of `x` (`None`: not an output).
    Var(Option<usize>, ShareId),
    Filter(ShareId, ShareId),
    /// `D ∪ D'`; its padding positions are in `AnswerStream::padding`.
    Union(ShareId, ShareId),
}

/// A top-level leaf of the root: a node reached from it through parameters
/// and unions only.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    /// `b/D'`, explored at the image nodes of `b`.
    Image {
        node: ShareId,
        atom: AtomId,
        rest: ShareId,
    },
    /// Any other node, explored at every start node where `MC` holds.
    Start(ShareId),
}

/// Break the root into its top-level leaves, left to right, each once.
fn top_level_leaves(eq: &EquationSystem) -> Vec<Leaf> {
    let mut leaves = Vec::new();
    let mut visited = vec![false; eq.len()];
    let mut stack = vec![eq.root()];
    while let Some(d) = stack.pop() {
        if std::mem::replace(&mut visited[d.index()], true) {
            continue;
        }
        match *eq.node(d) {
            ShareNode::Param(body) => stack.push(body),
            ShareNode::Union(left, right) => {
                stack.push(right);
                stack.push(left);
            }
            ShareNode::StepAtom(atom, rest) => leaves.push(Leaf::Image {
                node: d,
                atom,
                rest,
            }),
            _ => leaves.push(Leaf::Start(d)),
        }
    }
    leaves
}

/// A lazy answer iterator over the Fig. 8 algorithm.
///
/// The stream owns the compiled atom oracle and the `MC` table, and computes
/// `vals(D₀, u)` on demand, memoised per `(D₀, u)`.  A set of partial
/// valuations is a block of flat `u32` rows (one slot per output variable),
/// deduplicated by sorting; a node whose set equals a child's — a parameter,
/// a non-output variable test, an atom step with one contributing
/// successor, a filter whose other side is `{∅}` — shares the child's block.
///
/// **Exploration order.**  The answer set is `extend(⋃_u vals(D, u))`.  The
/// root `D` is split through parameters and unions into top-level leaves,
/// and `⋃_u vals(D, u)` is the union of the leaves' `⋃_u vals(leaf, u)`.
/// Union padding is skipped at this level: the final extension to every
/// output position already lets an unmentioned variable range freely.  A
/// leaf `b/D'` satisfies
///
/// ```text
/// ⋃_u vals(b/D', u) = ⋃_{v ∈ img} vals(D', v),
/// img = { v | (u, v) ∈ q_b(t), MC(b/D', u), MC(D', v) }
/// ```
///
/// so it is explored once per image node `v` instead of once per start
/// node: a `descendant::…`-headed query builds `O(|t|)` sets, not
/// `O(|t|·depth)`.  Any other leaf is explored at the start nodes where `MC`
/// holds.  Each explored set's rows are extended to total valuations and
/// yielded at once, deduplicated against everything found before.
/// Consuming only a prefix therefore skips the unexplored image and start
/// nodes, and the memo table guarantees that a full drain does no more
/// work than the materialising algorithm.
///
/// **Deduplication.**  The stream never yields a tuple twice, and checks a
/// row without allocating for it:
///
/// * a total row (every output slot bound) is looked up in the set of
///   tuples found so far: a flag for arity 0, a [`NodeSet`] for arity 1,
///   and for wider rows a hash set of flat `u32` rows (one arena, an
///   open-addressing table of row indices, a multiplicative hash);
/// * a partial row (an output slot unbound) goes into a row set of its own
///   first, so each one is extended to every way of binding its free slots
///   only once;
/// * found tuples stay flat rows in discovery order; `next` builds the one
///   `Vec<NodeId>` it returns, so a consumer that stops after `k` tuples
///   allocates `k` of them.
///
/// Tuples are yielded in *discovery* order (by leaf, then image or start
/// node, then row order), not in the lexicographic order of `AnswerSet`;
/// collect and sort when a canonical order is needed.
///
/// [`AnswerStream::new`] computes only the `MC` table; all of the above
/// happens during iteration.
///
/// The stream is self-contained (`Send`): atom lists are shared via `Arc`,
/// so streams for several queries can be drained on worker threads while
/// the session that created them keeps serving.
#[derive(Debug)]
pub struct AnswerStream {
    atoms: CompiledAtoms,
    mc: McTable,
    output: Vec<Var>,
    domain: usize,
    ops: Vec<Op>,
    /// `padding[d]` — output positions of the variables of union `d`.
    padding: Vec<Vec<usize>>,
    /// `memo[d·domain + u]` — the block of `vals(d, u)`, or [`UNSEEN`].
    memo: Vec<BlockId>,
    blocks: Blocks,
    leaves: Vec<Leaf>,
    /// Index of the leaf being explored.
    leaf: usize,
    /// Next start node of the current leaf.
    cursor: usize,
    /// Image nodes found but not explored yet, last one first.
    frontier: Vec<NodeId>,
    /// The tail `D'` whose image nodes `queued` records.
    image_rest: Option<ShareId>,
    /// Image nodes already queued for `image_rest`.
    queued: NodeSet,
    /// Image nodes of the current leaf not queued yet; at zero the row
    /// scan stops.
    image_left: usize,
    /// Partial rows (an output slot unbound) already extended.
    extended: RowSet,
    /// Every distinct tuple found so far, in discovery order.
    found: Found,
    /// How many of `found` have been yielded.
    yielded: usize,
}

impl AnswerStream {
    /// Build a stream from pre-normalised and pre-compiled pieces.  The
    /// NVS(/) check is the caller's responsibility: the algorithm is only
    /// correct on HCL⁻(L).
    pub fn new(eq: EquationSystem, atoms: CompiledAtoms, output: Vec<Var>) -> AnswerStream {
        let mc = McTable::compute(&eq, &atoms);
        let domain = atoms.domain();
        let position = |x: &Var| output.iter().position(|v| v == x);
        let ops = eq
            .iter()
            .map(|(_, node)| match node {
                ShareNode::SelfEnd => Op::SelfEnd,
                ShareNode::Param(body) => Op::Param(*body),
                ShareNode::StepAtom(atom, rest) => Op::Atom(*atom, *rest),
                ShareNode::StepVar(x, rest) => Op::Var(position(x), *rest),
                ShareNode::StepFilter(body, rest) => Op::Filter(*body, *rest),
                ShareNode::Union(left, right) => Op::Union(*left, *right),
            })
            .collect();
        let padding = eq
            .iter()
            .map(|(id, node)| match node {
                ShareNode::Union(..) => eq.vars(id).iter().filter_map(position).collect(),
                _ => Vec::new(),
            })
            .collect();
        AnswerStream {
            memo: vec![UNSEEN; eq.len() * domain],
            blocks: Blocks::new(output.len().max(1)),
            leaves: top_level_leaves(&eq),
            leaf: 0,
            cursor: 0,
            frontier: Vec::new(),
            image_rest: None,
            queued: NodeSet::empty(domain),
            image_left: 0,
            extended: RowSet::new(output.len().max(1)),
            found: Found::new(output.len(), domain),
            yielded: 0,
            atoms,
            mc,
            output,
            domain,
            ops,
            padding,
        }
    }

    /// The output variables, in tuple order.
    pub fn variables(&self) -> &[Var] {
        &self.output
    }

    fn vals(&mut self, d: ShareId, u: NodeId) -> BlockId {
        let slot = d.index() * self.domain + u.index();
        if self.memo[slot] == UNSEEN {
            self.memo[slot] = self.compute_vals(d, u);
        }
        self.memo[slot]
    }

    fn compute_vals(&mut self, d: ShareId, u: NodeId) -> BlockId {
        if !self.mc.holds(d, u) {
            return EMPTY;
        }
        match self.ops[d.index()] {
            Op::SelfEnd => UNIT,
            Op::Param(body) | Op::Var(None, body) => self.vals(body, u),
            Op::Var(Some(pos), rest) => match self.vals(rest, u) {
                EMPTY => EMPTY,
                tail => self.blocks.bind(tail, pos, u),
            },
            Op::Atom(atom, rest) => {
                // Clone the source handle (one refcount bump, no node
                // copies): `vals` below re-borrows `self` mutably.  Lazy
                // sources materialise (and memoise) exactly the rows the
                // exploration visits.
                let source = self.atoms.source(atom).clone();
                let (mut single, mut several) = (EMPTY, false);
                source.with_row(u, |row| {
                    for &v in row {
                        if self.mc.holds(rest, v) {
                            match self.vals(rest, v) {
                                EMPTY => {}
                                b if single == EMPTY || single == b => single = b,
                                _ => several = true,
                            }
                        }
                    }
                });
                if !several {
                    return single;
                }
                let domain = self.domain;
                source.with_row(u, |row| {
                    for &v in row {
                        if self.mc.holds(rest, v) {
                            self.blocks
                                .append(self.memo[rest.index() * domain + v.index()]);
                        }
                    }
                });
                self.blocks.seal_scratch()
            }
            Op::Filter(body, rest) => {
                let left = self.vals(body, u);
                let right = self.vals(rest, u);
                match (left, right) {
                    (EMPTY, _) | (_, EMPTY) => EMPTY,
                    (UNIT, other) | (other, UNIT) => other,
                    _ => self.blocks.product(left, right),
                }
            }
            Op::Union(left, right) => {
                // Pad both branches to the variables of the whole union
                // (intersected with the output variables), so that a branch
                // that does not mention a variable lets it range freely.
                let lv = self.vals(left, u);
                let rv = self.vals(right, u);
                let pad = &self.padding[d.index()];
                if !self.blocks.has_unbound(lv, pad) && !self.blocks.has_unbound(rv, pad) {
                    if lv == EMPTY || lv == rv {
                        return rv;
                    }
                    if rv == EMPTY {
                        return lv;
                    }
                }
                self.blocks.append_padded(lv, pad, self.domain);
                self.blocks.append_padded(rv, pad, self.domain);
                self.blocks.seal_scratch()
            }
        }
    }

    /// Start the image of leaf `node = atom/rest`: the number of its image
    /// nodes not queued yet.  A view gives the image in one axis pass, so
    /// the row scan stops at the last row that adds to it (on a chain, the
    /// first `descendant` row holds the whole image); compiled rows are
    /// bounded by `MC(rest)`.
    fn image_size(&mut self, node: ShareId, atom: AtomId, rest: ShareId) -> usize {
        if self.image_rest != Some(rest) {
            self.image_rest = Some(rest);
            self.queued.clear();
        }
        let (sources, rest_set) = (self.mc.satisfying(node), self.mc.satisfying(rest));
        let mut image = match self.atoms.source(atom) {
            SuccessorSource::Step(view) => view.image(sources),
            SuccessorSource::Filtered(view) => view.image(sources),
            SuccessorSource::Eager(_) | SuccessorSource::Lazy(_) => rest_set.clone(),
        };
        image.intersect_with(rest_set);
        image.difference_with(&self.queued);
        image.len()
    }

    /// The next `(node, start)` pair of the top-level exploration.
    fn next_start(&mut self) -> Option<(ShareId, NodeId)> {
        while let Some(&leaf) = self.leaves.get(self.leaf) {
            match leaf {
                Leaf::Start(d) => {
                    while self.cursor < self.domain {
                        let u = NodeId(self.cursor as u32);
                        self.cursor += 1;
                        if self.mc.holds(d, u) {
                            return Some((d, u));
                        }
                    }
                }
                Leaf::Image { node, atom, rest } => {
                    if self.cursor == 0 {
                        self.image_left = self.image_size(node, atom, rest);
                    }
                    loop {
                        if let Some(v) = self.frontier.pop() {
                            return Some((rest, v));
                        }
                        if self.image_left == 0 || self.cursor >= self.domain {
                            break;
                        }
                        let u = NodeId(self.cursor as u32);
                        self.cursor += 1;
                        if !self.mc.holds(node, u) {
                            continue;
                        }
                        let (mc, queued, frontier) =
                            (&self.mc, &mut self.queued, &mut self.frontier);
                        self.atoms.source(atom).with_row(u, |row| {
                            for &v in row.iter().rev() {
                                if mc.holds(rest, v) && queued.insert(v) {
                                    frontier.push(v);
                                }
                            }
                        });
                        self.image_left -= self.frontier.len();
                    }
                }
            }
            self.leaf += 1;
            self.cursor = 0;
        }
        None
    }

    /// Extend every new row of `block` to total valuations and add the
    /// tuples not found before.
    fn emit(&mut self, block: BlockId) {
        let n = self.output.len();
        let (extended, found) = (&mut self.extended, &mut self.found);
        for row in self.blocks.rows(block).chunks_exact(self.blocks.width) {
            let row = &row[..n];
            if !row.contains(&UNBOUND) {
                found.insert(row);
            } else if extended.insert(row) {
                extend_row(row, 0..n, self.domain, |full| found.insert(full));
            }
        }
    }
}

impl Iterator for AnswerStream {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            if self.yielded < self.found.len() {
                self.yielded += 1;
                return Some(self.found.tuple(self.yielded - 1));
            }
            let (d, u) = self.next_start()?;
            let block = self.vals(d, u);
            self.emit(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;

    fn bin(src: &str) -> BinExpr {
        from_variable_free_path(&parse_path(src).unwrap()).unwrap()
    }

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    fn bib() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title))").unwrap()
    }

    #[test]
    fn author_title_pairs_per_book() {
        let tree = bib();
        // descendant::book / [child::author/x] / child::title / y
        let hcl = Hcl::Atom(bin("descendant::book"))
            .then(Hcl::Filter(Box::new(
                Hcl::Atom(bin("child::author")).then(Hcl::Var(v("x"))),
            )))
            .then(Hcl::Atom(bin("child::title")))
            .then(Hcl::Var(v("y")));
        let ans = answer_hcl_pplbin(&tree, &hcl, &[v("x"), v("y")]).unwrap();
        assert_eq!(ans.len(), 3);
        for tuple in &ans {
            assert_eq!(tree.label_str(tuple[0]), "author");
            assert_eq!(tree.label_str(tuple[1]), "title");
            assert_eq!(tree.parent(tuple[0]), tree.parent(tuple[1]));
        }
    }

    #[test]
    fn single_variable_query() {
        let tree = bib();
        let hcl = Hcl::Atom(bin("descendant::author")).then(Hcl::Var(v("a")));
        let ans = answer_hcl_pplbin(&tree, &hcl, &[v("a")]).unwrap();
        assert_eq!(ans.len(), 3);
        assert!(ans.iter().all(|t| tree.label_str(t[0]) == "author"));
    }

    #[test]
    fn output_variable_not_in_query_ranges_over_all_nodes() {
        let tree = Tree::from_terms("a(b,c)").unwrap();
        let hcl: Hcl<BinExpr> = Hcl::Atom(bin("child::b"));
        let ans = answer_hcl_pplbin(&tree, &hcl, &[v("free")]).unwrap();
        assert_eq!(ans.len(), tree.len());
        // Unsatisfiable query: empty answer despite the free variable.
        let none: Hcl<BinExpr> = Hcl::Atom(bin("child::zzz"));
        assert!(answer_hcl_pplbin(&tree, &none, &[v("free")])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn union_lets_unmentioned_variables_range_freely() {
        let tree = Tree::from_terms("a(b,c)").unwrap();
        let hcl: Hcl<BinExpr> = Hcl::Var(v("x")).or(Hcl::Var(v("y")));
        let ans = answer_hcl_pplbin(&tree, &hcl, &[v("x"), v("y")]).unwrap();
        // (x ∪ y) is satisfiable under every assignment, so all |t|² tuples.
        assert_eq!(ans.len(), tree.len() * tree.len());
    }

    #[test]
    fn filter_joins_variables_on_the_same_start_node() {
        let tree = bib();
        // book nodes u with an author child x and a title child y — the
        // filter case merges the two partial valuations at u.
        let hcl = Hcl::Atom(bin("descendant::book"))
            .then(Hcl::Filter(Box::new(
                Hcl::Atom(bin("child::author")).then(Hcl::Var(v("x"))),
            )))
            .then(Hcl::Filter(Box::new(
                Hcl::Atom(bin("child::title")).then(Hcl::Var(v("y"))),
            )));
        let ans = answer_hcl_pplbin(&tree, &hcl, &[v("x"), v("y")]).unwrap();
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn zero_ary_queries_report_satisfiability() {
        let tree = bib();
        let sat: Hcl<BinExpr> = Hcl::Atom(bin("descendant::title"));
        let ans = answer_hcl_pplbin(&tree, &sat, &[]).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Vec::new()));
        let unsat: Hcl<BinExpr> = Hcl::Atom(bin("descendant::publisher"));
        assert!(answer_hcl_pplbin(&tree, &unsat, &[]).unwrap().is_empty());
    }

    #[test]
    fn variable_sharing_is_rejected() {
        let tree = bib();
        let hcl = Hcl::Var(v("x"))
            .then(Hcl::Atom(bin("child::*")))
            .then(Hcl::Var(v("x")));
        let err = answer_hcl_pplbin(&tree, &hcl, &[v("x")]).unwrap_err();
        assert!(matches!(err, HclError::VariableSharing(_)));
        assert!(err.to_string().contains("$x"));
    }

    #[test]
    fn answers_agree_with_naive_enumeration_on_small_documents() {
        // Differential test against the specification evaluator via the
        // HCL → PPL translation direction exercised in translate.rs; here we
        // hand-build the equivalent PPL query.
        use xpath_naive::answer_nary;
        let tree = Tree::from_terms("r(s(a,b),s(b),a)").unwrap();
        // HCL: descendant::s / [child::a/x] / child::b / y
        let hcl = Hcl::Atom(bin("descendant::s"))
            .then(Hcl::Filter(Box::new(
                Hcl::Atom(bin("child::a")).then(Hcl::Var(v("x"))),
            )))
            .then(Hcl::Atom(bin("child::b")))
            .then(Hcl::Var(v("y")));
        let got = answer_hcl_pplbin(&tree, &hcl, &[v("x"), v("y")]).unwrap();
        // PPL equivalent: descendant::s[child::a[. is $x]]/child::b[. is $y]
        let ppl = parse_path("descendant::s[child::a[. is $x]]/child::b[. is $y]").unwrap();
        let expected = answer_nary(&tree, &ppl, &[v("x"), v("y")]).unwrap();
        let expected_tuples: BTreeSet<Tuple> = expected.into_iter().collect();
        assert_eq!(got, expected_tuples);
    }

    #[test]
    fn memoisation_handles_shared_tails() {
        let tree = bib();
        // (child::book ∪ descendant::book)/child::title/y — the tail is
        // shared via a parameter; answers must still be the two titles.
        let hcl = Hcl::Atom(bin("child::book"))
            .or(Hcl::Atom(bin("descendant::book")))
            .then(Hcl::Atom(bin("child::title")))
            .then(Hcl::Var(v("y")));
        let ans = answer_hcl_pplbin(&tree, &hcl, &[v("y")]).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.iter().all(|t| tree.label_str(t[0]) == "title"));
    }

    #[test]
    fn streaming_yields_exactly_the_materialised_answers() {
        let tree = bib();
        let hcl = Hcl::Atom(bin("descendant::book"))
            .then(Hcl::Filter(Box::new(
                Hcl::Atom(bin("child::author")).then(Hcl::Var(v("x"))),
            )))
            .then(Hcl::Atom(bin("child::title")))
            .then(Hcl::Var(v("y")));
        let output = [v("x"), v("y")];
        let expected = answer_hcl_pplbin(&tree, &hcl, &output).unwrap();
        let stream = stream_hcl_pplbin(&tree, &hcl, &output).unwrap();
        assert_eq!(stream.variables(), &output);
        let streamed: Vec<Tuple> = stream.collect();
        assert_eq!(
            streamed.len(),
            expected.len(),
            "no duplicates in the stream"
        );
        let as_set: BTreeSet<Tuple> = streamed.into_iter().collect();
        assert_eq!(as_set, expected);
        // A truncated stream yields a subset.
        let prefix: BTreeSet<Tuple> = stream_hcl_pplbin(&tree, &hcl, &output)
            .unwrap()
            .take(2)
            .collect();
        assert_eq!(prefix.len(), 2);
        assert!(prefix.is_subset(&expected));
    }

    #[test]
    fn streaming_handles_boolean_and_free_variable_queries() {
        let tree = Tree::from_terms("a(b,c)").unwrap();
        let sat: Hcl<BinExpr> = Hcl::Atom(bin("child::b"));
        // 0-ary satisfiable: exactly one empty tuple, once.
        let tuples: Vec<Tuple> = stream_hcl_pplbin(&tree, &sat, &[]).unwrap().collect();
        assert_eq!(tuples, vec![Vec::new()]);
        let unsat: Hcl<BinExpr> = Hcl::Atom(bin("child::zzz"));
        assert_eq!(stream_hcl_pplbin(&tree, &unsat, &[]).unwrap().count(), 0);
        // A free output variable ranges over all nodes, lazily.
        let mut stream = stream_hcl_pplbin(&tree, &sat, &[v("free")]).unwrap();
        assert!(stream.next().is_some());
        assert_eq!(stream.count() + 1, tree.len());
    }

    #[test]
    fn shared_store_answering_matches_cold_and_hits_the_cache() {
        let tree = bib();
        // `descendant::book[child::title]` compiles into the store; the
        // plain `child::author` step is a view and never touches it.
        let hcl = Hcl::Atom(bin("descendant::book[child::title]"))
            .then(Hcl::Filter(Box::new(
                Hcl::Atom(bin("child::author")).then(Hcl::Var(v("x"))),
            )))
            .then(Hcl::Var(v("y")));
        let output = [v("x"), v("y")];
        let cold = answer_hcl_pplbin(&tree, &hcl, &output).unwrap();
        let store = SharedMatrixStore::new(std::sync::Arc::new(tree.clone()));
        let shared = || -> BTreeSet<Tuple> {
            stream_hcl_pplbin_shared(&hcl, &output, &store)
                .unwrap()
                .collect()
        };
        assert_eq!(shared(), cold);
        let misses = store.stats().misses;
        assert!(misses > 0, "the composite atom compiled");
        assert_eq!(shared(), cold);
        assert_eq!(store.stats().misses, misses, "second run must be pure hits");
    }

    /// Answer the PPL query `src` through Fig. 7 and the stream, over cold
    /// atoms and over a lazy-kernel store, and check both against the naive
    /// evaluator: a full drain without duplicates, and `take(k)` prefixes
    /// that are subsets.  Returns the top-level leaves of the query.
    fn check_against_naive(terms: &str, src: &str, output: &[Var]) -> Vec<Leaf> {
        let hcl = crate::translate::ppl_to_hcl(&parse_path(src).unwrap()).unwrap();
        check_hcl_against_naive(terms, &hcl, output)
    }

    /// [`check_against_naive`] for an HCL expression, with the naive
    /// evaluator run on its PPL image (Prop. 5).
    fn check_hcl_against_naive(terms: &str, hcl: &Hcl<BinExpr>, output: &[Var]) -> Vec<Leaf> {
        use xpath_pplbin::KernelMode;
        let tree = Tree::from_terms(terms).unwrap();
        let ppl = crate::translate::hcl_to_ppl(hcl);
        let src = ppl.to_string();
        let expected: BTreeSet<Tuple> = xpath_naive::answer_nary(&tree, &ppl, output)
            .unwrap()
            .into_iter()
            .collect();
        let lazy = SharedMatrixStore::new(std::sync::Arc::new(tree.clone()));
        lazy.set_mode(KernelMode::Lazy);
        for stream in [
            stream_hcl_pplbin(&tree, hcl, output).unwrap(),
            stream_hcl_pplbin_shared(hcl, output, &lazy).unwrap(),
        ] {
            let drained: Vec<Tuple> = stream.collect();
            let set: BTreeSet<Tuple> = drained.iter().cloned().collect();
            assert_eq!(set.len(), drained.len(), "duplicates for {src}");
            assert_eq!(set, expected, "answers for {src}");
        }
        for k in [1, 2, expected.len() / 2 + 1] {
            let prefix: BTreeSet<Tuple> = stream_hcl_pplbin_shared(hcl, output, &lazy)
                .unwrap()
                .take(k)
                .collect();
            assert_eq!(prefix.len(), expected.len().min(k), "take({k}) for {src}");
            assert!(prefix.is_subset(&expected), "take({k}) for {src}");
        }
        let (interned, _) = intern_atoms(hcl);
        top_level_leaves(&EquationSystem::from_hcl(&interned))
    }

    const DEEP: &str = "r(a(b(c,a(b(c))),c),b(a(c),c),a(b))";

    #[test]
    fn root_union_branches_bind_different_variables() {
        let leaves = check_against_naive(
            DEEP,
            "descendant::a[. is $x] union descendant::c[. is $y]",
            &[v("x"), v("y")],
        );
        assert_eq!(leaves.len(), 2);
        assert!(leaves.iter().all(|l| matches!(l, Leaf::Image { .. })));
        // A branch that leaves `x` free under a shared tail.
        check_against_naive(
            DEEP,
            "(child::a[. is $x] union descendant::b)/child::c[. is $y]",
            &[v("x"), v("y")],
        );
        // Overlapping images under different tails.
        check_against_naive(
            DEEP,
            "descendant::c[. is $x] union descendant::*[. is $y]",
            &[v("x"), v("y")],
        );
    }

    #[test]
    fn root_filter_is_explored_per_start_node() {
        // [child::b/x]/descendant::c/y — Fig. 7 never puts a filter at the
        // head, so the expression is built directly.
        let hcl = Hcl::Filter(Box::new(Hcl::Atom(bin("child::b")).then(Hcl::Var(v("x")))))
            .then(Hcl::Atom(bin("descendant::c")))
            .then(Hcl::Var(v("y")));
        let leaves = check_hcl_against_naive(DEEP, &hcl, &[v("x"), v("y")]);
        assert!(matches!(leaves[..], [Leaf::Start(_)]));
    }

    #[test]
    fn parameter_shared_by_both_union_branches() {
        // (child::a ∪ descendant::b)/child::c/y — built directly, since
        // Fig. 7 would collapse the variable-free union into one atom.
        let hcl = Hcl::Atom(bin("child::a"))
            .or(Hcl::Atom(bin("descendant::b")))
            .then(Hcl::Atom(bin("child::c")))
            .then(Hcl::Var(v("y")));
        let leaves = check_hcl_against_naive(DEEP, &hcl, &[v("y")]);
        let rests: Vec<ShareId> = leaves
            .iter()
            .map(|l| match l {
                Leaf::Image { rest, .. } => *rest,
                Leaf::Start(_) => panic!("atom-headed branches explore images"),
            })
            .collect();
        assert_eq!(rests.len(), 2);
        assert_eq!(
            rests[0], rests[1],
            "both branches end in the shared parameter"
        );
    }

    #[test]
    fn atom_headed_leaf_with_an_empty_image() {
        check_against_naive(
            DEEP,
            "child::zzz[. is $x] union descendant::b[. is $y]",
            &[v("x"), v("y")],
        );
        check_against_naive(DEEP, "descendant::zzz[. is $x]", &[v("x")]);
    }

    #[test]
    fn zero_ary_atom_headed_root() {
        let leaves = check_against_naive(DEEP, "descendant::a/child::b/child::c", &[]);
        assert!(matches!(leaves[..], [Leaf::Image { .. }]));
        check_against_naive(DEEP, "descendant::c/child::a", &[]);
    }

    #[test]
    fn output_variable_absent_from_the_query() {
        check_against_naive(DEEP, "descendant::b[. is $x]", &[v("x"), v("free")]);
        check_against_naive(
            DEEP,
            "descendant::a[. is $x] union child::b",
            &[v("x"), v("free")],
        );
    }

    #[test]
    fn streams_of_every_arity_match_naive_without_duplicates() {
        // Arity 0 (a flag), 1 (a node set), 2 and 3 (the row table); each
        // query derives some tuples from several image or start nodes.
        check_against_naive(DEEP, "descendant::*/child::c", &[]);
        check_against_naive(DEEP, "descendant::*[child::c[. is $x]]", &[v("x")]);
        check_against_naive(
            DEEP,
            "descendant::a[. is $x]/descendant::*/child::c[. is $y]",
            &[v("x"), v("y")],
        );
        check_against_naive(
            DEEP,
            "descendant::*[. is $x]/child::*[. is $y]/descendant-or-self::*[. is $z]",
            &[v("x"), v("y"), v("z")],
        );
        check_against_naive(
            DEEP,
            "descendant::*[child::*[. is $x] and descendant::c[. is $y]]/child::b[. is $z]",
            &[v("z"), v("x"), v("y")],
        );
    }

    #[test]
    fn a_union_leaving_an_output_variable_unbound_extends_each_row_once() {
        // The right branch never binds `y`: its rows are partial, extended
        // to every node, and overlap the left branch's total rows.
        check_against_naive(
            DEEP,
            "descendant::a[. is $x]/child::b[. is $y] union descendant::b[. is $x]",
            &[v("x"), v("y")],
        );
        check_against_naive(
            DEEP,
            "child::*[. is $x]/descendant::c[. is $z] union descendant::b[. is $y]/child::c[. is $z]",
            &[v("x"), v("y"), v("z")],
        );
    }

    #[test]
    fn row_sets_keep_one_copy_of_each_row_in_insertion_order() {
        let mut set = RowSet::new(3);
        for round in 0..2 {
            for i in 0..1000u32 {
                let fresh = set.insert(&[i % 7, i, UNBOUND - i]);
                assert_eq!(fresh, round == 0, "row {i} in round {round}");
            }
        }
        assert_eq!(set.len(), 1000);
        assert!(set.table.len().is_power_of_two() && set.table.len() >= 2000);
        for i in 0..1000u32 {
            assert_eq!(set.row(i as usize), [i % 7, i, UNBOUND - i]);
        }
    }

    #[test]
    fn store_backed_answering_matches_cold_answering() {
        let tree = bib();
        let hcl = Hcl::Atom(bin("descendant::book[child::author]"))
            .then(Hcl::Filter(Box::new(
                Hcl::Atom(bin("child::author")).then(Hcl::Var(v("x"))),
            )))
            .then(Hcl::Atom(bin("child::title")))
            .then(Hcl::Var(v("y")));
        let output = [v("x"), v("y")];
        let cold = answer_hcl_pplbin(&tree, &hcl, &output).unwrap();
        let store = SharedMatrixStore::new(std::sync::Arc::new(tree.clone()));
        let warm = || -> BTreeSet<Tuple> {
            answer_hcl(&tree, &hcl, &output, |t: &Tree, atoms: &[BinExpr]| {
                Ok(PplBinAtoms::try_compile_with_shared(t, atoms, &store)?)
            })
            .unwrap()
        };
        assert_eq!(warm(), cold);
        // A second pass over the same store compiles nothing new.
        let misses = store.stats().misses;
        assert!(misses > 0, "the composite atom compiled");
        assert_eq!(warm(), cold);
        assert_eq!(store.stats().misses, misses);
    }
}
