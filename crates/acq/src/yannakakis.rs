//! Yannakakis' algorithm for acyclic conjunctive queries (Prop. 7).
//!
//! The classical three phases over a join forest:
//!
//! 1. **bottom-up semijoins** — every parent is reduced to the tuples that
//!    join with each of its children;
//! 2. **top-down semijoins** — every child is reduced to the tuples that
//!    join with its (already reduced) parent;
//! 3. **output-sensitive join** — the reduced relations are joined along the
//!    forest, projecting intermediate results onto the output variables plus
//!    the connector variables, so intermediate sizes stay bounded by the
//!    projections of the final answer.
//!
//! The combined running time is `O(|db| · |Q| · |Q(db)|)`, the bound the
//! paper imports from Yannakakis (its reference \[24\]).

use crate::acyclic::{gyo_join_forest, JoinForest};
use crate::db::BinaryDatabase;
use crate::query::ConjunctiveQuery;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use xpath_ast::Var;
use xpath_tree::NodeId;

/// Errors of the ACQ answering pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcqError {
    /// The query hypergraph is cyclic; Yannakakis' algorithm does not apply.
    CyclicQuery,
    /// An atom refers to a relation id outside the database.
    UnknownRelation(usize),
}

impl fmt::Display for AcqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcqError::CyclicQuery => write!(f, "the conjunctive query is cyclic"),
            AcqError::UnknownRelation(r) => write!(f, "unknown relation id r{r}"),
        }
    }
}

impl std::error::Error for AcqError {}

/// A tuple over a subset of the query variables.
type Row = BTreeMap<Var, NodeId>;

/// Answer an acyclic conjunctive query with Yannakakis' algorithm.
pub fn answer_acq(
    query: &ConjunctiveQuery,
    db: &BinaryDatabase,
) -> Result<BTreeSet<Vec<NodeId>>, AcqError> {
    for atom in &query.atoms {
        if atom.relation.0 >= db.relation_count() {
            return Err(AcqError::UnknownRelation(atom.relation.0));
        }
    }
    let forest = gyo_join_forest(query).ok_or(AcqError::CyclicQuery)?;

    // Materialise each atom as a set of rows over its variables.
    let mut relations: Vec<Vec<Row>> = query
        .atoms
        .iter()
        .map(|atom| {
            db.pairs(atom.relation.0)
                .iter()
                .filter_map(|&(u, v)| {
                    if atom.x == atom.y && u != v {
                        return None; // self-loop atom r(x, x) keeps only the diagonal
                    }
                    let mut row = Row::new();
                    row.insert(atom.x.clone(), u);
                    row.insert(atom.y.clone(), v);
                    Some(row)
                })
                .collect::<Vec<Row>>()
        })
        .collect();

    // Empty body: satisfiable with the empty tuple, extended over the output.
    if query.atoms.is_empty() {
        let rows = vec![Row::new()];
        return Ok(project(&rows, &query.output, db.domain()));
    }

    let order = forest.bottom_up_order();

    // Phase 1: bottom-up semijoins (child reduces parent).
    for &i in &order {
        if let Some(p) = forest.parent[i] {
            let shared = shared_vars(query, i, p);
            let keys = key_set(&relations[i], &shared);
            relations[p].retain(|row| keys.contains(&key_of(row, &shared)));
        }
    }

    // Phase 2: top-down semijoins (parent reduces child).
    for &i in order.iter().rev() {
        if let Some(p) = forest.parent[i] {
            let shared = shared_vars(query, i, p);
            let keys = key_set(&relations[p], &shared);
            relations[i].retain(|row| keys.contains(&key_of(row, &shared)));
        }
    }

    // Phase 3: join along the forest with projection onto output ∪ connector
    // variables.
    let output_set: BTreeSet<Var> = query.output.iter().cloned().collect();
    let children = forest.children();
    let mut combined: Vec<Row> = vec![Row::new()];
    for root in forest.roots() {
        let subtree = join_subtree(root, &relations, &children, &forest, query, &output_set);
        combined = join_rows(&combined, &subtree);
        combined = project_rows(&combined, &output_set);
        if combined.is_empty() {
            return Ok(BTreeSet::new());
        }
    }
    Ok(project(&combined, &query.output, db.domain()))
}

fn shared_vars(query: &ConjunctiveQuery, i: usize, j: usize) -> Vec<Var> {
    query.atoms[i]
        .vars()
        .intersection(&query.atoms[j].vars())
        .cloned()
        .collect()
}

fn key_of(row: &Row, vars: &[Var]) -> Vec<NodeId> {
    vars.iter().map(|v| row[v]).collect()
}

fn key_set(rows: &[Row], vars: &[Var]) -> HashSet<Vec<NodeId>> {
    rows.iter().map(|r| key_of(r, vars)).collect()
}

fn join_subtree(
    node: usize,
    relations: &[Vec<Row>],
    children: &[Vec<usize>],
    forest: &JoinForest,
    query: &ConjunctiveQuery,
    output: &BTreeSet<Var>,
) -> Vec<Row> {
    let mut current = relations[node].clone();
    for &child in &children[node] {
        let child_rows = join_subtree(child, relations, children, forest, query, output);
        current = join_rows(&current, &child_rows);
    }
    // Keep only the output variables and the connector to the parent.
    let mut keep: BTreeSet<Var> = output.clone();
    if let Some(p) = forest.parent[node] {
        keep.extend(shared_vars(query, node, p));
    }
    project_rows(&current, &keep)
}

fn join_rows(left: &[Row], right: &[Row]) -> Vec<Row> {
    let mut out = Vec::new();
    for a in left {
        'rows: for b in right {
            let mut merged = a.clone();
            for (k, v) in b {
                match merged.get(k) {
                    Some(existing) if existing != v => continue 'rows,
                    _ => {
                        merged.insert(k.clone(), *v);
                    }
                }
            }
            out.push(merged);
        }
    }
    dedup_rows(out)
}

fn project_rows(rows: &[Row], keep: &BTreeSet<Var>) -> Vec<Row> {
    let projected: Vec<Row> = rows
        .iter()
        .map(|r| {
            r.iter()
                .filter(|(k, _)| keep.contains(*k))
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        })
        .collect();
    dedup_rows(projected)
}

fn dedup_rows(rows: Vec<Row>) -> Vec<Row> {
    let mut seen: BTreeSet<Vec<(Var, NodeId)>> = BTreeSet::new();
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let key: Vec<(Var, NodeId)> = r.iter().map(|(k, v)| (k.clone(), *v)).collect();
        if seen.insert(key) {
            out.push(r);
        }
    }
    out
}

/// Project joined rows onto the output variable sequence, extending output
/// variables that do not occur in the body over the whole domain.
fn project(rows: &[Row], output: &[Var], domain: usize) -> BTreeSet<Vec<NodeId>> {
    let mut result = BTreeSet::new();
    for row in rows {
        let mut partial: Vec<Vec<NodeId>> = vec![Vec::new()];
        for var in output {
            match row.get(var) {
                Some(&v) => {
                    for t in partial.iter_mut() {
                        t.push(v);
                    }
                }
                None => {
                    let mut next = Vec::with_capacity(partial.len() * domain);
                    for t in partial {
                        for node in 0..domain {
                            let mut extended = t.clone();
                            extended.push(NodeId(node as u32));
                            next.push(extended);
                        }
                    }
                    partial = next;
                }
            }
        }
        result.extend(partial);
    }
    result
}

/// Reference implementation: enumerate every assignment of the body and
/// output variables and test all atoms.  Exponential; used only to validate
/// Yannakakis on small inputs.
pub fn brute_force_answer(query: &ConjunctiveQuery, db: &BinaryDatabase) -> BTreeSet<Vec<NodeId>> {
    let mut vars: Vec<Var> = query.body_vars().into_iter().collect();
    for v in &query.output {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    let mut out = BTreeSet::new();
    let mut assignment: Row = Row::new();
    brute_rec(query, db, &vars, 0, &mut assignment, &mut out);
    out
}

fn brute_rec(
    query: &ConjunctiveQuery,
    db: &BinaryDatabase,
    vars: &[Var],
    idx: usize,
    assignment: &mut Row,
    out: &mut BTreeSet<Vec<NodeId>>,
) {
    if idx == vars.len() {
        let ok = query.atoms.iter().all(|a| {
            db.pairs(a.relation.0)
                .contains(&(assignment[&a.x], assignment[&a.y]))
        });
        if ok {
            out.insert(query.output.iter().map(|v| assignment[v]).collect());
        }
        return;
    }
    for node in 0..db.domain() {
        assignment.insert(vars[idx].clone(), NodeId(node as u32));
        brute_rec(query, db, vars, idx + 1, assignment, out);
    }
    assignment.remove(&vars[idx]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Atom, RelId};
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;
    use xpath_tree::Tree;

    fn tree() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title),paper(title))").unwrap()
    }

    fn db(t: &Tree, sources: &[&str]) -> BinaryDatabase {
        let exprs: Vec<_> = sources
            .iter()
            .map(|s| from_variable_free_path(&parse_path(s).unwrap()).unwrap())
            .collect();
        BinaryDatabase::from_binexprs(t, &exprs)
    }

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    #[test]
    fn path_query_matches_brute_force() {
        let t = tree();
        let database = db(&t, &["child::book", "child::author", "child::title"]);
        // Q(a, ti) :- child::book(r, b), child::author(b, a), child::title(b, ti)
        let query = ConjunctiveQuery::new(
            vec![
                Atom::new(RelId(0), "r", "b"),
                Atom::new(RelId(1), "b", "a"),
                Atom::new(RelId(2), "b", "ti"),
            ],
            vec![v("a"), v("ti")],
        );
        let fast = answer_acq(&query, &database).unwrap();
        let slow = brute_force_answer(&query, &database);
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 3);
    }

    #[test]
    fn star_query_and_projection() {
        let t = tree();
        let database = db(&t, &["child::*", "descendant::title"]);
        // Q(x) :- child(x, y), descendant-title(x, z): books/papers with a
        // child and a title below.
        let query = ConjunctiveQuery::new(
            vec![Atom::new(RelId(0), "x", "y"), Atom::new(RelId(1), "x", "z")],
            vec![v("x")],
        );
        let fast = answer_acq(&query, &database).unwrap();
        assert_eq!(fast, brute_force_answer(&query, &database));
        assert!(fast
            .iter()
            .all(|tup| ["bib", "book", "paper"].contains(&t.label_str(tup[0]))));
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let t = tree();
        let database = db(&t, &["child::*"]);
        let query = ConjunctiveQuery::new(
            vec![
                Atom::new(RelId(0), "x", "y"),
                Atom::new(RelId(0), "y", "z"),
                Atom::new(RelId(0), "z", "x"),
            ],
            vec![v("x")],
        );
        assert_eq!(answer_acq(&query, &database), Err(AcqError::CyclicQuery));
    }

    #[test]
    fn unknown_relations_are_rejected() {
        let t = tree();
        let database = db(&t, &["child::*"]);
        let query = ConjunctiveQuery::new(vec![Atom::new(RelId(7), "x", "y")], vec![v("x")]);
        assert_eq!(
            answer_acq(&query, &database),
            Err(AcqError::UnknownRelation(7))
        );
    }

    #[test]
    fn empty_body_and_free_output_variables() {
        let t = tree();
        let database = db(&t, &["child::*"]);
        let query = ConjunctiveQuery::new(vec![], vec![v("w")]);
        let ans = answer_acq(&query, &database).unwrap();
        assert_eq!(ans.len(), t.len());
        // Boolean query with empty body: exactly the empty tuple.
        let boolean = ConjunctiveQuery::new(vec![], vec![]);
        assert_eq!(answer_acq(&boolean, &database).unwrap().len(), 1);
    }

    #[test]
    fn unsatisfiable_queries_give_empty_answers() {
        let t = tree();
        let database = db(&t, &["child::publisher", "child::book"]);
        let query = ConjunctiveQuery::new(
            vec![Atom::new(RelId(0), "x", "y"), Atom::new(RelId(1), "y", "z")],
            vec![v("x"), v("z")],
        );
        assert!(answer_acq(&query, &database).unwrap().is_empty());
    }

    #[test]
    fn self_loop_atoms_keep_only_the_diagonal() {
        let t = tree();
        let database = db(&t, &["descendant-or-self::*"]);
        // r(x, x) over descendant-or-self is the identity: every node.
        let query = ConjunctiveQuery::new(vec![Atom::new(RelId(0), "x", "x")], vec![v("x")]);
        let ans = answer_acq(&query, &database).unwrap();
        assert_eq!(ans.len(), t.len());
        assert_eq!(ans, brute_force_answer(&query, &database));
    }

    #[test]
    fn disconnected_queries_take_a_cartesian_product() {
        let t = Tree::from_terms("r(a,b)").unwrap();
        let database = db(&t, &["child::a", "child::b"]);
        let query = ConjunctiveQuery::new(
            vec![Atom::new(RelId(0), "x", "y"), Atom::new(RelId(1), "u", "w")],
            vec![v("y"), v("w")],
        );
        let ans = answer_acq(&query, &database).unwrap();
        assert_eq!(ans, brute_force_answer(&query, &database));
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn deep_chain_query_matches_brute_force() {
        let t = Tree::from_terms("a(b(c(d(e))))").unwrap();
        let database = db(&t, &["child::*"]);
        let query = ConjunctiveQuery::new(
            vec![
                Atom::new(RelId(0), "v0", "v1"),
                Atom::new(RelId(0), "v1", "v2"),
                Atom::new(RelId(0), "v2", "v3"),
                Atom::new(RelId(0), "v3", "v4"),
            ],
            vec![v("v0"), v("v4")],
        );
        let fast = answer_acq(&query, &database).unwrap();
        assert_eq!(fast, brute_force_answer(&query, &database));
        assert_eq!(fast.len(), 1);
    }
}
