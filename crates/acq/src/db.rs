//! The relational database `db = {q_b(t) | b ∈ L}` of Section 6.

use xpath_ast::{BinExpr, NameTest};
use xpath_pplbin::answer_binary;
use xpath_tree::{Axis, NodeId, Tree};

/// A database of named binary relations over the nodes of one tree.
#[derive(Debug, Clone)]
pub struct BinaryDatabase {
    names: Vec<String>,
    /// `relations[r]` — sorted, deduplicated pair list.
    relations: Vec<Vec<(NodeId, NodeId)>>,
    /// `by_first[r][u]` — successors of `u` in relation `r`.
    by_first: Vec<Vec<Vec<NodeId>>>,
    /// `by_second[r][v]` — predecessors of `v` in relation `r`.
    by_second: Vec<Vec<Vec<NodeId>>>,
    domain: usize,
}

impl BinaryDatabase {
    /// Build a database from explicit pair lists.
    pub fn new(domain: usize, relations: Vec<(String, Vec<(NodeId, NodeId)>)>) -> BinaryDatabase {
        let mut names = Vec::with_capacity(relations.len());
        let mut rels = Vec::with_capacity(relations.len());
        let mut by_first = Vec::with_capacity(relations.len());
        let mut by_second = Vec::with_capacity(relations.len());
        for (name, mut pairs) in relations {
            pairs.sort_unstable();
            pairs.dedup();
            let mut firsts = vec![Vec::new(); domain];
            let mut seconds = vec![Vec::new(); domain];
            for &(u, v) in &pairs {
                firsts[u.index()].push(v);
                seconds[v.index()].push(u);
            }
            names.push(name);
            rels.push(pairs);
            by_first.push(firsts);
            by_second.push(seconds);
        }
        BinaryDatabase {
            names,
            relations: rels,
            by_first,
            by_second,
            domain,
        }
    }

    /// Build the database for a set of PPLbin expressions on a tree, using
    /// the Boolean-matrix engine for each relation.
    pub fn from_binexprs(tree: &Tree, exprs: &[BinExpr]) -> BinaryDatabase {
        let relations = exprs
            .iter()
            .map(|b| (b.to_string(), answer_binary(tree, b).pairs()))
            .collect();
        BinaryDatabase::new(tree.len(), relations)
    }

    /// Build the database for a set of raw axis steps on a tree.
    pub fn from_axes(tree: &Tree, axes: &[(Axis, NameTest)]) -> BinaryDatabase {
        let relations = axes
            .iter()
            .map(|(axis, test)| {
                let mut pairs = Vec::new();
                for u in tree.nodes() {
                    for v in tree.axis_iter(*axis, u) {
                        if test.matches(tree.label_str(v)) {
                            pairs.push((u, v));
                        }
                    }
                }
                (format!("{axis}::{test}"), pairs)
            })
            .collect();
        BinaryDatabase::new(tree.len(), relations)
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Size of the node domain.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Total number of tuples, `|db|` in the paper's accounting.
    pub fn size(&self) -> usize {
        self.relations.iter().map(Vec::len).sum()
    }

    /// Name of a relation.
    pub fn name(&self, r: usize) -> &str {
        &self.names[r]
    }

    /// The pairs of relation `r`.
    pub fn pairs(&self, r: usize) -> &[(NodeId, NodeId)] {
        &self.relations[r]
    }

    /// Successors of `u` in relation `r`.
    pub fn successors(&self, r: usize, u: NodeId) -> &[NodeId] {
        &self.by_first[r][u.index()]
    }

    /// Predecessors of `v` in relation `r`.
    pub fn predecessors(&self, r: usize, v: NodeId) -> &[NodeId] {
        &self.by_second[r][v.index()]
    }

    /// Membership test.
    pub fn contains(&self, r: usize, u: NodeId, v: NodeId) -> bool {
        self.by_first[r][u.index()].binary_search(&v).is_ok()
            || self.by_first[r][u.index()].contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;

    fn tree() -> Tree {
        Tree::from_terms("a(b(c),b(c,c))").unwrap()
    }

    #[test]
    fn from_binexprs_matches_matrix_pairs() {
        let t = tree();
        let child = from_variable_free_path(&parse_path("child::*").unwrap()).unwrap();
        let desc_c = from_variable_free_path(&parse_path("descendant::c").unwrap()).unwrap();
        let db = BinaryDatabase::from_binexprs(&t, &[child.clone(), desc_c.clone()]);
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.domain(), t.len());
        assert_eq!(db.pairs(0), answer_binary(&t, &child).pairs().as_slice());
        assert_eq!(db.pairs(1), answer_binary(&t, &desc_c).pairs().as_slice());
        assert_eq!(db.size(), db.pairs(0).len() + db.pairs(1).len());
        assert!(db.name(0).contains("child"));
    }

    #[test]
    fn indexes_are_consistent_with_pairs() {
        let t = tree();
        let db = BinaryDatabase::from_axes(
            &t,
            &[
                (Axis::Child, NameTest::Wildcard),
                (Axis::Descendant, NameTest::name("c")),
            ],
        );
        for r in 0..db.relation_count() {
            for &(u, v) in db.pairs(r) {
                assert!(db.successors(r, u).contains(&v));
                assert!(db.predecessors(r, v).contains(&u));
                assert!(db.contains(r, u, v));
            }
            for u in t.nodes() {
                for &v in db.successors(r, u) {
                    assert!(db.pairs(r).contains(&(u, v)));
                }
            }
        }
    }

    #[test]
    fn duplicate_pairs_are_removed() {
        let db = BinaryDatabase::new(
            3,
            vec![(
                "r".into(),
                vec![
                    (NodeId(0), NodeId(1)),
                    (NodeId(0), NodeId(1)),
                    (NodeId(2), NodeId(0)),
                ],
            )],
        );
        assert_eq!(db.size(), 2);
        assert_eq!(db.successors(0, NodeId(0)), &[NodeId(1)]);
    }
}
