//! Translation of union-free `HCL⁻(PPLbin)` expressions into acyclic
//! conjunctive queries (the direction of Prop. 8 used for cross-checking the
//! two answering algorithms).
//!
//! The translation follows Prop. 6: walking the composition structure from
//! left to right introduces a fresh variable for every intermediate node;
//! HCL variables `x` are unified with the current position; filters `[C]`
//! branch off with their own fresh tail variable.  The resulting query graph
//! is tree-shaped, hence acyclic.

use crate::db::BinaryDatabase;
use crate::query::{Atom, ConjunctiveQuery, RelId};
use std::collections::HashMap;
use std::fmt;
use xpath_ast::{BinExpr, Var};
use xpath_hcl::Hcl;
use xpath_tree::Tree;

/// Errors of the HCL → ACQ translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromHclError {
    /// The expression contains a union; only the union-free fragment
    /// corresponds to a single conjunctive query (unions correspond to
    /// unions of ACQs).
    ContainsUnion,
}

impl fmt::Display for FromHclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromHclError::ContainsUnion => {
                write!(
                    f,
                    "only union-free HCL expressions translate to a single ACQ"
                )
            }
        }
    }
}

impl std::error::Error for FromHclError {}

/// Translate a union-free `HCL⁻(PPLbin)` expression into a conjunctive
/// query plus the binary database of its atoms, materialised on `tree`.
///
/// The query's output variables are `output`; the start and end nodes of the
/// navigation are existentially quantified (fresh internal variables), as in
/// the n-ary query semantics `q_{C,x}`.
pub fn hcl_to_acq(
    tree: &Tree,
    hcl: &Hcl<BinExpr>,
    output: &[Var],
) -> Result<(ConjunctiveQuery, BinaryDatabase), FromHclError> {
    let (query, relations) = hcl_to_cq(hcl, output)?;
    let db = BinaryDatabase::from_binexprs(tree, &relations);
    Ok((query, db))
}

/// Translate a union-free `HCL⁻(PPLbin)` expression into a conjunctive
/// query *without* materialising the binary database — no tree is needed
/// and no PPLbin expression is evaluated.  Returns the query together with
/// its distinct atom relations (indexed by [`crate::query::RelId`]), so
/// callers that only need the query's *shape* — e.g. a planner probing GYO
/// acyclicity — pay translation cost only.
pub fn hcl_to_cq(
    hcl: &Hcl<BinExpr>,
    output: &[Var],
) -> Result<(ConjunctiveQuery, Vec<BinExpr>), FromHclError> {
    if !hcl.is_union_free() {
        return Err(FromHclError::ContainsUnion);
    }
    let mut builder = Builder {
        atoms: Vec::new(),
        relations: Vec::new(),
        relation_ids: HashMap::new(),
        fresh: 0,
        unions: UnionFind::default(),
    };
    let start = builder.fresh_var();
    builder.translate(hcl, start);

    // Apply the variable unification produced by HCL variable tests.
    let atoms = builder
        .atoms
        .iter()
        .map(|a| Atom {
            relation: a.relation,
            x: builder.unions.resolve(&a.x),
            y: builder.unions.resolve(&a.y),
        })
        .collect();
    let output_resolved: Vec<Var> = output.iter().map(|v| builder.unions.resolve(v)).collect();
    let query = ConjunctiveQuery::new(atoms, output_resolved);
    Ok((query, builder.relations))
}

#[derive(Default)]
struct UnionFind {
    parent: HashMap<Var, Var>,
}

impl UnionFind {
    fn resolve(&self, v: &Var) -> Var {
        let mut cur = v.clone();
        while let Some(next) = self.parent.get(&cur) {
            cur = next.clone();
        }
        cur
    }

    fn unify(&mut self, a: &Var, b: &Var) {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        if ra != rb {
            // Prefer keeping user-visible variables as representatives:
            // internal variables start with "__".
            if ra.name().starts_with("__") {
                self.parent.insert(ra, rb);
            } else {
                self.parent.insert(rb, ra);
            }
        }
    }
}

struct Builder {
    atoms: Vec<Atom>,
    relations: Vec<BinExpr>,
    relation_ids: HashMap<BinExpr, RelId>,
    fresh: usize,
    unions: UnionFind,
}

impl Builder {
    fn fresh_var(&mut self) -> Var {
        let v = Var::new(&format!("__v{}", self.fresh));
        self.fresh += 1;
        v
    }

    fn relation(&mut self, b: &BinExpr) -> RelId {
        if let Some(id) = self.relation_ids.get(b) {
            return *id;
        }
        let id = RelId(self.relations.len());
        self.relations.push(b.clone());
        self.relation_ids.insert(b.clone(), id);
        id
    }

    /// Translate `hcl`, navigating from the variable `current`; returns the
    /// variable denoting the end of the navigation.
    fn translate(&mut self, hcl: &Hcl<BinExpr>, current: Var) -> Var {
        match hcl {
            Hcl::Atom(b) => {
                let rel = self.relation(b);
                let next = self.fresh_var();
                self.atoms.push(Atom {
                    relation: rel,
                    x: current,
                    y: next.clone(),
                });
                next
            }
            Hcl::Var(x) => {
                // The variable test succeeds only when the current node *is*
                // α(x): unify the two variables.
                self.unions.unify(&current, x);
                current
            }
            Hcl::Seq(a, b) => {
                let mid = self.translate(a, current);
                self.translate(b, mid)
            }
            Hcl::Filter(inner) => {
                // [C] keeps the current node; the navigation inside the
                // filter uses its own existential tail.
                self.translate(inner, current.clone());
                current
            }
            Hcl::Union(_, _) => unreachable!("checked union-free before translation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yannakakis::answer_acq;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;
    use xpath_hcl::answer_hcl_pplbin;

    fn bin(src: &str) -> BinExpr {
        from_variable_free_path(&parse_path(src).unwrap()).unwrap()
    }

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    fn check_against_hcl(tree: &Tree, hcl: &Hcl<BinExpr>, output: &[Var]) {
        let (query, db) = hcl_to_acq(tree, hcl, output).unwrap();
        let via_yannakakis = answer_acq(&query, &db).unwrap();
        let via_hcl = answer_hcl_pplbin(tree, hcl, output).unwrap();
        assert_eq!(
            via_yannakakis, via_hcl,
            "Yannakakis and the Fig. 8 algorithm disagree on {hcl}"
        );
    }

    fn bib() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title))").unwrap()
    }

    #[test]
    fn chain_queries_agree_with_hcl() {
        let t = bib();
        let hcl = Hcl::Atom(bin("descendant::book"))
            .then(Hcl::Atom(bin("child::author")))
            .then(Hcl::Var(v("a")));
        check_against_hcl(&t, &hcl, &[v("a")]);
    }

    #[test]
    fn filter_queries_agree_with_hcl() {
        let t = bib();
        let hcl = Hcl::Atom(bin("descendant::book"))
            .then(Hcl::Filter(Box::new(
                Hcl::Atom(bin("child::author")).then(Hcl::Var(v("x"))),
            )))
            .then(Hcl::Atom(bin("child::title")))
            .then(Hcl::Var(v("y")));
        check_against_hcl(&t, &hcl, &[v("x"), v("y")]);
    }

    #[test]
    fn boolean_and_free_variable_queries_agree() {
        let t = bib();
        let sat = Hcl::Atom(bin("descendant::title"));
        check_against_hcl(&t, &sat, &[]);
        check_against_hcl(&t, &sat, &[v("free")]);
        let unsat = Hcl::Atom(bin("descendant::publisher"));
        check_against_hcl(&t, &unsat, &[v("free")]);
    }

    #[test]
    fn unions_are_rejected() {
        let t = bib();
        let hcl = Hcl::Atom(bin("child::*")).or(Hcl::Atom(bin("descendant::*")));
        assert_eq!(
            hcl_to_acq(&t, &hcl, &[]).unwrap_err(),
            FromHclError::ContainsUnion
        );
    }

    #[test]
    fn produced_queries_are_acyclic_and_reuse_relations() {
        let t = bib();
        let hcl = Hcl::Atom(bin("child::*"))
            .then(Hcl::Atom(bin("child::*")))
            .then(Hcl::Var(v("x")));
        let (query, db) = hcl_to_acq(&t, &hcl, &[v("x")]).unwrap();
        assert_eq!(query.len(), 2);
        assert_eq!(db.relation_count(), 1, "equal atoms must share a relation");
        assert!(crate::acyclic::gyo_join_forest(&query).is_some());
        // Output variable is the (unified) end of the chain.
        assert!(query.output[0].name() == "x");
    }
}
