//! Unions of acyclic conjunctive queries (ACQ∨) — Proposition 9.
//!
//! Proposition 9 of the paper relates `HCL⁻(L)` to *finite unions* of ACQs:
//! every `HCL⁻` expression is equivalent to a union of union-free
//! expressions, obtained by distributing unions upwards — "possibly at the
//! cost of an exponential blowup".  This module implements that direction:
//!
//! * [`UnionAcq`] — a union of conjunctive queries sharing one database;
//! * [`distribute_unions`] — rewrite an HCL expression into its union-free
//!   disjuncts (with an explicit disjunct budget, since the blowup is
//!   exponential in the worst case);
//! * [`hcl_to_union_acq`] — the full HCL⁻ → ACQ∨ translation, used to
//!   cross-check the Fig. 8 algorithm against Yannakakis on queries *with*
//!   unions (the union-free case is covered by [`crate::from_hcl`]).

use crate::db::BinaryDatabase;
use crate::from_hcl::{hcl_to_acq, FromHclError};
use crate::query::ConjunctiveQuery;
use crate::yannakakis::{answer_acq, AcqError};
use std::collections::BTreeSet;
use std::fmt;
use xpath_ast::{BinExpr, Var};
use xpath_hcl::Hcl;
use xpath_tree::{NodeId, Tree};

/// A union of conjunctive queries over a shared binary database.
#[derive(Debug, Clone)]
pub struct UnionAcq {
    /// The disjuncts (each answered independently; answers are unioned).
    pub disjuncts: Vec<ConjunctiveQuery>,
    /// The shared database of binary relations.
    pub db: BinaryDatabase,
}

impl UnionAcq {
    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// True when there are no disjuncts (the empty query).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Answer the union by answering every disjunct with Yannakakis and
    /// taking the union of the answer sets.
    pub fn answer(&self) -> Result<BTreeSet<Vec<NodeId>>, AcqError> {
        let mut out = BTreeSet::new();
        for q in &self.disjuncts {
            out.extend(answer_acq(q, &self.db)?);
        }
        Ok(out)
    }
}

/// Errors of the HCL⁻ → ACQ∨ translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnionAcqError {
    /// Distributing the unions would exceed the disjunct budget.
    TooManyDisjuncts { budget: usize },
    /// A disjunct could not be translated (should not happen for union-free
    /// inputs produced by [`distribute_unions`]).
    Disjunct(FromHclError),
}

impl fmt::Display for UnionAcqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnionAcqError::TooManyDisjuncts { budget } => write!(
                f,
                "distributing unions exceeds the disjunct budget of {budget} \
                 (the blowup of Prop. 9 is exponential in the worst case)"
            ),
            UnionAcqError::Disjunct(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UnionAcqError {}

/// Distribute unions upwards, producing the union-free disjuncts of an HCL
/// expression (Prop. 9).  Fails once more than `budget` disjuncts would be
/// produced.
pub fn distribute_unions<B: Clone>(
    hcl: &Hcl<B>,
    budget: usize,
) -> Result<Vec<Hcl<B>>, UnionAcqError> {
    fn go<B: Clone>(hcl: &Hcl<B>, budget: usize) -> Result<Vec<Hcl<B>>, UnionAcqError> {
        let out = match hcl {
            Hcl::Atom(b) => vec![Hcl::Atom(b.clone())],
            Hcl::Var(x) => vec![Hcl::Var(x.clone())],
            Hcl::Union(a, b) => {
                let mut left = go(a, budget)?;
                let right = go(b, budget)?;
                left.extend(right);
                left
            }
            Hcl::Seq(a, b) => {
                let left = go(a, budget)?;
                let right = go(b, budget)?;
                let mut combined = Vec::with_capacity(left.len() * right.len());
                for l in &left {
                    for r in &right {
                        combined.push(l.clone().then(r.clone()));
                    }
                }
                combined
            }
            Hcl::Filter(inner) => go(inner, budget)?
                .into_iter()
                .map(|d| Hcl::Filter(Box::new(d)))
                .collect(),
        };
        if out.len() > budget {
            return Err(UnionAcqError::TooManyDisjuncts { budget });
        }
        Ok(out)
    }
    go(hcl, budget)
}

/// Translate an `HCL⁻(PPLbin)` expression (possibly containing unions) into
/// a union of ACQs over one database, materialised on `tree`.
pub fn hcl_to_union_acq(
    tree: &Tree,
    hcl: &Hcl<BinExpr>,
    output: &[Var],
    budget: usize,
) -> Result<UnionAcq, UnionAcqError> {
    let disjunct_exprs = distribute_unions(hcl, budget)?;
    // Build one database over the union of all atoms so relation ids are
    // shared; the easiest way is to translate each disjunct with its own
    // database and then merge, but merging relation ids is error-prone.
    // Instead, translate each disjunct separately and answer it over its own
    // database — except that UnionAcq carries one db.  To keep one shared
    // db, collect the distinct atoms of the whole expression first.
    let mut atoms: Vec<BinExpr> = Vec::new();
    for a in hcl.atoms() {
        if !atoms.contains(a) {
            atoms.push(a.clone());
        }
    }
    let db = BinaryDatabase::from_binexprs(tree, &atoms);

    // Re-translate every disjunct against the shared atom ordering by reusing
    // `hcl_to_acq` (which builds its own db) and remapping relation ids by
    // expression equality.
    let mut disjuncts = Vec::with_capacity(disjunct_exprs.len());
    for d in &disjunct_exprs {
        let (cq, local_db) = hcl_to_acq(tree, d, output).map_err(UnionAcqError::Disjunct)?;
        // Remap the local relation ids onto the shared database by matching
        // relation names (the printed PPLbin expressions, which are unique).
        let remapped_atoms = cq
            .atoms
            .iter()
            .map(|atom| {
                let name = local_db.name(atom.relation.0);
                let shared = (0..db.relation_count())
                    .find(|&r| db.name(r) == name)
                    .expect("every disjunct atom occurs in the full expression");
                crate::query::Atom {
                    relation: crate::query::RelId(shared),
                    x: atom.x.clone(),
                    y: atom.y.clone(),
                }
            })
            .collect();
        disjuncts.push(ConjunctiveQuery::new(remapped_atoms, cq.output));
    }
    Ok(UnionAcq { disjuncts, db })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::parse_path;
    use xpath_hcl::answer_hcl_pplbin;

    fn bin(src: &str) -> BinExpr {
        from_variable_free_path(&parse_path(src).unwrap()).unwrap()
    }

    fn v(name: &str) -> Var {
        Var::new(name)
    }

    fn bib() -> Tree {
        Tree::from_terms("bib(book(author,title),book(author,author,title),paper(title))").unwrap()
    }

    #[test]
    fn distribution_counts_disjuncts() {
        let c: Hcl<BinExpr> = Hcl::Atom(bin("child::a"))
            .or(Hcl::Atom(bin("child::b")))
            .then(Hcl::Atom(bin("child::c")).or(Hcl::Atom(bin("child::d"))));
        let disjuncts = distribute_unions(&c, 16).unwrap();
        assert_eq!(disjuncts.len(), 4);
        assert!(disjuncts.iter().all(|d| d.is_union_free()));
        // Budget enforcement.
        assert_eq!(
            distribute_unions(&c, 3).unwrap_err(),
            UnionAcqError::TooManyDisjuncts { budget: 3 }
        );
    }

    #[test]
    fn union_acq_matches_hcl_on_queries_with_unions() {
        let t = bib();
        let output = [v("x")];
        let queries: Vec<Hcl<BinExpr>> = vec![
            // (descendant::author ∪ descendant::title)/x
            Hcl::Atom(bin("descendant::author"))
                .or(Hcl::Atom(bin("descendant::title")))
                .then(Hcl::Var(v("x"))),
            // descendant::book/([child::author/x] ∪ [child::title/x])
            Hcl::Atom(bin("descendant::book")).then(
                Hcl::Filter(Box::new(
                    Hcl::Atom(bin("child::author")).then(Hcl::Var(v("x"))),
                ))
                .or(Hcl::Filter(Box::new(
                    Hcl::Atom(bin("child::title")).then(Hcl::Var(v("x"))),
                ))),
            ),
        ];
        for hcl in queries {
            let via_hcl = answer_hcl_pplbin(&t, &hcl, &output).unwrap();
            let union_acq = hcl_to_union_acq(&t, &hcl, &output, 64).unwrap();
            assert!(union_acq.len() >= 2);
            assert!(!union_acq.is_empty());
            let via_acq = union_acq.answer().unwrap();
            assert_eq!(via_acq, via_hcl, "{hcl}");
        }
    }

    #[test]
    fn union_free_expressions_give_a_single_disjunct() {
        let t = bib();
        let hcl = Hcl::Atom(bin("descendant::book")).then(Hcl::Var(v("b")));
        let union_acq = hcl_to_union_acq(&t, &hcl, &[v("b")], 8).unwrap();
        assert_eq!(union_acq.len(), 1);
        assert_eq!(
            union_acq.answer().unwrap(),
            answer_hcl_pplbin(&t, &hcl, &[v("b")]).unwrap()
        );
    }

    #[test]
    fn error_display() {
        let e = UnionAcqError::TooManyDisjuncts { budget: 4 };
        assert!(e.to_string().contains("budget of 4"));
    }
}
