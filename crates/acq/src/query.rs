//! Conjunctive queries over binary relations.
//!
//! A conjunctive query is a set of atoms `r(x, y)` over relation names of a
//! [`crate::BinaryDatabase`], together with a sequence of output variables:
//!
//! ```text
//! Q(x₁,…,xₙ) :- r₁(y₁, z₁), …, r_k(y_k, z_k)
//! ```
//!
//! Non-output variables are existentially quantified.  The query is
//! *acyclic* when its hypergraph admits a join forest (see
//! [`crate::acyclic`]).

use std::collections::BTreeSet;
use std::fmt;
use xpath_ast::Var;

/// Identifier of a relation in the accompanying [`crate::BinaryDatabase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub usize);

/// One atom `r(x, y)` of a conjunctive query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The relation applied by the atom.
    pub relation: RelId,
    /// First argument.
    pub x: Var,
    /// Second argument.
    pub y: Var,
}

impl Atom {
    /// Create an atom.
    pub fn new(relation: RelId, x: &str, y: &str) -> Atom {
        Atom {
            relation,
            x: Var::new(x),
            y: Var::new(y),
        }
    }

    /// The set of variables of the atom (one element for self-loops
    /// `r(x, x)`).
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut s = BTreeSet::new();
        s.insert(self.x.clone());
        s.insert(self.y.clone());
        s
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r{}({}, {})",
            self.relation.0,
            self.x.name(),
            self.y.name()
        )
    }
}

/// A conjunctive query over binary relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// The body atoms (conjuncts).
    pub atoms: Vec<Atom>,
    /// The output (free) variables, in answer-tuple order.
    pub output: Vec<Var>,
}

impl ConjunctiveQuery {
    /// Create a query.
    pub fn new(atoms: Vec<Atom>, output: Vec<Var>) -> ConjunctiveQuery {
        ConjunctiveQuery { atoms, output }
    }

    /// All variables occurring in the body.
    pub fn body_vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// `|Q|` — number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Output arity `n`.
    pub fn arity(&self) -> usize {
        self.output.len()
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let outs: Vec<&str> = self.output.iter().map(|v| v.name()).collect();
        write!(f, "Q({}) :- ", outs.join(", "))?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_vars_and_display() {
        let a = Atom::new(RelId(0), "x", "y");
        assert_eq!(a.vars().len(), 2);
        assert_eq!(a.to_string(), "r0(x, y)");
        let self_loop = Atom::new(RelId(1), "x", "x");
        assert_eq!(self_loop.vars().len(), 1);
    }

    #[test]
    fn query_accessors() {
        let q = ConjunctiveQuery::new(
            vec![Atom::new(RelId(0), "x", "y"), Atom::new(RelId(1), "y", "z")],
            vec![Var::new("x"), Var::new("z")],
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.arity(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.body_vars().len(), 3);
        assert_eq!(q.to_string(), "Q(x, z) :- r0(x, y), r1(y, z)");
    }
}
