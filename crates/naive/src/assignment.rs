//! Variable assignments `α : Var → nodes(t)`.

use std::collections::BTreeMap;
use std::fmt;
use xpath_ast::Var;
use xpath_tree::NodeId;

/// A (partial) variable assignment.
///
/// The paper works with total assignments `α : Var → nodes(t)`; in practice
/// only the finitely many variables occurring in the query matter, so an
/// assignment is a finite map.  Looking up an unbound variable during
/// evaluation raises [`crate::EvalError::UnboundVariable`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    map: BTreeMap<Var, NodeId>,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Build an assignment from `(variable, node)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (Var, NodeId)>>(pairs: I) -> Assignment {
        Assignment {
            map: pairs.into_iter().collect(),
        }
    }

    /// Look up a variable.
    pub fn get(&self, var: &Var) -> Option<NodeId> {
        self.map.get(var).copied()
    }

    /// Bind a variable in place (overwriting any previous binding).
    pub fn bind(&mut self, var: Var, node: NodeId) {
        self.map.insert(var, node);
    }

    /// `α[x ↦ v]` — a copy of the assignment with one extra binding.
    pub fn extended(&self, var: Var, node: NodeId) -> Assignment {
        let mut out = self.clone();
        out.bind(var, node);
        out
    }

    /// Remove a binding.
    pub fn unbind(&mut self, var: &Var) {
        self.map.remove(var);
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the assignment empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, NodeId)> {
        self.map.iter().map(|(v, &n)| (v, n))
    }

    /// The bound variables, in order.
    pub fn variables(&self) -> impl Iterator<Item = &Var> {
        self.map.keys()
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, n)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v} ↦ {n}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_lookup() {
        let mut a = Assignment::new();
        assert!(a.is_empty());
        a.bind(Var::new("x"), NodeId(3));
        assert_eq!(a.get(&Var::new("x")), Some(NodeId(3)));
        assert_eq!(a.get(&Var::new("y")), None);
        assert_eq!(a.len(), 1);
        a.unbind(&Var::new("x"));
        assert!(a.is_empty());
    }

    #[test]
    fn extended_does_not_mutate_original() {
        let a = Assignment::from_pairs([(Var::new("x"), NodeId(1))]);
        let b = a.extended(Var::new("y"), NodeId(2));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        let c = a.extended(Var::new("x"), NodeId(9));
        assert_eq!(a.get(&Var::new("x")), Some(NodeId(1)));
        assert_eq!(c.get(&Var::new("x")), Some(NodeId(9)));
    }

    #[test]
    fn display_lists_bindings() {
        let a = Assignment::from_pairs([(Var::new("x"), NodeId(1)), (Var::new("y"), NodeId(2))]);
        let s = a.to_string();
        assert!(s.contains("$x ↦ n1"));
        assert!(s.contains("$y ↦ n2"));
    }
}
