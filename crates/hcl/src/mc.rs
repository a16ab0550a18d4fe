//! The `MC` satisfiability table (Proposition 10 of the paper).
//!
//! For a sharing expression `D`, equation system `∆` and tree `t`, the table
//! stores for every sub-expression `D0` and node `u` whether
//!
//! ```text
//! MC(D0, u) = 1  iff  ∃α. ∃u' ∈ nodes(t). (u, u') ∈ ⟦(D0)_∆⟧^{t,α}
//! ```
//!
//! i.e. whether a navigation starting at `u` can succeed for *some*
//! assignment of the variables.  Because of the NVS(/) restriction, the
//! recursive equations of the paper are sound:
//!
//! ```text
//! MC(self, u)       = 1
//! MC(b/D, u)        = ⋁_{(u,u') ∈ q_b(t)} MC(D, u')
//! MC(p, u)          = MC(∆(p), u)
//! MC([D']/D'', u)   = MC(D', u) ∧ MC(D'', u)
//! MC(x/D, u)        = MC(D, u)
//! MC(D ∪ D', u)     = MC(D, u) ∨ MC(D', u)
//! ```
//!
//! The table is computed by one bottom-up sweep over the arena (children
//! have smaller ids than parents), one node set per sharing node.  The
//! atom case is a pre-image, set-at-a-time as in Section 4:
//!
//! ```text
//! MC(b/D) = pre(b, MC(D)) = { u | ∃u' ∈ MC(D). (u, u') ∈ q_b(t) }
//! ```
//!
//! Every atom the store serves as a view (a plain step, or a step between
//! diagonals) answers that in one `O(|t|)` pass over the tree (see
//! [`xpath_pplbin::SuccessorSource::pre_image`]).  Only atoms compiled to
//! matrices still sweep their rows, node by node with an early exit per
//! row, so the whole table takes `O(|t|·(|D|+|∆|))` for view atoms and
//! stays within Prop. 10's `O(|t|²·(|D|+|∆|))` after the oracle
//! precompilation otherwise.

use crate::oracle::CompiledAtoms;
use crate::share::{EquationSystem, ShareId, ShareNode};
use xpath_tree::{NodeId, NodeSet};

/// The computed `MC` table: one node set per sharing-expression node.
#[derive(Debug, Clone)]
pub struct McTable {
    /// `sets[d]` — the nodes `u` with `MC(d, u) = 1`.
    sets: Vec<NodeSet>,
}

impl McTable {
    /// Compute the table for a normalised expression over a compiled oracle.
    pub fn compute(eq: &EquationSystem, atoms: &CompiledAtoms) -> McTable {
        let n = atoms.domain();
        let mut sets: Vec<NodeSet> = Vec::with_capacity(eq.len());
        for (id, node) in eq.iter() {
            debug_assert_eq!(id.index(), sets.len());
            let set = match node {
                ShareNode::SelfEnd => NodeSet::full(n),
                ShareNode::Param(body) => sets[body.index()].clone(),
                ShareNode::Union(a, b) => {
                    let mut s = sets[a.index()].clone();
                    s.union_with(&sets[b.index()]);
                    s
                }
                ShareNode::StepVar(_, rest) => sets[rest.index()].clone(),
                ShareNode::StepFilter(body, rest) => {
                    let mut s = sets[body.index()].clone();
                    s.intersect_with(&sets[rest.index()]);
                    s
                }
                ShareNode::StepAtom(atom, rest) => atoms.pre_image(*atom, &sets[rest.index()]),
            };
            sets.push(set);
        }
        McTable { sets }
    }

    /// `MC(d, u)`.
    #[inline]
    pub fn holds(&self, d: ShareId, u: NodeId) -> bool {
        self.sets[d.index()].contains(u)
    }

    /// The set of nodes `u` with `MC(d, u) = 1`.
    pub fn satisfying(&self, d: ShareId) -> &NodeSet {
        &self.sets[d.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Hcl;
    use crate::oracle::{intern_atoms, PplBinAtoms};
    use xpath_ast::binexpr::from_variable_free_path;
    use xpath_ast::{parse_path, Var};
    use xpath_tree::Tree;

    fn bin(src: &str) -> xpath_ast::BinExpr {
        from_variable_free_path(&parse_path(src).unwrap()).unwrap()
    }

    fn setup(tree: &Tree, hcl: &Hcl<xpath_ast::BinExpr>) -> (EquationSystem, CompiledAtoms) {
        let (interned, atoms) = intern_atoms(hcl);
        let compiled = PplBinAtoms::compile(tree, &atoms);
        let eq = EquationSystem::from_hcl(&interned);
        (eq, compiled)
    }

    #[test]
    fn atom_chain_mc_matches_reachability() {
        let t = Tree::from_terms("bib(book(author,title),book(title))").unwrap();
        // child::book / child::author — satisfiable only from the root.
        let hcl = Hcl::Atom(bin("child::book")).then(Hcl::Atom(bin("child::author")));
        let (eq, compiled) = setup(&t, &hcl);
        let mc = McTable::compute(&eq, &compiled);
        let sat = mc.satisfying(eq.root());
        assert_eq!(sat.iter().collect::<Vec<_>>(), vec![t.root()]);
    }

    #[test]
    fn variables_do_not_constrain_mc() {
        let t = Tree::from_terms("a(b,c)").unwrap();
        // child::* / x — satisfiable from the root for *some* assignment of
        // x (namely x ↦ the reached child), so MC holds at the root.
        let hcl = Hcl::Atom(bin("child::*")).then(Hcl::Var(Var::new("x")));
        let (eq, compiled) = setup(&t, &hcl);
        let mc = McTable::compute(&eq, &compiled);
        assert!(mc.holds(eq.root(), t.root()));
        // But not from a leaf, which has no child at all.
        let leaf = t.nodes_with_label_str("b")[0];
        assert!(!mc.holds(eq.root(), leaf));
    }

    #[test]
    fn filters_conjoin_and_unions_disjoin() {
        let t = Tree::from_terms("r(a(x),b(y),c)").unwrap();
        // [child::x]/child::* — nodes with an x child that also have some child.
        let hcl =
            Hcl::Filter(Box::new(Hcl::Atom(bin("child::x")))).then(Hcl::Atom(bin("child::*")));
        let (eq, compiled) = setup(&t, &hcl);
        let mc = McTable::compute(&eq, &compiled);
        let sat: Vec<_> = mc.satisfying(eq.root()).iter().collect();
        assert_eq!(sat, vec![t.nodes_with_label_str("a")[0]]);

        // child::x ∪ child::y — nodes with an x child or a y child.
        let hcl2 = Hcl::Atom(bin("child::x")).or(Hcl::Atom(bin("child::y")));
        let (eq2, compiled2) = setup(&t, &hcl2);
        let mc2 = McTable::compute(&eq2, &compiled2);
        let sat2: Vec<_> = mc2.satisfying(eq2.root()).iter().collect();
        assert_eq!(
            sat2,
            vec![
                t.nodes_with_label_str("a")[0],
                t.nodes_with_label_str("b")[0]
            ]
        );
    }

    #[test]
    fn shared_tails_are_computed_once_and_agree() {
        let t = Tree::from_terms("r(a(c),b(c),d)").unwrap();
        // (child::a ∪ child::b)/child::c — the tail child::c is shared via a
        // parameter; MC at the root must hold.
        let hcl = Hcl::Atom(bin("child::a"))
            .or(Hcl::Atom(bin("child::b")))
            .then(Hcl::Atom(bin("child::c")));
        let (eq, compiled) = setup(&t, &hcl);
        let mc = McTable::compute(&eq, &compiled);
        assert!(mc.holds(eq.root(), t.root()));
        assert_eq!(mc.satisfying(eq.root()).len(), 1);
    }

    #[test]
    fn unsatisfiable_everywhere() {
        let t = Tree::from_terms("a(b)").unwrap();
        let hcl = Hcl::Atom(bin("child::zzz")).then(Hcl::Var(Var::new("x")));
        let (eq, compiled) = setup(&t, &hcl);
        let mc = McTable::compute(&eq, &compiled);
        assert!(mc.satisfying(eq.root()).is_empty());
    }
}
