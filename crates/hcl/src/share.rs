//! Sharing expressions and equation systems (Lemma 3 of the paper).
//!
//! The answering algorithm of Fig. 8 requires that no union appears on the
//! left of a composition.  Naively rewriting `(C1 ∪ C2)/C ⇒ C1/C ∪ C2/C`
//! duplicates `C` and can blow up exponentially; the paper avoids this with
//! *sharing expressions* `D` that may refer to *parameters* `p` bound by an
//! acyclic *equation system* `∆`:
//!
//! ```text
//! E ::= x | [D] | b
//! D ::= p | D ∪ D' | E/D | self
//! ```
//!
//! Lemma 3: every composition formula `C` can be transformed in linear time
//! into a pair `(D, ∆)` with `C ≡ D_∆` and `|D| + |∆| = O(|C|)`.
//!
//! Implementation: sharing expressions are stored in an arena
//! ([`EquationSystem`]) where every node has a dense [`ShareId`]; parameters
//! are simply ids of shared sub-expressions.  Children always have smaller
//! ids than their parents, so downstream passes (the MC table, the `vals`
//! algorithm) can process nodes bottom-up by a single forward sweep and
//! memoise per id — this realises the "at most once for all subformulas of
//! `D` and `∆`" accounting of Prop. 10/11.

use crate::lang::Hcl;
use crate::oracle::AtomId;
use std::collections::BTreeSet;
use xpath_ast::Var;

/// Identifier of a sharing-expression node inside an [`EquationSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShareId(pub u32);

impl ShareId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of a sharing expression.
///
/// The head alternatives `E` of the paper's grammar are fused into the
/// composition nodes (`b/D`, `x/D`, `[D']/D''`), matching the case analysis
/// of the MC table and of Fig. 8 line by line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShareNode {
    /// `self` — the identity, end of a composition chain.
    SelfEnd,
    /// A parameter `p` bound (by the equation system) to the node `ShareId`.
    Param(ShareId),
    /// `D ∪ D'`.
    Union(ShareId, ShareId),
    /// `b / D` — an atom followed by the rest of the chain.
    StepAtom(AtomId, ShareId),
    /// `x / D` — a variable test followed by the rest of the chain.
    StepVar(Var, ShareId),
    /// `[D'] / D''` — a filter followed by the rest of the chain.
    StepFilter(ShareId, ShareId),
}

/// An arena of sharing-expression nodes together with the distinguished root
/// (the `D` of the pair `(D, ∆)`).
#[derive(Debug, Clone)]
pub struct EquationSystem {
    nodes: Vec<ShareNode>,
    /// Variables of the sub-expression rooted at each node
    /// (`Var(D_∆)` restricted to the node), used by the union case of
    /// Fig. 8.
    vars: Vec<BTreeSet<Var>>,
    root: ShareId,
}

impl EquationSystem {
    /// Normalise an HCL expression (with interned atoms) into a sharing
    /// expression — Lemma 3.
    pub fn from_hcl(hcl: &Hcl<AtomId>) -> EquationSystem {
        let mut builder = Builder {
            nodes: Vec::new(),
            vars: Vec::new(),
        };
        let end = builder.push(ShareNode::SelfEnd);
        let root = builder.normalise(hcl, end);
        EquationSystem {
            nodes: builder.nodes,
            vars: builder.vars,
            root,
        }
    }

    /// The root node (the `D` of the pair).
    pub fn root(&self) -> ShareId {
        self.root
    }

    /// Total number of sharing nodes, `|D| + |∆|` in the paper's accounting.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the system contains no nodes (never the case after
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, id: ShareId) -> &ShareNode {
        &self.nodes[id.index()]
    }

    /// Iterate over all `(id, node)` pairs in bottom-up (children-first)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (ShareId, &ShareNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (ShareId(i as u32), n))
    }

    /// The variables occurring in the sub-expression rooted at `id`.
    pub fn vars(&self, id: ShareId) -> &BTreeSet<Var> {
        &self.vars[id.index()]
    }

    /// Check the structural invariant that every child id is smaller than
    /// its parent id (acyclicity of the equation system).
    pub fn check_acyclic(&self) -> bool {
        self.iter().all(|(id, node)| match node {
            ShareNode::SelfEnd => true,
            ShareNode::Param(c) => c.0 < id.0,
            ShareNode::Union(a, b) | ShareNode::StepFilter(a, b) => a.0 < id.0 && b.0 < id.0,
            ShareNode::StepAtom(_, c) | ShareNode::StepVar(_, c) => c.0 < id.0,
        })
    }
}

struct Builder {
    nodes: Vec<ShareNode>,
    vars: Vec<BTreeSet<Var>>,
}

impl Builder {
    fn push(&mut self, node: ShareNode) -> ShareId {
        let vars = match &node {
            ShareNode::SelfEnd => BTreeSet::new(),
            ShareNode::Param(c) => self.vars[c.index()].clone(),
            ShareNode::Union(a, b) | ShareNode::StepFilter(a, b) => {
                let mut v = self.vars[a.index()].clone();
                v.extend(self.vars[b.index()].iter().cloned());
                v
            }
            ShareNode::StepAtom(_, c) => self.vars[c.index()].clone(),
            ShareNode::StepVar(x, c) => {
                let mut v = self.vars[c.index()].clone();
                v.insert(x.clone());
                v
            }
        };
        let id = ShareId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.vars.push(vars);
        id
    }

    /// Is duplicating a reference to `tail` free of size blow-up?
    fn is_cheap(&self, tail: ShareId) -> bool {
        matches!(
            self.nodes[tail.index()],
            ShareNode::SelfEnd | ShareNode::Param(_)
        )
    }

    /// Wrap `tail` into a parameter unless it is already cheap to reference.
    fn share(&mut self, tail: ShareId) -> ShareId {
        if self.is_cheap(tail) {
            tail
        } else {
            self.push(ShareNode::Param(tail))
        }
    }

    /// Build a sharing expression denoting `hcl / tail`.
    fn normalise(&mut self, hcl: &Hcl<AtomId>, tail: ShareId) -> ShareId {
        match hcl {
            Hcl::Atom(b) => self.push(ShareNode::StepAtom(*b, tail)),
            Hcl::Var(x) => self.push(ShareNode::StepVar(x.clone(), tail)),
            Hcl::Filter(inner) => {
                let end = self.push(ShareNode::SelfEnd);
                let body = self.normalise(inner, end);
                self.push(ShareNode::StepFilter(body, tail))
            }
            Hcl::Seq(a, b) => {
                let rest = self.normalise(b, tail);
                self.normalise(a, rest)
            }
            Hcl::Union(a, b) => {
                // The tail would be referenced by both branches: share it so
                // the construction stays linear (the rewrite rule of
                // Lemma 3, `(C1 ∪ C2)/C ⇒ C1/p ∪ C2/p with ∆(p) = C`).
                let shared = self.share(tail);
                let left = self.normalise(a, shared);
                let right = self.normalise(b, shared);
                self.push(ShareNode::Union(left, right))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(i: u32) -> Hcl<AtomId> {
        Hcl::Atom(AtomId(i))
    }

    fn var(s: &str) -> Hcl<AtomId> {
        Hcl::Var(Var::new(s))
    }

    #[test]
    fn simple_chain() {
        // a/x/b  becomes  StepAtom(a, StepVar(x, StepAtom(b, self)))
        let c = atom(0).then(var("x")).then(atom(1));
        let eq = EquationSystem::from_hcl(&c);
        assert!(eq.check_acyclic());
        assert!(!eq.is_empty());
        match eq.node(eq.root()) {
            ShareNode::StepAtom(AtomId(0), rest) => match eq.node(*rest) {
                ShareNode::StepVar(x, rest2) => {
                    assert_eq!(x.name(), "x");
                    assert!(matches!(eq.node(*rest2), ShareNode::StepAtom(AtomId(1), _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            eq.vars(eq.root())
                .iter()
                .map(|v| v.name().to_string())
                .collect::<Vec<_>>(),
            vec!["x"]
        );
    }

    #[test]
    fn unions_on_the_left_of_compositions_are_shared() {
        // (a ∪ b)/c — the tail `c/self` must be bound to a parameter that
        // both branches reference.
        let c = atom(0).or(atom(1)).then(atom(2));
        let eq = EquationSystem::from_hcl(&c);
        assert!(eq.check_acyclic());
        let params = eq
            .iter()
            .filter(|(_, n)| matches!(n, ShareNode::Param(_)))
            .count();
        assert_eq!(params, 1);
        // Both union branches end in the same parameter id.
        let mut param_targets = Vec::new();
        for (_, n) in eq.iter() {
            if let ShareNode::StepAtom(_, rest) = n {
                if matches!(eq.node(*rest), ShareNode::Param(_)) {
                    param_targets.push(*rest);
                }
            }
        }
        assert_eq!(param_targets.len(), 2);
        assert_eq!(param_targets[0], param_targets[1]);
    }

    #[test]
    fn nested_unions_stay_linear() {
        // ((a ∪ b) ∪ (c ∪ d)) / ((e ∪ f) / g) — repeated nesting of unions on
        // the left must keep the arena linear in the source size.
        fn unions(depth: u32, next: &mut u32) -> Hcl<AtomId> {
            if depth == 0 {
                let a = Hcl::Atom(AtomId(*next));
                *next += 1;
                a
            } else {
                unions(depth - 1, next).or(unions(depth - 1, next))
            }
        }
        let mut next = 0;
        let mut expr = unions(4, &mut next); // 16 atoms in a union tree
        for _ in 0..6 {
            expr = unions(2, &mut next).then(expr);
        }
        let size = expr.size();
        let eq = EquationSystem::from_hcl(&expr);
        assert!(eq.check_acyclic());
        assert!(
            eq.len() <= 3 * size,
            "sharing normalisation must stay linear: {} vs source {}",
            eq.len(),
            size
        );
    }

    #[test]
    fn naive_distribution_would_be_exponential_but_sharing_is_not() {
        // (a0 ∪ b0)/(a1 ∪ b1)/…/(ak ∪ bk): distributing unions to the top
        // yields 2^k leaves, the sharing normalisation stays linear.
        let k = 16;
        let mut expr = atom(0).or(atom(1));
        for i in 1..k {
            expr = expr.then(atom(2 * i).or(atom(2 * i + 1)));
        }
        let eq = EquationSystem::from_hcl(&expr);
        assert!(eq.check_acyclic());
        assert!(eq.len() <= 4 * expr.size());
    }

    #[test]
    fn filters_get_their_own_self_terminated_body() {
        let c = Hcl::Filter(Box::new(atom(0).then(var("y")))).then(atom(1));
        let eq = EquationSystem::from_hcl(&c);
        assert!(eq.check_acyclic());
        match eq.node(eq.root()) {
            ShareNode::StepFilter(body, rest) => {
                assert!(matches!(eq.node(*body), ShareNode::StepAtom(AtomId(0), _)));
                assert!(matches!(eq.node(*rest), ShareNode::StepAtom(AtomId(1), _)));
                assert_eq!(eq.vars(*body).len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn variable_sets_propagate_through_unions_and_params() {
        let c = var("x").or(var("y")).then(atom(0));
        let eq = EquationSystem::from_hcl(&c);
        let root_vars: Vec<String> = eq
            .vars(eq.root())
            .iter()
            .map(|v| v.name().to_string())
            .collect();
        assert_eq!(root_vars, vec!["x", "y"]);
    }
}
