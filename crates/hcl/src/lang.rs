//! The hybrid composition language HCL(L) — syntax and semantics-level
//! helpers (Fig. 5 and Fig. 6 of the paper).
//!
//! An expression `C ∈ HCL(L)` is one of
//!
//! ```text
//! C := b        (b ∈ L, an expression defining a binary query)
//!    | C / C'   (composition)
//!    | x        (a variable, interpreted as the node test {(α(x), α(x))})
//!    | [C]      (filter: {(u,u) | ∃u'. (u,u') ∈ ⟦C⟧})
//!    | C ∪ C'   (union)
//! ```
//!
//! The type is generic in the atom type `B`, mirroring the paper's
//! parameterisation by the binary query language `L`.  `HCL⁻(L)` is the
//! fragment satisfying NVS(/): no variable sharing in compositions;
//! [`Hcl::check_no_sharing`] verifies it.

use std::collections::BTreeSet;
use std::fmt;
use xpath_ast::Var;

/// An HCL(L) expression with atoms of type `B`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Hcl<B> {
    /// A binary query `b ∈ L`.
    Atom(B),
    /// A variable `x`, used as an equality node test.
    Var(Var),
    /// Composition `C / C'`.
    Seq(Box<Hcl<B>>, Box<Hcl<B>>),
    /// Filter `[C]`.
    Filter(Box<Hcl<B>>),
    /// Union `C ∪ C'`.
    Union(Box<Hcl<B>>, Box<Hcl<B>>),
}

impl<B> Hcl<B> {
    /// Composition `self / other`.
    pub fn then(self, other: Hcl<B>) -> Hcl<B> {
        Hcl::Seq(Box::new(self), Box::new(other))
    }

    /// Union `self ∪ other`.
    pub fn or(self, other: Hcl<B>) -> Hcl<B> {
        Hcl::Union(Box::new(self), Box::new(other))
    }

    /// Filter `[self]`.
    pub fn filter(self) -> Hcl<B> {
        Hcl::Filter(Box::new(self))
    }

    /// The *composition size* `|C|`: the number of HCL nodes.  Atoms count 1
    /// regardless of their size as expressions of `L`, exactly as defined in
    /// Section 5 of the paper.
    pub fn size(&self) -> usize {
        match self {
            Hcl::Atom(_) | Hcl::Var(_) => 1,
            Hcl::Seq(a, b) | Hcl::Union(a, b) => 1 + a.size() + b.size(),
            Hcl::Filter(c) => 1 + c.size(),
        }
    }

    /// The variables occurring in the expression.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Hcl::Atom(_) => {}
            Hcl::Var(x) => {
                out.insert(x.clone());
            }
            Hcl::Seq(a, b) | Hcl::Union(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Hcl::Filter(c) => c.collect_vars(out),
        }
    }

    /// All atoms of the expression, in left-to-right order (with repeats).
    pub fn atoms(&self) -> Vec<&B> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a B>) {
        match self {
            Hcl::Atom(b) => out.push(b),
            Hcl::Var(_) => {}
            Hcl::Seq(a, b) | Hcl::Union(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
            Hcl::Filter(c) => c.collect_atoms(out),
        }
    }

    /// Check the NVS(/) condition of `HCL⁻(L)`: no composition `C/C'` with
    /// `Var(C) ∩ Var(C') ≠ ∅`.  Returns the shared variables of the first
    /// violating composition, if any.
    pub fn check_no_sharing(&self) -> Result<(), Vec<Var>> {
        match self {
            Hcl::Atom(_) | Hcl::Var(_) => Ok(()),
            Hcl::Seq(a, b) => {
                let shared: Vec<Var> = a.vars().intersection(&b.vars()).cloned().collect();
                if !shared.is_empty() {
                    return Err(shared);
                }
                a.check_no_sharing()?;
                b.check_no_sharing()
            }
            Hcl::Union(a, b) => {
                a.check_no_sharing()?;
                b.check_no_sharing()
            }
            Hcl::Filter(c) => c.check_no_sharing(),
        }
    }

    /// Is the expression in `HCL⁻(L)`?
    pub fn is_hcl_minus(&self) -> bool {
        self.check_no_sharing().is_ok()
    }

    /// Is the expression union-free (the `N(∪)` fragment related to acyclic
    /// conjunctive queries in Section 6)?
    pub fn is_union_free(&self) -> bool {
        match self {
            Hcl::Atom(_) | Hcl::Var(_) => true,
            Hcl::Seq(a, b) => a.is_union_free() && b.is_union_free(),
            Hcl::Union(_, _) => false,
            Hcl::Filter(c) => c.is_union_free(),
        }
    }

    /// Map the atoms of the expression, keeping the structure.
    pub fn map_atoms<B2>(&self, f: &mut impl FnMut(&B) -> B2) -> Hcl<B2> {
        match self {
            Hcl::Atom(b) => Hcl::Atom(f(b)),
            Hcl::Var(x) => Hcl::Var(x.clone()),
            Hcl::Seq(a, b) => Hcl::Seq(Box::new(a.map_atoms(f)), Box::new(b.map_atoms(f))),
            Hcl::Union(a, b) => Hcl::Union(Box::new(a.map_atoms(f)), Box::new(b.map_atoms(f))),
            Hcl::Filter(c) => Hcl::Filter(Box::new(c.map_atoms(f))),
        }
    }
}

fn hcl_prec<B>(c: &Hcl<B>) -> u8 {
    match c {
        Hcl::Union(_, _) => 1,
        Hcl::Seq(_, _) => 2,
        Hcl::Atom(_) | Hcl::Var(_) | Hcl::Filter(_) => 3,
    }
}

fn fmt_hcl<B: fmt::Display>(c: &Hcl<B>, min_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let prec = hcl_prec(c);
    let parens = prec < min_prec;
    if parens {
        f.write_str("(")?;
    }
    match c {
        Hcl::Atom(b) => write!(f, "{b}")?,
        Hcl::Var(x) => write!(f, "{x}")?,
        Hcl::Seq(a, b) => {
            fmt_hcl(a, prec, f)?;
            f.write_str("/")?;
            fmt_hcl(b, prec, f)?;
        }
        Hcl::Union(a, b) => {
            fmt_hcl(a, prec, f)?;
            f.write_str(" ∪ ")?;
            fmt_hcl(b, prec, f)?;
        }
        Hcl::Filter(inner) => {
            f.write_str("[")?;
            fmt_hcl(inner, 0, f)?;
            f.write_str("]")?;
        }
    }
    if parens {
        f.write_str(")")?;
    }
    Ok(())
}

impl<B: fmt::Display> fmt::Display for Hcl<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_hcl(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(s: &str) -> Hcl<String> {
        Hcl::Atom(s.to_string())
    }

    fn var(s: &str) -> Hcl<String> {
        Hcl::Var(Var::new(s))
    }

    #[test]
    fn size_counts_hcl_nodes_not_atom_sizes() {
        let c = atom("a-very-long-binary-query")
            .then(var("x"))
            .or(atom("b"));
        // union(seq(atom, var), atom) = 5
        assert_eq!(c.size(), 5);
    }

    #[test]
    fn vars_and_atoms_collection() {
        let c = atom("ch")
            .then(var("x"))
            .or(atom("desc").then(var("y")))
            .filter();
        assert_eq!(
            c.vars()
                .iter()
                .map(|v| v.name().to_string())
                .collect::<Vec<_>>(),
            vec!["x", "y"]
        );
        assert_eq!(c.atoms().len(), 2);
    }

    #[test]
    fn nvs_check_detects_sharing_only_in_compositions() {
        let shared_comp = var("x").then(atom("ch")).then(var("x"));
        assert!(!shared_comp.is_hcl_minus());
        assert_eq!(
            shared_comp.check_no_sharing().unwrap_err(),
            vec![Var::new("x")]
        );

        let shared_union = var("x").then(atom("a")).or(var("x").then(atom("b")));
        assert!(shared_union.is_hcl_minus());

        let nested = atom("a").then(var("x").then(atom("b")).filter().then(var("x")));
        assert!(!nested.is_hcl_minus());
    }

    #[test]
    fn union_freedom() {
        assert!(atom("a").then(var("x")).is_union_free());
        assert!(!atom("a").or(atom("b")).is_union_free());
        assert!(!atom("a")
            .then(atom("b").or(atom("c")))
            .filter()
            .is_union_free());
    }

    #[test]
    fn display_with_precedence() {
        let c = atom("a").or(atom("b")).then(atom("c"));
        assert_eq!(c.to_string(), "(a ∪ b)/c");
        let d = atom("a").then(var("x")).or(atom("b").filter());
        assert_eq!(d.to_string(), "a/$x ∪ [b]");
    }

    #[test]
    fn map_atoms_preserves_structure() {
        let c = atom("a").then(var("x")).or(atom("b"));
        let mapped = c.map_atoms(&mut |s| s.len());
        assert_eq!(mapped.size(), c.size());
        assert_eq!(mapped.atoms(), vec![&1usize, &1usize]);
        assert_eq!(mapped.vars(), c.vars());
    }
}
