//! Abstract syntax of FO over unranked trees (Section 2 of the paper).

use std::collections::BTreeSet;
use std::fmt;
use xpath_ast::Var;

/// An FO formula over the signature `{ns*, ch*, lab_a}`.
///
/// The primitive constructors mirror the paper's grammar exactly; the
/// associated functions [`Formula::or`], [`Formula::implies`],
/// [`Formula::forall`] and [`Formula::eq`] build the usual derived forms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// `ns*(x, y)` — `y` is `x` or a following sibling of `x`.
    NsStar(Var, Var),
    /// `ch*(x, y)` — `y` is `x` or a descendant of `x`.
    ChStar(Var, Var),
    /// `lab_a(x)` — the node `x` carries label `a`.
    Label(String, Var),
    /// `¬φ`
    Not(Box<Formula>),
    /// `φ₁ ∧ φ₂`
    And(Box<Formula>, Box<Formula>),
    /// `∃x φ`
    Exists(Var, Box<Formula>),
}

impl Formula {
    /// `ns*(x, y)`
    pub fn ns_star(x: &str, y: &str) -> Formula {
        Formula::NsStar(Var::new(x), Var::new(y))
    }

    /// `ch*(x, y)`
    pub fn ch_star(x: &str, y: &str) -> Formula {
        Formula::ChStar(Var::new(x), Var::new(y))
    }

    /// `lab_a(x)`
    pub fn label(label: &str, x: &str) -> Formula {
        Formula::Label(label.to_string(), Var::new(x))
    }

    /// `¬self`
    pub fn negate(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// `self ∧ other`
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// Derived disjunction `self ∨ other = ¬(¬self ∧ ¬other)`.
    pub fn or(self, other: Formula) -> Formula {
        self.negate().and(other.negate()).negate()
    }

    /// Derived implication `self → other = ¬(self ∧ ¬other)`.
    pub fn implies(self, other: Formula) -> Formula {
        self.and(other.negate()).negate()
    }

    /// `∃x self`
    pub fn exists(x: &str, body: Formula) -> Formula {
        Formula::Exists(Var::new(x), Box::new(body))
    }

    /// Derived universal quantifier `∀x φ = ¬∃x ¬φ`.
    pub fn forall(x: &str, body: Formula) -> Formula {
        Formula::Exists(Var::new(x), Box::new(body.negate())).negate()
    }

    /// Derived node equality `x = y`, definable as `ch*(x,y) ∧ ch*(y,x)`
    /// (Section 2: "Node equality is definable too").
    pub fn eq(x: &str, y: &str) -> Formula {
        Formula::ch_star(x, y).and(Formula::ch_star(y, x))
    }

    /// Derived strict child relation `ch(x, y)`:
    /// `ch*(x,y) ∧ x ≠ y ∧ ¬∃z (x ≠ z ∧ z ≠ y ∧ ch*(x,z) ∧ ch*(z,y))`.
    pub fn child(x: &str, y: &str) -> Formula {
        let strictly_between = Formula::exists(
            "__mid",
            Formula::ch_star(x, "__mid")
                .and(Formula::ch_star("__mid", y))
                .and(Formula::eq(x, "__mid").negate())
                .and(Formula::eq("__mid", y).negate()),
        );
        Formula::ch_star(x, y)
            .and(Formula::eq(x, y).negate())
            .and(strictly_between.negate())
    }

    /// Number of AST nodes `|φ|`.
    pub fn size(&self) -> usize {
        match self {
            Formula::NsStar(_, _) | Formula::ChStar(_, _) | Formula::Label(_, _) => 1,
            Formula::Not(f) | Formula::Exists(_, f) => 1 + f.size(),
            Formula::And(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Quantifier rank (maximum nesting depth of `∃`).
    pub fn quantifier_rank(&self) -> usize {
        match self {
            Formula::NsStar(_, _) | Formula::ChStar(_, _) | Formula::Label(_, _) => 0,
            Formula::Not(f) => f.quantifier_rank(),
            Formula::And(a, b) => a.quantifier_rank().max(b.quantifier_rank()),
            Formula::Exists(_, f) => 1 + f.quantifier_rank(),
        }
    }

    /// Is the formula quantifier-free?
    pub fn is_quantifier_free(&self) -> bool {
        self.quantifier_rank() == 0
    }

    /// The free variables `Var(φ)`.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut out);
        out
    }

    fn collect_free(&self, out: &mut BTreeSet<Var>) {
        match self {
            Formula::NsStar(x, y) | Formula::ChStar(x, y) => {
                out.insert(x.clone());
                out.insert(y.clone());
            }
            Formula::Label(_, x) => {
                out.insert(x.clone());
            }
            Formula::Not(f) => f.collect_free(out),
            Formula::And(a, b) => {
                a.collect_free(out);
                b.collect_free(out);
            }
            Formula::Exists(x, f) => {
                let mut inner = BTreeSet::new();
                f.collect_free(&mut inner);
                inner.remove(x);
                out.extend(inner);
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::NsStar(x, y) => write!(f, "nsstar({}, {})", x.name(), y.name()),
            Formula::ChStar(x, y) => write!(f, "chstar({}, {})", x.name(), y.name()),
            Formula::Label(l, x) => write!(f, "lab({l}, {})", x.name()),
            Formula::Not(inner) => write!(f, "not ({inner})"),
            Formula::And(a, b) => write!(f, "({a} and {b})"),
            Formula::Exists(x, body) => write!(f, "exists {}. ({body})", x.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_variables_and_binding() {
        let phi = Formula::exists(
            "z",
            Formula::ch_star("x", "z").and(Formula::ns_star("z", "y")),
        );
        let free: Vec<_> = phi
            .free_vars()
            .iter()
            .map(|v| v.name().to_string())
            .collect();
        assert_eq!(free, vec!["x", "y"]);
        assert_eq!(phi.quantifier_rank(), 1);
        assert!(!phi.is_quantifier_free());
        assert!(Formula::label("a", "x").is_quantifier_free());
    }

    #[test]
    fn size_counts_nodes() {
        let phi = Formula::label("a", "x")
            .and(Formula::ch_star("x", "y"))
            .negate();
        assert_eq!(phi.size(), 4);
    }

    #[test]
    fn derived_forms_expand_to_primitives() {
        let or = Formula::label("a", "x").or(Formula::label("b", "x"));
        assert!(matches!(or, Formula::Not(_)));
        let forall = Formula::forall("x", Formula::label("a", "x"));
        assert!(matches!(forall, Formula::Not(_)));
        let eq = Formula::eq("x", "y");
        assert_eq!(eq.free_vars().len(), 2);
        let imp = Formula::label("a", "x").implies(Formula::label("b", "x"));
        assert!(matches!(imp, Formula::Not(_)));
    }

    #[test]
    fn display_is_readable() {
        let phi = Formula::exists(
            "x",
            Formula::label("book", "x").and(Formula::ch_star("x", "y")),
        );
        let s = phi.to_string();
        assert!(s.contains("exists x."));
        assert!(s.contains("lab(book, x)"));
        assert!(s.contains("chstar(x, y)"));
    }
}
