//! The PPL fragment checker (Definition 1 of the paper).
//!
//! The polynomial-time path language **PPL** is the set of Core XPath 2.0
//! expressions satisfying all of:
//!
//! * **N(for)** — no `for` loops (and thus no explicit quantifiers);
//! * **NV(intersect)** — no variables in intersections:
//!   `P1 intersect P2` requires `Var(P1) = Var(P2) = ∅`;
//! * **NV(except)** — no variables in exceptions:
//!   `P1 except P2` requires `Var(P1) = Var(P2) = ∅`;
//! * **NV(not)** — no variables below negation: `not T` requires
//!   `Var(T) = ∅`;
//! * **NVS(/)** — no variable sharing in composition:
//!   `P1 / P2` requires `Var(P1) ∩ Var(P2) = ∅`;
//! * **NVS([])** — no variable sharing in filters:
//!   `P[T]` requires `Var(P) ∩ Var(T) = ∅`;
//! * **NVS(and)** — no variable sharing in conjunctions:
//!   `T1 and T2` requires `Var(T1) ∩ Var(T2) = ∅`.
//!
//! [`check_ppl`] verifies every condition and reports each violating
//! subexpression together with the restriction it breaks, so library users
//! get actionable diagnostics rather than a bare "not in the fragment".
//!
//! [`check_pplbin`] additionally verifies the variable-free condition
//! **N($x)** of Section 4 (no variables, no `for`, no node comparisons),
//! which characterises the PPLbin dialect.

use crate::expr::{free_vars_path, free_vars_test, PathExpr, TestExpr, Var};
use std::collections::BTreeSet;
use std::fmt;

/// The individual syntactic restrictions of Definition 1 (plus N($x) of
/// Section 4 used by [`check_pplbin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Restriction {
    /// N(for): no `for` loops.
    NoFor,
    /// NV(intersect): no variables under `intersect`.
    NoVarsInIntersect,
    /// NV(except): no variables under `except`.
    NoVarsInExcept,
    /// NV(not): no variables under `not`.
    NoVarsInNot,
    /// NVS(/): no variable sharing across `/`.
    NoSharingInComposition,
    /// NVS([]): no variable sharing between a path and its filter.
    NoSharingInFilter,
    /// NVS(and): no variable sharing across `and`.
    NoSharingInAnd,
    /// N($x): no variables at all (PPLbin only).
    NoVariables,
}

impl Restriction {
    /// The paper's name for the restriction.
    pub fn paper_name(self) -> &'static str {
        match self {
            Restriction::NoFor => "N(for)",
            Restriction::NoVarsInIntersect => "NV(intersect)",
            Restriction::NoVarsInExcept => "NV(except)",
            Restriction::NoVarsInNot => "NV(not)",
            Restriction::NoSharingInComposition => "NVS(/)",
            Restriction::NoSharingInFilter => "NVS([])",
            Restriction::NoSharingInAnd => "NVS(and)",
            Restriction::NoVariables => "N($x)",
        }
    }
}

impl fmt::Display for Restriction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// One violation of the PPL restrictions: which rule, where, and which
/// variables are involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PplViolation {
    /// The restriction that is violated.
    pub restriction: Restriction,
    /// Rendering of the offending subexpression.
    pub subexpression: String,
    /// The variables that cause the violation (shared or forbidden ones).
    pub variables: Vec<Var>,
}

impl fmt::Display for PplViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "violates {} in `{}`",
            self.restriction, self.subexpression
        )?;
        if !self.variables.is_empty() {
            let vars: Vec<String> = self.variables.iter().map(|v| v.to_string()).collect();
            write!(f, " (variables: {})", vars.join(", "))?;
        }
        Ok(())
    }
}

/// Check whether `p` belongs to PPL (Definition 1).
///
/// Returns `Ok(())` when the expression satisfies every restriction, or the
/// complete list of violations otherwise.
pub fn check_ppl(p: &PathExpr) -> Result<(), Vec<PplViolation>> {
    let mut violations = Vec::new();
    walk_path(p, &mut violations);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Is `p` a PPL expression?
pub fn is_ppl(p: &PathExpr) -> bool {
    check_ppl(p).is_ok()
}

/// Check whether `p` belongs to PPLbin: PPL plus the variable-free condition
/// N($x) (no variables, no `for` loops, no node comparisons with variables).
pub fn check_pplbin(p: &PathExpr) -> Result<(), Vec<PplViolation>> {
    let mut violations = Vec::new();
    walk_path(p, &mut violations);
    if p.has_for() {
        // Already reported by NoFor; nothing extra to add here.
    }
    let vars = free_vars_path(p);
    if !vars.is_empty() {
        violations.push(PplViolation {
            restriction: Restriction::NoVariables,
            subexpression: p.to_string(),
            variables: vars.into_iter().collect(),
        });
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Is `p` variable-free (condition N($x)) and for-free?
pub fn is_variable_free(p: &PathExpr) -> bool {
    free_vars_path(p).is_empty() && !p.has_for()
}

fn shared(a: &BTreeSet<Var>, b: &BTreeSet<Var>) -> Vec<Var> {
    a.intersection(b).cloned().collect()
}

fn walk_path(p: &PathExpr, out: &mut Vec<PplViolation>) {
    match p {
        PathExpr::Step(_, _) | PathExpr::NodeRef(_) => {}
        PathExpr::Seq(a, b) => {
            let sh = shared(&free_vars_path(a), &free_vars_path(b));
            if !sh.is_empty() {
                out.push(PplViolation {
                    restriction: Restriction::NoSharingInComposition,
                    subexpression: p.to_string(),
                    variables: sh,
                });
            }
            walk_path(a, out);
            walk_path(b, out);
        }
        PathExpr::Union(a, b) => {
            // Unions are unrestricted: variables may be shared freely.
            walk_path(a, out);
            walk_path(b, out);
        }
        PathExpr::Intersect(a, b) => {
            let mut vars: Vec<Var> = free_vars_path(a).into_iter().collect();
            vars.extend(free_vars_path(b));
            if !vars.is_empty() {
                out.push(PplViolation {
                    restriction: Restriction::NoVarsInIntersect,
                    subexpression: p.to_string(),
                    variables: vars,
                });
            }
            walk_path(a, out);
            walk_path(b, out);
        }
        PathExpr::Except(a, b) => {
            let mut vars: Vec<Var> = free_vars_path(a).into_iter().collect();
            vars.extend(free_vars_path(b));
            if !vars.is_empty() {
                out.push(PplViolation {
                    restriction: Restriction::NoVarsInExcept,
                    subexpression: p.to_string(),
                    variables: vars,
                });
            }
            walk_path(a, out);
            walk_path(b, out);
        }
        PathExpr::Filter(base, test) => {
            let sh = shared(&free_vars_path(base), &free_vars_test(test));
            if !sh.is_empty() {
                out.push(PplViolation {
                    restriction: Restriction::NoSharingInFilter,
                    subexpression: p.to_string(),
                    variables: sh,
                });
            }
            walk_path(base, out);
            walk_test(test, out);
        }
        PathExpr::For(_, p1, p2) => {
            out.push(PplViolation {
                restriction: Restriction::NoFor,
                subexpression: p.to_string(),
                variables: Vec::new(),
            });
            walk_path(p1, out);
            walk_path(p2, out);
        }
    }
}

fn walk_test(t: &TestExpr, out: &mut Vec<PplViolation>) {
    match t {
        TestExpr::Path(p) => walk_path(p, out),
        TestExpr::Comp(_, _) => {}
        TestExpr::Not(inner) => {
            let vars: Vec<Var> = free_vars_test(inner).into_iter().collect();
            if !vars.is_empty() {
                out.push(PplViolation {
                    restriction: Restriction::NoVarsInNot,
                    subexpression: t.to_string(),
                    variables: vars,
                });
            }
            walk_test(inner, out);
        }
        TestExpr::And(a, b) => {
            let sh = shared(&free_vars_test(a), &free_vars_test(b));
            if !sh.is_empty() {
                out.push(PplViolation {
                    restriction: Restriction::NoSharingInAnd,
                    subexpression: t.to_string(),
                    variables: sh,
                });
            }
            walk_test(a, out);
            walk_test(b, out);
        }
        TestExpr::Or(a, b) => {
            // `or` is unrestricted, like union.
            walk_test(a, out);
            walk_test(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path;

    fn violations(src: &str) -> Vec<Restriction> {
        match check_ppl(&parse_path(src).unwrap()) {
            Ok(()) => Vec::new(),
            Err(vs) => vs.into_iter().map(|v| v.restriction).collect(),
        }
    }

    #[test]
    fn paper_introduction_example_is_ppl() {
        let src = "descendant::book[child::author[. is $y] and child::title[. is $z]]";
        assert_eq!(violations(src), Vec::new());
        assert!(is_ppl(&parse_path(src).unwrap()));
    }

    #[test]
    fn for_loops_violate_nfor() {
        assert_eq!(
            violations("for $x in child::a return child::b"),
            vec![Restriction::NoFor]
        );
    }

    #[test]
    fn variables_under_intersect_and_except() {
        assert_eq!(
            violations("$x intersect child::a"),
            vec![Restriction::NoVarsInIntersect]
        );
        assert_eq!(
            violations("child::a except $x"),
            vec![Restriction::NoVarsInExcept]
        );
        // Variable-free intersections are fine.
        assert_eq!(violations("child::a intersect child::b"), Vec::new());
        assert_eq!(violations("child::a except child::b"), Vec::new());
    }

    #[test]
    fn variables_under_not() {
        assert_eq!(
            violations("child::a[not(child::b[. is $x])]"),
            vec![Restriction::NoVarsInNot]
        );
        assert_eq!(violations("child::a[not(child::b)]"), Vec::new());
        // The paper's quantifier-free counterexample path (Section 3) is in
        // the fragment *without* variables under not... but with $y under
        // not it is rejected:
        let src = ".[not($x/descendant::*/next-sibling::*/descendant::*[. is $y])]";
        assert_eq!(violations(src), vec![Restriction::NoVarsInNot]);
    }

    #[test]
    fn variable_sharing_in_composition_and_filter_and_and() {
        assert_eq!(
            violations("child::a[. is $x]/child::b[. is $x]"),
            vec![Restriction::NoSharingInComposition]
        );
        assert_eq!(
            violations("child::a[. is $x][child::b[. is $x]]"),
            vec![Restriction::NoSharingInFilter]
        );
        assert_eq!(
            violations("child::a[child::b[. is $x] and child::c[. is $x]]"),
            vec![Restriction::NoSharingInAnd]
        );
        // Distinct variables are fine in all three positions.
        assert_eq!(
            violations("child::a[. is $x]/child::b[. is $y]"),
            Vec::new()
        );
        assert_eq!(
            violations("child::a[child::b[. is $x] and child::c[. is $y]]"),
            Vec::new()
        );
    }

    #[test]
    fn sharing_in_union_and_or_is_allowed() {
        assert_eq!(
            violations("child::a[. is $x] union child::b[. is $x]"),
            Vec::new()
        );
        assert_eq!(
            violations("child::a[child::b[. is $x] or child::c[. is $x]]"),
            Vec::new()
        );
    }

    #[test]
    fn multiple_violations_are_all_reported() {
        let src = "for $z in child::a return $x/child::b[. is $x]";
        let vs = violations(src);
        assert!(vs.contains(&Restriction::NoFor));
        assert!(vs.contains(&Restriction::NoSharingInComposition));
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn violation_display_mentions_rule_and_vars() {
        let p = parse_path("child::a[. is $x]/child::b[. is $x]").unwrap();
        let vs = check_ppl(&p).unwrap_err();
        let msg = vs[0].to_string();
        assert!(msg.contains("NVS(/)"));
        assert!(msg.contains("$x"));
    }

    #[test]
    fn pplbin_requires_variable_freedom() {
        let ok = parse_path("child::a/descendant::b union . except child::c").unwrap();
        assert!(check_pplbin(&ok).is_ok());
        assert!(is_variable_free(&ok));

        let with_var = parse_path("child::a[. is $x]").unwrap();
        let errs = check_pplbin(&with_var).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| v.restriction == Restriction::NoVariables));
        assert!(!is_variable_free(&with_var));

        let with_for = parse_path("for $x in child::a return child::b").unwrap();
        assert!(!is_variable_free(&with_for));
    }

    #[test]
    fn restriction_names_match_the_paper() {
        assert_eq!(Restriction::NoFor.to_string(), "N(for)");
        assert_eq!(Restriction::NoSharingInComposition.to_string(), "NVS(/)");
        assert_eq!(Restriction::NoVarsInNot.to_string(), "NV(not)");
        assert_eq!(Restriction::NoVariables.to_string(), "N($x)");
    }
}
