//! Random 3-SAT instances and the Proposition 3 reduction.
//!
//! Proposition 3 of the paper: query non-emptiness for Core XPath 2.0
//! *without* `for` loops and *without* variables below negation is
//! NP-complete, by reduction from SAT.  "The encoding of Sat relies on using
//! variable sharing between different branches of compositions" — exactly
//! the sharing that PPL's NVS conditions forbid.
//!
//! The concrete encoding used here:
//!
//! * **Tree**: `formula(var_1(true,false), …, var_n(true,false))` — one
//!   subtree per propositional variable with its two possible values.
//! * **Query**: a chain of filters on the root node,
//!
//!   ```text
//!   .[not(parent::*)]
//!     [child::var_i/child::*[. is $x_i]]              (for every variable i)
//!     [child::var_j/child::pol[. is $x_j] or …]       (for every clause)
//!   ```
//!
//!   where `pol ∈ {true, false}` is the polarity of each literal.  The first
//!   group forces every `$x_i` to denote one of the two value nodes of
//!   `var_i` (a truth assignment); each clause filter re-uses the same
//!   variables — the query is non-empty iff the instance is satisfiable.
//!
//! The query satisfies N(for) and NV(not) but violates NVS([]) / NVS(and),
//! so the PPL checker rejects it — the benchmark experiment E5 uses it to
//! show both the rejection and the exponential cost of the naive engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpath_ast::dsl::{at_root, has, is_var, or, seq, step_child};
use xpath_ast::{PathExpr, TestExpr, Var};
use xpath_tree::{Tree, TreeBuilder};

/// A propositional literal: variable index (0-based) and polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Literal {
    /// 0-based variable index.
    pub var: usize,
    /// `true` for a positive literal, `false` for a negated one.
    pub positive: bool,
}

/// A 3-SAT instance (clauses may have 1–3 literals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatInstance {
    /// Number of propositional variables.
    pub num_vars: usize,
    /// The clauses (disjunctions of literals).
    pub clauses: Vec<Vec<Literal>>,
}

impl SatInstance {
    /// Evaluate the instance under an assignment (indexed by variable).
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|lit| assignment[lit.var] == lit.positive))
    }

    /// Brute-force satisfiability test (exponential; for validation only).
    pub fn brute_force_satisfiable(&self) -> bool {
        let n = self.num_vars;
        assert!(n <= 24, "brute force limited to small instances");
        (0u32..(1 << n)).any(|bits| {
            let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            self.evaluate(&assignment)
        })
    }
}

/// Generate a random 3-SAT instance with the given number of variables and
/// clauses (deterministic for a fixed seed).
pub fn random_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> SatInstance {
    assert!(num_vars >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let clauses = (0..num_clauses)
        .map(|_| {
            let mut lits = Vec::with_capacity(3);
            while lits.len() < 3 {
                let var = rng.gen_range(0..num_vars);
                if lits.iter().any(|l: &Literal| l.var == var) {
                    if num_vars < 3 {
                        break; // small instances cannot have 3 distinct vars
                    }
                    continue;
                }
                lits.push(Literal {
                    var,
                    positive: rng.gen_bool(0.5),
                });
            }
            lits
        })
        .collect();
    SatInstance { num_vars, clauses }
}

/// Build the encoding tree `formula(var_1(true,false), …)`.
pub fn encode_sat_tree(instance: &SatInstance) -> Tree {
    let mut b = TreeBuilder::new();
    b.open("formula");
    for i in 0..instance.num_vars {
        b.open(&format!("var{i}"));
        b.leaf("true");
        b.leaf("false");
        b.close();
    }
    b.close();
    b.finish().expect("sat tree is balanced")
}

/// Build the encoding query (Prop. 3).  Returns the query and the node
/// variables `$x_i` used for the truth assignment.
pub fn encode_sat_query(instance: &SatInstance) -> (PathExpr, Vec<Var>) {
    let vars: Vec<Var> = (0..instance.num_vars)
        .map(|i| Var::new(&format!("x{i}")))
        .collect();

    let mut query = at_root();

    // Assignment filters: $x_i must be one of the value nodes of var_i.
    for (i, var) in vars.iter().enumerate() {
        let value_of_var = seq(
            step_child(&format!("var{i}")),
            PathExpr::Filter(
                Box::new(step_child("true").or_path(step_child("false"))),
                Box::new(is_var(var.name())),
            ),
        );
        query = query.filter(has(value_of_var));
    }

    // Clause filters: at least one literal of the clause is witnessed by the
    // shared assignment variable pointing at the right polarity node.
    for clause in &instance.clauses {
        let mut clause_test: Option<TestExpr> = None;
        for lit in clause {
            let polarity = if lit.positive { "true" } else { "false" };
            let literal_path = seq(
                step_child(&format!("var{}", lit.var)),
                PathExpr::Filter(
                    Box::new(step_child(polarity)),
                    Box::new(is_var(vars[lit.var].name())),
                ),
            );
            let literal_test = has(literal_path);
            clause_test = Some(match clause_test {
                None => literal_test,
                Some(acc) => or(acc, literal_test),
            });
        }
        if let Some(test) = clause_test {
            query = query.filter(test);
        }
    }

    (query, vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::ppl::{check_ppl, Restriction};
    use xpath_naive::answer_nary;

    #[test]
    fn evaluate_and_brute_force() {
        // (x0 ∨ ¬x1) ∧ (¬x0 ∨ x1)
        let inst = SatInstance {
            num_vars: 2,
            clauses: vec![
                vec![
                    Literal {
                        var: 0,
                        positive: true,
                    },
                    Literal {
                        var: 1,
                        positive: false,
                    },
                ],
                vec![
                    Literal {
                        var: 0,
                        positive: false,
                    },
                    Literal {
                        var: 1,
                        positive: true,
                    },
                ],
            ],
        };
        assert!(inst.evaluate(&[true, true]));
        assert!(!inst.evaluate(&[true, false]));
        assert!(inst.brute_force_satisfiable());

        // x0 ∧ ¬x0 is unsatisfiable.
        let unsat = SatInstance {
            num_vars: 1,
            clauses: vec![
                vec![Literal {
                    var: 0,
                    positive: true,
                }],
                vec![Literal {
                    var: 0,
                    positive: false,
                }],
            ],
        };
        assert!(!unsat.brute_force_satisfiable());
    }

    #[test]
    fn random_instances_are_deterministic_and_well_formed() {
        let a = random_3sat(5, 12, 99);
        let b = random_3sat(5, 12, 99);
        assert_eq!(a, b);
        assert_eq!(a.clauses.len(), 12);
        assert!(a.clauses.iter().all(|c| !c.is_empty() && c.len() <= 3));
        assert!(a
            .clauses
            .iter()
            .all(|c| c.iter().all(|l| l.var < a.num_vars)));
        let c = random_3sat(5, 12, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn encoding_tree_shape() {
        let inst = random_3sat(4, 6, 1);
        let tree = encode_sat_tree(&inst);
        assert_eq!(tree.len(), 1 + 3 * 4);
        assert_eq!(tree.nodes_with_label_str("true").len(), 4);
        assert_eq!(tree.nodes_with_label_str("false").len(), 4);
    }

    #[test]
    fn encoded_queries_violate_nvs_but_not_nfor_or_nvnot() {
        let inst = random_3sat(3, 4, 7);
        let (query, _) = encode_sat_query(&inst);
        let violations = check_ppl(&query).unwrap_err();
        assert!(violations
            .iter()
            .all(|v| !matches!(v.restriction, Restriction::NoFor | Restriction::NoVarsInNot)));
        assert!(violations.iter().any(|v| matches!(
            v.restriction,
            Restriction::NoSharingInFilter | Restriction::NoSharingInAnd
        )));
    }

    #[test]
    fn reduction_is_correct_on_small_instances() {
        // Non-emptiness of the encoded query ⇔ satisfiability, checked with
        // the naive engine (Boolean query: empty output tuple).
        for seed in 0..6 {
            let inst = random_3sat(3, 5, seed);
            let tree = encode_sat_tree(&inst);
            let (query, _vars) = encode_sat_query(&inst);
            let nonempty = !answer_nary(&tree, &query, &[]).unwrap().is_empty();
            assert_eq!(
                nonempty,
                inst.brute_force_satisfiable(),
                "reduction incorrect for seed {seed}: {inst:?}"
            );
        }
        // A designed unsatisfiable instance maps to an empty query.
        let unsat = SatInstance {
            num_vars: 2,
            clauses: vec![
                vec![Literal {
                    var: 0,
                    positive: true,
                }],
                vec![Literal {
                    var: 0,
                    positive: false,
                }],
            ],
        };
        let tree = encode_sat_tree(&unsat);
        let (query, _) = encode_sat_query(&unsat);
        assert!(answer_nary(&tree, &query, &[]).unwrap().is_empty());
    }

    #[test]
    fn satisfying_assignments_correspond_to_answer_tuples() {
        // With the assignment variables as outputs, every answer tuple is a
        // satisfying assignment (value nodes of the right polarity).
        let inst = SatInstance {
            num_vars: 2,
            clauses: vec![vec![
                Literal {
                    var: 0,
                    positive: true,
                },
                Literal {
                    var: 1,
                    positive: true,
                },
            ]],
        };
        let tree = encode_sat_tree(&inst);
        let (query, vars) = encode_sat_query(&inst);
        let answers = answer_nary(&tree, &query, &vars).unwrap();
        // 3 of the 4 assignments satisfy x0 ∨ x1.
        assert_eq!(answers.len(), 3);
        for tuple in &answers {
            let values: Vec<&str> = tuple.iter().map(|&n| tree.label_str(n)).collect();
            let assignment: Vec<bool> = values.iter().map(|&v| v == "true").collect();
            assert!(inst.evaluate(&assignment), "{values:?}");
        }
    }
}
