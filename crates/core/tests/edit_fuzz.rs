//! Differential edit fuzz: incremental maintenance vs full recompilation.
//!
//! The live-document subsystem patches PPLbin matrices in place under tree
//! edits ([`Session::fork_edited`]) instead of recompiling them.  Any bug in
//! the row-range invalidation — a dirty row not recomputed, a stale interval
//! kept, a preimage remapped off by one — shows up as a *wrong answer on a
//! warm session only*, which no single-shot differential test can catch.
//!
//! `run_edit_fuzz` closes that hole: ≥100 random edit scripts over random
//! documents of every generator shape, and after **every** edit the warm
//! session (cache carried through the whole script so far) must agree
//! tuple-for-tuple with a cold full-recompile session on all four engines.

use ppl_xpath::prelude::*;
use std::sync::Arc;
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_workload::edits::random_edit_script;

/// Query suite over the generator alphabet `l0..l2` (plus the off-alphabet
/// relabel target `l3`): name tests, wildcards, shared-variable unions,
/// `except`, negation, goto-style free variables and sibling navigation —
/// every subterm family the incremental patcher handles differently.
fn query_suite() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("descendant::l0[. is $x]", vec!["x"]),
        ("child::*[. is $x]/child::*[. is $y]", vec!["x", "y"]),
        (
            "descendant::l0[. is $x] union descendant::l1[. is $x]",
            vec!["x"],
        ),
        ("descendant::*[child::l1[. is $c]]", vec!["c"]),
        ("(descendant::* except descendant::l2)[. is $n]", vec!["n"]),
        ("descendant::*[not(child::*)][. is $leaf]", vec!["leaf"]),
        ("$x/child::*[. is $y]", vec!["x", "y"]),
        (
            "descendant::l0[. is $a]/following_sibling::*[. is $b]",
            vec!["a", "b"],
        ),
        ("descendant::l1", vec![]),
        ("descendant::*[child::l0 or child::l3][. is $p]", vec!["p"]),
    ]
}

/// Plan `src` on `session` with `engine` forced (the auto planner would
/// route these small fuzz documents to naive, bypassing the warm cache that
/// is the whole point of the exercise).
fn forced_plan(session: &Session, engine: Engine, src: &str, vars: &[&str]) -> QueryPlan {
    Planner::default()
        .plan_with(
            session,
            parse_path(src).unwrap(),
            vars.iter().map(|n| Var::new(n)).collect(),
            Some(engine),
        )
        .unwrap_or_else(|e| panic!("{engine} cannot plan {src:?}: {e}"))
}

/// Replay one random edit script, checking the warm session against a cold
/// recompile on every engine after every edit.
fn run_script(shape: TreeShape, seed: u64, edits: usize) {
    let start = random_tree(&TreeGenConfig {
        size: 8,
        shape,
        alphabet: 3,
        seed,
    });
    let suite = query_suite();
    let mut warm = Session::from_tree(start.clone());
    // Warm the cache before the first edit: cold stores take the trivial
    // recompile path, and the fuzz is about *patched* matrices.
    for (src, vars) in &suite {
        let plan = forced_plan(&warm, Engine::Ppl, src, vars);
        warm.execute(&plan).unwrap();
    }
    assert!(
        warm.cache_stats().compiled > 0,
        "suite must warm the cache for the fuzz to mean anything"
    );
    let mut tree = start;
    for (step, (edit, expected_tree)) in random_edit_script(&tree, edits, 3, seed ^ 0x9E3779B9)
        .iter()
        .enumerate()
    {
        let (next, delta) = edit.apply(&tree).unwrap();
        assert_eq!(next.to_terms(), expected_tree.to_terms());
        let next = Arc::new(next);
        let (forked, _) = warm.fork_edited(Arc::clone(&next), &delta);
        let cold = Session::from_shared_tree(Arc::clone(&next));
        for (src, vars) in &suite {
            let got = forked
                .execute(&forced_plan(&forked, Engine::Ppl, src, vars))
                .unwrap();
            for engine in Engine::ALL {
                let expect = cold
                    .execute(&forced_plan(&cold, engine, src, vars))
                    .unwrap();
                assert_eq!(
                    got,
                    expect,
                    "warm session disagrees with cold {engine} on {src:?} \
                     after step {step} ({edit:?}) of seed {seed} over {}",
                    next.to_terms()
                );
            }
        }
        tree = (*next).clone();
        warm = forked;
    }
}

/// The acceptance gate of the live-document subsystem: 100 scripts — every
/// generator shape × 20 seeds, 6 edits each — warm vs cold on all four
/// engines after every single edit.
#[test]
fn run_edit_fuzz() {
    for shape in [
        TreeShape::RandomAttachment,
        TreeShape::BoundedBranching { max_children: 3 },
        TreeShape::Path,
        TreeShape::Star,
        TreeShape::Complete { arity: 2 },
    ] {
        for seed in 0..20 {
            run_script(shape, seed, 6);
        }
    }
}

/// One long script: 60 edits on a single document, so late edits patch
/// matrices that earlier edits already patched (composition of remaps is
/// where off-by-one preimage bugs hide).
#[test]
fn run_edit_fuzz_long_script() {
    run_script(TreeShape::RandomAttachment, 0xFEED, 60);
}

/// Regression seed: a delete-heavy shape (Path trees make every delete chop
/// a whole descendant chain) that once stressed the interval-straddle path.
#[test]
fn run_edit_fuzz_regression_path_deletes() {
    run_script(TreeShape::Path, 0x0BAD_5EED, 24);
}
