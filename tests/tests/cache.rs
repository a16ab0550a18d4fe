//! Property tests (proptest shim) for the session-level matrix cache.
//!
//! For random trees and random PPL queries:
//!
//! * cached-store evaluation agrees tuple-for-tuple with cold evaluation,
//! * a second run through the same `Session` is answered from the cache
//!   (hit counter grows when the query has a composite atom, miss counter
//!   does not),
//! * cached PPLbin binary evaluation agrees with the cold matrix engine.

use ppl_xpath::{Engine, Planner, Session};
use proptest::prelude::*;
use xpath_ast::binexpr::from_variable_free_path;
use xpath_ast::BinExpr;
use xpath_pplbin::answer_binary;
use xpath_tests::differential::QueryGen;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_nary_answers_agree_with_cold_and_second_run_hits(
        seed in 0u64..1_000_000,
        arity in 0usize..3,
        max_size in 2usize..12,
    ) {
        let mut gen = QueryGen::new(seed, 3);
        let tree = gen.gen_tree(max_size);
        let (query, outputs) = gen.gen_query(arity);
        let session = Session::from_tree(tree);
        let plan = |engine| {
            Planner::default()
                .plan_with(&session, query.clone(), outputs.clone(), Some(engine))
                .unwrap()
        };
        let (hcl_plan, ppl_plan) = (plan(Engine::Hcl), plan(Engine::Ppl));

        let cold = session.execute(&hcl_plan).unwrap();
        prop_assert_eq!(session.cache_stats().lookups(), 0, "cold path must not touch the cache");

        let warm = session.execute(&ppl_plan).unwrap();
        prop_assert_eq!(&warm, &cold, "cached evaluation differs from cold evaluation");

        let after_first = session.cache_stats();
        let again = session.execute(&ppl_plan).unwrap();
        prop_assert_eq!(&again, &cold, "second cached run differs");
        let after_second = session.cache_stats();
        prop_assert_eq!(
            after_second.misses, after_first.misses,
            "second run recompiled a matrix"
        );
        // Plain step atoms are tree views and never reach the cache; any
        // other atom is a lookup on every run.
        let composite_atoms = ppl_plan
            .hcl()
            .expect("forced-ppl plans carry their image")
            .atoms()
            .into_iter()
            .any(|a| !matches!(a, BinExpr::Step(..)));
        if composite_atoms {
            prop_assert!(
                after_second.hits > after_first.hits,
                "second run did not hit the cache: {:?} -> {:?}",
                after_first, after_second
            );
        }
    }

    #[test]
    fn cached_binary_matrices_agree_with_cold_engine(
        seed in 0u64..1_000_000,
        max_size in 1usize..14,
    ) {
        let mut gen = QueryGen::new(seed ^ 0xB1A5, 3);
        let tree = gen.gen_tree(max_size);
        let path = gen.gen_varfree_path(3);
        let bin = from_variable_free_path(&path).unwrap();
        let session = Session::from_tree(tree);
        let warm = session.store().eval(&bin);
        prop_assert_eq!(&warm, &answer_binary(session.tree(), &bin));
        // Determinism: asking again returns the identical matrix.
        prop_assert_eq!(&session.store().eval(&bin), &warm);
    }
}
