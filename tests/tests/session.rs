//! Concurrency tests for the thread-safe `Session` serving path.
//!
//! One `Session` — one document, one sharded matrix store — is hammered
//! from many threads at once, and every concurrent answer must agree
//! tuple-for-tuple with the single-threaded answers.  This is the test that
//! the `RefCell<MatrixStore>` design could not even express: the old cache
//! was `!Sync` and each thread needed its own document clone.

use ppl_xpath::{Engine, Planner, QueryPlan, Session};
use std::collections::BTreeSet;
use xpath_ast::{parse_path, Var};
use xpath_tests::differential::QueryGen;
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_tree::NodeId;

const THREADS: usize = 8;

fn serving_session() -> Session {
    Session::from_tree(random_tree(&TreeGenConfig {
        size: 90,
        shape: TreeShape::BoundedBranching { max_children: 4 },
        alphabet: 3,
        seed: 0x005E_5510,
    }))
}

/// A mixed plan suite over the generator alphabet: fixed compile-heavy
/// queries (shared dense subterms) plus random PPL queries, prepared with
/// both auto and forced engines.
fn plan_suite(session: &Session) -> Vec<QueryPlan> {
    let fixed = [
        ("descendant::l0[child::l1[. is $x]]", vec!["x"]),
        ("descendant::l1[. is $x]/child::l2[. is $y]", vec!["x", "y"]),
        (
            "descendant::l0[not((descendant::* except child::l1)/child::l2)][. is $x]",
            vec!["x"],
        ),
        ("descendant::l2[. is $x] union descendant::l1[. is $x]", vec!["x"]),
        ("descendant::l0[child::l1]", vec![]),
    ];
    let planner = Planner::default();
    let mut plans = Vec::new();
    for (src, vars) in &fixed {
        let path = parse_path(src).unwrap();
        let output: Vec<Var> = vars.iter().map(|n| Var::new(n)).collect();
        plans.push(session.plan_path(path.clone(), output.clone()).unwrap());
        for engine in [Engine::Ppl, Engine::Hcl, Engine::Acq] {
            plans.push(
                planner
                    .plan_with(session, path.clone(), output.clone(), Some(engine))
                    .unwrap(),
            );
        }
    }
    let mut gen = QueryGen::new(0x00C0_C011, 3);
    for _ in 0..6 {
        let (query, outputs) = gen.gen_query(1);
        plans.push(session.plan_path(query, outputs).unwrap());
    }
    plans
}

#[test]
fn eight_threads_hammering_one_session_agree_with_sequential_answers() {
    let session = serving_session();
    let plans = plan_suite(&session);

    // Ground truth on a *fresh* session, sequentially.
    let reference = serving_session().answer_batch(&plans).unwrap();

    // Hammer: every thread executes every plan, in a different order, all
    // against the same shared store.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = &session;
            let plans = &plans;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..3 {
                    for i in 0..plans.len() {
                        let i = (i + t + round) % plans.len();
                        let got = session.execute(&plans[i]).unwrap();
                        assert_eq!(
                            &got, &reference[i],
                            "thread {t} round {round} disagrees on plan {i} ({})",
                            plans[i]
                        );
                    }
                }
            });
        }
    });

    // The threads shared compiled matrices rather than re-compiling: far
    // more lookups hit than missed.
    let stats = session.cache_stats();
    assert!(stats.hits > stats.misses, "no sharing across threads: {stats:?}");
}

#[test]
fn answer_batch_parallel_matches_sequential_at_every_thread_count() {
    let session = serving_session();
    let plans = plan_suite(&session);
    let sequential = session.answer_batch(&plans).unwrap();
    for threads in [1, 2, 4, 8, 16] {
        let fresh = serving_session();
        let parallel = fresh.answer_batch_parallel(&plans, threads).unwrap();
        assert_eq!(parallel, sequential, "threads={threads}");
    }
    // Parallel batches on an already-warm session too.
    let parallel = session.answer_batch_parallel(&plans, THREADS).unwrap();
    assert_eq!(parallel, sequential);
}

#[test]
fn concurrent_parallel_batches_and_streams_do_not_interfere() {
    let session = serving_session();
    let plans = plan_suite(&session);
    let expected = serving_session().answer_batch(&plans).unwrap();

    std::thread::scope(|scope| {
        // Half the threads run whole parallel batches…
        for _ in 0..2 {
            let session = &session;
            let plans = &plans;
            let expected = &expected;
            scope.spawn(move || {
                let got = session.answer_batch_parallel(plans, 4).unwrap();
                assert_eq!(&got, expected);
            });
        }
        // …while the others drain answer streams for single plans.
        for t in 0..4 {
            let session = &session;
            let plans = &plans;
            let expected = &expected;
            scope.spawn(move || {
                for (i, plan) in plans.iter().enumerate() {
                    if i % 4 != t {
                        continue;
                    }
                    let streamed: BTreeSet<Vec<NodeId>> =
                        session.answers_stream(plan).unwrap().collect();
                    let reference: BTreeSet<Vec<NodeId>> =
                        expected[i].tuples().iter().cloned().collect();
                    assert_eq!(streamed, reference, "stream {i} diverged");
                }
            });
        }
    });
}

#[test]
fn sessions_and_plans_cross_thread_boundaries_by_value() {
    // Moving (not borrowing) sessions and plans into spawned threads also
    // works: they are `Send` and clones share the cache.
    let session = serving_session();
    // Forced to ppl, with a composite atom (`descendant::l1[child::*]`),
    // so the cache-sharing assertion below is meaningful: plain step atoms
    // are tree views and never reach the cache.
    let plan = Planner::default()
        .plan_with(
            &session,
            parse_path("descendant::l1[child::*][. is $x]").unwrap(),
            vec![Var::new("x")],
            Some(Engine::Ppl),
        )
        .unwrap();
    let expected = session.execute(&plan).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let session = session.clone();
            let plan = plan.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                assert_eq!(session.execute(&plan).unwrap(), expected);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(session.cache_stats().hits > 0);
}
