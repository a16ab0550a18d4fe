//! Model checks for the workspace's lock disciplines:
//!
//! - `SharedMatrixStore` shard locking with the clear-on-poison recovery
//!   policy (a poisoned shard clears its cache instead of killing workers),
//! - the session-pool / plan-cache lock order in `corpus` (no nesting in the
//!   real protocol; the inverted-nesting mutant is flagged as a lock-order
//!   inversion),
//! - the PR 6 work-queue poisoning wedge, reproduced as a deterministic
//!   committed-seed schedule: a worker that panics while holding the queue
//!   lock poisons it, and `.lock().unwrap()`-style handling then kills every
//!   other worker that touches the queue.

use std::collections::VecDeque;
use xpath_sync::model::{self, FailureKind};

/// Committed seed on which [`pr6_poison_wedge_seed_is_flagged`] reproduces
/// the PR 6 wedge (secondary worker killed by a poisoned work queue).
const PR6_POISON_WEDGE_SEED: u64 = 2;

// ---------------------------------------------------------------------------
// SharedMatrixStore shard locking + clear-on-poison policy
// ---------------------------------------------------------------------------

/// Replica of one `SharedMatrixStore` shard: a cache map guarded by a mutex.
/// `shard()` mirrors the production recovery policy: on poison, clear the
/// cache (it may be mid-update and inconsistent) and keep serving.
struct ShardedStore {
    shards: Vec<model::Mutex<Vec<u64>>>,
}

impl ShardedStore {
    fn new(n: usize) -> Self {
        ShardedStore {
            shards: (0..n)
                .map(|i| model::Mutex::named(&format!("store.shard[{i}]"), Vec::new()))
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> model::MutexGuard<'_, Vec<u64>> {
        let m = &self.shards[(key as usize) % self.shards.len()];
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                // Clear-on-poison: the panicking writer may have left a
                // half-built cache entry behind; drop the cache, not the
                // worker.
                let mut g = poisoned.into_inner();
                g.clear();
                m.clear_poison();
                g
            }
        }
    }

    fn eval(&self, key: u64) {
        self.shard(key).push(key);
    }
}

/// A worker panicking while holding a shard poisons only that shard, and the
/// next worker through recovers by clearing the cache — no schedule kills a
/// healthy worker and the store keeps answering.
#[test]
fn poisoned_shard_clears_cache_and_keeps_serving() {
    let failure = model::explore(64, || {
        let store = ShardedStore::new(2);
        model::thread::scope(|scope| {
            let crasher = scope.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut g = store.shard(0);
                    g.push(999); // half-built entry...
                    panic!("evaluation blew up mid-update");
                }));
                assert!(result.is_err());
            });
            let healthy = scope.spawn(|| {
                store.eval(1); // other shard: never sees the poison
                store.eval(2); // same shard as the crasher (2 % 2 == 0)
            });
            crasher.join().expect("crash is contained");
            healthy
                .join()
                .expect("healthy worker must survive the poisoned shard");
        });
        // After recovery the poisoned shard serves fresh state: no
        // half-built 999 entry survives if the recovery path ran.
        let g = store.shard(0);
        assert!(
            !g.contains(&999),
            "clear-on-poison must drop the half-built entry"
        );
    });
    assert!(failure.is_none(), "{}", failure.unwrap());
}

// ---------------------------------------------------------------------------
// Session pool / plan cache lock order
// ---------------------------------------------------------------------------

/// Replica of the `corpus` session-pool + plan-cache discipline.  The real
/// protocol never holds both locks at once (`INVERTED` = false): the plan
/// cache is consulted, the guard dropped, then the session pool taken.  The
/// mutant nests them in opposite orders on two threads — a textbook ABBA
/// deadlock the lockdep graph must flag even on schedules where the threads
/// never actually collide.
fn drive_pool_and_cache<const INVERTED: bool>() {
    let pool = model::Mutex::named("corpus.session_pool", 0u32);
    let plans = model::Mutex::named("corpus.plan_cache", 0u32);
    model::thread::scope(|scope| {
        let a = scope.spawn(|| {
            if INVERTED {
                let _p = pool.lock().unwrap();
                let _c = plans.lock().unwrap();
            } else {
                {
                    let _c = plans.lock().unwrap();
                }
                let _p = pool.lock().unwrap();
            }
        });
        let b = scope.spawn(|| {
            // Both personalities take plans → pool here; only thread A's
            // mutant order differs.
            if INVERTED {
                let _c = plans.lock().unwrap();
                let _p = pool.lock().unwrap();
            } else {
                {
                    let _c = plans.lock().unwrap();
                }
                let _p = pool.lock().unwrap();
            }
        });
        a.join().expect("a ok");
        b.join().expect("b ok");
    });
}

/// The real discipline (never hold both) is clean on every schedule.
#[test]
fn session_pool_and_plan_cache_have_no_lock_order_inversion() {
    let failure = model::explore(64, drive_pool_and_cache::<false>);
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// Mutation self-test: nesting the two locks in opposite orders is flagged
/// as a lock-order inversion by the lockdep graph — on the *first* seed,
/// because the edge cycle is detected without needing the unlucky
/// interleaving that actually deadlocks.
#[test]
fn inverted_nesting_mutant_is_flagged() {
    let report = model::explore(64, drive_pool_and_cache::<true>)
        .expect("the model checker must flag the ABBA nesting");
    let failure = report.failure.as_ref().unwrap();
    assert!(
        matches!(
            failure.kind,
            FailureKind::LockOrderInversion | FailureKind::Deadlock
        ),
        "unexpected failure kind: {failure}"
    );
    assert_eq!(
        report.seed, 0,
        "first failing seed moved — update the doc comment"
    );
}

// ---------------------------------------------------------------------------
// PR 6: the work-queue poisoning wedge
// ---------------------------------------------------------------------------

/// Replica of the PR 6-era work queue whose lock handling `unwrap()`s: once
/// any worker panics while holding the state lock, every subsequent
/// `lock().unwrap()` panics too and the whole pool wedges.  `RECOVERS` true
/// is today's code (poison recovered via `into_inner`).
struct WedgeQueue<const RECOVERS: bool> {
    state: model::Mutex<VecDeque<u32>>,
}

impl<const RECOVERS: bool> WedgeQueue<RECOVERS> {
    fn new() -> Self {
        WedgeQueue {
            state: model::Mutex::named("queue.state", VecDeque::new()),
        }
    }

    fn lock_state(&self) -> model::MutexGuard<'_, VecDeque<u32>> {
        if RECOVERS {
            self.state
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
        } else {
            // The PR 6 bug: poison propagates as a panic into whichever
            // innocent worker touches the queue next.
            self.state.lock().unwrap()
        }
    }

    fn push(&self, item: u32) {
        let mut state = self.lock_state();
        assert!(item != 13, "injected fault while holding the queue lock");
        state.push_back(item);
    }

    fn pop(&self) -> Option<u32> {
        self.lock_state().pop_front()
    }
}

fn drive_wedge<const RECOVERS: bool>() {
    let q = WedgeQueue::<RECOVERS>::new();
    model::thread::scope(|scope| {
        let faulty = scope.spawn(|| {
            q.push(1);
            // The injected fault fires while the guard is live → poison.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.push(13)));
            assert!(result.is_err());
        });
        let innocent = scope.spawn(|| {
            // A second worker draining the queue must never be killed by a
            // fault it didn't cause.
            let _ = q.pop();
            let _ = q.pop();
        });
        faulty
            .join()
            .expect("fault is contained to the faulty worker");
        innocent
            .join()
            .expect("innocent worker wedged by queue poison");
    });
}

/// Today's recovery policy survives the injected fault on every schedule.
#[test]
fn recovering_queue_survives_poison_on_every_schedule() {
    let failure = model::explore(64, drive_wedge::<true>);
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// The PR 6 wedge, rediscovered deterministically: on the committed seed the
/// innocent worker runs after the fault and dies on `lock().unwrap()`.
#[test]
fn pr6_poison_wedge_seed_is_flagged() {
    let report = model::explore(64, drive_wedge::<false>)
        .expect("the model checker must rediscover the PR 6 wedge");
    assert_eq!(report.failure.as_ref().unwrap().kind, FailureKind::Panic);
    assert_eq!(
        report.seed, PR6_POISON_WEDGE_SEED,
        "first failing seed moved — update PR6_POISON_WEDGE_SEED and README"
    );
    let replay = model::replay(PR6_POISON_WEDGE_SEED, drive_wedge::<false>);
    assert_eq!(replay.failure.expect("replays").kind, FailureKind::Panic);
}
