//! Model checks for the `BoundedQueue` protocol (`crates/corpus/src/queue.rs`)
//! plus the mutation self-tests that keep the model checker honest.
//!
//! The queue here is a line-for-line replica of the production
//! `corpus::queue::BoundedQueue` locking protocol, built directly on the
//! always-available `model::{Mutex, Condvar}` so these tests run (and the
//! committed seeds stay meaningful) under a plain `cargo test` with no
//! custom cfg.  The CI `model-check` lane additionally drives the *real*
//! `BoundedQueue` through the facade (`crates/corpus/tests/model_check.rs`).

use std::collections::VecDeque;
use xpath_sync::model::{self, Config, FailureKind};

/// Replica of `corpus::queue::BoundedQueue` on the model primitives.
///
/// `DROP_NOTIFY_ON_PUSH` is the seeded lost-wakeup mutation: the exact bug
/// class the PR 6 hammer tests could only catch with OS-scheduling luck.
struct ModelQueue<const DROP_NOTIFY_ON_PUSH: bool> {
    state: model::Mutex<State>,
    not_full: model::Condvar,
    not_empty: model::Condvar,
    capacity: usize,
}

struct State {
    items: VecDeque<u32>,
    closed: bool,
}

impl<const DROP_NOTIFY_ON_PUSH: bool> ModelQueue<DROP_NOTIFY_ON_PUSH> {
    fn new(capacity: usize) -> Self {
        ModelQueue {
            state: model::Mutex::named(
                "queue.state",
                State {
                    items: VecDeque::new(),
                    closed: false,
                },
            ),
            not_full: model::Condvar::named("queue.not_full"),
            not_empty: model::Condvar::named("queue.not_empty"),
            capacity,
        }
    }

    fn lock_state(&self) -> model::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn push(&self, item: u32) {
        let mut state = self.lock_state();
        while state.items.len() >= self.capacity && !state.closed {
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        assert!(!state.closed, "push on a closed queue");
        state.items.push_back(item);
        drop(state);
        if !DROP_NOTIFY_ON_PUSH {
            self.not_empty.notify_one();
        }
    }

    fn pop(&self) -> Option<u32> {
        let mut state = self.lock_state();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn close(&self) {
        self.lock_state().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

type Queue = ModelQueue<false>;
type LostWakeupQueue = ModelQueue<true>;

/// Committed seed on which [`lost_wakeup_mutant_is_flagged`] deadlocks.
/// Replayed verbatim below; see README "Correctness tooling" for how to
/// replay by hand.
const LOST_WAKEUP_SEED: u64 = 0;

/// Producer/consumer exchange across every explored schedule: all items
/// drain, in FIFO order per producer, and nobody deadlocks at capacity.
#[test]
fn queue_delivers_everything_under_every_explored_schedule() {
    let failure = model::explore(64, || {
        let q = Queue::new(2);
        model::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut seen = Vec::new();
                while let Some(v) = q.pop() {
                    seen.push(v);
                }
                seen
            });
            for i in 0..4 {
                q.push(i);
            }
            q.close();
            let seen = consumer.join().expect("consumer does not panic");
            assert_eq!(seen, vec![0, 1, 2, 3], "FIFO order and no lost items");
        });
    });
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// Two producers + one consumer through a capacity-1 queue: the capacity
/// bound forces waits on `not_full`, exercising the notify edge at capacity.
#[test]
fn no_lost_notify_at_queue_capacity() {
    let failure = model::explore(64, || {
        let q = Queue::new(1);
        model::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            });
            let producer = scope.spawn(|| {
                q.push(10);
                q.push(11);
            });
            q.push(20);
            q.push(21);
            // Close only after every producer is done — closing with pushes
            // in flight is a caller bug (push panics on closed queues).
            producer.join().expect("producer does not panic");
            q.close();
            let n = consumer.join().expect("consumer does not panic");
            assert_eq!(n, 4, "every pushed item is delivered");
        });
    });
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// Mutation self-test: dropping `notify_one` after `push` must be caught as
/// a deterministic deadlock (the consumer parks forever on `not_empty`).
#[test]
fn lost_wakeup_mutant_is_flagged() {
    let report = model::explore(64, || {
        let q = LostWakeupQueue::new(2);
        model::thread::scope(|scope| {
            let consumer = scope.spawn(|| q.pop());
            q.push(7);
            let got = consumer.join().expect("consumer does not panic");
            assert_eq!(got, Some(7));
            q.close();
        });
    })
    .expect("the model checker must flag the dropped notify_one");
    assert_eq!(report.failure.as_ref().unwrap().kind, FailureKind::Deadlock);
    assert_eq!(
        report.seed, LOST_WAKEUP_SEED,
        "first failing seed moved — update LOST_WAKEUP_SEED and README"
    );
}

/// The committed seed replays to the same deadlock, forever.
#[test]
fn lost_wakeup_seed_replays() {
    let report = model::replay(LOST_WAKEUP_SEED, || {
        let q = LostWakeupQueue::new(2);
        model::thread::scope(|scope| {
            let consumer = scope.spawn(|| q.pop());
            q.push(7);
            let got = consumer.join().expect("consumer does not panic");
            assert_eq!(got, Some(7));
            q.close();
        });
    });
    let failure = report
        .failure
        .expect("committed seed reproduces the lost wakeup");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.detail.contains("lost wakeup"),
        "deadlock report names the parked waiter: {}",
        failure.detail
    );
}

/// With spurious wakeups enabled the wait loops must still behave: a
/// spuriously woken consumer re-checks its predicate and goes back to sleep.
#[test]
fn wait_loops_survive_spurious_wakeups() {
    let cfg = Config {
        spurious_wakeups: true,
        ..Config::default()
    };
    let failure = model::explore_with(cfg, 64, || {
        let q = Queue::new(1);
        model::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut seen = Vec::new();
                while let Some(v) = q.pop() {
                    seen.push(v);
                }
                seen
            });
            q.push(1);
            q.push(2);
            q.close();
            assert_eq!(consumer.join().unwrap(), vec![1, 2]);
        });
    });
    assert!(failure.is_none(), "{}", failure.unwrap());
}
