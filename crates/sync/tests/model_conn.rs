//! Model checks for the `Conn` slot-queue protocol
//! (`crates/corpus/src/protocol.rs`): pipelined requests are assigned
//! sequence slots in arrival order, workers complete them in *any* order,
//! and responses must be released strictly in sequence order.
//!
//! Also reproduces, as a deterministic committed-seed schedule, the PR 7
//! pre-batching reactor bug: dispatching each pipelined command of one
//! connection as its own job lets two workers execute a connection's
//! commands out of order.

use std::collections::VecDeque;
use xpath_sync::model::{self, FailureKind};

/// Replica of the `Conn` response slot queue.  `ORDERED` false is the
/// mutation: completed slots are released immediately instead of waiting for
/// the queue front — out-of-order responses under pipelining.
struct SlotQueue<const ORDERED: bool> {
    slots: VecDeque<(u64, Option<u64>)>,
    released: Vec<u64>,
}

impl<const ORDERED: bool> SlotQueue<ORDERED> {
    fn new() -> Self {
        SlotQueue {
            slots: VecDeque::new(),
            released: Vec::new(),
        }
    }

    fn begin(&mut self, seq: u64) {
        self.slots.push_back((seq, None));
    }

    fn complete(&mut self, seq: u64, result: u64) {
        if ORDERED {
            let slot = self
                .slots
                .iter_mut()
                .find(|(s, _)| *s == seq)
                .expect("completing an unknown sequence slot");
            slot.1 = Some(result);
            while let Some((_, Some(_))) = self.slots.front() {
                let (_, result) = self.slots.pop_front().expect("front exists");
                self.released.push(result.expect("front is complete"));
            }
        } else {
            // Mutant: release on completion, ignoring the slot order.
            self.slots.retain(|(s, _)| *s != seq);
            self.released.push(result);
        }
    }
}

/// Committed seed on which [`reordering_mutant_is_flagged`] releases out of
/// order.
const CONN_REORDER_SEED: u64 = 0;

/// Committed seed on which [`pr7_per_command_dispatch_reorders_execution`]
/// executes a connection's pipelined commands out of order — the PR 7 bug.
const PR7_DISPATCH_SEED: u64 = 0;

fn drive_slot_queue<const ORDERED: bool>() {
    let conn = model::Mutex::named("conn", SlotQueue::<ORDERED>::new());
    {
        let mut c = conn.lock().unwrap();
        for seq in 0..4 {
            c.begin(seq);
        }
    }
    model::thread::scope(|scope| {
        // Two workers complete disjoint halves of the pipeline in whatever
        // order the scheduler explores.
        let w1 = scope.spawn(|| {
            conn.lock().unwrap().complete(1, 1);
            conn.lock().unwrap().complete(2, 2);
        });
        let w2 = scope.spawn(|| {
            conn.lock().unwrap().complete(3, 3);
            conn.lock().unwrap().complete(0, 0);
        });
        w1.join().expect("worker 1 ok");
        w2.join().expect("worker 2 ok");
    });
    let c = conn.lock().unwrap();
    assert_eq!(
        c.released,
        vec![0, 1, 2, 3],
        "pipelined responses must be released in sequence order"
    );
    assert!(c.slots.is_empty(), "every slot drains");
}

/// FIFO-per-connection response order holds on every explored schedule.
#[test]
fn responses_release_in_sequence_order_under_every_schedule() {
    let failure = model::explore(64, drive_slot_queue::<true>);
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// Mutation self-test: releasing completed slots immediately (skipping the
/// front-of-queue gate) must be flagged.
#[test]
fn reordering_mutant_is_flagged() {
    let report = model::explore(64, drive_slot_queue::<false>)
        .expect("the model checker must flag out-of-order release");
    assert_eq!(report.failure.as_ref().unwrap().kind, FailureKind::Panic);
    assert_eq!(
        report.seed, CONN_REORDER_SEED,
        "first failing seed moved — update CONN_REORDER_SEED and README"
    );
}

/// The committed reordering seed replays forever.
#[test]
fn conn_reorder_seed_replays() {
    let report = model::replay(CONN_REORDER_SEED, drive_slot_queue::<false>);
    assert_eq!(
        report
            .failure
            .expect("committed seed reproduces the reorder")
            .kind,
        FailureKind::Panic
    );
}

// ---------------------------------------------------------------------------
// PR 7: pre-batching reactor dispatch
// ---------------------------------------------------------------------------

/// Replica of the reactor's dispatch decision.  Each connection carries
/// pipelined commands; jobs are dispatched to a worker pool.
///
/// - `BATCHED` (the PR 7 fix): a connection is dispatched as *one* job
///   executing its commands back to back, so per-connection order holds.
/// - pre-batching mutant: every command becomes its own job; two workers can
///   pick up commands 0 and 1 of the same connection and execute them in
///   either order.
fn drive_dispatch<const BATCHED: bool>() {
    let jobs: model::Mutex<VecDeque<(u32, u64)>> =
        model::Mutex::named("reactor.jobs", VecDeque::new());
    let executed: model::Mutex<Vec<(u32, u64)>> = model::Mutex::named("conn.executed", Vec::new());
    {
        let mut j = jobs.lock().unwrap();
        if BATCHED {
            // One job per connection; seq within the job preserved by the
            // executing worker (encoded: seq = u64::MAX means "run both").
            j.push_back((0, u64::MAX));
        } else {
            j.push_back((0, 0));
            j.push_back((0, 1));
        }
    }
    model::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..2 {
            workers.push(scope.spawn(|| loop {
                let job = jobs.lock().unwrap().pop_front();
                match job {
                    Some((conn, u64::MAX)) => {
                        executed.lock().unwrap().push((conn, 0));
                        executed.lock().unwrap().push((conn, 1));
                    }
                    Some((conn, seq)) => executed.lock().unwrap().push((conn, seq)),
                    None => break,
                }
            }));
        }
        for w in workers {
            w.join().expect("worker ok");
        }
    });
    let log = executed.lock().unwrap();
    let conn0: Vec<u64> = log
        .iter()
        .filter(|(c, _)| *c == 0)
        .map(|(_, s)| *s)
        .collect();
    assert_eq!(
        conn0,
        vec![0, 1],
        "a connection's pipelined commands must execute in sequence order"
    );
}

/// The batched dispatch (PR 7 fix) preserves order on every schedule.
#[test]
fn batched_dispatch_preserves_per_connection_order() {
    let failure = model::explore(64, drive_dispatch::<true>);
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// The pre-batching dispatch reorders execution — caught deterministically
/// on the committed seed instead of by fuzzing luck.
#[test]
fn pr7_per_command_dispatch_reorders_execution() {
    let report = model::explore(64, drive_dispatch::<false>)
        .expect("the model checker must rediscover the PR 7 reordering bug");
    assert_eq!(report.failure.as_ref().unwrap().kind, FailureKind::Panic);
    assert_eq!(
        report.seed, PR7_DISPATCH_SEED,
        "first failing seed moved — update PR7_DISPATCH_SEED and README"
    );
    // And the committed seed replays.
    let replay = model::replay(PR7_DISPATCH_SEED, drive_dispatch::<false>);
    assert_eq!(replay.failure.expect("replays").kind, FailureKind::Panic);
}
