//! Model checks for the live-document fork-and-swap protocol
//! (`Corpus::mutate` in `crates/corpus/src/lib.rs`): a MUTATE snapshots the
//! document under a brief lock, forks the tree and the matrix cache *outside*
//! the lock, then re-locks and swaps the new snapshot in — after a
//! generation check (`Arc::ptr_eq` on the tree) that retries the whole fork
//! if a concurrent LOAD or MUTATE replaced the document in between.
//!
//! Three properties are checked over every explored schedule, each with a
//! mutant self-test proving the checker would catch its violation:
//!
//! 1. **No torn reads** — a QUERY holds one immutable snapshot; it never
//!    observes a half-applied edit (mutant: editing rows in place).
//! 2. **No lost updates** — racing MUTATEs all land thanks to the
//!    generation-check retry (mutant: swapping without the `Arc::ptr_eq`).
//! 3. **QUERY does not block on MUTATE** — the expensive fork runs outside
//!    the lock, so a reader completes while a writer is mid-fork (shown
//!    deterministically on a committed seed).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use xpath_sync::model::{self, FailureKind};

/// Number of "matrix rows" in the replica document.  Committed snapshots
/// always hold the same value in every row, so uniformity *is* the snapshot
/// invariant: mixed values = a torn read.
const ROWS: usize = 3;

/// Replica of the corpus fork-and-swap document slot.  `GUARDED` false is
/// the lost-update mutant: the writer swaps its forked snapshot in without
/// re-checking that the snapshot it forked from is still current.
struct SwapStore<const GUARDED: bool> {
    doc: model::Mutex<(Arc<Vec<u64>>, u64)>,
}

impl<const GUARDED: bool> SwapStore<GUARDED> {
    fn new() -> Self {
        SwapStore {
            doc: model::Mutex::named("corpus.docs", (Arc::new(vec![0; ROWS]), 0)),
        }
    }

    /// QUERY: grab the snapshot under a brief lock, answer outside it.
    /// Returns `(row value, epoch)` and asserts the snapshot is not torn.
    fn query(&self) -> (u64, u64) {
        let (snapshot, epoch) = {
            let doc = self.doc.lock().unwrap();
            (Arc::clone(&doc.0), doc.1)
        };
        // Answering happens with the lock released; the edit protocol must
        // make this safe.
        model::thread::yield_now();
        for row in snapshot.iter() {
            assert_eq!(
                *row, snapshot[0],
                "torn read: a query observed a half-applied edit"
            );
        }
        (snapshot[0], epoch)
    }

    /// MUTATE: fork outside the lock, generation-check, swap, retry on a
    /// lost race — the shape of `Corpus::mutate`.
    fn mutate(&self, delta: u64) {
        loop {
            let base = {
                let doc = self.doc.lock().unwrap();
                Arc::clone(&doc.0)
            };
            // The expensive part — tree edit + matrix fork — runs with the
            // lock released; every row is a scheduling point.
            let mut next = Vec::with_capacity(ROWS);
            for row in base.iter() {
                next.push(row + delta);
                model::thread::yield_now();
            }
            let mut doc = self.doc.lock().unwrap();
            if GUARDED && !Arc::ptr_eq(&doc.0, &base) {
                continue; // lost the race: somebody swapped first, refork
            }
            doc.0 = Arc::new(next);
            doc.1 += 1;
            return;
        }
    }
}

/// Drive 2 writers × 2 readers (× 2 queries each) through the store and
/// assert the global invariants: reader epochs are monotone, and once both
/// writers joined, both edits landed.
fn drive_swap_store<const GUARDED: bool>() {
    let store = SwapStore::<GUARDED>::new();
    model::thread::scope(|scope| {
        let w1 = scope.spawn(|| store.mutate(1));
        let w2 = scope.spawn(|| store.mutate(2));
        let mut readers = Vec::new();
        for _ in 0..2 {
            readers.push(scope.spawn(|| {
                let (_, e1) = store.query();
                let (_, e2) = store.query();
                assert!(e1 <= e2, "epochs must be monotone");
                e2
            }));
        }
        w1.join().expect("writer 1 ok");
        w2.join().expect("writer 2 ok");
        for r in readers {
            r.join().expect("reader ok");
        }
    });
    let (rows, epoch) = store.doc.into_inner().unwrap();
    assert_eq!(epoch, 2, "every MUTATE must bump the epoch exactly once");
    assert_eq!(
        *rows,
        vec![3; ROWS],
        "an edit was lost: both deltas must land"
    );
}

/// Snapshot reads and guarded swaps are sound on every explored schedule.
#[test]
fn concurrent_mutate_and_query_keep_every_invariant() {
    let failure = model::explore(64, drive_swap_store::<true>);
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// Committed seed on which the unguarded swap loses an edit.
const LOST_UPDATE_SEED: u64 = 0;

/// Mutation self-test: dropping the `Arc::ptr_eq` generation check loses a
/// racing writer's edit — flagged deterministically.
#[test]
fn unguarded_swap_mutant_loses_an_update() {
    let report = model::explore(64, drive_swap_store::<false>)
        .expect("the model checker must flag the lost update");
    assert_eq!(report.failure.as_ref().unwrap().kind, FailureKind::Panic);
    assert_eq!(
        report.seed, LOST_UPDATE_SEED,
        "first failing seed moved — update LOST_UPDATE_SEED and README"
    );
}

/// The committed lost-update seed replays forever.
#[test]
fn lost_update_seed_replays() {
    let report = model::replay(LOST_UPDATE_SEED, drive_swap_store::<false>);
    assert_eq!(
        report
            .failure
            .expect("committed seed reproduces the lost update")
            .kind,
        FailureKind::Panic
    );
}

// ---------------------------------------------------------------------------
// Torn-read mutant: editing the live document in place
// ---------------------------------------------------------------------------

/// The design fork-and-swap exists to avoid: editing the one shared copy in
/// place, row by row, while queries read it.  Readers that re-acquire the
/// lock per row (any reader not holding one snapshot for its whole answer)
/// can observe half of an edit.
fn drive_in_place_mutant() {
    let rows = model::Mutex::named("corpus.docs", vec![0u64; ROWS]);
    model::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 0..ROWS {
                rows.lock().unwrap()[i] = 1; // one lock session per row
            }
        });
        let reader = scope.spawn(|| {
            let first = rows.lock().unwrap()[0];
            for i in 1..ROWS {
                let row = rows.lock().unwrap()[i];
                assert_eq!(row, first, "torn read: half-applied edit observed");
            }
        });
        writer.join().expect("writer ok");
        reader.join().expect("reader ok");
    });
}

/// Committed seed on which in-place editing tears a concurrent read.
const TORN_READ_SEED: u64 = 5;

/// Mutation self-test: in-place editing is caught as a torn read.
#[test]
fn in_place_edit_mutant_tears_reads() {
    let report = model::explore(64, drive_in_place_mutant)
        .expect("the model checker must flag the torn read");
    assert_eq!(report.failure.as_ref().unwrap().kind, FailureKind::Panic);
    assert_eq!(
        report.seed, TORN_READ_SEED,
        "first failing seed moved — update TORN_READ_SEED and README"
    );
}

/// The committed torn-read seed replays forever.
#[test]
fn torn_read_seed_replays() {
    let report = model::replay(TORN_READ_SEED, drive_in_place_mutant);
    assert_eq!(
        report
            .failure
            .expect("committed seed reproduces the tear")
            .kind,
        FailureKind::Panic
    );
}

// ---------------------------------------------------------------------------
// QUERY does not block on MUTATE
// ---------------------------------------------------------------------------

/// Run one writer and one reader; return true when the reader completed a
/// whole query strictly inside the writer's fork window (lock released, fork
/// in progress) — the schedule that proves queries do not wait for edits.
fn reader_overlaps_fork(seed: u64) -> bool {
    let mut overlapped = false;
    let report = model::replay(seed, || {
        let store = SwapStore::<true>::new();
        let forking = model::AtomicBool::new(false);
        let overlap = model::AtomicBool::new(false);
        model::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                // Inline mutate with the fork window instrumented.
                let base = {
                    let doc = store.doc.lock().unwrap();
                    Arc::clone(&doc.0)
                };
                forking.store(true, Ordering::SeqCst);
                let mut next = Vec::with_capacity(ROWS);
                for row in base.iter() {
                    next.push(row + 1);
                    model::thread::yield_now();
                }
                forking.store(false, Ordering::SeqCst);
                let mut doc = store.doc.lock().unwrap();
                assert!(Arc::ptr_eq(&doc.0, &base), "single writer never races");
                doc.0 = Arc::new(next);
                doc.1 += 1;
            });
            let reader = scope.spawn(|| {
                let before = forking.load(Ordering::SeqCst);
                store.query();
                let after = forking.load(Ordering::SeqCst);
                if before && after {
                    overlap.store(true, Ordering::SeqCst);
                }
            });
            writer.join().expect("writer ok");
            reader.join().expect("reader ok");
        });
        overlapped = overlap.load(Ordering::SeqCst);
    });
    assert!(!report.failed(), "{report}");
    overlapped
}

/// Committed seed whose schedule runs a full QUERY inside the MUTATE fork
/// window — queries never wait for an edit to finish.
const NON_BLOCKING_SEED: u64 = 8;

#[test]
fn query_completes_while_a_mutate_is_mid_fork() {
    assert!(
        reader_overlaps_fork(NON_BLOCKING_SEED),
        "seed no longer overlaps — update NON_BLOCKING_SEED and README"
    );
}
