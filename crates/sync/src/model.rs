//! The deterministic cooperative scheduler behind `--cfg model_check`.
//!
//! A *model run* ([`run`]) executes a closure in a world where every
//! synchronisation operation — lock acquire/release, condvar wait/notify,
//! atomic access, thread spawn/join — is a *scheduling point*.  Virtual
//! threads are real OS threads, but a baton protocol guarantees that **at
//! most one of them is ever runnable**: at each scheduling point the running
//! thread consults the shared `Kernel`, which picks the next thread to run
//! from a seeded pseudo-random stream.  Executions are therefore fully
//! deterministic per seed: a failing interleaving found by [`explore`] can be
//! replayed forever with [`replay`] and the same seed.
//!
//! What the kernel detects:
//!
//! - **Deadlocks and lost wakeups** — no virtual thread is runnable but some
//!   are still alive.  A consumer parked on a condvar whose producer forgot
//!   to `notify` ends up here deterministically (spurious wakeups are *off*
//!   by default precisely so a missing notify cannot be masked; turn them on
//!   via [`Config::spurious_wakeups`] to stress the wait-loop discipline
//!   instead).
//! - **Lock-order inversions** — a lockdep-style order graph records every
//!   "held `a` while acquiring `b`" edge and fails the run as soon as the
//!   graph gains a cycle, even on schedules that did not actually deadlock.
//! - **Invariant violations** — any panic in a virtual thread that the test
//!   does not itself catch (e.g. a failed `assert!`) fails the run with the
//!   panic message and the seed that produced the schedule.
//!
//! The types in this module ([`Mutex`], [`Condvar`], [`thread::scope`],
//! [`AtomicUsize`], …) mirror the `std::sync` API and are what the
//! crate-level facades dispatch to under `--cfg model_check`.  They are also
//! usable directly — that is how the always-on model tests in
//! `crates/sync/tests/` run under a plain `cargo test` with no custom cfg.
//!
//! Two caveats worth knowing before writing a model test:
//!
//! - Scheduling decisions are consumed from one seeded stream, so a
//!   *committed* seed stays meaningful only while the code under test
//!   performs the same sequence of sync operations.  Committed seeds live
//!   next to the replica tests, which are fully deterministic; tests over
//!   real production types (whose `HashMap`s have per-process random state)
//!   should assert invariants over [`explore`] instead of pinning seeds.
//! - The scheduler serialises threads, so it explores *interleavings*, not
//!   weak-memory reorderings: atomics are modelled as sequentially
//!   consistent regardless of the `Ordering` argument.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{
    Arc, Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once,
    PoisonError,
};

/// Default per-run step budget before the kernel declares [`FailureKind::StepLimit`].
pub const DEFAULT_MAX_STEPS: u64 = 200_000;

/// Parameters of one model run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of the scheduling stream.  Same seed + same sync-op sequence =
    /// same interleaving.
    pub seed: u64,
    /// Abort the run (as a failure) after this many scheduling points — the
    /// backstop against livelocks in the code under test.
    pub max_steps: u64,
    /// CHESS-style bound on *preemptive* switches (switches at points where
    /// the running thread could have continued).  `None` = unbounded.
    /// Blocking switches are never counted.
    pub preemption_bound: Option<u32>,
    /// Allow the scheduler to wake condvar waiters that were never notified
    /// (legal per POSIX and `std`).  Off by default so lost-wakeup bugs
    /// deterministically deadlock instead of being masked.
    pub spurious_wakeups: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: 0,
            max_steps: DEFAULT_MAX_STEPS,
            preemption_bound: None,
            spurious_wakeups: false,
        }
    }
}

impl Config {
    /// A default config with an explicit seed.
    pub fn with_seed(seed: u64) -> Config {
        Config {
            seed,
            ..Config::default()
        }
    }
}

/// Why a model run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// Live threads exist but none is runnable (includes lost wakeups).
    Deadlock,
    /// The lock-order graph gained a cycle.
    LockOrderInversion,
    /// A virtual thread panicked and nobody caught it (failed invariant).
    Panic,
    /// The run exceeded [`Config::max_steps`].
    StepLimit,
}

/// A failed model run: what went wrong, where, and on which seed.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    /// Human-readable description (blocked threads, the order cycle, the
    /// panic message, …).
    pub detail: String,
    /// Virtual thread the failure was attributed to, if any.
    pub thread: Option<usize>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FailureKind::Deadlock => "deadlock",
            FailureKind::LockOrderInversion => "lock-order inversion",
            FailureKind::Panic => "panic",
            FailureKind::StepLimit => "step limit exceeded",
        };
        match self.thread {
            Some(t) => write!(f, "{kind} (thread t{t}): {}", self.detail),
            None => write!(f, "{kind}: {}", self.detail),
        }
    }
}

/// The outcome of one model run: seed, step count, failure (if any) and the
/// full schedule trace.
#[derive(Debug)]
pub struct Report {
    pub seed: u64,
    pub steps: u64,
    pub failure: Option<Failure>,
    /// One line per scheduling event, in order.
    pub trace: Vec<String>,
}

impl Report {
    /// True when the run failed.
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// The last `n` trace lines, newline-joined — the useful tail of a
    /// failing schedule.
    pub fn trace_tail(&self, n: usize) -> String {
        let start = self.trace.len().saturating_sub(n);
        self.trace[start..].join("\n")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            Some(fail) => write!(
                f,
                "model run FAILED (seed {}, {} steps): {fail}\n--- last schedule events ---\n{}",
                self.seed,
                self.steps,
                self.trace_tail(24)
            ),
            None => write!(f, "model run ok (seed {}, {} steps)", self.seed, self.steps),
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded scheduling stream (SplitMix64, same generator family as shims/rand).
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

// ---------------------------------------------------------------------------
// Kernel state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Status {
    Runnable,
    /// Blocked acquiring a lock; runnable once the lock is free.
    BlockedLock(usize),
    /// Parked on a condvar; runnable once notified *and* the lock is free.
    Waiting {
        cv: usize,
        lock: usize,
        notified: bool,
    },
    /// Blocked joining the listed threads; runnable once all are finished.
    Joining(Vec<usize>),
    Finished,
}

struct VThread {
    status: Status,
    /// Locks currently held, in acquisition order.
    held: Vec<usize>,
    /// Payload of an uncaught user panic, for `join` / scope propagation.
    panic_payload: Option<Box<dyn Any + Send>>,
    /// Whether a `ScopedJoinHandle::join` consumed this thread's outcome.
    joined: bool,
}

struct LockState {
    owner: Option<usize>,
    poisoned: bool,
    name: String,
}

struct Sched {
    cfg: Config,
    rng: Rng,
    threads: Vec<VThread>,
    active: usize,
    alive: usize,
    steps: u64,
    preemptions: u32,
    locks: Vec<LockState>,
    cv_names: Vec<String>,
    atomic_count: usize,
    /// Lockdep edges: held `.0` while acquiring `.1`.
    lock_edges: Vec<(usize, usize)>,
    trace: Vec<String>,
    failure: Option<Failure>,
    aborting: bool,
}

impl Sched {
    fn lock_name(&self, id: usize) -> &str {
        &self.locks[id].name
    }
}

/// The shared scheduler: a meta-mutex over [`Sched`] plus the baton condvar
/// every virtual thread parks on while it is not the active one.
pub(crate) struct Kernel {
    sched: StdMutex<Sched>,
    turn: StdCondvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Kernel>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Kernel>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn require_current(what: &str) -> (Arc<Kernel>, usize) {
    current().unwrap_or_else(|| panic!("{what} used outside model::run"))
}

/// True while the calling thread belongs to an active model run.
pub fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Sentinel panic payload used to unwind virtual threads when a run aborts.
struct ModelAbort;

fn abort_unwind() -> ! {
    panic::panic_any(ModelAbort)
}

/// Panic messages from virtual threads are captured into the [`Report`], so
/// the default "thread panicked at ..." stderr noise is suppressed while a
/// model run is active on the panicking thread.  Installed once, process-wide,
/// delegating to the previous hook outside model runs.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

fn payload_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Kernel {
    fn new(cfg: Config) -> Kernel {
        let rng = Rng(cfg.seed ^ 0xD6E8_FEB8_6659_FD93);
        Kernel {
            sched: StdMutex::new(Sched {
                cfg,
                rng,
                threads: Vec::new(),
                active: 0,
                alive: 0,
                steps: 0,
                preemptions: 0,
                locks: Vec::new(),
                cv_names: Vec::new(),
                atomic_count: 0,
                lock_edges: Vec::new(),
                trace: Vec::new(),
                failure: None,
                aborting: false,
            }),
            turn: StdCondvar::new(),
        }
    }

    /// Lock the meta-mutex.  Poison recovery here is about *our* test
    /// harness robustness: a panicking virtual thread unwinds through kernel
    /// calls and must not wedge the other OS threads of the run.
    fn locked(&self) -> StdMutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn trace(s: &mut Sched, line: String) {
        s.trace.push(line);
    }

    fn fail(s: &mut Sched, kind: FailureKind, thread: Option<usize>, detail: String) {
        if s.failure.is_none() {
            Self::trace(s, format!("!! {kind:?}: {detail}"));
            s.failure = Some(Failure {
                kind,
                detail,
                thread,
            });
        }
        s.aborting = true;
    }

    // -- registration -------------------------------------------------------

    fn register_lock(&self, name: &str) -> usize {
        let mut s = self.locked();
        let id = s.locks.len();
        let name = if name.is_empty() {
            format!("lock#{id}")
        } else {
            name.to_string()
        };
        s.locks.push(LockState {
            owner: None,
            poisoned: false,
            name,
        });
        id
    }

    fn register_cv(&self, name: &str) -> usize {
        let mut s = self.locked();
        let id = s.cv_names.len();
        let name = if name.is_empty() {
            format!("cv#{id}")
        } else {
            name.to_string()
        };
        s.cv_names.push(name);
        id
    }

    fn register_atomic(&self) -> usize {
        let mut s = self.locked();
        let id = s.atomic_count;
        s.atomic_count += 1;
        id
    }

    fn register_thread(&self, parent: usize) -> usize {
        let mut s = self.locked();
        let tid = s.threads.len();
        s.threads.push(VThread {
            status: Status::Runnable,
            held: Vec::new(),
            panic_payload: None,
            joined: false,
        });
        s.alive += 1;
        Self::trace(&mut s, format!("t{parent} spawns t{tid}"));
        tid
    }

    // -- the scheduling core ------------------------------------------------

    fn runnable(s: &Sched, tid: usize) -> bool {
        match &s.threads[tid].status {
            Status::Runnable => true,
            Status::BlockedLock(l) => s.locks[*l].owner.is_none(),
            Status::Waiting { notified, lock, .. } => *notified && s.locks[*lock].owner.is_none(),
            Status::Joining(tids) => tids
                .iter()
                .all(|&t| matches!(s.threads[t].status, Status::Finished)),
            Status::Finished => false,
        }
    }

    /// Record the lockdep edge `held -> acquiring` and fail on a cycle.
    fn note_order_edge(s: &mut Sched, held: usize, acquiring: usize, tid: usize) {
        if held == acquiring || s.lock_edges.contains(&(held, acquiring)) {
            return;
        }
        // Does `acquiring` already reach `held`?  Then adding this edge
        // closes a cycle: some other schedule can deadlock on these locks.
        let mut stack = vec![acquiring];
        let mut seen = vec![false; s.locks.len()];
        let mut cycle = false;
        while let Some(n) = stack.pop() {
            if n == held {
                cycle = true;
                break;
            }
            if seen[n] {
                continue;
            }
            seen[n] = true;
            stack.extend(s.lock_edges.iter().filter(|e| e.0 == n).map(|e| e.1));
        }
        if cycle {
            let detail = format!(
                "t{tid} acquires '{}' while holding '{}', but the reverse order was \
                 already observed — cyclic lock order can deadlock",
                s.lock_name(acquiring),
                s.lock_name(held),
            );
            Self::fail(s, FailureKind::LockOrderInversion, Some(tid), detail);
            return;
        }
        s.lock_edges.push((held, acquiring));
    }

    /// Grant whatever `tid` was blocked on and mark it runnable.
    fn grant(s: &mut Sched, tid: usize) {
        let granted_lock = match &s.threads[tid].status {
            Status::BlockedLock(l) => Some(*l),
            Status::Waiting {
                lock,
                notified: true,
                ..
            } => Some(*lock),
            _ => None,
        };
        if let Some(l) = granted_lock {
            debug_assert!(s.locks[l].owner.is_none(), "granting a held lock");
            let held = s.threads[tid].held.clone();
            for h in held {
                Self::note_order_edge(s, h, l, tid);
            }
            s.locks[l].owner = Some(tid);
            s.threads[tid].held.push(l);
            let name = s.lock_name(l).to_string();
            Self::trace(s, format!("t{tid} acquires {name}"));
        }
        s.threads[tid].status = Status::Runnable;
    }

    /// Pick the next thread to run.  `voluntary` marks a point where `me`
    /// could continue (pure preemption opportunity).
    fn pick_next(s: &mut Sched, me: usize, voluntary: bool) -> Option<usize> {
        // Optionally fire a spurious wakeup before computing runnability.
        if s.cfg.spurious_wakeups {
            let parked: Vec<usize> = (0..s.threads.len())
                .filter(|&t| {
                    matches!(
                        s.threads[t].status,
                        Status::Waiting {
                            notified: false,
                            ..
                        }
                    )
                })
                .collect();
            if !parked.is_empty() && s.rng.one_in(8) {
                let t = parked[s.rng.below(parked.len())];
                if let Status::Waiting { notified, .. } = &mut s.threads[t].status {
                    *notified = true;
                }
                Self::trace(s, format!("t{t} wakes spuriously"));
            }
        }
        let runnable: Vec<usize> = (0..s.threads.len())
            .filter(|&t| Self::runnable(s, t))
            .collect();
        if runnable.is_empty() {
            return None;
        }
        if voluntary && runnable.contains(&me) {
            let budget_ok = s.cfg.preemption_bound.is_none_or(|b| s.preemptions < b);
            if budget_ok {
                let pick = runnable[s.rng.below(runnable.len())];
                if pick != me {
                    s.preemptions += 1;
                    Self::trace(s, format!("preempt t{me} -> t{pick}"));
                }
                return Some(pick);
            }
            return Some(me);
        }
        Some(runnable[s.rng.below(runnable.len())])
    }

    /// The baton hand-off: account a step, pick and wake the next thread,
    /// then park until `me` is active again.  Must be entered with `me`'s new
    /// status already recorded in `s`.
    fn reschedule(&self, me: usize, mut s: StdMutexGuard<'_, Sched>, voluntary: bool) {
        if s.aborting {
            drop(s);
            abort_unwind();
        }
        s.steps += 1;
        if s.steps > s.cfg.max_steps {
            let max = s.cfg.max_steps;
            Self::fail(
                &mut s,
                FailureKind::StepLimit,
                Some(me),
                format!("exceeded {max} scheduling points — livelock in the code under test?"),
            );
            drop(s);
            self.turn.notify_all();
            abort_unwind();
        }
        match Self::pick_next(&mut s, me, voluntary) {
            Some(next) => {
                Self::grant(&mut s, next);
                s.active = next;
            }
            None => {
                if s.alive > 0 {
                    let detail = Self::deadlock_detail(&s);
                    Self::fail(&mut s, FailureKind::Deadlock, Some(me), detail);
                    drop(s);
                    self.turn.notify_all();
                    abort_unwind();
                }
                // alive == 0: the run is over; nothing to wake.
            }
        }
        self.turn.notify_all();
        loop {
            if s.aborting {
                drop(s);
                abort_unwind();
            }
            if s.active == me && matches!(s.threads[me].status, Status::Runnable) {
                return;
            }
            s = self.turn.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn deadlock_detail(s: &Sched) -> String {
        let mut parts = Vec::new();
        for (t, th) in s.threads.iter().enumerate() {
            match &th.status {
                Status::BlockedLock(l) => {
                    let owner = s.locks[*l]
                        .owner
                        .map_or("<free>".to_string(), |o| format!("t{o}"));
                    parts.push(format!(
                        "t{t} blocked acquiring '{}' (owner {owner})",
                        s.lock_name(*l)
                    ));
                }
                Status::Waiting {
                    cv,
                    notified: false,
                    ..
                } => {
                    parts.push(format!(
                        "t{t} parked on '{}' with no notify coming — lost wakeup?",
                        s.cv_names[*cv]
                    ));
                }
                Status::Waiting {
                    cv, notified: true, ..
                } => {
                    parts.push(format!(
                        "t{t} notified on '{}' but cannot reacquire",
                        s.cv_names[*cv]
                    ));
                }
                Status::Joining(tids) => {
                    parts.push(format!("t{t} joining {tids:?}"));
                }
                Status::Runnable | Status::Finished => {}
            }
        }
        format!("no runnable thread; {}", parts.join("; "))
    }

    // -- operations called by the model types -------------------------------

    /// A pure preemption point (`label` feeds the trace).
    fn yield_point(&self, me: usize, label: &str) {
        let mut s = self.locked();
        if !label.is_empty() {
            Self::trace(&mut s, format!("t{me} {label}"));
        }
        self.reschedule(me, s, true);
    }

    /// Block until the lock is granted; returns its poison flag.
    fn lock_acquire(&self, me: usize, lock: usize) -> bool {
        let mut s = self.locked();
        let name = s.lock_name(lock).to_string();
        Self::trace(&mut s, format!("t{me} wants {name}"));
        s.threads[me].status = Status::BlockedLock(lock);
        self.reschedule(me, s, false);
        self.locked().locks[lock].poisoned
    }

    fn lock_release(&self, me: usize, lock: usize, panicking: bool) {
        let mut s = self.locked();
        s.locks[lock].owner = None;
        if panicking {
            s.locks[lock].poisoned = true;
        }
        s.threads[me].held.retain(|&l| l != lock);
        let name = s.lock_name(lock).to_string();
        Self::trace(
            &mut s,
            if panicking {
                format!("t{me} poisons {name} (released while panicking)")
            } else {
                format!("t{me} releases {name}")
            },
        );
        // Unwinding threads (user panic or abort) must not re-enter the
        // scheduler from a Drop impl; they keep the baton until their
        // wrapper hands it off in finish_thread.
        if !panicking && !s.aborting {
            self.reschedule(me, s, true);
        }
    }

    fn clear_poison(&self, lock: usize) {
        self.locked().locks[lock].poisoned = false;
    }

    fn lock_poisoned(&self, lock: usize) -> bool {
        self.locked().locks[lock].poisoned
    }

    /// Atomically release the lock and park on the condvar; on return the
    /// lock is reacquired.  Returns its poison flag.
    fn cv_wait(&self, me: usize, cv: usize, lock: usize) -> bool {
        let mut s = self.locked();
        debug_assert_eq!(s.locks[lock].owner, Some(me), "cv wait without the lock");
        s.locks[lock].owner = None;
        s.threads[me].held.retain(|&l| l != lock);
        s.threads[me].status = Status::Waiting {
            cv,
            lock,
            notified: false,
        };
        let (cv_name, lock_name) = (s.cv_names[cv].clone(), s.lock_name(lock).to_string());
        Self::trace(
            &mut s,
            format!("t{me} waits on {cv_name} (releases {lock_name})"),
        );
        self.reschedule(me, s, false);
        self.locked().locks[lock].poisoned
    }

    fn cv_notify(&self, me: usize, cv: usize, all: bool) {
        let mut s = self.locked();
        let parked: Vec<usize> = (0..s.threads.len())
            .filter(|&t| matches!(&s.threads[t].status, Status::Waiting { cv: c, notified: false, .. } if *c == cv))
            .collect();
        let cv_name = s.cv_names[cv].clone();
        if parked.is_empty() {
            Self::trace(&mut s, format!("t{me} notifies {cv_name} (nobody parked)"));
        } else if all {
            for &t in &parked {
                if let Status::Waiting { notified, .. } = &mut s.threads[t].status {
                    *notified = true;
                }
            }
            Self::trace(
                &mut s,
                format!("t{me} notify_all {cv_name} wakes {parked:?}"),
            );
        } else {
            let t = parked[s.rng.below(parked.len())];
            if let Status::Waiting { notified, .. } = &mut s.threads[t].status {
                *notified = true;
            }
            Self::trace(&mut s, format!("t{me} notify_one {cv_name} wakes t{t}"));
        }
        self.reschedule(me, s, true);
    }

    /// Scheduling point before an atomic access.
    fn atomic_point(&self, me: usize, id: usize, op: &str) {
        let mut s = self.locked();
        Self::trace(&mut s, format!("t{me} atomic#{id} {op}"));
        self.reschedule(me, s, true);
    }

    /// Child-thread entry: park until first scheduled.  Returns false when
    /// the run aborted before this thread ever ran.
    fn first_schedule(&self, me: usize) -> bool {
        let mut s = self.locked();
        loop {
            if s.aborting {
                s.threads[me].status = Status::Finished;
                s.alive -= 1;
                drop(s);
                self.turn.notify_all();
                return false;
            }
            if s.active == me && matches!(s.threads[me].status, Status::Runnable) {
                return true;
            }
            s = self.turn.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Child-thread exit: record the outcome and hand the baton onward.
    fn finish_thread(&self, me: usize, panic_payload: Option<Box<dyn Any + Send>>) {
        let mut s = self.locked();
        s.threads[me].status = Status::Finished;
        s.threads[me].panic_payload = panic_payload;
        s.alive -= 1;
        Self::trace(&mut s, format!("t{me} finishes"));
        if s.aborting {
            drop(s);
            self.turn.notify_all();
            return;
        }
        match Self::pick_next(&mut s, me, false) {
            Some(next) => {
                Self::grant(&mut s, next);
                s.active = next;
            }
            None => {
                if s.alive > 0 {
                    let detail = Self::deadlock_detail(&s);
                    Self::fail(&mut s, FailureKind::Deadlock, Some(me), detail);
                }
            }
        }
        drop(s);
        self.turn.notify_all();
    }

    /// Block until every listed thread has finished.
    fn join_threads(&self, me: usize, tids: &[usize]) {
        let mut s = self.locked();
        let pending: Vec<usize> = tids
            .iter()
            .copied()
            .filter(|&t| !matches!(s.threads[t].status, Status::Finished))
            .collect();
        if pending.is_empty() {
            drop(s);
            return;
        }
        Self::trace(&mut s, format!("t{me} joins {pending:?}"));
        s.threads[me].status = Status::Joining(pending);
        self.reschedule(me, s, false);
    }

    fn take_payload(&self, tid: usize) -> Option<Box<dyn Any + Send>> {
        let mut s = self.locked();
        s.threads[tid].joined = true;
        s.threads[tid].panic_payload.take()
    }

    /// Unjoined children that died of an uncaught panic (std scope semantics:
    /// the scope itself then panics).
    fn unjoined_panic(&self, tids: &[usize]) -> Option<Box<dyn Any + Send>> {
        let mut s = self.locked();
        for &t in tids {
            if !s.threads[t].joined && s.threads[t].panic_payload.is_some() {
                return s.threads[t].panic_payload.take();
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Execute `f` as a model run under `cfg` and report the outcome.
///
/// `f` runs on the calling thread as virtual thread `t0`; any threads it
/// spawns through [`thread::scope`] become `t1..`.  Does not nest.
pub fn run<F: FnOnce()>(cfg: Config, f: F) -> Report {
    install_quiet_panic_hook();
    assert!(current().is_none(), "model::run does not nest");
    let seed = cfg.seed;
    let kernel = Arc::new(Kernel::new(cfg));
    {
        let mut s = kernel.locked();
        s.threads.push(VThread {
            status: Status::Runnable,
            held: Vec::new(),
            panic_payload: None,
            joined: true,
        });
        s.alive = 1;
        s.active = 0;
    }
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&kernel), 0)));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CURRENT.with(|c| *c.borrow_mut() = None);
    let mut s = kernel.locked();
    s.threads[0].status = Status::Finished;
    s.alive -= 1;
    match result {
        Ok(()) => {}
        Err(p) if p.is::<ModelAbort>() => {
            debug_assert!(s.failure.is_some(), "abort without a recorded failure");
        }
        Err(p) => {
            let msg = payload_message(p.as_ref());
            Kernel::fail(&mut s, FailureKind::Panic, Some(0), msg);
        }
    }
    Report {
        seed,
        steps: s.steps,
        failure: s.failure.clone(),
        trace: std::mem::take(&mut s.trace),
    }
}

/// Run `f` under `iterations` consecutive seeds starting from `cfg.seed`;
/// return the first failing [`Report`], or `None` if every schedule passed.
pub fn explore_with<F: Fn()>(cfg: Config, iterations: u64, f: F) -> Option<Report> {
    for i in 0..iterations {
        let mut c = cfg.clone();
        c.seed = cfg.seed + i;
        let report = run(c, &f);
        if report.failed() {
            return Some(report);
        }
    }
    None
}

/// [`explore_with`] under the default config, seeds `0..iterations`.
pub fn explore<F: Fn()>(iterations: u64, f: F) -> Option<Report> {
    explore_with(Config::default(), iterations, f)
}

/// Re-run a single committed seed (the replay half of `explore`'s find).
pub fn replay<F: FnOnce()>(seed: u64, f: F) -> Report {
    run(Config::with_seed(seed), f)
}

// ---------------------------------------------------------------------------
// Model sync primitives (mirror std::sync)
// ---------------------------------------------------------------------------

/// A model-checked mutex.  API mirrors `std::sync::Mutex`, including poison
/// semantics; every acquire/release is a scheduling point.
pub struct Mutex<T> {
    kernel: Arc<Kernel>,
    id: usize,
    storage: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex named `lock#N` in traces.  Must be created inside a model run.
    pub fn new(value: T) -> Mutex<T> {
        Mutex::named("", value)
    }

    /// A mutex with a human-readable trace/diagnostic name.
    pub fn named(name: &str, value: T) -> Mutex<T> {
        let (kernel, _) = require_current("model::Mutex::new");
        let id = kernel.register_lock(name);
        Mutex {
            kernel,
            id,
            storage: StdMutex::new(value),
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let (kernel, me) = require_current("model::Mutex::lock");
        assert!(
            Arc::ptr_eq(&kernel, &self.kernel),
            "model::Mutex used from a different model run than it was created in"
        );
        let poisoned = kernel.lock_acquire(me, self.id);
        // The scheduler serialises virtual threads, so the storage lock is
        // always free here; it exists to hold T and mirror std's aliasing
        // guarantees without unsafe code.
        let inner = self.storage.lock().unwrap_or_else(|p| p.into_inner());
        let guard = MutexGuard {
            lock: self,
            inner: Some(inner),
            me,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        let poisoned = self.kernel.lock_poisoned(self.id);
        let value = self.storage.into_inner().unwrap_or_else(|p| p.into_inner());
        if poisoned {
            Err(PoisonError::new(value))
        } else {
            Ok(value)
        }
    }

    pub fn clear_poison(&self) {
        self.kernel.clear_poison(self.id);
        self.storage.clear_poison();
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("model::Mutex")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// Guard of a [`Mutex`]; releasing (dropping) is a scheduling point.
///
/// `inner` is `Some` for the guard's whole observable life; `Condvar::wait`
/// and `Drop` take it out exactly once while dismantling the guard.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    me: usize,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("model MutexGuard already dismantled")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("model MutexGuard already dismantled")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the storage lock before telling the kernel: the next
        // thread granted this model lock takes the storage lock itself.
        drop(self.inner.take());
        self.lock
            .kernel
            .lock_release(self.me, self.lock.id, std::thread::panicking());
    }
}

/// A model-checked condition variable mirroring `std::sync::Condvar`.
pub struct Condvar {
    kernel: Arc<Kernel>,
    id: usize,
}

impl Condvar {
    pub fn new() -> Condvar {
        Condvar::named("")
    }

    /// A condvar with a human-readable trace name.
    pub fn named(name: &str) -> Condvar {
        let (kernel, _) = require_current("model::Condvar::new");
        let id = kernel.register_cv(name);
        Condvar { kernel, id }
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        // Dismantle the guard without running its Drop (which would release
        // the model lock as an ordinary unlock): `cv_wait` performs the
        // atomic release-and-park itself.  The suppressed guard holds only a
        // reference and a `None`, so nothing leaks.
        let mut g = ManuallyDrop::new(guard);
        let lock: &'a Mutex<T> = g.lock;
        let me = g.me;
        drop(g.inner.take());
        assert!(
            Arc::ptr_eq(&self.kernel, &lock.kernel),
            "model::Condvar paired with a Mutex from a different run"
        );
        let poisoned = self.kernel.cv_wait(me, self.id, lock.id);
        let inner = lock.storage.lock().unwrap_or_else(|p| p.into_inner());
        let guard = MutexGuard {
            lock,
            inner: Some(inner),
            me,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    pub fn notify_one(&self) {
        let (kernel, me) = require_current("model::Condvar::notify_one");
        kernel.cv_notify(me, self.id, false);
    }

    pub fn notify_all(&self) {
        let (kernel, me) = require_current("model::Condvar::notify_all");
        kernel.cv_notify(me, self.id, true);
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("model::Condvar")
            .field("id", &self.id)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Model atomics
// ---------------------------------------------------------------------------

macro_rules! model_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Model-checked atomic: every access is a scheduling point.  The
        /// scheduler serialises threads, so all orderings behave as SeqCst.
        pub struct $name {
            kernel: Arc<Kernel>,
            id: usize,
            v: $std,
        }

        impl $name {
            pub fn new(v: $prim) -> $name {
                let (kernel, _) = require_current(concat!("model::", stringify!($name), "::new"));
                let id = kernel.register_atomic();
                $name {
                    kernel,
                    id,
                    v: <$std>::new(v),
                }
            }

            fn point(&self, op: &str) {
                let (_, me) = require_current("model atomic access");
                self.kernel.atomic_point(me, self.id, op);
            }

            pub fn load(&self, _order: Ordering) -> $prim {
                self.point("load");
                self.v.load(Ordering::SeqCst)
            }

            pub fn store(&self, v: $prim, _order: Ordering) {
                self.point("store");
                self.v.store(v, Ordering::SeqCst)
            }

            pub fn swap(&self, v: $prim, _order: Ordering) -> $prim {
                self.point("swap");
                self.v.swap(v, Ordering::SeqCst)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("model::", stringify!($name), "(#{:?})"), self.id)
            }
        }
    };
}

model_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);

macro_rules! model_atomic_arith {
    ($name:ident, $prim:ty) => {
        impl $name {
            pub fn fetch_add(&self, v: $prim, _order: Ordering) -> $prim {
                self.point("fetch_add");
                self.v.fetch_add(v, Ordering::SeqCst)
            }

            pub fn fetch_sub(&self, v: $prim, _order: Ordering) -> $prim {
                self.point("fetch_sub");
                self.v.fetch_sub(v, Ordering::SeqCst)
            }

            pub fn fetch_max(&self, v: $prim, _order: Ordering) -> $prim {
                self.point("fetch_max");
                self.v.fetch_max(v, Ordering::SeqCst)
            }
        }
    };
}

model_atomic_arith!(AtomicUsize, usize);
model_atomic_arith!(AtomicU64, u64);

// ---------------------------------------------------------------------------
// Model threads (scoped, mirroring std::thread::scope)
// ---------------------------------------------------------------------------

/// Scoped virtual threads.  `scope`/`Scope::spawn`/`join` mirror
/// `std::thread::scope`; under the hood each virtual thread is a real OS
/// thread gated by the kernel baton.
pub mod thread {
    use super::*;

    /// Model equivalent of `std::thread::scope`: children are virtual
    /// threads; the scope (model-)joins them all before returning, and — as
    /// in std — re-raises the panic of any unjoined panicked child.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        let (kernel, me) = require_current("model::thread::scope");
        std::thread::scope(|s| {
            let scope = Scope {
                kernel: Arc::clone(&kernel),
                me,
                std: s,
                children: RefCell::new(Vec::new()),
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
            // Regardless of how the body exited, the children must finish
            // before the std scope joins their OS threads — a virtual thread
            // can only finish while the scheduler keeps handing it the baton.
            let children = scope.children.borrow().clone();
            kernel.join_threads(me, &children);
            match result {
                Ok(v) => {
                    if let Some(p) = kernel.unjoined_panic(&children) {
                        panic::resume_unwind(p);
                    }
                    v
                }
                Err(p) => panic::resume_unwind(p),
            }
        })
    }

    /// Handle passed to the [`scope`] closure.
    pub struct Scope<'scope, 'env: 'scope> {
        pub(super) kernel: Arc<Kernel>,
        pub(super) me: usize,
        pub(super) std: &'scope std::thread::Scope<'scope, 'env>,
        pub(super) children: RefCell<Vec<usize>>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a virtual thread.  The spawn itself is a scheduling point,
        /// so the child may run before `spawn` returns to the parent.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let tid = self.kernel.register_thread(self.me);
            self.children.borrow_mut().push(tid);
            let kernel = Arc::clone(&self.kernel);
            let std_handle = self.std.spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&kernel), tid)));
                let out = if kernel.first_schedule(tid) {
                    match panic::catch_unwind(AssertUnwindSafe(f)) {
                        Ok(v) => {
                            kernel.finish_thread(tid, None);
                            Some(v)
                        }
                        Err(p) => {
                            let payload = if p.is::<ModelAbort>() { None } else { Some(p) };
                            kernel.finish_thread(tid, payload);
                            None
                        }
                    }
                } else {
                    None
                };
                CURRENT.with(|c| *c.borrow_mut() = None);
                out
            });
            self.kernel.yield_point(self.me, "yields after spawn");
            ScopedJoinHandle {
                kernel: Arc::clone(&self.kernel),
                tid,
                std: std_handle,
            }
        }
    }

    /// Handle to a spawned virtual thread.
    pub struct ScopedJoinHandle<'scope, T> {
        kernel: Arc<Kernel>,
        tid: usize,
        std: std::thread::ScopedJoinHandle<'scope, Option<T>>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Model-join: parks the caller until the child finishes; returns the
        /// child's value or its panic payload, like `std`.
        pub fn join(self) -> std::thread::Result<T> {
            let (_, me) = require_current("model join");
            self.kernel.join_threads(me, &[self.tid]);
            if let Some(p) = self.kernel.take_payload(self.tid) {
                return Err(p);
            }
            let v = self
                .std
                .join()
                .expect("model thread wrappers never panic")
                .expect("finished model thread without payload has a value");
            Ok(v)
        }
    }

    /// A pure preemption point, the model `std::thread::yield_now`.
    pub fn yield_now() {
        let (kernel, me) = require_current("model yield_now");
        kernel.yield_point(me, "yield_now");
    }
}
