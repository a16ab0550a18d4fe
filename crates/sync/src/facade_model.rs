//! `--cfg model_check` facade: constructors route to the deterministic
//! scheduler when the calling thread is inside [`crate::model::run`], and
//! fall back to plain `std` otherwise (so non-model tests keep passing in
//! the same build).  A primitive keeps the personality it was constructed
//! with; crossing one between a model run and the outside world is a bug
//! and panics loudly rather than corrupting a schedule.

use crate::model;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self as ss, LockResult, PoisonError};

const MIXED: &str =
    "xpath_sync facade primitive crossed a model-run boundary (created in one world, used in the other)";

/// Facade mutex: `std` outside model runs, scheduler-backed inside.
pub struct Mutex<T>(MutexImp<T>);

enum MutexImp<T> {
    Std(ss::Mutex<T>),
    Model(model::Mutex<T>),
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        if model::in_model() {
            Mutex(MutexImp::Model(model::Mutex::new(value)))
        } else {
            Mutex(MutexImp::Std(ss::Mutex::new(value)))
        }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match &self.0 {
            MutexImp::Std(m) => match m.lock() {
                Ok(g) => Ok(MutexGuard(GuardImp::Std(g))),
                Err(p) => Err(PoisonError::new(MutexGuard(GuardImp::Std(p.into_inner())))),
            },
            MutexImp::Model(m) => match m.lock() {
                Ok(g) => Ok(MutexGuard(GuardImp::Model(g))),
                Err(p) => Err(PoisonError::new(MutexGuard(GuardImp::Model(
                    p.into_inner(),
                )))),
            },
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        match self.0 {
            MutexImp::Std(m) => m.into_inner(),
            MutexImp::Model(m) => m.into_inner(),
        }
    }

    pub fn clear_poison(&self) {
        match &self.0 {
            MutexImp::Std(m) => m.clear_poison(),
            MutexImp::Model(m) => m.clear_poison(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            MutexImp::Std(m) => m.fmt(f),
            MutexImp::Model(m) => m.fmt(f),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

/// Facade guard over either personality.
pub struct MutexGuard<'a, T>(GuardImp<'a, T>);

enum GuardImp<'a, T> {
    Std(ss::MutexGuard<'a, T>),
    Model(model::MutexGuard<'a, T>),
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.0 {
            GuardImp::Std(g) => g,
            GuardImp::Model(g) => g,
        }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.0 {
            GuardImp::Std(g) => g,
            GuardImp::Model(g) => g,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Facade condvar over either personality.
pub struct Condvar(CondvarImp);

enum CondvarImp {
    Std(ss::Condvar),
    Model(model::Condvar),
}

impl Condvar {
    pub fn new() -> Condvar {
        if model::in_model() {
            Condvar(CondvarImp::Model(model::Condvar::new()))
        } else {
            Condvar(CondvarImp::Std(ss::Condvar::new()))
        }
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match (&self.0, guard.0) {
            (CondvarImp::Std(cv), GuardImp::Std(g)) => match cv.wait(g) {
                Ok(g) => Ok(MutexGuard(GuardImp::Std(g))),
                Err(p) => Err(PoisonError::new(MutexGuard(GuardImp::Std(p.into_inner())))),
            },
            (CondvarImp::Model(cv), GuardImp::Model(g)) => match cv.wait(g) {
                Ok(g) => Ok(MutexGuard(GuardImp::Model(g))),
                Err(p) => Err(PoisonError::new(MutexGuard(GuardImp::Model(
                    p.into_inner(),
                )))),
            },
            _ => panic!("{MIXED}"),
        }
    }

    pub fn notify_one(&self) {
        match &self.0 {
            CondvarImp::Std(cv) => cv.notify_one(),
            CondvarImp::Model(cv) => cv.notify_one(),
        }
    }

    pub fn notify_all(&self) {
        match &self.0 {
            CondvarImp::Std(cv) => cv.notify_all(),
            CondvarImp::Model(cv) => cv.notify_all(),
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            CondvarImp::Std(cv) => cv.fmt(f),
            CondvarImp::Model(cv) => cv.fmt(f),
        }
    }
}

/// Facade atomics: the subset of the `std` atomic API the workspace uses,
/// dispatching to scheduler-instrumented atomics inside model runs.
pub mod atomic {
    use crate::model;
    use std::sync::atomic as sa;

    pub use std::sync::atomic::Ordering;

    macro_rules! facade_atomic {
        ($name:ident, $std:ty, $model:ty, $prim:ty) => {
            use std::fmt;
            use std::sync::atomic::Ordering;

            pub struct $name(Imp);

            enum Imp {
                Std($std),
                Model($model),
            }

            impl $name {
                pub fn new(v: $prim) -> $name {
                    if crate::model::in_model() {
                        $name(Imp::Model(<$model>::new(v)))
                    } else {
                        $name(Imp::Std(<$std>::new(v)))
                    }
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    match &self.0 {
                        Imp::Std(a) => a.load(order),
                        Imp::Model(a) => a.load(order),
                    }
                }

                pub fn store(&self, v: $prim, order: Ordering) {
                    match &self.0 {
                        Imp::Std(a) => a.store(v, order),
                        Imp::Model(a) => a.store(v, order),
                    }
                }

                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    match &self.0 {
                        Imp::Std(a) => a.swap(v, order),
                        Imp::Model(a) => a.swap(v, order),
                    }
                }
            }

            impl fmt::Debug for $name {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    match &self.0 {
                        Imp::Std(a) => a.fmt(f),
                        Imp::Model(a) => a.fmt(f),
                    }
                }
            }
        };
    }

    macro_rules! facade_atomic_arith {
        ($name:ident, $prim:ty) => {
            impl $name {
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    match &self.0 {
                        Imp::Std(a) => a.fetch_add(v, order),
                        Imp::Model(a) => a.fetch_add(v, order),
                    }
                }

                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    match &self.0 {
                        Imp::Std(a) => a.fetch_sub(v, order),
                        Imp::Model(a) => a.fetch_sub(v, order),
                    }
                }

                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    match &self.0 {
                        Imp::Std(a) => a.fetch_max(v, order),
                        Imp::Model(a) => a.fetch_max(v, order),
                    }
                }
            }
        };
    }

    mod bool_imp {
        facade_atomic!(
            AtomicBool,
            super::sa::AtomicBool,
            super::model::AtomicBool,
            bool
        );
    }
    mod usize_imp {
        facade_atomic!(
            AtomicUsize,
            super::sa::AtomicUsize,
            super::model::AtomicUsize,
            usize
        );
        facade_atomic_arith!(AtomicUsize, usize);
    }
    mod u64_imp {
        facade_atomic!(
            AtomicU64,
            super::sa::AtomicU64,
            super::model::AtomicU64,
            u64
        );
        facade_atomic_arith!(AtomicU64, u64);
    }

    pub use bool_imp::AtomicBool;
    pub use u64_imp::AtomicU64;
    pub use usize_imp::AtomicUsize;
}

/// Scoped threads: virtual threads inside model runs, `std::thread::scope`
/// outside.
pub mod thread {
    use crate::model;

    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'a, 'scope> FnOnce(&Scope<'a, 'scope, 'env>) -> T,
    {
        if model::in_model() {
            model::thread::scope(|s| f(&Scope(ScopeImp::Model(s))))
        } else {
            std::thread::scope(|s| f(&Scope(ScopeImp::Std(s))))
        }
    }

    /// `'a` is the borrow of the underlying scope value, `'scope` the region
    /// spawned threads may borrow from (std collapses the two; the model
    /// scope is a local wrapper, so they differ there).
    pub struct Scope<'a, 'scope, 'env: 'scope>(ScopeImp<'a, 'scope, 'env>);

    enum ScopeImp<'a, 'scope, 'env: 'scope> {
        Std(&'scope std::thread::Scope<'scope, 'env>),
        Model(&'a model::thread::Scope<'scope, 'env>),
    }

    impl<'scope, 'env> Scope<'_, 'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match &self.0 {
                ScopeImp::Std(s) => ScopedJoinHandle(HandleImp::Std(s.spawn(f))),
                ScopeImp::Model(s) => ScopedJoinHandle(HandleImp::Model(s.spawn(f))),
            }
        }
    }

    pub struct ScopedJoinHandle<'scope, T>(HandleImp<'scope, T>);

    enum HandleImp<'scope, T> {
        Std(std::thread::ScopedJoinHandle<'scope, T>),
        Model(model::thread::ScopedJoinHandle<'scope, T>),
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                HandleImp::Std(h) => h.join(),
                HandleImp::Model(h) => h.join(),
            }
        }
    }

    pub fn yield_now() {
        if model::in_model() {
            model::thread::yield_now()
        } else {
            std::thread::yield_now()
        }
    }
}
