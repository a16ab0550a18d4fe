//! Shared helpers for the deterministic `experiments` runner.
//!
//! E1–E9 of EXPERIMENTS.md are tables the `experiments` binary prints;
//! E10–E17 are the sweeps of [`regress`], written as `BENCH_*.json` and
//! checked against its experiment table and the committed claims.  Both use
//! the helpers below so the numbers are comparable.

#![forbid(unsafe_code)]

pub mod json;
pub mod regress;

pub use json::Json;
pub use regress::{check_committed, check_file, validate_bench_json, SWEEPS};

use ppl_xpath::{Engine, Planner, QueryPlan, Session};
use std::time::{Duration, Instant};
use xpath_ast::{PathExpr, Var};

/// Prepare `query` against `session` with `engine` forced, so a timed
/// region pays execution only.  Panics if the query is outside PPL and
/// `engine` is not `naive`.
pub fn forced_plan(
    session: &Session,
    query: PathExpr,
    output: Vec<Var>,
    engine: Engine,
) -> QueryPlan {
    let src = query.to_string();
    Planner::default()
        .plan_with(session, query, output, Some(engine))
        .unwrap_or_else(|e| panic!("{src:?} does not plan on {engine}: {e}"))
}

/// Measure a closure once and return its wall-clock duration together with
/// its result.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Measure the median of `runs` executions of a closure (result of the last
/// run returned).  Used by the `experiments` runner; the Criterion benches
/// do their own statistics.
pub fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(runs >= 1);
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let (d, out) = time_once(&mut f);
        times.push(d);
        last = Some(out);
    }
    times.sort_unstable();
    (times[times.len() / 2], last.expect("runs >= 1"))
}

/// Format a duration in microseconds with a fixed width, for table output.
pub fn fmt_us(d: Duration) -> String {
    format!("{:>10.1}", d.as_secs_f64() * 1e6)
}

/// Ratio between two durations (`later / earlier`), guarded against zero.
pub fn ratio(later: Duration, earlier: Duration) -> f64 {
    let e = earlier.as_secs_f64().max(1e-9);
    later.as_secs_f64() / e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers() {
        let (d, v) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let (m, v) = time_median(3, || 7);
        assert_eq!(v, 7);
        assert!(m.as_nanos() > 0 || m.as_nanos() == 0);
        assert!(ratio(Duration::from_micros(20), Duration::from_micros(10)) > 1.9);
        assert_eq!(fmt_us(Duration::from_micros(5)).trim(), "5.0");
    }
}
