//! `servebench` — the serving benchmark of the `pplxd` daemon.
//!
//! ```text
//! servebench --workload read_warm|read_evicting|read_write --seed N
//!            --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! servebench/Cargo.toml -- …`).  It builds `pplxd` from source, generates
//! the workload from the seed, computes every expected response in process,
//! then drives the real daemon over TCP from two closed-loop connections and
//! checks every reply.  `--trace 0` prints the end-to-end metrics;
//! `--trace 1` adds an in-process traced replay and prints the per-layer
//! metrics.  The last line of standard output is one JSON object; a wrong
//! answer, an `ERR` reply or a missing reply exits non-zero without printing
//! it.  See `servebench/README.md`.

mod check;
mod daemon;
mod trace;
mod workload;

use check::{Checker, Expected};
use daemon::{Client, Daemon};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{Kind, Traffic, Workload, CONNECTIONS};

/// Daemon start-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The read workloads send read traffic for this share of `--seconds`, then
/// write traffic for the rest.  The edit window gets the larger share: its
/// percentiles rest on a few dozen sends of each distinct edit.
const READ_SHARE: (u64, u64) = (2, 5);

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} expects a number"))
    };
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)?.max(1);
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Build `pplxd` from the checkout's sources (cargo skips it when fresh) and
/// return the binary's path.
fn build_pplxd() -> Result<PathBuf, String> {
    if !PathBuf::from("crates/corpus/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/corpus is missing".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "xpath_corpus",
            "--bin",
            "pplxd",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pplxd failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = PathBuf::from(target).join("release").join("pplxd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no pplxd binary at {}", bin.display()))
    }
}

/// A request line cut short for messages (`LOAD` lines carry a document).
pub fn shown(line: &str) -> String {
    let head: String = line.chars().take(160).collect();
    if head.len() < line.len() {
        format!("{head}…")
    } else {
        head
    }
}

/// Start a daemon, load every document and run one warm-up pass over every
/// distinct query line, checking each reply.  Returns the daemon, a control
/// connection and the elapsed seconds.
fn setup(
    bin: &Path,
    w: &Workload,
    expected: &Expected,
    budget: Option<usize>,
) -> Result<(Daemon, Client, f64), String> {
    let loads = w.load_lines();
    let start = Instant::now();
    let daemon = Daemon::spawn(bin, budget).map_err(|e| format!("cannot start pplxd: {e}"))?;
    let mut control = Client::connect(&daemon.addr).map_err(|e| format!("cannot connect: {e}"))?;
    for line in &loads {
        let reply = control
            .request(line)
            .map_err(|e| format!("LOAD failed: {e}"))?;
        if !reply.starts_with(b"OK 1\nloaded ") {
            return Err(format!(
                "LOAD answered {}",
                String::from_utf8_lossy(&reply).trim_end()
            ));
        }
    }
    for line in &w.warmup {
        let reply = control
            .request(line)
            .map_err(|e| format!("warm-up failed: {e}"))?;
        if expected.by_line.get(line) != Some(&check::fnv(&reply)) {
            return Err(format!("wrong answer to `{}` during warm-up", shown(line)));
        }
    }
    Ok((daemon, control, start.elapsed().as_secs_f64()))
}

/// Outcome of a timed closed-loop window.
pub struct Window {
    /// The latency of each `QUERY`, in ms.
    pub queries: Vec<f64>,
    pub attempted: u64,
    /// Seconds from opening the window to its last reply.
    pub elapsed: f64,
    /// Per request line: the latency of each time it was sent, in ms.
    pub per_line: HashMap<String, Vec<f64>>,
}

impl Window {
    fn new() -> Window {
        Window {
            queries: Vec::new(),
            attempted: 0,
            elapsed: 0.0,
            per_line: HashMap::new(),
        }
    }

    /// The latencies of each distinct `MUTATE` line.
    fn edits(&self) -> impl Iterator<Item = &Vec<f64>> {
        self.per_line
            .iter()
            .filter(|(line, _)| line.starts_with("MUTATE"))
            .map(|(_, ms)| ms)
    }
}

/// Drive `CONNECTIONS` closed-loop clients sending `traffic` for `seconds`,
/// checking every reply.  A healthy daemon answers every request of the
/// workload correctly, so a wrong answer, an `ERR` reply or a missing reply
/// stops every client and fails the run.
fn run_window(
    addr: &str,
    w: &Workload,
    expected: &Expected,
    traffic: Traffic,
    seconds: u64,
) -> Result<Window, String> {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let results: Vec<Result<Window, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut out = Window::new();
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
                    let mut stream = w.stream(c, traffic);
                    let mut checker = Checker::new(expected);
                    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                        let line = stream.next_line();
                        out.attempted += 1;
                        let sent = Instant::now();
                        let reply = client.request(line);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        let failure = match &reply {
                            Err(e) => Some(format!("no reply to `{}`: {e}", shown(line))),
                            Ok(r) if r.starts_with(b"ERR ") => Some(format!(
                                "`{}` answered {}",
                                shown(line),
                                String::from_utf8_lossy(r).trim_end()
                            )),
                            Ok(r) if !checker.check(line, r) => {
                                Some(format!("wrong answer to `{}`", shown(line)))
                            }
                            Ok(_) => None,
                        };
                        if let Some(message) = failure {
                            stop.store(true, Ordering::Relaxed);
                            return Err(message);
                        }
                        if !line.starts_with("MUTATE") {
                            out.queries.push(ms);
                        }
                        match out.per_line.get_mut(line) {
                            Some(samples) => samples.push(ms),
                            None => {
                                out.per_line.insert(line.to_string(), vec![ms]);
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = Window::new();
    total.elapsed = start.elapsed().as_secs_f64();
    for result in results {
        let part = result?;
        total.queries.extend(part.queries);
        total.attempted += part.attempted;
        for (line, samples) in part.per_line {
            total.per_line.entry(line).or_default().extend(samples);
        }
    }
    Ok(total)
}

/// The `q`-quantile of the window's edit latencies, with every distinct edit
/// weighted equally: each of the `n` latencies of an edit weighs `1/n`.  So
/// the figure does not move with the share of the requests that one
/// connection managed to send (a connection that owns larger documents
/// sends fewer), and it still uses every sample, which keeps it smooth where
/// the per-edit latencies jump from one kind of edit to the next.
fn edit_latency(window: &Window, q: f64) -> f64 {
    let mut weighted: Vec<(f64, f64)> = window
        .edits()
        .flat_map(|ms| ms.iter().map(move |&x| (x, 1.0 / ms.len() as f64)))
        .collect();
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = q * window.edits().count() as f64;
    let mut below = 0.0;
    for &(ms, weight) in &weighted {
        below += weight;
        if below >= target - 1e-9 {
            return ms;
        }
    }
    weighted.last().map_or(f64::NAN, |&(ms, _)| ms)
}

/// The median (mean of the two middle values for an even count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Print the metrics on standard error and the result line on standard
/// output.  A metric that could not be computed (a window with no edits)
/// fails the run instead.
fn print_result(attempted: u64, metrics: &[Metric]) -> Result<(), String> {
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} could not be measured (no samples)", m.name));
    }
    for m in metrics {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    Ok(())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<(), String> {
    let bin = build_pplxd()?;
    let started = Instant::now();
    let w = Workload::generate(args.kind, args.seed);
    let expected = Expected::compute(&w)?;
    eprintln!(
        "workload and expected responses: {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"pplxd\": \"{}\", \"commit\": \"{}\", \"documents\": {}, \"nodes\": {}, \"budget\": \"{}\", \"warm_pool_bytes\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bin.display(),
        git_commit(),
        w.docs.len(),
        w.total_nodes(),
        expected.budget.map_or("unbounded".to_string(), |b| b.to_string()),
        expected.warm_pool_bytes,
    );

    // Only the last daemon set up stays up for the query window.
    let mut setup_s = Vec::new();
    let setups = if args.trace { 1 } else { SETUPS };
    for _ in 1..setups {
        let (daemon, mut control, secs) = setup(&bin, &w, &expected, expected.budget)?;
        setup_s.push(secs);
        daemon.shutdown(&mut control);
    }
    let (daemon, mut control, secs) = setup(&bin, &w, &expected, expected.budget)?;
    setup_s.push(secs);

    // The query metrics come from the workload's own traffic.  The read
    // workloads send no edits, so for the edit metrics they then send the
    // write traffic, through the same window code, to a second daemon set
    // up like `read_warm`'s (no budget: under one, an edit's latency
    // depends on whether request timing left its document resident).
    let traffic = w.query_traffic();
    let query_seconds = match traffic {
        Traffic::Read => (args.seconds * READ_SHARE.0 / READ_SHARE.1).max(1),
        Traffic::Write => args.seconds,
    };
    let before = control.stats()?;
    let queries = run_window(&daemon.addr, &w, &expected, traffic, query_seconds)?;
    let after = control.stats()?;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown(&mut control);
    // A traced run reports no edit metric, so it skips the edit window.
    let edits = match traffic {
        Traffic::Read if !args.trace => {
            let (daemon, mut control, _) = setup(&bin, &w, &expected, None)?;
            let rest = args.seconds.saturating_sub(query_seconds).max(1);
            let edits = run_window(&daemon.addr, &w, &expected, Traffic::Write, rest);
            daemon.shutdown(&mut control);
            Some(edits?)
        }
        _ => None,
    };
    let attempted = queries.attempted + edits.as_ref().map_or(0, |e| e.attempted);
    let edits = edits.as_ref().unwrap_or(&queries);
    eprintln!("set-ups (s): {setup_s:.3?}");
    eprintln!(
        "servebench {} seed {}: {} queries in {:.1} s; {} edits in {:.1} s",
        args.workload,
        args.seed,
        queries.queries.len(),
        queries.elapsed,
        edits.edits().map(Vec::len).sum::<usize>(),
        edits.elapsed,
    );

    if !args.trace {
        let metrics = [
            metric("setup_s", median(&setup_s), "s"),
            metric("query_p50_ms", quantile(&queries.queries, 0.5), "ms"),
            metric("query_p99_ms", quantile(&queries.queries, 0.99), "ms"),
            metric(
                "query_qps",
                queries.queries.len() as f64 / queries.elapsed,
                "1/s",
            ),
            metric("mutate_p50_ms", edit_latency(edits, 0.5), "ms"),
            metric("mutate_p90_ms", edit_latency(edits, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ];
        return print_result(attempted, &metrics);
    }

    let daemon_stats = trace::DaemonStats {
        window: &queries,
        before,
        after,
    };
    let spans = PathBuf::from(format!(
        "servebench/out/spans-{}-seed{}.tsv",
        args.workload, args.seed
    ));
    let metrics = trace::per_layer(&w, &expected, &daemon_stats, &spans)?;
    print_result(attempted, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}");
            eprintln!(
                "usage: servebench --workload read_warm|read_evicting|read_write --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::FAILURE
        }
    }
}
