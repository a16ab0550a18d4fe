//! Regressions: one hostile request must neither wedge nor abort a
//! single-worker daemon.
//!
//! The wedge replay: `pplxd --threads 1` loads `r(a,…,a)` (201 nodes) and
//! receives a 4-ary query whose `$a` is shared across `/`, breaking NVS(/).
//! Only naive enumeration accepts it, at ~201⁵ assignments, so it used to
//! hold the one worker for hours and a `STATS` sent 0.5 s later on a fresh
//! connection never got a reply.  Auto planning now refuses it (Prop. 3:
//! no polynomial fallback exists): the `QUERY` answers
//! `ERR outside PPL: estimated cost …` and `STATS` answers at once.
//!
//! The abort replay: a query nested thousands of levels deep used to
//! overflow the worker's stack while parsing, which kills the process and
//! every document in it.  The parser now refuses anything deeper than
//! `MAX_QUERY_DEPTH` with `ERR query too deep`.
//!
//! The parse replay: a parenthesised path inside a filter used to be read
//! twice (as a test, then again as a path), doubling the parse per level,
//! so a 1 KB line of 40 levels the depth bound admits held the worker for
//! days.  It is now read once.
//!
//! The document replay: XML or term syntax nested 10⁶ deep used to
//! overflow the worker's stack in the recursive parsers.  Both parsers now
//! keep their open elements on a heap stack.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const WEDGE: &str = "QUERY d descendant::*[. is $a]/descendant-or-self::*[. is $a][. is $b]\
                     /descendant-or-self::*[. is $c][. is $d] -> a,b,c,d";

/// Kills the daemon if the test fails before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Read one response: the status line and its `OK n` payload lines.
fn response(reader: &mut impl BufRead) -> Vec<String> {
    let mut status = String::new();
    reader.read_line(&mut status).expect("daemon reply");
    let status = status.trim_end().to_string();
    let n = status
        .strip_prefix("OK ")
        .map_or(0, |n| n.parse::<usize>().expect("OK count"));
    let mut lines = vec![status];
    for _ in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).expect("payload line");
        lines.push(line.trim_end().to_string());
    }
    lines
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to pplxd");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// A running `pplxd --threads 1`, its stdout (kept open to the end: the
/// daemon prints its shutdown line there) and its address.
fn spawn_daemon() -> (Daemon, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pplxd"))
        .args(["--port", "0", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pplxd");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let daemon = Daemon(child);
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("pplxd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    (daemon, stdout, addr)
}

/// Send `SHUTDOWN` and check the daemon exits cleanly.
fn shut_down(mut daemon: Daemon, mut stdout: BufReader<ChildStdout>, conn: &mut TcpStream) {
    writeln!(conn, "SHUTDOWN").unwrap();
    let status = daemon.0.wait().expect("pplxd exits on SHUTDOWN");
    assert!(status.success(), "{status}");
    let mut farewell = String::new();
    stdout.read_line(&mut farewell).unwrap();
    assert_eq!(farewell.trim(), "pplxd shut down");
}

/// `STATS` on a fresh connection answers within a second.
fn assert_stats_answer_at_once(addr: &str) -> TcpStream {
    let (mut probe, mut probe_replies) = connect(addr);
    let asked = Instant::now();
    writeln!(probe, "STATS").unwrap();
    let stats = response(&mut probe_replies);
    assert!(stats[0].starts_with("OK "), "{stats:?}");
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "STATS took {:?}: the worker is wedged",
        asked.elapsed()
    );
    probe
}

#[test]
fn a_costly_non_ppl_query_is_refused_and_stats_still_answers() {
    let (daemon, stdout, addr) = spawn_daemon();
    let (mut conn, mut replies) = connect(&addr);
    let leaves = vec!["a"; 200].join(",");
    writeln!(conn, "LOADTERMS d r({leaves})").unwrap();
    let loaded = response(&mut replies);
    assert!(loaded[1].starts_with("loaded d nodes=201"), "{loaded:?}");

    writeln!(conn, "{WEDGE}").unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let mut probe = assert_stats_answer_at_once(&addr);

    let refused = response(&mut replies);
    assert!(
        refused[0].starts_with("ERR outside PPL: estimated cost"),
        "{refused:?}"
    );
    shut_down(daemon, stdout, &mut probe);
}

#[test]
fn queries_nested_past_the_depth_bound_get_err_and_the_daemon_survives() {
    let (daemon, stdout, addr) = spawn_daemon();
    let (mut conn, mut replies) = connect(&addr);
    writeln!(conn, "LOADTERMS d r(a(b),a)").unwrap();
    let loaded = response(&mut replies);
    assert!(loaded[1].starts_with("loaded d nodes=4"), "{loaded:?}");

    let deep = [
        (
            "10^6 nested parentheses",
            format!("{}child::a{}", "(".repeat(1_000_000), ")".repeat(1_000_000)),
        ),
        (
            "10^6 nested filters",
            format!(
                "{}child::a{}",
                "child::a[".repeat(1_000_000),
                "]".repeat(1_000_000)
            ),
        ),
        ("a 10^5-step / chain", vec!["child::a"; 100_000].join("/")),
        (
            "a 10^5-term union chain",
            vec!["child::a"; 100_000].join(" union "),
        ),
    ];
    for (what, query) in &deep {
        writeln!(conn, "QUERY d {query}").unwrap();
        let reply = response(&mut replies);
        assert_eq!(reply, ["ERR query too deep"], "{what}");
    }

    let mut probe = assert_stats_answer_at_once(&addr);
    writeln!(conn, "QUERY d child::a/child::b[. is $x] -> x").unwrap();
    assert_eq!(
        response(&mut replies),
        ["OK 2", "vars=x tuples=1", "b#2"],
        "the loaded document is gone"
    );
    shut_down(daemon, stdout, &mut probe);
}

#[test]
fn a_deep_parenthesised_filter_parses_at_once_and_stats_still_answers() {
    let (daemon, stdout, addr) = spawn_daemon();
    let (mut conn, mut replies) = connect(&addr);
    writeln!(conn, "LOADTERMS d r(a(a(a)))").unwrap();
    let loaded = response(&mut replies);
    assert!(loaded[1].starts_with("loaded d nodes=4"), "{loaded:?}");

    // 40 levels of `((child::a[…]))/child::a` inside `self::*[…]`.
    let mut query = String::from("child::a");
    for _ in 0..40 {
        query = format!("((child::a[{query}]))/child::a");
    }
    writeln!(conn, "QUERY d self::*[{query}]").unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let mut probe = assert_stats_answer_at_once(&addr);
    assert_eq!(response(&mut replies), ["OK 1", "satisfiable=false"]);
    shut_down(daemon, stdout, &mut probe);
}

#[test]
fn documents_nested_a_million_deep_load_and_the_daemon_survives() {
    let (daemon, stdout, addr) = spawn_daemon();
    let (mut conn, mut replies) = connect(&addr);
    writeln!(conn, "LOADTERMS d r(a(b),a)").unwrap();
    let loaded = response(&mut replies);
    assert!(loaded[1].starts_with("loaded d nodes=4"), "{loaded:?}");

    let depth = 1_000_000;
    let deep = [
        (
            "LOAD of XML nested 10^6 deep",
            format!("LOAD x {}{}", "<a>".repeat(depth), "</a>".repeat(depth)),
        ),
        (
            "LOADTERMS nested 10^6 deep",
            format!(
                "LOADTERMS t {}a{}",
                "a(".repeat(depth - 1),
                ")".repeat(depth - 1)
            ),
        ),
    ];
    for (what, line) in &deep {
        writeln!(conn, "{line}").unwrap();
        let reply = response(&mut replies);
        assert!(
            reply[0].starts_with("OK ") || reply[0].starts_with("ERR "),
            "{what}: {reply:?}"
        );
    }

    let mut probe = assert_stats_answer_at_once(&addr);
    writeln!(conn, "QUERY d child::a/child::b[. is $x] -> x").unwrap();
    assert_eq!(
        response(&mut replies),
        ["OK 2", "vars=x tuples=1", "b#2"],
        "the document loaded before is gone"
    );
    shut_down(daemon, stdout, &mut probe);
}
