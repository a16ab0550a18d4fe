//! Regression: one query outside PPL must not wedge a single-worker daemon.
//!
//! The replay: `pplxd --threads 1` loads `r(a,…,a)` (201 nodes) and
//! receives a 4-ary query whose `$a` is shared across `/`, breaking NVS(/).
//! Only naive enumeration accepts it, at ~201⁵ assignments, so it used to
//! hold the one worker for hours and a `STATS` sent 0.5 s later on a fresh
//! connection never got a reply.  Auto planning now refuses it (Prop. 3:
//! no polynomial fallback exists): the `QUERY` answers
//! `ERR outside PPL: estimated cost …` and `STATS` answers at once.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
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

#[test]
fn a_costly_non_ppl_query_is_refused_and_stats_still_answers() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pplxd"))
        .args(["--port", "0", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pplxd");
    let stdout = child.stdout.take().unwrap();
    let mut daemon = Daemon(child);
    // Kept open to the end: the daemon prints its shutdown line here.
    let mut stdout = BufReader::new(stdout);
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("pplxd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let (mut conn, mut replies) = connect(&addr);
    let leaves = vec!["a"; 200].join(",");
    writeln!(conn, "LOADTERMS d r({leaves})").unwrap();
    let loaded = response(&mut replies);
    assert!(loaded[1].starts_with("loaded d nodes=201"), "{loaded:?}");

    writeln!(conn, "{WEDGE}").unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let (mut probe, mut probe_replies) = connect(&addr);
    let asked = Instant::now();
    writeln!(probe, "STATS").unwrap();
    let stats = response(&mut probe_replies);
    assert!(stats[0].starts_with("OK "), "{stats:?}");
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "STATS took {:?}: the worker is wedged",
        asked.elapsed()
    );

    let refused = response(&mut replies);
    assert!(
        refused[0].starts_with("ERR outside PPL: estimated cost"),
        "{refused:?}"
    );

    writeln!(probe, "SHUTDOWN").unwrap();
    let status = daemon.0.wait().expect("pplxd exits on SHUTDOWN");
    assert!(status.success(), "{status}");
    let mut farewell = String::new();
    stdout.read_line(&mut farewell).unwrap();
    assert_eq!(farewell.trim(), "pplxd shut down");
}
