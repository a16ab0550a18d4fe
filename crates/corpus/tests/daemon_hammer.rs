//! Multi-client daemon hammer: N concurrent clients pipeline mixed
//! LOADTERMS / QUERY / STATS / EVICT bursts against one daemon, and every
//! response is checked against a single-threaded oracle (the same command
//! list executed against a private, solo [`Corpus`]).
//!
//! Determinism under concurrency: each client only ever touches its *own*
//! documents (`c<i>_d<j>`), so its QUERY/EVICT responses are independent of
//! interleaving.  The only globally-coupled outputs — the `documents=` count
//! in LOAD responses and the STATS counters — are normalized away before
//! comparison.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use xpath_corpus::server::{bind, execute_command, parse_command, serve, ServeOptions};
use xpath_corpus::Corpus;

const CLIENTS: usize = 8;
const BURSTS: usize = 6;

/// The deterministic command script of one client: `BURSTS` bursts of
/// mixed load/query/stats/evict traffic over the client's own documents.
fn client_script(client: usize) -> Vec<Vec<String>> {
    let shapes = [
        "r(a(b),a(b,c))",
        "r(a(b),a(b),a(b))",
        "r(c(a(b)),a(b))",
        "r(a,b(a(b)))",
    ];
    (0..BURSTS)
        .map(|burst| {
            let doc = format!("c{client}_d{burst}");
            let shape = shapes[(client + burst) % shapes.len()];
            let mut lines = vec![
                format!("LOADTERMS {doc} {shape}"),
                format!("QUERY {doc} descendant::b[. is $x] -> x"),
                format!("QUERY {doc} descendant::a[child::b[. is $y]] -> y"),
                "STATS".to_string(),
                format!("QUERY {doc} descendant::c"),
            ];
            if burst % 2 == 1 {
                // Evict the previous burst's document, then prove the
                // session rebuilds on demand.
                let prev = format!("c{client}_d{}", burst - 1);
                lines.push(format!("EVICT {prev}"));
                lines.push(format!("QUERY {prev} descendant::b[. is $x] -> x"));
            }
            lines
        })
        .collect()
}

/// Strip interleaving-dependent fragments: the global document count in
/// LOAD responses.
fn normalize(line: &str) -> String {
    match line.split_once(" documents=") {
        Some((head, _)) if head.starts_with("loaded ") => head.to_string(),
        _ => line.to_string(),
    }
}

fn read_response<R: BufRead>(reader: &mut R) -> (String, Vec<String>) {
    let mut status = String::new();
    assert!(
        reader.read_line(&mut status).unwrap() > 0,
        "daemon closed the connection mid-script"
    );
    let status = status.trim().to_string();
    let n = status
        .strip_prefix("OK ")
        .map(|n| n.parse::<usize>().unwrap())
        .unwrap_or(0);
    let mut payload = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "truncated payload"
        );
        payload.push(line.trim_end().to_string());
    }
    (status, payload)
}

/// Run one client: write each burst as a single pipelined flush, then read
/// and verify the burst's responses in order against the oracle.
fn run_client(addr: SocketAddr, client: usize, barrier: Arc<Barrier>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);

    // The oracle: the same script against a private single-threaded corpus.
    let oracle = Corpus::new();

    barrier.wait();
    for burst in client_script(client) {
        let mut wire = String::new();
        for line in &burst {
            wire.push_str(line);
            wire.push('\n');
        }
        writer.write_all(wire.as_bytes()).unwrap();
        writer.flush().unwrap();

        for line in &burst {
            let expected = execute_command(&oracle, &parse_command(line).unwrap());
            let (status, payload) = read_response(&mut reader);
            match expected {
                Ok(expected_lines) => {
                    assert_eq!(
                        status,
                        format!("OK {}", expected_lines.len()),
                        "client {client}: bad status for {line:?}"
                    );
                    if line == "STATS" {
                        continue; // counters are global; the line count check suffices
                    }
                    let got: Vec<String> = payload.iter().map(|l| normalize(l)).collect();
                    let want: Vec<String> = expected_lines.iter().map(|l| normalize(l)).collect();
                    assert_eq!(got, want, "client {client}: bad payload for {line:?}");
                }
                Err(message) => {
                    assert_eq!(
                        status,
                        format!("ERR {message}"),
                        "client {client}: bad error for {line:?}"
                    );
                }
            }
        }
    }

    writeln!(writer, "QUIT").unwrap();
    writer.flush().unwrap();
    let (status, payload) = read_response(&mut reader);
    assert_eq!(status, "OK 1");
    assert_eq!(payload[0], "bye");
}

#[cfg(target_os = "linux")]
#[test]
fn hammer_epoll_mode() {
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let server =
        std::thread::spawn(move || serve(listener, &Corpus::new(), &ServeOptions::default()));

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || run_client(addr, c, barrier))
        })
        .collect();
    for client in clients {
        client.join().expect("client thread must not panic");
    }

    // All clients done: shut the daemon down cleanly.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    writeln!(writer, "SHUTDOWN").unwrap();
    writer.flush().unwrap();
    let (status, payload) = read_response(&mut reader);
    assert_eq!(status, "OK 1");
    assert_eq!(payload[0], "bye");
    server.join().unwrap().unwrap();
}
