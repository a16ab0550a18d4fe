//! The `pplxd` TCP serving layer.
//!
//! `pplxd` speaks a line-based protocol over TCP.  Every request is one
//! line; every response is a status line followed by zero or more payload
//! lines:
//!
//! ```text
//! -> LOAD bib <bib><book><author/><title/></book></bib>
//! <- OK 1
//! <- loaded bib nodes=4 documents=1
//! -> QUERY bib descendant::author[. is $a] -> a
//! <- OK 2
//! <- vars=a tuples=1
//! <- author#2
//! -> STATS
//! <- OK 9
//! <- documents=1
//! <- ...
//! -> QUIT
//! <- OK 1
//! <- bye
//! ```
//!
//! The status line is `OK <n>` (with exactly `n` payload lines following)
//! or `ERR <message>` (no payload).  The command set, parsing and
//! execution live in [`crate::protocol`] (sans-IO); this module owns the
//! serving entry point.
//!
//! [`serve`] is the one serving loop: the [`crate::reactor`] epoll event
//! loop (Linux only) with request pipelining, in-order responses,
//! per-connection backpressure and a fixed worker pool.  What a request
//! *does* is a [`Service`]: the daemon serves a [`Corpus`], and `pplxd
//! --route` serves a [`crate::router::Router`] through the same loop, so
//! both share one accept loop, one idle timeout
//! ([`ServeOptions::idle_timeout`], `pplxd --idle-timeout`) and one
//! shutdown path.  Transient `accept()` failures (ECONNABORTED, EINTR,
//! and — after a short sleep — EMFILE/ENFILE) are retried; only a
//! genuinely fatal listener error stops the loop.  On other targets [`serve`] returns
//! [`std::io::ErrorKind::Unsupported`]; the library and the in-process
//! `pplx` stay portable.
//!
//! The `pplxd` binary wraps [`serve`], and `pplx --connect` is the matching
//! client.  The transport-level pieces — response framing, the
//! deadline-aware client — live in [`xpath_wire`], shared with the router
//! and the CLI client.

pub use crate::protocol::{execute_command, parse_command, Command, DEFAULT_MAX_LINE};

use crate::Corpus;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;
use xpath_wire::Response;

/// Default idle-connection timeout: a connection with no complete request
/// for this long is answered `ERR idle timeout` (best effort) and dropped.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Serving knobs of [`serve`], shared by the daemon and the router.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Cap on one request line, in bytes (`pplxd --max-line`).
    pub max_line: usize,
    /// Worker threads executing commands (`pplxd --threads`).
    pub workers: usize,
    /// Drop connections with no activity for this long (`pplxd
    /// --idle-timeout`; `None` disables).  In-flight requests count as
    /// activity: a slow `QUERYALL` is work, not idleness.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_line: DEFAULT_MAX_LINE,
            workers: 4,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
        }
    }
}

/// What the serving loop serves: how one parsed request becomes a
/// response.  `QUIT` and `SHUTDOWN` never reach [`Service::execute`] — the
/// protocol layer answers them itself.
pub trait Service: Sync {
    /// Per-connection state, created on accept.  It travels with the
    /// connection's single in-flight batch to a worker and back, so a
    /// service needs no lock for it.
    type State: Send;

    /// State for a newly accepted connection.
    fn open(&self) -> Self::State;

    /// Execute one request on a worker thread.  `line` is the trimmed
    /// request line `command` was parsed from.
    fn execute(&self, state: &mut Self::State, line: &str, command: &Command) -> Response;

    /// Called once, after a client's `SHUTDOWN` has drained every
    /// connection and before [`serve`] returns.
    fn shutdown(&self) {}
}

/// The daemon: every command runs against the shared corpus.
impl Service for Corpus {
    type State = ();

    fn open(&self) {}

    fn execute(&self, _: &mut (), _line: &str, command: &Command) -> Response {
        execute_command(self, command)
    }
}

/// What to do about one failed `accept()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptDisposition {
    /// Transient, per-connection: retry immediately (ECONNABORTED, EINTR,
    /// ECONNRESET, or a spurious wakeup of a nonblocking listener).
    Retry,
    /// Resource exhaustion (EMFILE/ENFILE): back off briefly, then retry —
    /// existing clients closing will free descriptors.
    RetryAfterSleep,
    /// The listener itself is broken: stop serving.
    Fatal,
}

/// Classify one `accept()` error.  A transient condition — the peer gave
/// up while queued, a signal interrupted the call, the process briefly ran
/// out of file descriptors — must not kill a daemon with live clients.
pub(crate) fn classify_accept_error(e: &std::io::Error) -> AcceptDisposition {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::ConnectionAborted
        | ErrorKind::ConnectionReset
        | ErrorKind::Interrupted
        | ErrorKind::WouldBlock => AcceptDisposition::Retry,
        _ => match e.raw_os_error() {
            // ENFILE (23) / EMFILE (24): out of file descriptors.
            Some(23) | Some(24) => AcceptDisposition::RetryAfterSleep,
            _ => AcceptDisposition::Fatal,
        },
    }
}

/// How long the accept loop sleeps after EMFILE/ENFILE before retrying.
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Serve `service` over `listener` until a client sends `SHUTDOWN`:
/// [`ServeOptions::workers`] threads execute requests, pipelined responses
/// leave in request order, and connections silent past
/// [`ServeOptions::idle_timeout`] are dropped.  Returns once every
/// in-flight request has been answered and [`Service::shutdown`] has run.
/// Linux only; elsewhere this fails with `Unsupported`.
pub fn serve<S: Service>(
    listener: TcpListener,
    service: &S,
    options: &ServeOptions,
) -> std::io::Result<()> {
    #[cfg(target_os = "linux")]
    return crate::reactor::serve_epoll(listener, service, options);
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (listener, service, options);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "serving requires linux (the epoll reactor)",
        ))
    }
}

/// Bind a listener on `addr` (port 0 picks an ephemeral port) and return it
/// together with the resolved local address.
pub fn bind(addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    Ok((listener, local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;

    #[test]
    fn command_parsing_round_trip() {
        assert_eq!(
            parse_command("LOAD bib <bib><book/></bib>").unwrap(),
            Command::Load {
                name: "bib".into(),
                xml: "<bib><book/></bib>".into()
            }
        );
        assert_eq!(
            parse_command("LOADTERMS d a(b,c)").unwrap(),
            Command::LoadTerms {
                name: "d".into(),
                terms: "a(b,c)".into()
            }
        );
        assert_eq!(
            parse_command("QUERY bib descendant::author[. is $a] -> a").unwrap(),
            Command::Query {
                name: "bib".into(),
                query: "descendant::author[. is $a]".into(),
                vars: vec!["a".into()]
            }
        );
        assert_eq!(
            parse_command("QUERYALL descendant::book -> $x, y").unwrap(),
            Command::QueryAll {
                query: "descendant::book".into(),
                vars: vec!["x".into(), "y".into()]
            }
        );
        assert_eq!(
            parse_command("QUERY bib child::book").unwrap(),
            Command::Query {
                name: "bib".into(),
                query: "child::book".into(),
                vars: vec![]
            }
        );
        assert_eq!(parse_command("stats").unwrap(), Command::Stats);
        assert_eq!(
            parse_command("EVICT bib").unwrap(),
            Command::Evict(Some("bib".into()))
        );
        assert_eq!(parse_command("EVICT").unwrap(), Command::Evict(None));
        assert_eq!(parse_command("QUIT").unwrap(), Command::Quit);
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
        assert!(parse_command("LOAD onlyname")
            .unwrap_err()
            .contains("usage"));
        assert!(parse_command("QUERYALL").unwrap_err().contains("usage"));
        assert!(parse_command("FROBNICATE x")
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn execute_load_query_stats_evict() {
        let corpus = Corpus::new();
        let load = parse_command("LOAD bib <bib><book><author/><title/></book></bib>").unwrap();
        let lines = execute_command(&corpus, &load).unwrap();
        assert_eq!(lines, vec!["loaded bib nodes=4 documents=1"]);

        let query = parse_command("QUERY bib descendant::author[. is $a] -> a").unwrap();
        let lines = execute_command(&corpus, &query).unwrap();
        assert_eq!(lines[0], "vars=a tuples=1");
        assert_eq!(lines[1], "author#2");

        let boolean = parse_command("QUERY bib descendant::author").unwrap();
        assert_eq!(
            execute_command(&corpus, &boolean).unwrap(),
            vec!["satisfiable=true"]
        );

        let stats = execute_command(&corpus, &Command::Stats).unwrap();
        assert!(stats.iter().any(|l| l == "documents=1"), "{stats:?}");
        assert!(
            stats.iter().any(|l| l.starts_with("pool_bytes=")),
            "{stats:?}"
        );
        assert!(
            stats.iter().any(|l| l == "memory_budget=unbounded"),
            "{stats:?}"
        );

        let evict = execute_command(&corpus, &Command::Evict(Some("bib".into()))).unwrap();
        assert_eq!(evict, vec!["evicted=true"]);
        let evict_all = execute_command(&corpus, &Command::Evict(None)).unwrap();
        assert_eq!(evict_all, vec!["evicted=0"]);

        // Errors: unknown doc, malformed query, malformed XML.
        let err =
            execute_command(&corpus, &parse_command("QUERY nope child::a").unwrap()).unwrap_err();
        assert!(err.contains("unknown document"), "{err}");
        let err =
            execute_command(&corpus, &parse_command("QUERY bib child::(").unwrap()).unwrap_err();
        assert!(err.contains("compile"), "{err}");
        let err = execute_command(&corpus, &parse_command("LOAD broken <a><b></a>").unwrap())
            .unwrap_err();
        assert!(err.contains("broken"), "{err}");
    }

    #[test]
    fn execute_queryall_tags_documents() {
        let corpus = Corpus::new();
        execute_command(&corpus, &parse_command("LOADTERMS d1 r(a(b))").unwrap()).unwrap();
        execute_command(
            &corpus,
            &parse_command("LOADTERMS d2 r(a(b),a(b))").unwrap(),
        )
        .unwrap();
        let lines = execute_command(
            &corpus,
            &parse_command("QUERYALL descendant::b[. is $x] -> x").unwrap(),
        )
        .unwrap();
        assert_eq!(lines[0], "doc=d1 tuples=1");
        assert_eq!(lines[1], "b#2");
        assert_eq!(lines[2], "doc=d2 tuples=2");
        assert_eq!(lines.len(), 5);
        // Arity-0 fan-out renders one satisfiable= line per document, never
        // blank tuple lines.
        let lines =
            execute_command(&corpus, &parse_command("QUERYALL descendant::b").unwrap()).unwrap();
        assert_eq!(
            lines,
            vec!["doc=d1 satisfiable=true", "doc=d2 satisfiable=true"]
        );
        let lines =
            execute_command(&corpus, &parse_command("QUERYALL descendant::zzz").unwrap()).unwrap();
        assert_eq!(
            lines,
            vec!["doc=d1 satisfiable=false", "doc=d2 satisfiable=false"]
        );
    }

    /// An overlong request line answers `ERR line too long` and the same
    /// connection keeps serving — the daemon neither buffers the flood nor
    /// drops the client.
    #[test]
    fn overlong_lines_err_without_killing_the_connection() {
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let options = ServeOptions {
            max_line: 64,
            ..ServeOptions::default()
        };
        let server = std::thread::spawn(move || serve(listener, &Corpus::new(), &options));

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        // 1. A flood well past the cap, in one "line".
        writeln!(writer, "LOAD big <bib>{}</bib>", "x".repeat(1024)).unwrap();
        writer.flush().unwrap();
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(
            status.starts_with("ERR line too long"),
            "expected a line-length error, got: {status}"
        );

        // 2. The connection is still in sync: a normal request succeeds.
        writeln!(writer, "LOADTERMS d a(b)").unwrap();
        writer.flush().unwrap();
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert_eq!(status.trim(), "OK 1");
        let mut payload = String::new();
        reader.read_line(&mut payload).unwrap();
        assert_eq!(payload.trim(), "loaded d nodes=2 documents=1");

        writeln!(writer, "SHUTDOWN").unwrap();
        writer.flush().unwrap();
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert_eq!(status.trim(), "OK 1");
        server.join().unwrap().unwrap();
    }

    /// Full TCP round trip through [`serve`]: serve a memory-budgeted corpus
    /// on an ephemeral port, drive the protocol one request at a time
    /// through real sockets, then SHUTDOWN.
    #[test]
    fn tcp_round_trip_and_shutdown() {
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let corpus = crate::Corpus::with_config(crate::CorpusConfig {
            memory_budget: Some(1 << 20),
            ..crate::CorpusConfig::default()
        });
        let server = std::thread::spawn(move || serve(listener, &corpus, &ServeOptions::default()));

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut request = |line: &str| -> (String, Vec<String>) {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            let status = status.trim().to_string();
            let n = status
                .strip_prefix("OK ")
                .map(|n| n.parse::<usize>().unwrap())
                .unwrap_or(0);
            let mut payload = Vec::with_capacity(n);
            for _ in 0..n {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                payload.push(line.trim_end().to_string());
            }
            (status, payload)
        };

        let (status, payload) = request("LOAD bib <bib><book><author/><title/></book></bib>");
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "loaded bib nodes=4 documents=1");

        let (status, payload) = request("QUERY bib descendant::author[. is $a] -> a");
        assert_eq!(status, "OK 2");
        assert_eq!(payload, vec!["vars=a tuples=1", "author#2"]);

        let (status, payload) = request("QUERYALL descendant::title[. is $t] -> t");
        assert_eq!(status, "OK 2");
        assert_eq!(payload[0], "doc=bib tuples=1");

        // MUTATE edits the live document; the next QUERY sees the edit.
        let (status, payload) = request("MUTATE bib INSERT 1 2 author");
        assert_eq!(status, "OK 1");
        assert!(
            payload[0].starts_with("mutated bib kind=insert nodes=5 epoch=1"),
            "{payload:?}"
        );
        let (status, payload) = request("QUERY bib descendant::author[. is $a] -> a");
        assert_eq!(status, "OK 3");
        assert_eq!(payload[0], "vars=a tuples=2");
        let (status, payload) = request("MUTATE bib DELETE 99");
        assert!(status.starts_with("ERR"), "{status}");
        assert!(payload.is_empty());

        let (status, _) = request("STATS");
        assert_eq!(status, "OK 14");

        let (status, _) = request("BOGUS");
        assert!(status.starts_with("ERR unknown command"), "{status}");

        let (status, payload) = request("EVICT bib");
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "evicted=true");

        // A second client works concurrently and can QUIT independently.
        {
            let stream2 = TcpStream::connect(addr).unwrap();
            let mut reader2 = BufReader::new(stream2.try_clone().unwrap());
            let mut writer2 = BufWriter::new(stream2);
            writeln!(writer2, "QUERY bib descendant::author[. is $a] -> a").unwrap();
            writer2.flush().unwrap();
            let mut status2 = String::new();
            reader2.read_line(&mut status2).unwrap();
            assert_eq!(status2.trim(), "OK 3", "evicted sessions must rebuild");
            writeln!(writer2, "QUIT").unwrap();
            writer2.flush().unwrap();
        }

        let (status, payload) = request("SHUTDOWN");
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "bye");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn accept_error_classification() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            classify_accept_error(&Error::from(ErrorKind::ConnectionAborted)),
            AcceptDisposition::Retry
        );
        assert_eq!(
            classify_accept_error(&Error::from(ErrorKind::Interrupted)),
            AcceptDisposition::Retry
        );
        assert_eq!(
            classify_accept_error(&Error::from_raw_os_error(24)), // EMFILE
            AcceptDisposition::RetryAfterSleep
        );
        assert_eq!(
            classify_accept_error(&Error::from_raw_os_error(23)), // ENFILE
            AcceptDisposition::RetryAfterSleep
        );
        assert_eq!(
            classify_accept_error(&Error::other("boom")),
            AcceptDisposition::Fatal
        );
    }
}
