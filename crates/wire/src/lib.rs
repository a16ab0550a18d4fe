//! The `pplxd` line-protocol wire layer, shared by every speaker of the
//! protocol: the daemon's serving loop (`xpath_corpus::server`), the
//! sharding router (`xpath_corpus::router`), and the `pplx --connect`
//! client.
//!
//! The protocol is line-based: one request line in, a status line plus
//! zero or more payload lines out.  `OK <n>` is followed by exactly `n`
//! payload lines; `ERR <message>` stands alone.  This crate owns the two
//! transport-adjacent pieces every endpoint needs and none should
//! reimplement (bounded request-line reads live in the serving loop's
//! sans-IO `xpath_corpus::protocol::Conn`):
//!
//! * **response framing** — [`render_response`] encodes a command result
//!   into wire bytes, [`parse_status`] decodes a status line back into
//!   a payload count or error;
//! * **[`ShardClient`]** — a blocking-with-deadlines client connection:
//!   connect and per-response read deadlines, bounded exponential-backoff
//!   reconnect, bounded retry on `ECONNREFUSED` (startup races), and
//!   failure-injection hooks ([`ShardClient::kill_connection`],
//!   [`ShardClient::inject_status_line`]) used by the router's fault plan
//!   and the fuzz harness.
//!
//! Nothing here knows about commands or corpora: parsing `LOAD`/`QUERY`
//! verbs stays in `xpath_corpus::protocol`; this crate moves bytes with
//! bounded memory and bounded time.

#![forbid(unsafe_code)]

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Serialise one command result into wire bytes: `OK <n>` plus `n` payload
/// lines, or a single `ERR <message>` line.
pub fn render_response(result: &Result<Vec<String>, String>) -> Vec<u8> {
    let mut out = Vec::new();
    match result {
        Ok(lines) => {
            out.extend_from_slice(format!("OK {}\n", lines.len()).as_bytes());
            for line in lines {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
        }
        Err(message) => {
            out.extend_from_slice(b"ERR ");
            out.extend_from_slice(message.replace('\n', " | ").as_bytes());
            out.push(b'\n');
        }
    }
    out
}

/// Decode one status line: `Ok(Ok(n))` for `OK <n>`, `Ok(Err(msg))` for
/// `ERR <msg>`, and `Err(description)` for anything else (a truncated or
/// garbage response from a sick peer).
pub fn parse_status(line: &str) -> Result<Result<usize, String>, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(message) = line.strip_prefix("ERR ") {
        return Ok(Err(message.to_string()));
    }
    if let Some(n) = line.strip_prefix("OK ") {
        if let Ok(count) = n.trim().parse::<usize>() {
            return Ok(Ok(count));
        }
    }
    let mut shown: String = line.chars().take(80).collect();
    if shown.len() < line.len() {
        shown.push('…');
    }
    Err(format!("malformed response line '{shown}'"))
}

/// A daemon-level response: payload lines (`OK`) or the daemon's error
/// message (`ERR`).  Distinct from [`WireError`], which means the *wire*
/// failed — no well-formed response arrived at all.
pub type Response = Result<Vec<String>, String>;

// -- request-line builders ---------------------------------------------------
//
// The protocol's request grammar lives with the daemon
// (`xpath_corpus::protocol::parse_command`); clients that want to *compose*
// requests rather than pass user text through get builders here so the
// `MUTATE` argument order is written down exactly once on the client side.
// (`xpath_corpus`'s protocol tests round-trip these through the real
// parser.)

/// Build a `MUTATE <doc> INSERT <parent> <index> <terms>` request line:
/// splice `terms` (compact term syntax) under preorder node `parent` before
/// its `index`-th child.
pub fn mutate_insert_line(doc: &str, parent: u32, index: usize, terms: &str) -> String {
    format!("MUTATE {doc} INSERT {parent} {index} {terms}")
}

/// Build a `MUTATE <doc> DELETE <node>` request line: remove the subtree
/// rooted at preorder node `node`.
pub fn mutate_delete_line(doc: &str, node: u32) -> String {
    format!("MUTATE {doc} DELETE {node}")
}

/// Build a `MUTATE <doc> RELABEL <node> <label>` request line: rename
/// preorder node `node` to `label`, keeping the tree shape.
pub fn mutate_relabel_line(doc: &str, node: u32, label: &str) -> String {
    format!("MUTATE {doc} RELABEL {node} {label}")
}

/// Why a [`ShardClient`] request produced no response.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure: connect, send, or receive.
    Io(io::Error),
    /// The peer did not produce a complete response within the read
    /// deadline.
    Timeout,
    /// The peer answered with bytes that do not decode as a response.
    Protocol(String),
    /// Reconnect suppressed: the exponential-backoff window from earlier
    /// connect failures has not elapsed yet (fail-fast, no socket touched).
    Backoff,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Timeout => write!(f, "timed out waiting for response"),
            WireError::Protocol(m) => write!(f, "protocol: {m}"),
            WireError::Backoff => write!(f, "reconnect backoff in effect"),
        }
    }
}

impl std::error::Error for WireError {}

/// Deadlines and reconnect policy of a [`ShardClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for one TCP connect attempt (`None`: block indefinitely).
    pub connect_timeout: Option<Duration>,
    /// Deadline for one complete response (status line + payload), applied
    /// per request (`None`: block indefinitely).
    pub read_timeout: Option<Duration>,
    /// Extra connect attempts on `ECONNREFUSED` before giving up — the
    /// daemon-startup race where the port is bound a beat after the client
    /// runs.  Attempts are spaced by the growing backoff delay.
    pub connect_retries: u32,
    /// First reconnect backoff delay; doubles per consecutive connect
    /// failure.
    pub backoff_initial: Duration,
    /// Backoff ceiling (the "bounded" in bounded exponential backoff).
    pub backoff_max: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(5)),
            connect_retries: 3,
            backoff_initial: Duration::from_millis(20),
            backoff_max: Duration::from_millis(500),
        }
    }
}

/// One client connection to a line-protocol peer (a `pplxd` daemon or
/// router), with deadlines on every blocking step and bounded
/// exponential-backoff reconnect.
///
/// The connection is established lazily on the first [`ShardClient::request`]
/// and re-established transparently after failures — but never before the
/// current backoff window has elapsed, so a dead peer costs callers a
/// fail-fast [`WireError::Backoff`] instead of a connect timeout each time.
/// Any mid-response failure (timeout, garbage, truncation) drops the
/// connection: a late or half-delivered response would desynchronise every
/// request after it, and reconnecting is the only safe resync.
#[derive(Debug)]
pub struct ShardClient {
    addr: String,
    config: ClientConfig,
    conn: Option<BufReader<TcpStream>>,
    /// Requests failed since the last success (transport failures only;
    /// daemon `ERR` responses are healthy).
    consecutive_failures: u32,
    /// Current reconnect backoff delay.
    backoff: Duration,
    /// Earliest next connect attempt; `None` when no backoff is in effect.
    retry_at: Option<Instant>,
    /// Failure injection: the next response's status line is replaced with
    /// this string instead of being read from the socket.
    injected_status: Option<String>,
}

impl ShardClient {
    /// A client for `addr` (resolved lazily at connect time).
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> ShardClient {
        let backoff = config.backoff_initial.max(Duration::from_millis(1));
        ShardClient {
            addr: addr.into(),
            config,
            conn: None,
            consecutive_failures: 0,
            backoff,
            retry_at: None,
            injected_status: None,
        }
    }

    /// The peer address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Is a connection currently established?
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Transport failures since the last successful request.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Failure injection: drop the connection as if the peer died
    /// mid-conversation.  The next request reconnects (subject to backoff).
    pub fn kill_connection(&mut self) {
        self.conn = None;
    }

    /// Failure injection: serve `line` as the next response's status line
    /// instead of reading one from the socket, exercising the decode path
    /// with truncated/garbage input.  Whatever the peer really sent stays
    /// unread, so — exactly like a real desync — the connection is dropped
    /// after the injected response is processed.
    pub fn inject_status_line(&mut self, line: impl Into<String>) {
        self.injected_status = Some(line.into());
    }

    /// Send one request line and read its complete response under the
    /// configured deadlines.  `Ok(Ok(payload))` / `Ok(Err(daemon_message))`
    /// are both *successful* round trips; `Err(_)` means the wire failed
    /// and the connection (if any) has been dropped.
    pub fn request(&mut self, line: &str) -> Result<Response, WireError> {
        let injected = self.injected_status.is_some();
        match self.try_request(line) {
            Ok(response) => {
                self.consecutive_failures = 0;
                // An injected status line left the peer's real response
                // unread: the connection is desynchronised by construction,
                // even when the injected bytes parsed cleanly (an `ERR`
                // poisoning reads as a healthy daemon error).  Drop it now —
                // the stale-byte peek alone would race the in-flight reply.
                if injected {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(e) => {
                // A failed response leaves the stream in an unknown state;
                // resync by reconnecting.  Backoff windows are armed by
                // connect failures, not response failures.
                if !matches!(e, WireError::Backoff) {
                    self.conn = None;
                    self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                }
                Err(e)
            }
        }
    }

    fn try_request(&mut self, line: &str) -> Result<Response, WireError> {
        // A request/response connection must be *quiet* between requests.
        // Readable bytes before we even send — a daemon's unsolicited
        // `ERR idle timeout` goodbye, or EOF from a dead peer — mean any
        // reply we read would answer nothing we asked; reconnect instead
        // of misreading stale bytes as the next response.
        if let Some(conn) = &mut self.conn {
            if connection_is_stale(conn) {
                self.conn = None;
            }
        }
        self.ensure_connected()?;
        let injected = self.injected_status.take();
        let deadline = self.config.read_timeout.map(|t| Instant::now() + t);
        let conn = self.conn.as_mut().expect("ensure_connected succeeded");

        {
            let stream = conn.get_mut();
            stream.write_all(line.as_bytes()).map_err(WireError::Io)?;
            stream.write_all(b"\n").map_err(WireError::Io)?;
        }

        let status = match injected {
            Some(status) => status,
            None => read_line_deadline(conn, deadline)?,
        };
        let count = match parse_status(&status).map_err(WireError::Protocol)? {
            Err(message) => return Ok(Err(message)),
            Ok(count) => count,
        };
        let mut payload = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let line = read_line_deadline(conn, deadline)?;
            payload.push(line);
        }
        Ok(Ok(payload))
    }

    /// Establish the connection if needed.  Respects the backoff window;
    /// retries `ECONNREFUSED` up to `connect_retries` times (startup race).
    fn ensure_connected(&mut self) -> Result<(), WireError> {
        if self.conn.is_some() {
            return Ok(());
        }
        if let Some(at) = self.retry_at {
            if Instant::now() < at {
                return Err(WireError::Backoff);
            }
        }
        let mut refused_budget = self.config.connect_retries;
        let stream = loop {
            match self.connect_once() {
                Ok(stream) => break stream,
                Err(e) => {
                    let refused = e.kind() == io::ErrorKind::ConnectionRefused;
                    if refused && refused_budget > 0 {
                        refused_budget -= 1;
                        std::thread::sleep(self.backoff);
                        self.grow_backoff();
                        continue;
                    }
                    // Arm the backoff window for the *next* call.
                    self.retry_at = Some(Instant::now() + self.backoff);
                    self.grow_backoff();
                    return Err(WireError::Io(e));
                }
            }
        };
        // Responses are small and latency-bound; Nagle + delayed ACK would
        // stall pipelined request/response turns.
        let _ = stream.set_nodelay(true);
        stream
            .set_write_timeout(self.config.read_timeout)
            .map_err(WireError::Io)?;
        self.conn = Some(BufReader::new(stream));
        self.retry_at = None;
        self.backoff = self.config.backoff_initial.max(Duration::from_millis(1));
        Ok(())
    }

    fn connect_once(&self) -> io::Result<TcpStream> {
        match self.config.connect_timeout {
            Some(timeout) => {
                let addr = resolve(&self.addr)?;
                TcpStream::connect_timeout(&addr, timeout)
            }
            None => TcpStream::connect(&self.addr),
        }
    }

    fn grow_backoff(&mut self) {
        let max = self.config.backoff_max.max(Duration::from_millis(1));
        self.backoff = (self.backoff * 2).min(max);
    }
}

/// Is there anything to read on a connection that should be quiet?
/// Leftover buffered bytes, unsolicited input, a pending error, or EOF all
/// mean the stream is desynchronised from the request/response rhythm.
fn connection_is_stale(conn: &mut BufReader<TcpStream>) -> bool {
    if !conn.buffer().is_empty() {
        return true;
    }
    let stream = conn.get_mut();
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let stale = match stream.peek(&mut probe) {
        Ok(_) => true, // unsolicited bytes (n > 0) or EOF (n == 0)
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    stream.set_nonblocking(false).is_err() || stale
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot resolve {addr}"),
        )
    })
}

/// Read one response line with the remaining slice of `deadline` as the
/// socket read timeout.  EOF mid-response and an elapsed deadline are both
/// failures — a half-response is never returned.
fn read_line_deadline(
    conn: &mut BufReader<TcpStream>,
    deadline: Option<Instant>,
) -> Result<String, WireError> {
    let mut line = String::new();
    loop {
        if let Some(deadline) = deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(WireError::Timeout);
            }
            conn.get_mut()
                .set_read_timeout(Some(deadline - now))
                .map_err(WireError::Io)?;
        }
        match conn.read_line(&mut line) {
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-response",
                )))
            }
            Ok(_) => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                return Ok(line);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(WireError::Timeout)
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn response_framing_round_trips() {
        let ok = render_response(&Ok(vec!["a".into(), "b".into()]));
        assert_eq!(ok, b"OK 2\na\nb\n");
        let err = render_response(&Err("boom\nbang".into()));
        assert_eq!(err, b"ERR boom | bang\n");

        assert_eq!(parse_status("OK 2"), Ok(Ok(2)));
        assert_eq!(parse_status("OK 0\r\n"), Ok(Ok(0)));
        assert_eq!(
            parse_status("ERR boom | bang"),
            Ok(Err("boom | bang".into()))
        );
        assert!(parse_status("OK nope").is_err());
        assert!(parse_status("HTTP/1.1 200 OK").is_err());
        assert!(parse_status("").is_err());
        // Garbage is truncated in the error text, not echoed wholesale.
        let e = parse_status(&"x".repeat(500)).unwrap_err();
        assert!(e.len() < 200, "{e}");
    }

    /// A scripted peer: accepts one connection per script entry and writes
    /// the scripted bytes in response to each received line.
    fn scripted_server(
        scripts: Vec<Vec<&'static [u8]>>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for script in scripts {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for response in script {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    stream.write_all(response).unwrap();
                }
                // Connection closes when the script (and stream) drop.
            }
        });
        (addr, handle)
    }

    fn fast_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_millis(300)),
            connect_retries: 0,
            backoff_initial: Duration::from_millis(5),
            backoff_max: Duration::from_millis(40),
        }
    }

    #[test]
    fn request_round_trips_ok_and_err_responses() {
        let (addr, server) = scripted_server(vec![vec![
            b"OK 2\nvars=a tuples=1\na#2\n" as &[u8],
            b"ERR unknown document 'x'\n",
        ]]);
        let mut client = ShardClient::new(addr.to_string(), fast_config());
        assert_eq!(
            client.request("QUERY d child::a -> a").unwrap(),
            Ok(vec!["vars=a tuples=1".to_string(), "a#2".to_string()])
        );
        // A daemon ERR is a *successful* round trip: the wire is healthy.
        assert_eq!(
            client.request("QUERY x child::a").unwrap(),
            Err("unknown document 'x'".to_string())
        );
        assert_eq!(client.consecutive_failures(), 0);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn garbage_status_line_is_a_protocol_error_and_reconnects() {
        let (addr, server) = scripted_server(vec![
            vec![b"!!not a response!!\n" as &[u8]],
            vec![b"OK 0\n" as &[u8]],
        ]);
        let mut client = ShardClient::new(addr.to_string(), fast_config());
        let err = client.request("STATS").unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        assert!(!client.is_connected(), "desynced connection must drop");
        assert_eq!(client.consecutive_failures(), 1);
        // The next request reconnects and succeeds.
        assert_eq!(client.request("STATS").unwrap(), Ok(vec![]));
        assert_eq!(client.consecutive_failures(), 0);
        server.join().unwrap();
    }

    #[test]
    fn truncated_payload_is_an_error_never_a_partial_response() {
        // Promises 3 payload lines, delivers 1, then closes.
        let (addr, server) = scripted_server(vec![vec![b"OK 3\nonly-one\n" as &[u8]]]);
        let mut client = ShardClient::new(addr.to_string(), fast_config());
        let err = client.request("STATS").unwrap_err();
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err}"
        );
        server.join().unwrap();
    }

    #[test]
    fn slow_peer_times_out_instead_of_hanging() {
        // Accepts, reads the request, never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let _ = done_rx.recv(); // hold the socket open, silent
        });
        let mut client = ShardClient::new(addr.to_string(), fast_config());
        let start = Instant::now();
        let err = client.request("STATS").unwrap_err();
        assert!(matches!(err, WireError::Timeout), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline must bound the wait"
        );
        drop(done_tx);
        server.join().unwrap();
    }

    /// A response slower than the deadline is indistinguishable from a dead
    /// peer mid-flight: the client must time out AND resync by dropping the
    /// connection, or the late bytes would answer the *next* request.
    #[test]
    fn late_response_does_not_answer_the_next_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: answer after the client's deadline.
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            std::thread::sleep(Duration::from_millis(500));
            let _ = stream.write_all(b"OK 1\nstale\n");
            // Second connection: answer promptly.
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            stream.write_all(b"OK 1\nfresh\n").unwrap();
        });
        let mut client = ShardClient::new(addr.to_string(), fast_config());
        assert!(matches!(
            client.request("STATS").unwrap_err(),
            WireError::Timeout
        ));
        // Wait out the stale bytes; a resynced client never sees them.
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(
            client.request("STATS").unwrap(),
            Ok(vec!["fresh".to_string()])
        );
        server.join().unwrap();
    }

    #[test]
    fn refused_connects_back_off_and_fail_fast() {
        // Nothing listens here: bind-then-drop reserves a dead port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut config = fast_config();
        config.connect_retries = 2;
        let mut client = ShardClient::new(addr.to_string(), config);
        let err = client.request("STATS").unwrap_err();
        assert!(matches!(&err, WireError::Io(_)), "{err}");
        // Immediately after the failure the backoff window is armed: the
        // next request fails fast without touching the socket.
        let start = Instant::now();
        let err = client.request("STATS").unwrap_err();
        assert!(matches!(err, WireError::Backoff), "{err}");
        assert!(start.elapsed() < Duration::from_millis(50));
        // The window is bounded: after it elapses, a real attempt happens
        // again (and fails with Io, not Backoff).
        std::thread::sleep(Duration::from_millis(60));
        let err = client.request("STATS").unwrap_err();
        assert!(matches!(err, WireError::Io(_)), "{err}");
    }

    #[test]
    fn refused_retry_rides_out_a_startup_race() {
        // The "daemon" binds only after a delay; a client with retries must
        // connect anyway.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe); // port free (and refusing) until the server binds it
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let listener = TcpListener::bind(addr).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            stream.write_all(b"OK 1\nhello\n").unwrap();
        });
        let mut config = fast_config();
        config.connect_retries = 20;
        let mut client = ShardClient::new(addr.to_string(), config);
        assert_eq!(
            client.request("STATS").unwrap(),
            Ok(vec!["hello".to_string()])
        );
        server.join().unwrap();
    }

    /// A daemon that idle-closes a connection says `ERR idle timeout` and
    /// hangs up — *unsolicited* bytes from the client's point of view.  The
    /// next request must not misread that goodbye as its response: the
    /// client detects the stale connection and reconnects.
    #[test]
    fn stale_unsolicited_bytes_reconnect_instead_of_misreading() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: one real answer, then an unsolicited
            // goodbye line and a close.
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            stream.write_all(b"OK 0\n").unwrap();
            stream
                .write_all(b"ERR idle timeout, closing connection\n")
                .unwrap();
            drop(stream);
            // Second connection: a clean answer.
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            stream.write_all(b"OK 1\nfresh\n").unwrap();
        });
        let mut client = ShardClient::new(addr.to_string(), fast_config());
        assert_eq!(client.request("STATS").unwrap(), Ok(vec![]));
        // Give the goodbye time to arrive in the client's socket buffer.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            client.request("STATS").unwrap(),
            Ok(vec!["fresh".to_string()]),
            "the stale goodbye must never be returned as a response"
        );
        server.join().unwrap();
    }

    #[test]
    fn injection_hooks_kill_and_poison() {
        let (addr, server) = scripted_server(vec![
            vec![b"OK 0\n" as &[u8], b"OK 0\n"],
            vec![b"OK 0\n" as &[u8]],
        ]);
        let mut client = ShardClient::new(addr.to_string(), fast_config());
        assert_eq!(client.request("STATS").unwrap(), Ok(vec![]));

        // Poisoned status: the injected garbage exercises the real decode
        // path and desyncs the connection exactly like wire garbage.
        client.inject_status_line("\0\0garbage\0");
        let err = client.request("STATS").unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        assert!(!client.is_connected());

        // Kill: the next request transparently reconnects.
        assert_eq!(client.request("STATS").unwrap(), Ok(vec![]));
        client.kill_connection();
        assert!(!client.is_connected());
        server.join().unwrap();
    }
}
