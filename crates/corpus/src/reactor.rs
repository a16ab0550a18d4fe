//! The epoll event loop behind [`crate::server::serve`] (Linux only) — the
//! one serving loop of both the `pplxd` daemon and `pplxd --route`.
//!
//! One reactor thread multiplexes every client socket through a
//! level-triggered epoll set, drives one sans-IO [`Conn`] state machine per
//! connection, and dispatches parsed commands to a fixed worker pool over
//! the bounded MPMC [`BoundedQueue`].  Workers run each command through the
//! [`Service`] — the corpus, or the router with its per-connection shard
//! clients — and report results through a completion list and an `eventfd`
//! wakeup; the reactor renders them back out strictly in request order
//! ([`Conn::complete`] owns the ordering).
//!
//! The design buys:
//!
//! * **scalability** — thousands of idle connections cost one epoll
//!   registration each, not a parked thread;
//! * **pipelining** — a client may stream many requests without waiting;
//!   a whole pipelined window crosses the worker queue as one batch (one
//!   queue handoff and one wakeup instead of one per command) and its
//!   responses leave in few large `write`s instead of one flush per
//!   request.  Batches execute serially per connection — one in flight at
//!   a time — so a pipelined `LOADTERMS d …; QUERY d …` burst is
//!   sequentially consistent with itself while distinct connections
//!   spread across the worker pool.  The connection's [`Service::State`]
//!   travels with its batch, so a service needs no lock for it;
//! * **backpressure** — when a connection exceeds its write high-water
//!   mark or pipeline cap ([`Conn::wants_read`]), the reactor deregisters
//!   its read interest: the kernel receive buffer and the peer's send
//!   call absorb the excess, not daemon memory.
//!
//! The syscall surface is deliberately tiny — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, `read`, `write`, `close` via hand-rolled
//! `extern "C"` bindings — everything else goes through the std net types
//! with `set_nonblocking(true)`.
//!
//! # Shutdown
//!
//! On `SHUTDOWN` the reactor stops reading every connection, keeps
//! accepting only to answer `ERR shutting down` (a late-racing client is
//! never dropped silently), finishes the in-flight requests, flushes every
//! response, then closes all sockets, joins the workers and runs
//! [`Service::shutdown`] (the router's `SHUTDOWN` fan-out to its shards).
//!
//! This module is the only place in the workspace allowed to contain
//! `unsafe` (every other crate is `#![forbid(unsafe_code)]`); each unsafe
//! block carries a `// SAFETY:` justification, enforced by `xpath-lint`.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::protocol::{Command, Conn, ConnEvent};
use crate::queue::BoundedQueue;
use crate::server::{
    classify_accept_error, AcceptDisposition, ServeOptions, Service, ACCEPT_BACKOFF,
};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};
use xpath_sync::Mutex;
use xpath_wire::Response;

/// Minimal raw bindings for the reactor's syscall surface.
mod sys {
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    /// `struct epoll_event`.  On x86-64 the kernel ABI packs it (no 4-byte
    /// hole between `events` and `data`); other architectures use natural
    /// alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// Owned epoll instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes a flag word and touches no caller
        // memory; a negative return is checked below before the fd is used.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly initialised EpollEvent for the
        // duration of the call; the kernel only reads it.  `self.fd` is the
        // epoll fd this struct owns (valid until Drop).
        if unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness for at most `timeout_ms` (`-1`: forever); retries
    /// EINTR.  Returns the number of events filled into `events` — zero on
    /// timeout.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the out-pointer and length name exactly the caller's
            // `events` slice, which outlives the call; the kernel writes at
            // most `events.len()` entries.  `self.fd` is owned and open.
            let n = unsafe {
                sys::epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` was returned by epoll_create1, is owned solely
        // by this struct, and is closed exactly once (here).
        unsafe { sys::close(self.fd) };
    }
}

/// Owned eventfd used as the worker→reactor wakeup.
struct EventFd {
    fd: RawFd,
}

impl EventFd {
    fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes an initial count and flags, touching no
        // caller memory; a negative return is checked before the fd is used.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// Bump the counter; wakes a reactor blocked in `epoll_wait`.
    fn signal(&self) {
        let one: u64 = 1;
        // EAGAIN (counter saturated) still leaves the fd readable, which is
        // all a wakeup needs; any other failure has no recovery here.
        // SAFETY: the pointer names the local `one` (8 valid readable
        // bytes, the exact length passed); `self.fd` is owned and open.
        unsafe { sys::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the counter so the next `signal` re-arms the readable state.
    fn drain(&self) {
        let mut counter: u64 = 0;
        // SAFETY: the pointer names the local `counter` (8 valid writable
        // bytes, the exact length passed); `self.fd` is owned and open.
        unsafe { sys::read(self.fd, (&mut counter as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` was returned by eventfd, is owned solely by
        // this struct, and is closed exactly once (here).
        unsafe { sys::close(self.fd) };
    }
}

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 256;
/// Socket read chunk.
const READ_CHUNK: usize = 16 << 10;

/// One parsed request: its response slot, trimmed line, and command.
struct Request {
    seq: u64,
    line: String,
    command: Command,
}

/// One unit of work for the pool: a batch of consecutive pipelined
/// commands from one connection, executed serially in request order, with
/// the connection's service state.
/// Batching is both the correctness and the throughput story: one batch in
/// flight per connection keeps a pipelined `LOADTERMS d …; QUERY d …`
/// burst sequentially consistent with itself (one worker runs it in
/// order), and a whole request window crosses the queue in a single
/// handoff instead of one mutex/condvar round trip per command.  Distinct
/// connections still spread across the pool.
struct Job<T> {
    conn_id: u64,
    state: T,
    requests: Vec<Request>,
}

/// A finished batch, with the connection's state, on its way back to the
/// reactor.
struct Completion<T> {
    conn_id: u64,
    state: T,
    results: Vec<(u64, Response)>,
}

/// One connected client: its socket, protocol state machine, the epoll
/// interest currently registered for it, and the dispatch bookkeeping that
/// keeps one batch in flight.
struct Client<T> {
    stream: TcpStream,
    conn: Conn,
    interest: u32,
    /// Parsed requests not yet handed to the workers (a batch from this
    /// connection is still executing).
    backlog: Vec<Request>,
    /// The connection's service state; `None` while a dispatched batch
    /// holds it.
    state: Option<T>,
    /// Last observed progress — bytes read, a completion applied, or
    /// response bytes flushed.  Connections quiet past the idle window
    /// (and with nothing in flight) are dropped.
    last_activity: Instant,
}

impl<T> Client<T> {
    fn new(stream: TcpStream, max_line: usize, state: T) -> Client<T> {
        Client {
            stream,
            conn: Conn::new(max_line),
            interest: sys::EPOLLIN | sys::EPOLLRDHUP,
            backlog: Vec::new(),
            state: Some(state),
            last_activity: Instant::now(),
        }
    }

    /// Is this connection idle (no progress, nothing in flight) past the
    /// `idle` window?  A connection with an executing batch or in-flight
    /// pipeline slots is *working*, however long that takes.
    fn idle_expired(&self, now: Instant, idle: Duration) -> bool {
        self.state.is_some()
            && self.conn.in_flight() == 0
            && now.duration_since(self.last_activity) >= idle
    }

    /// Hand the whole backlog to the worker pool as one batch, unless one
    /// is already in flight (its completion triggers the next dispatch).
    /// The backlog is bounded by [`Conn`]'s pipeline cap.  `work.push` may
    /// block at queue capacity — that is the global backpressure bound,
    /// and workers never block on the reactor, so it cannot deadlock.
    fn dispatch_ready(&mut self, id: u64, work: &BoundedQueue<Job<T>>) {
        if self.backlog.is_empty() {
            return;
        }
        let Some(state) = self.state.take() else {
            return;
        };
        work.push(Job {
            conn_id: id,
            state,
            requests: std::mem::take(&mut self.backlog),
        });
    }

    fn desired_interest(&self) -> u32 {
        let mut events = 0;
        if self.conn.wants_read() {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.conn.has_output() {
            events |= sys::EPOLLOUT;
        }
        events
    }
}

/// Serve `service` over `listener` with the epoll reactor: `workers`
/// command-execution threads behind a bounded queue, pipelined in-order
/// responses, per-connection backpressure.  Connections with no progress
/// for `idle_timeout` (and nothing in flight) are answered `ERR idle
/// timeout` and dropped.  Returns after a client sends `SHUTDOWN`, every
/// in-flight request has been answered and flushed, and
/// [`Service::shutdown`] has run.
pub(crate) fn serve_epoll<S: Service>(
    listener: TcpListener,
    service: &S,
    options: &ServeOptions,
) -> io::Result<()> {
    let ServeOptions {
        max_line,
        workers,
        idle_timeout,
    } = *options;
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let wake = EventFd::new()?;
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN)?;
    epoll.add(wake.fd, sys::EPOLLIN, WAKE_TOKEN)?;

    let workers = workers.max(1);
    // At most one batch per connection is ever in flight, so queue depth is
    // bounded by the connection count anyway; a roomy cap keeps the reactor
    // from blocking on `push` under thousands of connections (which would
    // stall reads and writes for everyone), while still bounding memory if
    // the pool falls behind a huge connection herd.
    let work: BoundedQueue<Job<S::State>> = BoundedQueue::new((workers * 4).max(4096));
    let completions: Mutex<Vec<Completion<S::State>>> = Mutex::new(Vec::new());

    let mut clients: HashMap<u64, Client<S::State>> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut shutting_down = false;
    let mut outcome: io::Result<()> = Ok(());

    xpath_sync::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(mut job) = work.pop() {
                    let results = job
                        .requests
                        .iter()
                        .map(|r| (r.seq, service.execute(&mut job.state, &r.line, &r.command)))
                        .collect();
                    let was_empty = {
                        let mut done = completions
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        let was_empty = done.is_empty();
                        done.push(Completion {
                            conn_id: job.conn_id,
                            state: job.state,
                            results,
                        });
                        was_empty
                    };
                    // One wakeup per drain is enough: the reactor takes the
                    // whole list, so only the transition from empty needs a
                    // signal — under load this coalesces most eventfd writes.
                    if was_empty {
                        wake.signal();
                    }
                }
            });
        }

        let mut events = [sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        'reactor: loop {
            // Sleep until IO, a completion wakeup, or the nearest idle
            // deadline — whichever comes first.  With no idle timeout (or
            // no clients) the wait is unbounded, as before.
            let timeout_ms = match idle_timeout {
                Some(idle) if !clients.is_empty() => {
                    let now = Instant::now();
                    let nearest = clients
                        .values()
                        .map(|c| (c.last_activity + idle).saturating_duration_since(now))
                        .min()
                        .unwrap_or_default();
                    // +1 rounds up so a wakeup lands past the deadline, and
                    // the 10ms floor keeps a herd of nearly-expired idlers
                    // from degenerating into a busy loop.
                    (nearest.as_millis() as i64 + 1).clamp(10, i32::MAX as i64) as i32
                }
                _ => -1,
            };
            let ready = match epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(e) => {
                    outcome = Err(e);
                    break 'reactor;
                }
            };
            // Connections whose buffers or interest may have changed this
            // iteration; flushed and re-registered below.
            let mut touched: HashSet<u64> = HashSet::new();

            for ev in events.iter().take(ready) {
                let ev = *ev; // copy out of the (possibly packed) array slot
                match ev.data {
                    LISTENER_TOKEN => loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if shutting_down {
                                    let mut stream = stream;
                                    let _ = stream.write_all(b"ERR shutting down\n");
                                    continue; // drop: closed cleanly after the answer
                                }
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                // Small latency-bound responses: Nagle +
                                // delayed ACK would stall pipelined clients.
                                let _ = stream.set_nodelay(true);
                                let id = next_id;
                                next_id += 1;
                                let client = Client::new(stream, max_line, service.open());
                                if epoll
                                    .add(client.stream.as_raw_fd(), client.interest, id)
                                    .is_ok()
                                {
                                    clients.insert(id, client);
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) => match classify_accept_error(&e) {
                                AcceptDisposition::Retry => continue,
                                AcceptDisposition::RetryAfterSleep => {
                                    // Back off; level-triggered epoll will
                                    // re-report the pending connection.
                                    std::thread::sleep(ACCEPT_BACKOFF);
                                    break;
                                }
                                AcceptDisposition::Fatal => {
                                    outcome = Err(e);
                                    break 'reactor;
                                }
                            },
                        }
                    },
                    WAKE_TOKEN => wake.drain(),
                    id => {
                        let Some(client) = clients.get_mut(&id) else {
                            continue; // already closed this iteration
                        };
                        touched.insert(id);
                        let readable = ev.events
                            & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                            != 0;
                        if !readable {
                            continue; // pure EPOLLOUT: flushed below
                        }
                        let mut dead = false;
                        let mut buf = [0u8; READ_CHUNK];
                        let mut parsed: Vec<ConnEvent> = Vec::new();
                        loop {
                            match client.stream.read(&mut buf) {
                                Ok(0) => {
                                    dead = true;
                                    break;
                                }
                                Ok(n) => {
                                    client.last_activity = Instant::now();
                                    parsed.extend(client.conn.feed(&buf[..n]));
                                    if !client.conn.wants_read() {
                                        break; // backpressure: leave the rest in the kernel
                                    }
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                                Err(_) => {
                                    dead = true;
                                    break;
                                }
                            }
                        }
                        if dead {
                            // Pending completions for this id are dropped on
                            // arrival; the conn state dies with the socket.
                            epoll.delete(client.stream.as_raw_fd()).ok();
                            clients.remove(&id);
                            touched.remove(&id);
                            // Commands already parsed from a now-dead client
                            // are not worth executing.
                            continue;
                        }
                        for event in parsed {
                            match event {
                                ConnEvent::Execute { seq, line, command } => {
                                    client.backlog.push(Request { seq, line, command });
                                }
                                ConnEvent::ShutdownRequested => {
                                    shutting_down = true;
                                }
                            }
                        }
                        client.dispatch_ready(id, &work);
                    }
                }
            }

            // Apply whatever the workers finished, regardless of which
            // event woke us.
            let done = std::mem::take(
                &mut *completions
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            );
            for completion in done {
                if let Some(client) = clients.get_mut(&completion.conn_id) {
                    for (seq, result) in completion.results {
                        client.conn.complete(seq, result);
                    }
                    client.state = Some(completion.state);
                    client.last_activity = Instant::now();
                    client.dispatch_ready(completion.conn_id, &work);
                    touched.insert(completion.conn_id);
                }
            }

            // Idle sweep: quiet connections with nothing in flight are told
            // why and dropped.  Never triggered by slow *work* — an
            // executing batch or occupied pipeline slot counts as activity.
            if let Some(idle) = idle_timeout {
                let now = Instant::now();
                let expired: Vec<u64> = clients
                    .iter()
                    .filter(|(_, c)| c.idle_expired(now, idle))
                    .map(|(&id, _)| id)
                    .collect();
                for id in expired {
                    if let Some(mut client) = clients.remove(&id) {
                        // Best effort: the kernel buffer almost always has
                        // room for one line; a blocked peer just misses the
                        // explanation.
                        let _ = client
                            .stream
                            .write(b"ERR idle timeout, closing connection\n");
                        epoll.delete(client.stream.as_raw_fd()).ok();
                        touched.remove(&id);
                    }
                }
            }

            // Entering shutdown: stop reading everyone; in-flight requests
            // finish, responses flush, then the connections close.
            if shutting_down {
                for (&id, client) in clients.iter_mut() {
                    client.conn.begin_close();
                    touched.insert(id);
                }
            }

            // Flush + interest maintenance for every touched connection.
            for id in touched {
                let Some(client) = clients.get_mut(&id) else {
                    continue;
                };
                let mut dead = false;
                while client.conn.has_output() {
                    match client.stream.write(client.conn.pending_output()) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => {
                            client.conn.advance_output(n);
                            client.last_activity = Instant::now();
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if dead || client.conn.is_finished() {
                    epoll.delete(client.stream.as_raw_fd()).ok();
                    clients.remove(&id);
                    continue;
                }
                let desired = client.desired_interest();
                if desired != client.interest
                    && epoll.modify(client.stream.as_raw_fd(), desired, id).is_ok()
                {
                    client.interest = desired;
                }
            }

            if shutting_down && clients.is_empty() {
                break 'reactor;
            }
        }

        // Unblock and retire the workers; leftover queued jobs (possible
        // only on an error exit) drain harmlessly into dropped completions.
        work.close();
    });
    if shutting_down {
        service.shutdown();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::bind;
    use crate::Corpus;
    use std::io::{BufRead, BufReader, BufWriter};

    /// Serve a fresh corpus with 2 workers and the given line cap and idle
    /// timeout.
    fn spawn_epoll(
        max_line: usize,
        idle_timeout: Option<Duration>,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<io::Result<()>>,
    ) {
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let options = ServeOptions {
            max_line,
            workers: 2,
            idle_timeout,
        };
        let handle = std::thread::spawn(move || serve_epoll(listener, &Corpus::new(), &options));
        (addr, handle)
    }

    fn read_response<R: BufRead>(reader: &mut R) -> (String, Vec<String>) {
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
    }

    /// The whole protocol over TCP, as pipelined bursts answered in request
    /// order.
    #[test]
    fn epoll_round_trip_with_pipelining() {
        let (addr, server) = spawn_epoll(1 << 20, None);

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        // A pipelined burst written in one flush: responses must come back
        // in request order.
        write!(
            writer,
            "LOADTERMS d1 r(a(b))\nQUERY d1 descendant::b[. is $x] -> x\nMUTATE d1 INSERT 1 1 b\nQUERY d1 descendant::b[. is $x] -> x\nQUERYALL descendant::b[. is $x] -> x\nMUTATE d1 DELETE 99\nSTATS\nBOGUS\nEVICT d1\n"
        )
        .unwrap();
        writer.flush().unwrap();

        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "loaded d1 nodes=3 documents=1");
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 2");
        assert_eq!(payload, vec!["vars=x tuples=1", "b#2"]);
        // The pipelined MUTATE lands between the two QUERYs, in order.
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 1");
        assert!(
            payload[0].starts_with("mutated d1 kind=insert nodes=4 epoch=1"),
            "{payload:?}"
        );
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 3");
        assert_eq!(payload[0], "vars=x tuples=2");
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 3");
        assert_eq!(payload[0], "doc=d1 tuples=2");
        // An edit the document cannot take is an ERR with no payload: the
        // next response still parses in sync.
        let (status, payload) = read_response(&mut reader);
        assert!(status.starts_with("ERR"), "{status}");
        assert!(payload.is_empty());
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, "OK 14");
        let (status, _) = read_response(&mut reader);
        assert!(status.starts_with("ERR unknown command"), "{status}");
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "evicted=true");

        // A second concurrent client, then a clean SHUTDOWN.
        let stream2 = TcpStream::connect(addr).unwrap();
        let mut reader2 = BufReader::new(stream2.try_clone().unwrap());
        let mut writer2 = BufWriter::new(stream2);
        writeln!(writer2, "QUERY d1 descendant::b[. is $x] -> x").unwrap();
        writer2.flush().unwrap();
        let (status2, _) = read_response(&mut reader2);
        assert_eq!(status2, "OK 3", "evicted sessions must rebuild");
        writeln!(writer2, "QUIT").unwrap();
        writer2.flush().unwrap();
        let (status2, payload2) = read_response(&mut reader2);
        assert_eq!(status2, "OK 1");
        assert_eq!(payload2[0], "bye");

        writeln!(writer, "SHUTDOWN").unwrap();
        writer.flush().unwrap();
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "bye");
        server.join().unwrap().unwrap();
    }

    /// Overlong lines answer `ERR line too long` in-order and the
    /// connection keeps serving.
    #[test]
    fn epoll_overlong_lines_stay_in_sync() {
        let (addr, server) = spawn_epoll(64, None);

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "LOAD big <bib>{}</bib>", "x".repeat(1024)).unwrap();
        writeln!(writer, "LOADTERMS d a(b)").unwrap();
        writer.flush().unwrap();

        let (status, _) = read_response(&mut reader);
        assert!(status.starts_with("ERR line too long"), "{status}");
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "loaded d nodes=2 documents=1");

        writeln!(writer, "SHUTDOWN").unwrap();
        writer.flush().unwrap();
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, "OK 1");
        server.join().unwrap().unwrap();
    }

    /// A client that connects while the daemon is shutting down is told so
    /// instead of being silently dropped.
    #[test]
    fn epoll_answers_clients_racing_shutdown() {
        let (addr, server) = spawn_epoll(1 << 20, None);

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "SHUTDOWN").unwrap();
        writer.flush().unwrap();

        // Race a late connection against the shutdown drain.  Whichever
        // way the race goes, the invariant is: a connection that is
        // accepted gets `ERR shutting down`, never silence.
        let late = TcpStream::connect(addr);
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "bye");
        if let Ok(late) = late {
            let mut late_reader = BufReader::new(late);
            let mut line = String::new();
            if late_reader.read_line(&mut line).unwrap_or(0) > 0 {
                assert_eq!(line.trim(), "ERR shutting down");
            }
        }
        server.join().unwrap().unwrap();
    }

    /// A connect-and-stall client is answered `ERR idle timeout` and
    /// dropped without disturbing an active client — before this, the
    /// reactor's infinite `epoll_wait` let a silent connection hold its
    /// slot forever.
    #[test]
    fn epoll_drops_idle_connections() {
        let (addr, server) = spawn_epoll(1 << 20, Some(Duration::from_millis(100)));

        // The staller: connects, says nothing.
        let staller = TcpStream::connect(addr).unwrap();
        staller
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        // An active client keeps a request/response turn going.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "LOADTERMS d a(b)").unwrap();
        writer.flush().unwrap();
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, "OK 1");

        // The staller is told why, then sees EOF.
        let mut staller_reader = BufReader::new(staller);
        let mut line = String::new();
        staller_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR idle timeout"), "got: {line:?}");
        let mut rest = String::new();
        assert_eq!(staller_reader.read_line(&mut rest).unwrap(), 0);

        // The daemon still serves: a fresh connection queries and shuts
        // down cleanly.
        let stream2 = TcpStream::connect(addr).unwrap();
        let mut reader2 = BufReader::new(stream2.try_clone().unwrap());
        let mut writer2 = BufWriter::new(stream2);
        writeln!(writer2, "QUERY d descendant::b[. is $x] -> x\nSHUTDOWN").unwrap();
        writer2.flush().unwrap();
        let (status2, _) = read_response(&mut reader2);
        assert_eq!(status2, "OK 2");
        let (status2, _) = read_response(&mut reader2);
        assert_eq!(status2, "OK 1");
        server.join().unwrap().unwrap();
    }
}
