//! Failure-injection fuzz for the sharding router: a deterministic script
//! of mixed LOADTERMS / QUERY / QUERYALL / STATS / EVICT traffic runs
//! against three *real* backend daemons while a fault hook randomly kills
//! shard connections mid-query, delays past the shard deadline, and
//! poisons responses with garbage and truncated status lines — and one
//! backend is genuinely shut down mid-burst.
//!
//! The invariant under all of that: the router **always answers, in
//! bounded time**.  Every response is either
//!
//! * correct data — verified against a single-process [`Corpus`] oracle
//!   holding every document with its canonical content, so any successful
//!   payload must match the oracle bit-for-bit (all replicas of a document
//!   carry identical content), or
//! * a well-formed `ERR`/partial answer (non-empty message, `doc=… error=`
//!   lines) naming what failed.
//!
//! A hang, a panic, a malformed frame, or wrong data all fail the test.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpath_corpus::router::{FaultAction, Router, RouterConfig, RouterConn};
use xpath_corpus::server::{bind, execute_command, parse_command, serve, ServeOptions};
use xpath_corpus::Corpus;
use xpath_wire::{ClientConfig, ShardClient};

const BACKENDS: usize = 3;
const ROUNDS: usize = 120;
const DOCS: usize = 8;
const SHARD_TIMEOUT: Duration = Duration::from_millis(300);
/// Generous per-request bound: a fan-out may pay the shard timeout on every
/// replica sequentially plus injected sub-deadline delays.
const REQUEST_BOUND: Duration = Duration::from_secs(3);

/// Canonical content of document `k`: every replica of a document loads the
/// same terms, so any *successful* answer must match the oracle exactly.
fn shape(k: usize) -> &'static str {
    [
        "r(a(b),a(b,c))",
        "r(a(b),a(b),a(b))",
        "r(c(a(b)),a(b))",
        "r(a,b(a(b)))",
    ][k % 4]
}

fn doc_name(k: usize) -> String {
    format!("fuzz_d{k}")
}

/// xorshift64* — a tiny deterministic PRNG; no crates, no clock.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn spawn_backend() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let handle =
        std::thread::spawn(move || serve(listener, &Corpus::new(), &ServeOptions::default()));
    (addr.to_string(), handle)
}

/// The fault plan: a deterministic mix over a shared request counter.
/// Roughly one in five shard requests is sabotaged — connections killed,
/// deadlines blown, status lines poisoned or truncated.
fn install_faults(router: &Router) {
    let counter = Arc::new(AtomicUsize::new(0));
    router.set_fault_hook(Arc::new(move |shard, _command| {
        let n = counter.fetch_add(1, Ordering::Relaxed) as u64;
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (n << 8) ^ shard as u64);
        match rng.below(100) {
            0..=5 => FaultAction::KillConn,
            6..=8 => FaultAction::Garbage("!!not a response!!".to_string()),
            // A truncated frame: promises payload the stream does not hold.
            9..=10 => FaultAction::Garbage("OK 99999".to_string()),
            // An injected daemon ERR: a healthy-looking wire that answers
            // the wrong thing, leaving the real response unread (the stale
            // detection must absorb it).
            11..=12 => FaultAction::Garbage("ERR injected fault".to_string()),
            13..=14 => FaultAction::Delay(SHARD_TIMEOUT * 2), // past deadline
            15..=19 => FaultAction::Delay(Duration::from_millis(3)),
            _ => FaultAction::None,
        }
    }));
}

/// Split a QUERYALL payload into per-document blocks: header line (starts
/// with `doc=`) plus its tuple lines.
fn doc_blocks(payload: &[String]) -> Vec<(String, Vec<String>)> {
    let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
    for line in payload {
        if line.starts_with("doc=") {
            blocks.push((line.clone(), Vec::new()));
        } else {
            let (_, tuples) = blocks
                .last_mut()
                .expect("QUERYALL payload must start with a doc= header");
            tuples.push(line.clone());
        }
    }
    blocks
}

fn block_doc_name(header: &str) -> &str {
    header
        .strip_prefix("doc=")
        .and_then(|rest| rest.split_whitespace().next())
        .expect("doc= header carries a name")
}

#[test]
fn router_fuzz_always_answers_under_injected_faults() {
    let backends: Vec<_> = (0..BACKENDS).map(|_| spawn_backend()).collect();
    let addrs: Vec<String> = backends.iter().map(|(addr, _)| addr.clone()).collect();

    let router = Arc::new(Router::new(RouterConfig {
        backends: addrs.clone(),
        replication: 2,
        shard_timeout: SHARD_TIMEOUT,
        connect_timeout: Duration::from_millis(400),
        fail_threshold: 2,
        probe_interval: Duration::from_millis(50),
    }));
    install_faults(&router);
    let mut conn = RouterConn::new(Arc::clone(&router));

    // The oracle: a private corpus holding *every* document with its
    // canonical content.  Any successful router answer must match it.
    let oracle = Corpus::new();
    for k in 0..DOCS {
        oracle.insert_terms(&doc_name(k), shape(k)).unwrap();
    }
    let queries = [
        "descendant::b[. is $x] -> x",
        "descendant::a[child::b[. is $y]] -> y",
        "descendant::c",
    ];

    let mut rng = Rng(0xfeed_beef_cafe_f00d);
    let mut loads = 0usize;
    let mut load_failures = 0usize;
    for round in 0..ROUNDS {
        // Mid-burst, one backend really goes away: a clean SHUTDOWN, after
        // which the router must degrade instead of hanging or lying.
        if round == ROUNDS / 2 {
            let mut killer = ShardClient::new(
                addrs[0].clone(),
                ClientConfig {
                    connect_timeout: Some(Duration::from_millis(400)),
                    read_timeout: Some(Duration::from_millis(400)),
                    ..ClientConfig::default()
                },
            );
            assert_eq!(
                killer.request("SHUTDOWN").unwrap(),
                Ok(vec!["bye".to_string()])
            );
        }

        let k = rng.below(DOCS as u64) as usize;
        let doc = doc_name(k);
        let line = match rng.below(10) {
            0..=2 => format!("LOADTERMS {doc} {}", shape(k)),
            3..=6 => format!(
                "QUERY {doc} {}",
                queries[rng.below(queries.len() as u64) as usize]
            ),
            7 => format!(
                "QUERYALL {}",
                queries[rng.below(queries.len() as u64) as usize]
            ),
            8 => "STATS".to_string(),
            _ => format!("EVICT {doc}"),
        };

        let start = Instant::now();
        let response = conn.handle_line(&line);
        let elapsed = start.elapsed();
        assert!(
            elapsed < REQUEST_BOUND,
            "round {round}: {line:?} took {elapsed:?} — the router must never hang"
        );

        match &response {
            Err(message) => {
                // Degradation is allowed; silence and malformed frames are
                // not.
                assert!(
                    !message.trim().is_empty(),
                    "round {round}: {line:?} answered an empty ERR"
                );
                if line.starts_with("LOADTERMS") {
                    load_failures += 1;
                }
            }
            Ok(payload) => {
                let command = parse_command(&line).unwrap();
                let expected = execute_command(&oracle, &command);
                if line.starts_with("LOADTERMS") {
                    loads += 1;
                    assert!(
                        payload[0].starts_with(&format!("loaded {doc} replicas=")),
                        "round {round}: bad LOAD ack {payload:?}"
                    );
                } else if line.starts_with("QUERY ") {
                    // Data correctness: a successful QUERY must match the
                    // oracle exactly — every replica holds identical content.
                    assert_eq!(
                        payload,
                        &expected.unwrap(),
                        "round {round}: {line:?} answered wrong data"
                    );
                } else if line.starts_with("QUERYALL") {
                    // Per-document: healthy blocks match the oracle, failed
                    // documents carry a well-formed error line, and no
                    // document reports twice (replica dedup).
                    let oracle_blocks: std::collections::HashMap<String, (String, Vec<String>)> =
                        doc_blocks(&expected.unwrap())
                            .into_iter()
                            .map(|b| (block_doc_name(&b.0).to_string(), b))
                            .collect();
                    let mut seen = std::collections::HashSet::new();
                    for (header, tuples) in doc_blocks(payload) {
                        let name = block_doc_name(&header).to_string();
                        assert!(
                            seen.insert(name.clone()),
                            "round {round}: document {name} reported twice: {payload:?}"
                        );
                        if header.contains(" error=") {
                            continue; // a well-formed partial result
                        }
                        let (oracle_header, oracle_tuples) = oracle_blocks
                            .get(&name)
                            .unwrap_or_else(|| panic!("round {round}: unknown doc {name}"));
                        assert_eq!(&header, oracle_header, "round {round}: wrong header");
                        assert_eq!(&tuples, oracle_tuples, "round {round}: wrong tuples");
                    }
                } else if line == "STATS" {
                    assert_eq!(payload[0], format!("shards={BACKENDS}"));
                    assert!(payload[1].starts_with("shards_up="), "{payload:?}");
                    assert!(payload[2].starts_with("documents="), "{payload:?}");
                } else if line.starts_with("EVICT") {
                    assert!(
                        payload[0] == "evicted=true" || payload[0] == "evicted=false",
                        "round {round}: bad EVICT answer {payload:?}"
                    );
                }
            }
        }
    }

    // The script must have really exercised the load path, and the router
    // must still be answering at the end — with the dead shard degraded,
    // not wedging the fleet.
    assert!(
        loads >= 10,
        "only {loads} successful loads ({load_failures} failed)"
    );
    let stats = conn.handle_line("STATS").expect("STATS must answer");
    assert_eq!(stats[0], format!("shards={BACKENDS}"));

    // Clean teardown: SHUTDOWN fans out to the surviving backends.  The
    // fan-out is best effort, so the faults stop first — an injected kill
    // of a SHUTDOWN request would leave that backend running.
    router.set_fault_hook(Arc::new(|_, _| FaultAction::None));
    assert_eq!(
        conn.handle_line("SHUTDOWN").unwrap(),
        vec!["bye".to_string()]
    );
    drop(conn);
    for (addr, handle) in backends {
        handle
            .join()
            .unwrap_or_else(|_| panic!("backend {addr} panicked"))
            .unwrap();
    }
}
