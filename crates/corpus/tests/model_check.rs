//! Model-check lane (`RUSTFLAGS="--cfg model_check"`): drive the *real*
//! ported types — `BoundedQueue`, `Conn`, the corpus fan-out — through the
//! `xpath_sync` facade under the deterministic scheduler.
//!
//! Unlike the replica tests in `crates/sync/tests/`, these assert
//! *invariants only* and commit no seeds: real types hash with the
//! process-random `HashMap` state, so a failing seed here is reported (and
//! replayable within the same process run) but not stable across runs.
#![cfg(model_check)]

use ppl_xpath::{Engine, Session};
use std::sync::Arc;
use xpath_corpus::protocol::{Conn, ConnEvent};
use xpath_corpus::queue::BoundedQueue;
use xpath_corpus::{Corpus, CorpusConfig};
use xpath_sync::model;

/// The real `BoundedQueue` delivers everything in FIFO order on every
/// explored schedule, including through the capacity-1 backpressure path.
#[test]
fn real_bounded_queue_is_fifo_under_model_schedules() {
    let failure = model::explore(24, || {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        model::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut seen = Vec::new();
                while let Some(v) = q.pop() {
                    seen.push(v);
                }
                seen
            });
            for i in 0..3 {
                q.push(i);
            }
            q.close();
            assert_eq!(consumer.join().unwrap(), vec![0, 1, 2]);
        });
    });
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// The real `Conn` releases pipelined responses strictly in request order
/// no matter how the scheduler orders the completing workers.
#[test]
fn real_conn_releases_responses_in_request_order() {
    let failure = model::explore(24, || {
        let conn = xpath_sync::Mutex::new(Conn::new(1024));
        let seqs: Vec<u64> = {
            let mut c = conn.lock().unwrap();
            c.feed(b"STATS\nSTATS\nSTATS\nSTATS\n")
                .into_iter()
                .filter_map(|e| match e {
                    ConnEvent::Execute { seq, .. } => Some(seq),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(seqs.len(), 4, "four pipelined requests parsed");
        let conn = &conn;
        model::thread::scope(|scope| {
            let (front, back) = (seqs.clone(), seqs.clone());
            let w1 = scope.spawn(move || {
                for &seq in front.iter().rev().take(2) {
                    conn.lock()
                        .unwrap()
                        .complete(seq, Ok(vec![format!("r{seq}")]));
                }
            });
            let w2 = scope.spawn(move || {
                for &seq in back.iter().take(2) {
                    conn.lock()
                        .unwrap()
                        .complete(seq, Ok(vec![format!("r{seq}")]));
                }
            });
            w1.join().unwrap();
            w2.join().unwrap();
        });
        let c = conn.lock().unwrap();
        let out = String::from_utf8_lossy(c.pending_output()).to_string();
        let positions: Vec<usize> = seqs
            .iter()
            .map(|seq| {
                out.find(&format!("r{seq}"))
                    .expect("every response rendered")
            })
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "responses out of request order: {out:?}"
        );
        assert_eq!(c.in_flight(), 0, "every slot drains");
    });
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// The whole real fan-out pool — `answer_all` over the session pool, plan
/// cache, bounded queue, and scoped workers — survives model schedules end
/// to end and answers correctly.
#[test]
fn real_corpus_fanout_answers_under_model_schedules() {
    let failure = model::explore(4, || {
        let corpus = Arc::new(Corpus::with_config(CorpusConfig {
            threads: 2,
            queue_capacity: 1, // force backpressure through the queue
            ..CorpusConfig::default()
        }));
        for i in 0..3 {
            corpus
                .insert_terms(&format!("d{i}"), "l0(l1(l0,l2),l1(l2))")
                .unwrap();
        }
        let answers = corpus
            .answer_all("descendant::l1[. is $x]", &["x"])
            .expect("fan-out answers on every schedule");
        assert_eq!(answers.len(), 3);
    });
    assert!(failure.is_none(), "{}", failure.unwrap());
}

/// Tier-1 eviction swaps a store out from under a request in flight.  Two
/// virtual threads query two documents through composite atoms on a corpus
/// whose budget is far below one warm store, so every request evicts the
/// other document's store while that document's query may be compiling
/// into it.  Every explored schedule must answer like a cold session, and
/// none may deadlock.
#[test]
fn budget_eviction_swaps_stores_under_in_flight_queries() {
    let query = "descendant::l1[not(descendant::* except child::l0)][. is $x]";
    let docs = [
        ("a", "l0(l1(l0,l2),l1(l2),l0(l1))"),
        ("b", "l0(l1(l2),l1(l0,l1(l0)))"),
    ];
    let cold: Vec<_> = docs
        .iter()
        .map(|(_, terms)| {
            Session::from_terms(terms)
                .unwrap()
                .answer(query, &["x"])
                .unwrap()
        })
        .collect();
    let failure = model::explore(48, || {
        let corpus = Corpus::with_config(CorpusConfig {
            memory_budget: Some(64),
            engine: Some(Engine::Ppl),
            ..CorpusConfig::default()
        });
        for (name, terms) in docs {
            corpus.insert_terms(name, terms).unwrap();
        }
        let (corpus, cold) = (&corpus, &cold);
        model::thread::scope(|scope| {
            for (i, (name, _)) in docs.iter().enumerate() {
                scope.spawn(move || {
                    for _ in 0..2 {
                        let got = corpus.answer(name, query, &["x"]).expect("answers");
                        assert_eq!(&got, &cold[i], "{name} diverged from a cold session");
                    }
                });
            }
        });
        let stats = corpus.stats();
        assert!(stats.cache_evictions > 0, "every request evicts: {stats:?}");
    });
    assert!(failure.is_none(), "{}", failure.unwrap());
}
