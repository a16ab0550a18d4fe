//! Corpus-layer integration tests: eviction-correctness fuzzing (a
//! memory-starved, eviction-thrashing `Corpus` must answer exactly like a
//! fresh cold `Session` per document) and a daemon round trip over real
//! TCP sockets.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use xpath_corpus::server::{bind, serve, ServeOptions};
use xpath_corpus::{Corpus, CorpusConfig};
use xpath_tests::differential::{run_corpus_fuzz, FuzzConfig};

#[test]
fn fuzz_eviction_thrashing_corpus_matches_cold_sessions() {
    let report = run_corpus_fuzz(
        &FuzzConfig {
            seed: 0xC0A9_F00D,
            cases: 0, // unused by the corpus fuzz
            max_tree_size: 12,
            alphabet: 3,
            max_vars: 2,
        },
        6,  // documents
        25, // queries fanned out over all of them
    );
    assert_eq!(report.docs, 6);
    assert_eq!(report.queries, 25);
    // Meta-assertions: the run must actually exercise the eviction
    // machinery, not pass vacuously on an idle pool.
    assert!(report.total_tuples > 50, "too few tuples: {report:?}");
    assert!(
        report.cache_evictions + report.session_evictions > 10,
        "the 384-byte budget must thrash: {report:?}"
    );
    assert!(
        report.rebuilds > 0,
        "evicted sessions must rebuild: {report:?}"
    );
    assert!(
        report.plan_hits > 0,
        "plans must be shared across documents: {report:?}"
    );
}

#[test]
fn fuzz_corpus_with_single_label_alphabet() {
    // One label maximises answer sizes (matrix caches grow fastest), which
    // stresses the byte accounting on every eviction decision.
    let report = run_corpus_fuzz(
        &FuzzConfig {
            seed: 0x0E_A11,
            cases: 0,
            max_tree_size: 9,
            alphabet: 1,
            max_vars: 2,
        },
        4,
        12,
    );
    assert_eq!(report.queries, 12);
    assert!(report.total_tuples > 0, "{report:?}");
}

/// End-to-end daemon round trip: LOAD two documents, QUERY one, fan out
/// with QUERYALL, force an EVICT, check STATS moved, and shut down cleanly.
#[test]
fn daemon_round_trip_over_tcp() {
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let corpus = Corpus::with_config(CorpusConfig {
        memory_budget: Some(1 << 16),
        ..CorpusConfig::default()
    });
    let server = std::thread::spawn(move || serve(listener, &corpus, &ServeOptions::default()));

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut request = |line: &str| -> Vec<String> {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let n: usize = status
            .trim()
            .strip_prefix("OK ")
            .unwrap_or_else(|| panic!("unexpected response to {line:?}: {status:?}"))
            .parse()
            .unwrap();
        (0..n)
            .map(|_| {
                let mut payload = String::new();
                reader.read_line(&mut payload).unwrap();
                payload.trim_end().to_string()
            })
            .collect()
    };

    assert_eq!(
        request("LOAD bib <bib><book><author/><title/></book><book><author/></book></bib>"),
        vec!["loaded bib nodes=6 documents=1"]
    );
    assert_eq!(
        request("LOADTERMS lib bib(book(author,title))"),
        vec!["loaded lib nodes=4 documents=2"]
    );

    let lines = request("QUERY bib descendant::book[child::author[. is $a]] -> a");
    assert_eq!(lines[0], "vars=a tuples=2");

    let lines = request("QUERYALL descendant::author[. is $a] -> a");
    assert_eq!(lines[0], "doc=bib tuples=2");
    assert_eq!(lines[3], "doc=lib tuples=1");
    assert_eq!(lines.len(), 5);

    assert_eq!(request("EVICT bib"), vec!["evicted=true"]);
    let stats = request("STATS");
    assert!(stats.contains(&"documents=2".to_string()), "{stats:?}");
    assert!(
        stats
            .iter()
            .any(|l| l.starts_with("session_evictions=") && !l.ends_with("=0")),
        "{stats:?}"
    );

    // Evicted documents answer again (session rebuilt server-side).
    let lines = request("QUERY bib descendant::author[. is $a] -> a");
    assert_eq!(lines[0], "vars=a tuples=2");

    assert_eq!(request("SHUTDOWN"), vec!["bye"]);
    server.join().unwrap().unwrap();
}
