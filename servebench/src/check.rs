//! Answer checking: the expected response of every request, computed in
//! process before the clock starts.

use crate::workload::{Kind, Workload, SCRIPT_LEN};
use std::collections::HashMap;
use xpath_corpus::protocol::{execute_command, parse_command, render_response};
use xpath_corpus::{Corpus, CorpusConfig};

/// FNV-1a over the response bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A `MUTATE` reply split into the hash of what the edit did to the document
/// (its kind and the node count after it) and its `epoch`.  The epoch counts
/// every edit since `LOAD`, and the fields after it (`rows_invalidated=`,
/// `mode=`) report which matrices the pool held when the edit came, which
/// depends on the queries before it; both are left out of the hash.
pub fn split_edit_reply(response: &[u8]) -> (u64, Option<u64>) {
    let text = String::from_utf8_lossy(response);
    let Some(start) = text.find(" epoch=") else {
        return (fnv(response), None);
    };
    let digits = &text[start + 7..];
    let end = digits.find(' ').unwrap_or(digits.len());
    (fnv(text[..start].as_bytes()), digits[..end].parse().ok())
}

/// One in-process request: parse, execute and render, as the daemon does.
fn respond(corpus: &Corpus, line: &str) -> Vec<u8> {
    let result = parse_command(line).and_then(|command| execute_command(corpus, &command));
    render_response(&result)
}

/// The corpus configuration `pplxd --threads 2 [--budget B]` serves with.
pub fn daemon_config(budget: Option<usize>) -> CorpusConfig {
    CorpusConfig {
        memory_budget: budget,
        threads: 2,
        queue_capacity: 4,
        ..CorpusConfig::default()
    }
}

/// Expected responses of one workload.
///
/// Every edit script is a sequence of pairs, and each pair leaves its
/// document as it found it.  So a document is always either unedited or
/// half-way through one pair, and the expected answer to a query depends
/// only on the line and on that state, which the checker follows by
/// counting the document's edits.
pub struct Expected {
    /// `--budget` of the daemon (`read_evicting` only).
    pub budget: Option<usize>,
    /// Pool bytes after the warm-up pass with an unbounded pool.
    pub warm_pool_bytes: usize,
    /// Hash per distinct query line on the unedited documents.
    pub by_line: HashMap<String, u64>,
    /// Hash per (pair index, query line) with the line's document half-way
    /// through that pair of its script.
    half_edited: HashMap<(usize, String), u64>,
    /// Per `MUTATE` line, the hash [`split_edit_reply`] takes.
    edits: HashMap<String, u64>,
}

fn replay(corpus: &Corpus, lines: &[String]) -> Result<Vec<Vec<u8>>, String> {
    lines
        .iter()
        .map(|line| {
            let response = respond(corpus, line);
            if response.starts_with(b"ERR") {
                let shown: String = line.chars().take(120).collect();
                return Err(format!(
                    "the workload itself fails: `{shown}` answers {}",
                    String::from_utf8_lossy(&response).trim_end()
                ));
            }
            Ok(response)
        })
        .collect()
}

impl Expected {
    pub fn compute(w: &Workload) -> Result<Expected, String> {
        let corpus = Corpus::with_config(daemon_config(None));
        replay(&corpus, &w.load_lines())?;
        let warm = replay(&corpus, &w.warmup)?;
        let warm_pool_bytes = corpus.stats().pool_bytes;
        let by_line = w
            .warmup
            .iter()
            .zip(&warm)
            .map(|(line, r)| (line.clone(), fnv(r)))
            .collect();
        // Walk every edited document through its script: after the first
        // edit of each pair, answer the document's whole query suite.
        let mut half_edited = HashMap::new();
        let mut edits = HashMap::new();
        for (doc, script) in &w.scripts {
            let suite: Vec<&String> = w
                .warmup
                .iter()
                .filter(|l| l.split(' ').nth(1) == Some(doc.as_str()))
                .collect();
            for (pair, lines) in script.chunks(2).enumerate() {
                let [first, second] = lines else {
                    return Err(format!("the edit script of {doc} has an unpaired edit"));
                };
                let reply = replay(&corpus, std::slice::from_ref(first))?;
                edits.insert(first.clone(), split_edit_reply(&reply[0]).0);
                for &line in &suite {
                    let reply = replay(&corpus, std::slice::from_ref(line))?;
                    half_edited.insert((pair, line.clone()), fnv(&reply[0]));
                }
                let reply = replay(&corpus, std::slice::from_ref(second))?;
                edits.insert(second.clone(), split_edit_reply(&reply[0]).0);
            }
        }
        Ok(Expected {
            budget: (w.kind == Kind::Evicting).then_some(warm_pool_bytes / 4),
            warm_pool_bytes,
            by_line,
            half_edited,
            edits,
        })
    }
}

/// Checks one connection's responses against [`Expected`].
pub struct Checker<'a> {
    expected: &'a Expected,
    /// Edits sent so far, per document.
    edits: HashMap<String, u64>,
}

impl<'a> Checker<'a> {
    pub fn new(expected: &'a Expected) -> Checker<'a> {
        Checker {
            expected,
            edits: HashMap::new(),
        }
    }

    /// Check the response to the next line of this connection's stream.  A
    /// `MUTATE` reply's epoch must equal the document's edit count.
    pub fn check(&mut self, line: &str, response: &[u8]) -> bool {
        let mut words = line.split(' ');
        let verb = words.next().unwrap_or_default();
        let doc = words.next().unwrap_or_default();
        let count = self.edits.get(doc).copied().unwrap_or(0);
        if verb == "MUTATE" {
            let (hash, epoch) = split_edit_reply(response);
            self.edits.insert(doc.to_string(), count + 1);
            return epoch == Some(count + 1) && self.expected.edits.get(line) == Some(&hash);
        }
        let want = if count % 2 == 0 {
            self.expected.by_line.get(line)
        } else {
            let pair = (count as usize - 1) % SCRIPT_LEN / 2;
            self.expected.half_edited.get(&(pair, line.to_string()))
        };
        want == Some(&fnv(response))
    }
}
