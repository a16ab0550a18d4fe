//! `pplx` — a small command-line front end for the PPL query engine.
//!
//! ```text
//! USAGE:
//!     pplx --query <XPATH> [--vars y,z] (--file doc.xml | --terms 'a(b,c)' | --stdin)
//!          [--engine ppl|acq|hcl|naive|auto] [--format table|csv] [--explain]
//!          [--stats] [--kernels dense|adaptive|adaptive_threaded|lazy]
//!     pplx --batch <queries.txt> (--file doc.xml | --terms 'a(b,c)' | --stdin)
//!          [--vars y,z] [--engine ...] [--threads N] [--format table|csv]
//!          [--explain] [--stats] [--kernels dense|adaptive|adaptive_threaded|lazy]
//!
//! EXAMPLES:
//!     pplx --terms 'bib(book(author,title))' \
//!          --query 'descendant::book[child::author[. is $y] and child::title[. is $z]]' \
//!          --vars y,z
//!
//!     pplx --terms 'bib(book(author,title))' \
//!          --query 'descendant::author[. is $a]' --vars a --engine auto --explain
//!
//!     pplx --terms 'bib(book(author,title))' --batch workload.txt --threads 8 --stats
//! ```
//!
//! Queries are prepared through the planner API (`Session::plan`): parse,
//! Definition 1 check, Fig. 7 translation, and — with `--engine auto` — the
//! planner's choice: `ppl` (Fig. 8 over the shared store), or `naive` spec
//! enumeration for tiny instances and queries outside PPL (refused when
//! the enumeration estimate exceeds 10⁹).  An explicit `--engine` forces
//! any of `ppl`, `acq` (Yannakakis), `hcl` (cold Fig. 8) or `naive`; the
//! default is `ppl`, which rejects queries
//! outside the PPL fragment with Definition 1 diagnostics (only `naive`
//! accepts full Core XPath 2.0, including `for` and variable sharing).
//! `--explain` prints the plan — shape features, the four-engine candidate
//! table, the decision, and the compiled pipeline.
//!
//! ## Batch mode
//!
//! `--batch <file>` answers many queries over one document with shared
//! compilation state: every line is prepared as a plan and the batch is
//! served through `Session::answer_batch_parallel` with `--threads N`
//! worker threads (default 1) hammering the same thread-safe matrix cache.
//! The file holds one query per line; blank lines and `#` comments are
//! skipped.  A line may override the output variables with a ` -> vars`
//! suffix, otherwise `--vars` applies.
//!
//! In either mode `--stats` appends the matrix-cache hit/miss counters and
//! the per-kernel dispatch counts; `--kernels` selects the compilation
//! kernels (the dense baseline exists for A/B timing against the adaptive
//! default).

use ppl_xpath::{Engine, KernelMode, Planner, QueryPlan, Session};
use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;
use xpath_ast::{parse_path, Var};
use xpath_wire::{ClientConfig, ShardClient, WireError};

/// Default `--connect` deadline: connect plus each complete response must
/// land within this window or the client exits 5 instead of hanging.
const DEFAULT_REMOTE_TIMEOUT: Duration = Duration::from_secs(10);

/// A classified CLI failure.  Each class maps to its own exit code (see
/// [`HELP`]) so scripts and the CI daemon smoke test can distinguish a
/// malformed query from a missing file.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// Bad command line (exit 2).
    Usage(String),
    /// Document or query failed to parse / compile (exit 3).
    Parse(String),
    /// A well-formed query failed during execution (exit 4).
    Query(String),
    /// Filesystem or network I/O failed (exit 5).
    Io(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 3,
            CliError::Query(_) => 4,
            CliError::Io(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Parse(m) | CliError::Query(m) | CliError::Io(m) => m,
        }
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Options {
    mode: Mode,
    vars: Vec<String>,
    source: Option<Source>,
    /// `None` means `--engine auto`: let the planner decide per query.
    engine: Option<Engine>,
    format: Format,
    explain: bool,
    stats: bool,
    kernels: KernelMode,
    threads: usize,
    /// `--connect` deadline for connect and each complete response
    /// (`None`: `--timeout 0`, block indefinitely).
    timeout: Option<Duration>,
    /// Non-fatal diagnostics emitted to stderr before running (e.g. the
    /// `--threads 0` clamp).
    warnings: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    /// A single `--query`.
    Single(String),
    /// A `--batch` file of queries answered with shared compilation state.
    Batch(String),
    /// `--connect host:port`: act as a client of a running `pplxd` daemon.
    Remote(RemoteActions),
}

/// What to ask a `pplxd` daemon for, in protocol order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct RemoteActions {
    addr: String,
    /// `--load NAME`: send the `--file`/`--stdin` document as `LOAD NAME …`.
    load: Option<String>,
    /// `--insert/--delete/--relabel` against `--doc NAME`, in CLI order:
    /// complete `MUTATE NAME …` request lines.
    mutate: Vec<String>,
    /// `--query EXPR` with `--doc NAME` → `QUERY`; without → `QUERYALL`.
    query: Option<(Option<String>, String)>,
    /// `--stats` → `STATS`.
    stats: bool,
    /// `--evict NAME` → `EVICT NAME`.
    evict: Option<String>,
    /// `--shutdown` → `SHUTDOWN` (stops the daemon).
    shutdown: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Source {
    File(String),
    Terms(String),
    Stdin,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Csv,
}

const USAGE: &str = "usage: pplx (--query <XPATH> | --batch <file>) [--vars a,b,...] \
(--file <path> | --terms <term-tree> | --stdin) \
[--engine ppl|acq|hcl|naive|auto] [--threads N] [--format table|csv] \
[--explain] [--stats] [--kernels dense|adaptive|adaptive_threaded|lazy]\n\
       pplx --connect <host:port> [--load <name>] [--doc <name>] [--query <XPATH>] \
[--vars a,b,...] [--insert '<parent> <index> <terms>'] [--delete <node>] \
[--relabel '<node> <label>'] [--stats] [--evict <name>] [--shutdown] [--timeout SECS]\n\
       pplx --help";

/// Full `--help` text (printed to stdout, exit 0).
const HELP: &str = "pplx — the PPL XPath query engine CLI\n\
\n\
Local modes answer queries in-process; --connect drives a running pplxd\n\
corpus daemon over its line protocol (LOAD/QUERY/QUERYALL/STATS/EVICT).\n\
With --connect, --query targets the --doc document, or every loaded\n\
document when --doc is omitted; --load NAME sends the --file/--stdin XML.\n\
--insert/--delete/--relabel edit the --doc document in place over the\n\
daemon's MUTATE verb (edits run before --query, in CLI order): --insert\n\
takes '<parent> <index> <terms>', --delete a node id, --relabel\n\
'<node> <label>'.  Node ids are preorder numbers as printed in answers.\n\
--timeout SECS (default 10, fractions allowed, 0 disables) bounds the\n\
connect and each complete response; a hung daemon exits 5 instead of\n\
blocking forever.  A refused connect is retried a few times with growing\n\
backoff to ride out daemon-startup races.\n\
\n\
EXIT CODES:\n\
    0  success\n\
    2  usage error (bad flags or flag combinations)\n\
    3  parse error (document or query failed to parse / compile)\n\
    4  query error (a well-formed query failed during execution,\n\
       including ERR responses from a pplxd daemon)\n\
    5  I/O error (file, stdin, or network)\n";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut query = None;
    let mut batch = None;
    let mut vars = Vec::new();
    let mut source = None;
    let mut engine = Some(Engine::Ppl);
    let mut format = Format::Table;
    let mut explain = false;
    let mut stats = false;
    let mut kernels = KernelMode::default();
    let mut threads = 1usize;
    let mut warnings = Vec::new();
    let mut connect = None;
    let mut load = None;
    let mut doc = None;
    let mut evict = None;
    let mut mutates: Vec<String> = Vec::new();
    let mut shutdown = false;
    let mut timeout = Some(DEFAULT_REMOTE_TIMEOUT);
    let mut timeout_flag = false;
    // Local-only flags actually given (vs. defaulted), so remote mode can
    // reject them instead of silently ignoring an override.
    let mut engine_flag = false;
    let mut kernels_flag = false;
    let mut format_flag = false;
    let mut threads_flag = false;

    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--query" | "-q" => query = Some(value(&mut i, "--query")?),
            "--batch" | "-b" => batch = Some(value(&mut i, "--batch")?),
            "--stats" => stats = true,
            "--connect" => connect = Some(value(&mut i, "--connect")?),
            "--load" => load = Some(value(&mut i, "--load")?),
            "--doc" => doc = Some(value(&mut i, "--doc")?),
            "--evict" => evict = Some(value(&mut i, "--evict")?),
            "--insert" => mutates.push(format!("INSERT {}", value(&mut i, "--insert")?.trim())),
            "--delete" => mutates.push(format!("DELETE {}", value(&mut i, "--delete")?.trim())),
            "--relabel" => mutates.push(format!("RELABEL {}", value(&mut i, "--relabel")?.trim())),
            "--shutdown" => shutdown = true,
            "--timeout" => {
                timeout_flag = true;
                let secs = value(&mut i, "--timeout")?;
                let secs: f64 = secs
                    .parse()
                    .map_err(|_| format!("--timeout expects seconds, got '{secs}'"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("--timeout expects a non-negative number, got '{secs}'"));
                }
                timeout = if secs == 0.0 {
                    None
                } else {
                    Some(Duration::from_secs_f64(secs))
                };
            }
            "--kernels" => {
                kernels_flag = true;
                let name = value(&mut i, "--kernels")?;
                kernels = KernelMode::parse(&name).ok_or_else(|| {
                    format!("unknown kernel mode '{name}' (expected dense|adaptive|adaptive_threaded|lazy)")
                })?;
            }
            "--threads" => {
                threads_flag = true;
                let n = value(&mut i, "--threads")?;
                threads = n
                    .parse::<usize>()
                    .map_err(|_| format!("--threads expects an integer, got '{n}'"))?;
                if threads == 0 {
                    warnings.push(
                        "--threads 0 makes no sense for serving; clamped to 1".to_string(),
                    );
                    threads = 1;
                }
            }
            "--vars" | "-v" => {
                vars = value(&mut i, "--vars")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().trim_start_matches('$').to_string())
                    .collect()
            }
            "--file" | "-f" => source = Some(Source::File(value(&mut i, "--file")?)),
            "--terms" | "-t" => source = Some(Source::Terms(value(&mut i, "--terms")?)),
            "--stdin" => source = Some(Source::Stdin),
            "--engine" => {
                engine_flag = true;
                let name = value(&mut i, "--engine")?;
                engine = match name.as_str() {
                    "auto" => None,
                    other => Some(Engine::parse(other).ok_or_else(|| {
                        format!("unknown engine '{other}' (expected ppl|acq|hcl|naive|auto)")
                    })?),
                }
            }
            "--format" => {
                format_flag = true;
                format = match value(&mut i, "--format")?.as_str() {
                    "table" => Format::Table,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format '{other}' (expected table|csv)")),
                }
            }
            "--explain" => explain = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 1;
    }

    let mode = if let Some(addr) = connect {
        if batch.is_some() {
            return Err("--batch is a local mode; a pplxd daemon serves prepared corpora".into());
        }
        for (flag, present) in [
            ("--engine", engine_flag),
            ("--kernels", kernels_flag),
            ("--format", format_flag),
            ("--threads", threads_flag),
            ("--explain", explain),
            // (--terms with --load falls through to the clearer
            // "--load needs --file or --stdin" rejection below.)
            ("--terms", load.is_none() && matches!(source, Some(Source::Terms(_)))),
        ] {
            if present {
                return Err(format!(
                    "{flag} is local-only; the daemon's configuration applies with --connect"
                ));
            }
        }
        if load.is_none() && source.is_some() {
            return Err("--file/--stdin only feed --load when using --connect".into());
        }
        if load.is_some() && !matches!(source, Some(Source::File(_)) | Some(Source::Stdin)) {
            return Err("--load needs the XML from --file or --stdin".into());
        }
        let mutate = if mutates.is_empty() {
            Vec::new()
        } else {
            let target = doc
                .clone()
                .ok_or("--insert/--delete/--relabel need --doc <name> to edit")?;
            mutates
                .iter()
                .map(|edit| format!("MUTATE {target} {edit}"))
                .collect()
        };
        let doc_edits = !mutates.is_empty();
        let remote = RemoteActions {
            addr,
            load,
            mutate,
            query: query.map(|q| (doc.take(), q)),
            stats,
            evict,
            shutdown,
        };
        if doc.is_some() && !doc_edits {
            return Err("--doc only applies together with --query or an edit flag".into());
        }
        if remote.load.is_none()
            && remote.mutate.is_empty()
            && remote.query.is_none()
            && !remote.stats
            && remote.evict.is_none()
            && !remote.shutdown
        {
            return Err(format!(
                "--connect needs at least one of --load/--insert/--delete/--relabel/--query/--stats/--evict/--shutdown\n{USAGE}"
            ));
        }
        Mode::Remote(remote)
    } else {
        for (flag, present) in [
            ("--load", load.is_some()),
            ("--doc", doc.is_some()),
            ("--evict", evict.is_some()),
            ("--insert/--delete/--relabel", !mutates.is_empty()),
            ("--shutdown", shutdown),
            ("--timeout", timeout_flag),
        ] {
            if present {
                return Err(format!("{flag} only applies with --connect\n{USAGE}"));
            }
        }
        match (query, batch) {
            (Some(_), Some(_)) => {
                return Err(format!("--query and --batch are mutually exclusive\n{USAGE}"))
            }
            (Some(q), None) => {
                if threads != 1 {
                    return Err("--threads only applies to --batch serving".into());
                }
                Mode::Single(q)
            }
            (None, Some(b)) => Mode::Batch(b),
            (None, None) => return Err(format!("--query or --batch is required\n{USAGE}")),
        }
    };
    if matches!(mode, Mode::Single(_) | Mode::Batch(_)) && source.is_none() {
        return Err(format!("one of --file/--terms/--stdin is required\n{USAGE}"));
    }
    Ok(Options {
        mode,
        vars,
        source,
        engine,
        format,
        explain,
        stats,
        kernels,
        threads,
        timeout,
        warnings,
    })
}

/// Read the raw document text of a `--file`/`--stdin` source (I/O errors
/// only; parsing happens later).
fn read_source_text(source: &Source) -> Result<String, CliError> {
    match source {
        Source::Terms(terms) => Ok(terms.clone()),
        Source::File(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}"))),
        Source::Stdin => {
            let mut content = String::new();
            std::io::stdin()
                .read_to_string(&mut content)
                .map_err(|e| CliError::Io(format!("cannot read stdin: {e}")))?;
            Ok(content)
        }
    }
}

fn load_document(source: &Source) -> Result<Session, CliError> {
    let content = read_source_text(source)?;
    match source {
        Source::Terms(_) => Session::from_terms(&content),
        Source::File(_) | Source::Stdin => Session::from_xml(&content),
    }
    .map_err(|e| CliError::Parse(e.to_string()))
}

/// Parse one batch line: `<query>` with an optional ` -> v1,v2` variable
/// suffix overriding the default variables.
fn parse_batch_line(line: &str, default_vars: &[String]) -> (String, Vec<String>) {
    match line.rsplit_once("->") {
        Some((query, vars)) => (
            query.trim().to_string(),
            vars.split(',')
                .map(|s| s.trim().trim_start_matches('$').to_string())
                .filter(|s| !s.is_empty())
                .collect(),
        ),
        None => (line.trim().to_string(), default_vars.to_vec()),
    }
}

/// Prepare one query as a plan: parse, compile, and either force the chosen
/// engine or let the planner decide (`--engine auto`).
fn plan_query(
    session: &Session,
    query: &str,
    vars: &[String],
    engine: Option<Engine>,
) -> Result<QueryPlan, CliError> {
    let path = parse_path(query).map_err(|e| CliError::Parse(e.to_string()))?;
    let output: Vec<Var> = vars.iter().map(|n| Var::new(n)).collect();
    Planner::default()
        .plan_with(session, path, output, engine)
        .map_err(|e| CliError::Parse(e.to_string()))
}

fn render_answers(
    out: &mut String,
    session: &Session,
    answers: &ppl_xpath::AnswerSet,
    vars: &[String],
    format: Format,
) {
    // 0-ary (satisfiability) answers get an explicit boolean rendering —
    // "N answer tuple(s) over ()" plus a bare "()" line reads like noise,
    // especially interleaved with --explain output.
    if vars.is_empty() {
        match format {
            Format::Table => out.push_str(&format!("satisfiable: {}\n", !answers.is_empty())),
            Format::Csv => {
                out.push_str("satisfiable\n");
                out.push_str(if answers.is_empty() { "false\n" } else { "true\n" });
            }
        }
        return;
    }
    match format {
        Format::Table => {
            out.push_str(&format!(
                "{} answer tuple(s) over ({})\n",
                answers.len(),
                vars.join(", ")
            ));
            out.push_str(&answers.render(session));
        }
        Format::Csv => {
            out.push_str(&vars.join(","));
            out.push('\n');
            for tuple in answers.tuples() {
                let row: Vec<String> = tuple.iter().map(|n| session.describe(*n)).collect();
                out.push_str(&row.join(","));
                out.push('\n');
            }
        }
    }
}

/// The `--stats` footer: matrix-cache counters and kernel dispatch counts.
fn render_stats(out: &mut String, session: &Session, queries: usize, threads: usize) {
    let stats = session.cache_stats();
    out.push_str(&format!(
        "# cache: {} hits, {} misses, {} matrices for {queries} queries on {threads} thread(s)\n",
        stats.hits, stats.misses, stats.compiled,
    ));
    out.push_str(&format!("# kernels: {}\n", stats.kernels));
}

fn run_single(options: &Options, session: &Session, query: &str) -> Result<String, CliError> {
    let plan = plan_query(session, query, &options.vars, options.engine)?;
    let mut out = String::new();
    if options.explain {
        out.push_str(&plan.explain());
        out.push('\n');
    }
    let answers = session
        .execute(&plan)
        .map_err(|e| CliError::Query(e.to_string()))?;
    render_answers(&mut out, session, &answers, &options.vars, options.format);
    if options.stats {
        render_stats(&mut out, session, 1, 1);
    }
    Ok(out)
}

fn run_batch(options: &Options, session: &Session, path: &str) -> Result<String, CliError> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    let mut plans: Vec<QueryPlan> = Vec::new();
    let mut specs: Vec<(String, Vec<String>)> = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (query, vars) = parse_batch_line(line, &options.vars);
        let plan = plan_query(session, &query, &vars, options.engine)
            .map_err(|e| CliError::Parse(format!("{path}:{}: {}", lineno + 1, e.message())))?;
        plans.push(plan);
        specs.push((query, vars));
    }
    if plans.is_empty() {
        return Err(CliError::Usage(format!(
            "{path}: no queries (blank lines and # comments are skipped)"
        )));
    }

    let answers = session
        .answer_batch_parallel(&plans, options.threads)
        .map_err(|e| CliError::Query(e.to_string()))?;
    let mut out = String::new();
    for (i, ((query, vars), answer)) in specs.iter().zip(&answers).enumerate() {
        out.push_str(&format!("# [{}] {query}\n", i + 1));
        if options.explain {
            out.push_str(&format!(
                "# plan: {} engine ({})\n",
                plans[i].engine().name(),
                if plans[i].is_forced() { "forced" } else { "auto" },
            ));
        }
        render_answers(&mut out, session, answer, vars, options.format);
    }
    if options.stats {
        render_stats(&mut out, session, plans.len(), options.threads);
    }
    Ok(out)
}

/// Drive a running `pplxd` daemon (or router) over its line protocol.
/// Each action sends one request; `OK` payload lines are echoed to the
/// output, an `ERR` response becomes a query error (exit 4).
///
/// The connection rides on [`ShardClient`]: `--timeout` bounds the connect
/// and each complete response, a refused connect is retried with growing
/// backoff (daemon-startup race), and any wire failure — timeout, refused,
/// garbage — maps to an I/O error (exit 5) naming the deadline so a hung
/// daemon produces a diagnosis instead of a hung client.
fn run_remote(options: &Options, remote: &RemoteActions) -> Result<String, CliError> {
    let mut client = ShardClient::new(
        remote.addr.clone(),
        ClientConfig {
            connect_timeout: options.timeout,
            read_timeout: options.timeout,
            ..ClientConfig::default()
        },
    );
    let mut out = String::new();

    let mut request = |line: String, out: &mut String| -> Result<(), CliError> {
        match client.request(&line) {
            Ok(Ok(payload)) => {
                for line in payload {
                    out.push_str(&line);
                    out.push('\n');
                }
                Ok(())
            }
            Ok(Err(message)) => Err(CliError::Query(format!("daemon: {message}"))),
            Err(WireError::Timeout) => Err(CliError::Io(format!(
                "no response from {} within {:.1}s (--timeout); the daemon may be hung",
                remote.addr,
                options.timeout.unwrap_or_default().as_secs_f64(),
            ))),
            Err(WireError::Protocol(detail)) => Err(CliError::Io(format!(
                "malformed daemon response from {}: {detail}",
                remote.addr
            ))),
            Err(e) => Err(CliError::Io(format!("cannot reach {}: {e}", remote.addr))),
        }
    };

    if let Some(name) = &remote.load {
        let source = options
            .source
            .as_ref()
            .expect("parse_args requires a source for --load");
        // The protocol is line-based: collapse the XML onto one line.
        // Newlines only separate markup in the paper's data model (element
        // structure is what the tree keeps), so this is lossless here.
        let xml = read_source_text(source)?.replace(['\n', '\r'], " ");
        request(format!("LOAD {name} {}", xml.trim()), &mut out)?;
    }
    for line in &remote.mutate {
        request(line.clone(), &mut out)?;
    }
    if let Some((doc, query)) = &remote.query {
        let suffix = if options.vars.is_empty() {
            String::new()
        } else {
            format!(" -> {}", options.vars.join(","))
        };
        let line = match doc {
            Some(doc) => format!("QUERY {doc} {query}{suffix}"),
            None => format!("QUERYALL {query}{suffix}"),
        };
        request(line, &mut out)?;
    }
    if remote.stats {
        request("STATS".to_string(), &mut out)?;
    }
    if let Some(name) = &remote.evict {
        request(format!("EVICT {name}"), &mut out)?;
    }
    if remote.shutdown {
        request("SHUTDOWN".to_string(), &mut out)?;
    } else if client.is_connected() {
        // Best-effort courtesy QUIT; the daemon also handles disconnects.
        let _ = client.request("QUIT");
    }
    Ok(out)
}

fn run(options: &Options) -> Result<String, CliError> {
    if let Mode::Remote(remote) = &options.mode {
        return run_remote(options, remote);
    }
    let source = options
        .source
        .as_ref()
        .expect("parse_args requires a source for local modes");
    let session = load_document(source)?;
    session.set_kernel_mode(options.kernels);
    match &options.mode {
        Mode::Single(query) => run_single(options, &session, query),
        Mode::Batch(path) => run_batch(options, &session, path),
        Mode::Remote(_) => unreachable!("handled above"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}\n{USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    for warning in &options.warnings {
        eprintln!("warning: {warning}");
    }
    match run(&options) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {}", error.message());
            ExitCode::from(error.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_full_argument_set() {
        let opts = parse_args(&args(&[
            "--query",
            "descendant::a[. is $x]",
            "--vars",
            "$x, y",
            "--terms",
            "r(a,b)",
            "--engine",
            "naive",
            "--format",
            "csv",
            "--explain",
        ]))
        .unwrap();
        assert_eq!(opts.mode, Mode::Single("descendant::a[. is $x]".into()));
        assert_eq!(opts.vars, vec!["x", "y"]);
        assert_eq!(opts.source, Some(Source::Terms("r(a,b)".into())));
        assert_eq!(opts.engine, Some(Engine::NaiveEnumeration));
        assert_eq!(opts.format, Format::Csv);
        assert!(opts.explain);
        assert!(!opts.stats);
        assert_eq!(opts.threads, 1);
    }

    #[test]
    fn parse_engine_flag_accepts_all_five_choices() {
        let engine_of = |name: &str| {
            parse_args(&args(&["--query", "child::a", "--terms", "r(a)", "--engine", name]))
                .unwrap()
                .engine
        };
        assert_eq!(engine_of("ppl"), Some(Engine::Ppl));
        assert_eq!(engine_of("acq"), Some(Engine::Acq));
        assert_eq!(engine_of("hcl"), Some(Engine::Hcl));
        assert_eq!(engine_of("naive"), Some(Engine::NaiveEnumeration));
        assert_eq!(engine_of("auto"), None);
        let default = parse_args(&args(&["--query", "child::a", "--terms", "r(a)"])).unwrap();
        assert_eq!(default.engine, Some(Engine::Ppl));
        assert!(parse_args(&args(&[
            "--query", "child::a", "--terms", "r(a)", "--engine", "zzz",
        ]))
        .unwrap_err()
        .contains("unknown engine"));
    }

    #[test]
    fn parse_kernel_mode_flag() {
        let opts = parse_args(&args(&[
            "--query", "child::a", "--terms", "r(a)", "--kernels", "dense",
        ]))
        .unwrap();
        assert_eq!(opts.kernels, KernelMode::Dense);
        let lazy = parse_args(&args(&[
            "--query", "child::a", "--terms", "r(a)", "--kernels", "lazy",
        ]))
        .unwrap();
        assert_eq!(lazy.kernels, KernelMode::Lazy);
        let default = parse_args(&args(&["--query", "child::a", "--terms", "r(a)"])).unwrap();
        assert_eq!(default.kernels, KernelMode::AdaptiveThreaded);
        assert!(parse_args(&args(&[
            "--query", "child::a", "--terms", "r(a)", "--kernels", "zippy",
        ]))
        .unwrap_err()
        .contains("unknown kernel mode"));
    }

    #[test]
    fn parse_batch_and_threads_arguments() {
        let opts = parse_args(&args(&[
            "--batch", "queries.txt", "--terms", "r(a)", "--stats", "--threads", "8",
        ]))
        .unwrap();
        assert_eq!(opts.mode, Mode::Batch("queries.txt".into()));
        assert!(opts.stats);
        assert_eq!(opts.threads, 8);
        assert!(opts.warnings.is_empty());
        assert!(parse_args(&args(&[
            "--batch", "q.txt", "--query", "child::a", "--terms", "r",
        ]))
        .unwrap_err()
        .contains("mutually exclusive"));
        // --threads 0 is clamped to 1 with a warning instead of erroring.
        let clamped = parse_args(&args(&[
            "--batch", "q.txt", "--terms", "r", "--threads", "0",
        ]))
        .unwrap();
        assert_eq!(clamped.threads, 1);
        assert_eq!(clamped.warnings.len(), 1);
        assert!(clamped.warnings[0].contains("clamped to 1"), "{:?}", clamped.warnings);
        assert!(parse_args(&args(&[
            "--batch", "q.txt", "--terms", "r", "--threads", "zero",
        ]))
        .unwrap_err()
        .contains("integer"));
        // --threads is a batch-serving knob; silently ignoring it on a
        // single query would fake multi-threaded measurements.
        assert!(parse_args(&args(&[
            "--query", "child::a", "--terms", "r(a)", "--threads", "8",
        ]))
        .unwrap_err()
        .contains("--batch"));
    }

    #[test]
    fn parse_connect_mode_arguments() {
        let opts = parse_args(&args(&[
            "--connect", "127.0.0.1:7878", "--query", "descendant::a[. is $x]",
            "--vars", "x", "--doc", "bib",
        ]))
        .unwrap();
        match &opts.mode {
            Mode::Remote(remote) => {
                assert_eq!(remote.addr, "127.0.0.1:7878");
                assert_eq!(
                    remote.query,
                    Some((Some("bib".to_string()), "descendant::a[. is $x]".to_string()))
                );
                assert!(!remote.stats && !remote.shutdown);
                assert!(remote.load.is_none() && remote.evict.is_none());
            }
            other => panic!("expected remote mode, got {other:?}"),
        }
        // No --doc → QUERYALL; --stats / --evict / --shutdown compose.
        let opts = parse_args(&args(&[
            "--connect", "h:1", "--query", "child::a", "--stats", "--evict", "bib",
            "--shutdown",
        ]))
        .unwrap();
        match &opts.mode {
            Mode::Remote(remote) => {
                assert_eq!(remote.query, Some((None, "child::a".to_string())));
                assert!(remote.stats && remote.shutdown);
                assert_eq!(remote.evict.as_deref(), Some("bib"));
            }
            other => panic!("expected remote mode, got {other:?}"),
        }
        // --load needs XML from --file or --stdin, not --terms.
        let opts =
            parse_args(&args(&["--connect", "h:1", "--load", "bib", "--file", "d.xml"])).unwrap();
        assert!(matches!(opts.mode, Mode::Remote(_)));
        assert!(parse_args(&args(&["--connect", "h:1", "--load", "bib", "--terms", "r(a)"]))
            .unwrap_err()
            .contains("--file or --stdin"));
        // Remote flags are rejected without --connect; an action is required.
        assert!(parse_args(&args(&["--load", "bib", "--file", "d.xml"]))
            .unwrap_err()
            .contains("--connect"));
        assert!(parse_args(&args(&["--shutdown", "--terms", "r", "--query", "child::a"]))
            .unwrap_err()
            .contains("--connect"));
        assert!(parse_args(&args(&["--connect", "h:1"]))
            .unwrap_err()
            .contains("at least one"));
        assert!(parse_args(&args(&["--connect", "h:1", "--batch", "q.txt"]))
            .unwrap_err()
            .contains("local mode"));
        assert!(parse_args(&args(&["--connect", "h:1", "--doc", "bib", "--stats"]))
            .unwrap_err()
            .contains("--query"));
        // Edit flags compose with --doc, keep CLI order, and build MUTATE
        // request lines; without --doc they are rejected.
        let opts = parse_args(&args(&[
            "--connect", "h:1", "--doc", "bib",
            "--insert", "0 2 book(author,title)",
            "--relabel", "3 subtitle",
            "--delete", "4",
        ]))
        .unwrap();
        match &opts.mode {
            Mode::Remote(remote) => assert_eq!(
                remote.mutate,
                vec![
                    "MUTATE bib INSERT 0 2 book(author,title)".to_string(),
                    "MUTATE bib RELABEL 3 subtitle".to_string(),
                    "MUTATE bib DELETE 4".to_string(),
                ]
            ),
            other => panic!("expected remote mode, got {other:?}"),
        }
        assert!(parse_args(&args(&["--connect", "h:1", "--delete", "4"]))
            .unwrap_err()
            .contains("--doc"));
        // Edit flags are remote-only.
        assert!(parse_args(&args(&[
            "--query", "child::a", "--terms", "r(a)", "--delete", "1",
        ]))
        .unwrap_err()
        .contains("--connect"));
        // Local-only flags are rejected, not silently ignored, with
        // --connect; so is a source that feeds nothing.
        for argv in [
            vec!["--connect", "h:1", "--stats", "--engine", "hcl"],
            vec!["--connect", "h:1", "--stats", "--kernels", "dense"],
            vec!["--connect", "h:1", "--stats", "--format", "csv"],
            vec!["--connect", "h:1", "--stats", "--threads", "4"],
            vec!["--connect", "h:1", "--stats", "--explain"],
            vec!["--connect", "h:1", "--stats", "--terms", "r(a)"],
        ] {
            let err = parse_args(&args(&argv)).unwrap_err();
            assert!(err.contains("local-only"), "{argv:?}: {err}");
        }
        assert!(parse_args(&args(&["--connect", "h:1", "--stats", "--file", "d.xml"]))
            .unwrap_err()
            .contains("--load"));
    }

    #[test]
    fn parse_timeout_flag() {
        // Default: 10s deadline on remote actions.
        let opts = parse_args(&args(&["--connect", "h:1", "--stats"])).unwrap();
        assert_eq!(opts.timeout, Some(DEFAULT_REMOTE_TIMEOUT));
        // Fractions are allowed (tests and impatient scripts); 0 disables.
        let opts =
            parse_args(&args(&["--connect", "h:1", "--stats", "--timeout", "0.25"])).unwrap();
        assert_eq!(opts.timeout, Some(Duration::from_millis(250)));
        let opts = parse_args(&args(&["--connect", "h:1", "--stats", "--timeout", "0"])).unwrap();
        assert_eq!(opts.timeout, None);
        // Garbage and negatives are usage errors.
        assert!(parse_args(&args(&["--connect", "h:1", "--stats", "--timeout", "soon"]))
            .unwrap_err()
            .contains("seconds"));
        assert!(parse_args(&args(&["--connect", "h:1", "--stats", "--timeout", "-1"]))
            .unwrap_err()
            .contains("non-negative"));
        // --timeout is a remote knob: local modes reject it.
        assert!(parse_args(&args(&["--query", "child::a", "--terms", "r(a)", "--timeout", "2"]))
            .unwrap_err()
            .contains("--connect"));
    }

    /// A daemon that accepts but never answers must cost `--timeout`, not
    /// forever, and the failure must classify as I/O (exit 5).
    #[test]
    fn remote_timeout_against_a_hung_daemon_is_an_io_error() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = done_rx.recv(); // hold the connection open, silent
            drop(stream);
        });
        let opts = parse_args(&args(&[
            "--connect", &addr, "--stats", "--timeout", "0.3",
        ]))
        .unwrap();
        let start = std::time::Instant::now();
        let err = run(&opts).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
        assert!(err.message().contains("--timeout"), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a hung daemon must not hang the client"
        );
        drop(done_tx);
        server.join().unwrap();
    }

    /// A connect refused outright (after the bounded startup-race retries)
    /// classifies as I/O, quickly.
    #[test]
    fn remote_refused_connect_is_an_io_error() {
        // Bind-then-drop reserves a port that refuses connections.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let opts = parse_args(&args(&[
            "--connect", &addr, "--stats", "--timeout", "0.5",
        ]))
        .unwrap();
        let start = std::time::Instant::now();
        let err = run(&opts).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
        assert!(err.message().contains("cannot reach"), "{err:?}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn cli_errors_map_to_distinct_exit_codes() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Parse("x".into()).exit_code(), 3);
        assert_eq!(CliError::Query("x".into()).exit_code(), 4);
        assert_eq!(CliError::Io("x".into()).exit_code(), 5);
        assert_eq!(CliError::Io("boom".into()).message(), "boom");
        // The exit codes are part of the CLI contract: documented in --help.
        for code in ["2  usage", "3  parse", "4  query", "5  I/O"] {
            assert!(HELP.contains(code), "HELP must document exit code {code}");
        }
    }

    #[test]
    fn error_classification_per_failure_kind() {
        // Missing file → I/O.
        let opts = parse_args(&args(&[
            "--query", "child::a", "--file", "/nonexistent/q.xml",
        ]))
        .unwrap();
        assert!(matches!(run(&opts).unwrap_err(), CliError::Io(_)));
        // Broken XML → parse.
        let tmp = std::env::temp_dir().join("pplx_exit_code_broken.xml");
        std::fs::write(&tmp, "<a><b></a>").unwrap();
        let opts = parse_args(&args(&[
            "--query", "child::a", "--file", tmp.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(matches!(run(&opts).unwrap_err(), CliError::Parse(_)));
        std::fs::remove_file(&tmp).ok();
        // Broken query → parse.
        let opts = parse_args(&args(&["--query", "child::(", "--terms", "r(a)"])).unwrap();
        assert!(matches!(run(&opts).unwrap_err(), CliError::Parse(_)));
        // Well-formed query failing at execution (acq disjunct budget) → query.
        let mut union = String::from("descendant::a[. is $x]");
        for _ in 0..9 {
            union = format!("({union}) union ({union})");
        }
        let opts_vec = args(&[
            "--query", &union, "--vars", "x", "--terms", "r(a,a)", "--engine", "acq",
        ]);
        let opts = parse_args(&opts_vec).unwrap();
        assert!(matches!(run(&opts).unwrap_err(), CliError::Query(_)));
        // Unreachable daemon → I/O.
        let opts = parse_args(&args(&["--connect", "127.0.0.1:1", "--stats"])).unwrap();
        assert!(matches!(run(&opts).unwrap_err(), CliError::Io(_)));
    }

    #[test]
    fn batch_lines_support_variable_suffixes() {
        let defaults = vec!["d".to_string()];
        assert_eq!(
            parse_batch_line("descendant::a[. is $x] -> $x", &defaults),
            ("descendant::a[. is $x]".to_string(), vec!["x".to_string()])
        );
        assert_eq!(
            parse_batch_line("child::a -> x, y", &defaults),
            ("child::a".to_string(), vec!["x".to_string(), "y".to_string()])
        );
        assert_eq!(
            parse_batch_line("child::a", &defaults),
            ("child::a".to_string(), defaults.clone())
        );
    }

    #[test]
    fn missing_required_arguments_are_reported() {
        assert!(parse_args(&args(&["--terms", "a"])).unwrap_err().contains("--query"));
        assert!(parse_args(&args(&["--query", "child::a"]))
            .unwrap_err()
            .contains("--file/--terms/--stdin"));
        assert!(parse_args(&args(&["--bogus"])).unwrap_err().contains("unknown argument"));
        assert!(parse_args(&args(&["--engine"])).unwrap_err().contains("missing value"));
    }

    #[test]
    fn run_ppl_engine_on_terms_source() {
        let opts = parse_args(&args(&[
            "--query",
            "descendant::book[child::author[. is $y] and child::title[. is $z]]",
            "--vars",
            "y,z",
            "--terms",
            "bib(book(author,title),book(author,author,title))",
        ]))
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.starts_with("3 answer tuple(s)"));
        assert!(out.contains("$y=author#"));
    }

    #[test]
    fn run_every_engine_and_auto_on_the_same_query() {
        let base = [
            "--query",
            "descendant::book[child::author[. is $a]]",
            "--vars",
            "a",
            "--terms",
            "bib(book(author,title),book(author,author,title))",
        ];
        let mut outputs = Vec::new();
        for engine in ["ppl", "acq", "hcl", "naive", "auto"] {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--engine", engine]);
            outputs.push(run(&parse_args(&args(&argv)).unwrap()).unwrap());
        }
        for other in &outputs[1..] {
            assert_eq!(other, &outputs[0], "engines disagree on the CLI");
        }
    }

    #[test]
    fn run_csv_output_and_naive_engine() {
        let opts = parse_args(&args(&[
            "--query",
            "for $b in child::book return child::book[. is $b]/child::title[. is $t]",
            "--vars",
            "t",
            "--terms",
            "bib(book(title),book(title))",
            "--engine",
            "naive",
            "--format",
            "csv",
        ]))
        .unwrap();
        let out = run(&opts).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "t");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("title#"));
    }

    #[test]
    fn run_reports_fragment_violations() {
        let opts = parse_args(&args(&[
            "--query",
            "child::a[. is $x]/child::b[. is $x]",
            "--vars",
            "x",
            "--terms",
            "r(a(b))",
        ]))
        .unwrap();
        let err = run(&opts).unwrap_err();
        assert!(err.message().contains("NVS(/)"), "{err:?}");
        assert!(matches!(err, CliError::Parse(_)), "fragment violations are parse errors");
    }

    #[test]
    fn run_connect_round_trip_against_an_in_process_daemon() {
        use xpath_corpus::server::{bind, serve, ServeOptions};
        use xpath_corpus::Corpus;
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let server = std::thread::spawn(move || {
            serve(listener, &Corpus::new(), &ServeOptions::default())
        });
        let addr = addr.to_string();

        let tmp = std::env::temp_dir().join("pplx_connect_test_doc.xml");
        std::fs::write(&tmp, "<bib>\n  <book><author/><title/></book>\n</bib>\n").unwrap();
        let out = run(&parse_args(&args(&[
            "--connect", &addr, "--load", "bib", "--file", tmp.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        std::fs::remove_file(&tmp).ok();
        assert!(out.contains("loaded bib nodes=4"), "{out}");

        let out = run(&parse_args(&args(&[
            "--connect", &addr, "--doc", "bib",
            "--query", "descendant::author[. is $a]", "--vars", "a",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("vars=a tuples=1"), "{out}");
        assert!(out.contains("author#2"), "{out}");

        // No --doc → QUERYALL across the corpus; --stats appends counters.
        let out = run(&parse_args(&args(&[
            "--connect", &addr, "--query", "descendant::title[. is $t]", "--vars", "t",
            "--stats",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("doc=bib tuples=1"), "{out}");
        assert!(out.contains("documents=1"), "{out}");

        // Live edits: insert a second author, query through the same
        // invocation — the edit lands before the query.
        let out = run(&parse_args(&args(&[
            "--connect", &addr, "--doc", "bib",
            "--insert", "1 2 author",
            "--query", "descendant::author[. is $a]", "--vars", "a",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("mutated bib kind=insert nodes=5 epoch=1"), "{out}");
        assert!(out.contains("vars=a tuples=2"), "{out}");
        let out = run(&parse_args(&args(&[
            "--connect", &addr, "--doc", "bib", "--delete", "4", "--relabel", "3 subtitle",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("kind=delete nodes=4 epoch=2"), "{out}");
        assert!(out.contains("kind=relabel nodes=4 epoch=3"), "{out}");

        // A malformed edit is a daemon ERR: query error, exit 4.
        let err = run(&parse_args(&args(&[
            "--connect", &addr, "--doc", "bib", "--delete", "99",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(matches!(err, CliError::Query(_)), "{err:?}");
        assert_eq!(err.exit_code(), 4);
        assert!(err.message().contains("cannot edit document"), "{err:?}");
        let err = run(&parse_args(&args(&[
            "--connect", &addr, "--doc", "bib", "--insert", "0 0 a((",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(matches!(err, CliError::Query(_)), "{err:?}");
        assert_eq!(err.exit_code(), 4);

        // A daemon-side failure surfaces as a query error (exit 4).
        let err = run(&parse_args(&args(&[
            "--connect", &addr, "--doc", "missing", "--query", "child::a",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(matches!(err, CliError::Query(_)), "{err:?}");
        assert!(err.message().contains("unknown document"), "{err:?}");

        let out = run(&parse_args(&args(&[
            "--connect", &addr, "--evict", "bib", "--shutdown",
        ]))
        .unwrap())
        .unwrap();
        assert!(out.contains("evicted=true"), "{out}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn run_single_reports_cache_stats() {
        // Regression: `--query … --stats` used to parse and then drop the
        // flag, printing no footer.
        // `descendant::book[child::title]` is a composite atom, so the run
        // compiles steps into the cache (plain step atoms are tree views).
        let opts = parse_args(&args(&[
            "--query",
            "descendant::book[child::title][child::author[. is $a]]",
            "--vars",
            "a",
            "--terms",
            "bib(book(author,title),book(author,author,title))",
            "--stats",
        ]))
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.starts_with("3 answer tuple(s) over (a)"), "{out}");
        assert!(out.contains("# cache: "), "{out}");
        assert!(
            out.contains("matrices for 1 queries on 1 thread(s)"),
            "{out}"
        );
        assert!(out.contains("# kernels: steps id/iv/sp/dn "), "{out}");
        assert!(!out.contains("steps id/iv/sp/dn 0/0/0/0"), "{out}");
    }

    #[test]
    fn run_batch_answers_every_query_and_reports_cache_stats() {
        let path = std::env::temp_dir().join("pplx_batch_test_queries.txt");
        std::fs::write(
            &path,
            "# author/title pairs per book\n\
             descendant::book[child::author[. is $y] and child::title[. is $z]] -> y,z\n\
             \n\
             descendant::book[child::author]/child::author[. is $a] -> a\n\
             descendant::book[child::author]\n",
        )
        .unwrap();
        let opts = parse_args(&args(&[
            "--batch",
            path.to_str().unwrap(),
            "--terms",
            "bib(book(author,title),book(author,author,title))",
            "--stats",
            "--threads",
            "4",
        ]))
        .unwrap();
        let out = run(&opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("# [1] descendant::book[child::author"));
        assert!(out.contains("3 answer tuple(s) over (y, z)"));
        assert!(out.contains("# [2] descendant::book[child::author]/child::author"), "{out}");
        assert!(out.contains("3 answer tuple(s) over (a)"));
        // The third line is a boolean (arity-0) query: normalised rendering.
        assert!(out.contains("# [3] "));
        assert!(out.contains("satisfiable: true"));
        assert!(!out.contains("answer tuple(s) over ()"), "{out}");
        // The composite atom `descendant::book[child::author]` repeats across
        // the batch, so the cache must report hits even when served on 4
        // threads.
        assert!(out.contains("# cache: "));
        assert!(!out.contains("# cache: 0 hits"), "{out}");
        assert!(out.contains("on 4 thread(s)"), "{out}");
        // Named steps inside that atom compile to CSR successor lists, so
        // the kernel line must report sparse step dispatches.
        assert!(out.contains("# kernels: steps id/iv/sp/dn "), "{out}");
        assert!(!out.contains("steps id/iv/sp/dn 0/0/0/0"), "{out}");
    }

    #[test]
    fn run_batch_reports_compile_errors_with_line_numbers() {
        let path = std::env::temp_dir().join("pplx_batch_test_bad.txt");
        std::fs::write(&path, "child::a\nfor $x in child::a return child::b\n").unwrap();
        let opts = parse_args(&args(&[
            "--batch",
            path.to_str().unwrap(),
            "--terms",
            "r(a)",
        ]))
        .unwrap();
        let err = run(&opts).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.message().contains(":2:"), "{err:?}");
        assert!(err.message().contains("N(for)"), "{err:?}");
        assert!(matches!(err, CliError::Parse(_)));
    }

    #[test]
    fn run_batch_with_naive_engine_accepts_full_core_xpath() {
        // Historically --batch rejected --engine naive; plans serve it now.
        let path = std::env::temp_dir().join("pplx_batch_test_naive.txt");
        std::fs::write(&path, "for $x in child::a return child::a[. is $x] -> x\n").unwrap();
        let opts = parse_args(&args(&[
            "--batch",
            path.to_str().unwrap(),
            "--terms",
            "r(a,a)",
            "--engine",
            "naive",
        ]))
        .unwrap();
        let out = run(&opts).unwrap();
        std::fs::remove_file(&path).ok();
        // The for-bound $x shadows the output variable, which therefore
        // ranges over all nodes of the (satisfiable) loop — 3 tuples.
        assert!(out.contains("3 answer tuple(s) over (x)"), "{out}");
    }

    #[test]
    fn run_explain_includes_pipeline_and_plan() {
        let opts = parse_args(&args(&[
            "--query",
            "descendant::a[. is $x]",
            "--vars",
            "x",
            "--terms",
            "r(a,a)",
            "--explain",
        ]))
        .unwrap();
        let out = run(&opts).unwrap();
        assert!(out.contains("PPLbin atoms"));
        assert!(out.contains("candidates"));
        assert!(out.contains("chosen       : ppl (forced by caller)"));
        assert!(out.contains("2 answer tuple(s)"));
        // Auto planning reports its decision for every engine.
        let auto = parse_args(&args(&[
            "--query",
            "descendant::a[. is $x]",
            "--vars",
            "x",
            "--terms",
            "r(a,a)",
            "--engine",
            "auto",
            "--explain",
        ]))
        .unwrap();
        let out = run(&auto).unwrap();
        for name in ["ppl", "acq", "hcl", "naive"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("decision"));
    }
}
