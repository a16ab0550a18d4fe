//! `pplxd` — the corpus query daemon.
//!
//! Serves a shared [`Corpus`] over a line-based TCP protocol (see
//! `xpath_corpus::server` for the wire format) on an epoll event loop with
//! request pipelining and per-connection backpressure (Linux only; on
//! other targets `pplxd` exits with an `Unsupported` server error).
//! `--route` serves a sharding router through the same loop.  `pplx
//! --connect host:port` is the matching client.
//!
//! ```text
//! USAGE:
//!     pplxd [--bind ADDR] [--port N] [--budget BYTES] [--threads N]
//!           [--engine ppl|acq|hcl|naive|auto] [--preload DIR]
//!           [--max-line BYTES] [--idle-timeout SECS]
//!           [--route ADDR,ADDR,...] [--replicas N] [--shard-timeout MS]
//!
//! OPTIONS:
//!     --bind ADDR      interface to bind (default 127.0.0.1)
//!     --port N         TCP port; 0 picks an ephemeral port (default 7878)
//!     --budget BYTES   memory budget of the session pool (default unbounded)
//!     --threads N      worker threads executing commands, also the
//!                      QUERYALL fan-out pool; in router mode, the workers
//!                      routing requests to shards (default 4)
//!     --engine E       force one engine for every plan (default auto)
//!     --preload DIR    ingest every *.xml under DIR before serving
//!     --max-line BYTES cap on one request line (default 16 MiB); overlong
//!                      lines answer `ERR line too long`
//!     --idle-timeout SECS  drop connections silent for SECS seconds
//!                      (default 60; 0 disables)
//!     --route ADDRS    run as a router over comma-separated backend
//!                      daemons instead of serving documents locally
//!     --replicas N     copies of each document across shards (router
//!                      mode, default 2, clamped to the shard count)
//!     --shard-timeout MS  per-shard deadline for routed requests
//!                      (router mode, default 5000)
//! ```
//!
//! On startup the daemon prints `pplxd listening on <addr>` to stdout (the
//! CI smoke test parses this to discover the ephemeral port).

use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use xpath_corpus::router::{Router, RouterConfig};
use xpath_corpus::server::{bind, serve, ServeOptions, Service, DEFAULT_MAX_LINE};
use xpath_corpus::{Corpus, CorpusConfig};

const USAGE: &str = "usage: pplxd [--bind ADDR] [--port N] [--budget BYTES] \
[--threads N] [--engine ppl|acq|hcl|naive|auto] [--preload DIR] [--max-line BYTES] \
[--idle-timeout SECS] [--route ADDR,ADDR,...] [--replicas N] [--shard-timeout MS]";

#[derive(Debug)]
struct Options {
    bind: String,
    port: u16,
    budget: Option<usize>,
    threads: usize,
    engine: Option<ppl_xpath::Engine>,
    preload: Option<String>,
    max_line: usize,
    idle_timeout: Option<std::time::Duration>,
    route: Option<Vec<String>>,
    replicas: usize,
    shard_timeout: std::time::Duration,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        bind: "127.0.0.1".to_string(),
        port: 7878,
        budget: None,
        threads: 4,
        engine: None,
        preload: None,
        max_line: DEFAULT_MAX_LINE,
        idle_timeout: Some(xpath_corpus::server::DEFAULT_IDLE_TIMEOUT),
        route: None,
        replicas: 2,
        shard_timeout: std::time::Duration::from_millis(5000),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bind" => options.bind = value(&mut i, "--bind")?,
            "--port" => {
                options.port = value(&mut i, "--port")?
                    .parse()
                    .map_err(|_| "--port expects a number in 0..=65535".to_string())?
            }
            "--budget" => {
                options.budget = Some(
                    value(&mut i, "--budget")?
                        .parse()
                        .map_err(|_| "--budget expects a byte count".to_string())?,
                )
            }
            "--threads" => {
                let n: usize = value(&mut i, "--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a number".to_string())?;
                options.threads = n.max(1);
            }
            "--engine" => {
                let name = value(&mut i, "--engine")?;
                options.engine = match name.as_str() {
                    "auto" => None,
                    other => Some(ppl_xpath::Engine::parse(other).ok_or_else(|| {
                        format!("unknown engine '{other}' (expected ppl|acq|hcl|naive|auto)")
                    })?),
                }
            }
            "--preload" => options.preload = Some(value(&mut i, "--preload")?),
            "--max-line" => {
                let n: usize = value(&mut i, "--max-line")?
                    .parse()
                    .map_err(|_| "--max-line expects a byte count".to_string())?;
                options.max_line = n.max(1);
            }
            "--idle-timeout" => {
                let secs: u64 = value(&mut i, "--idle-timeout")?
                    .parse()
                    .map_err(|_| "--idle-timeout expects seconds (0 disables)".to_string())?;
                options.idle_timeout = if secs == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs(secs))
                };
            }
            "--route" => {
                let list = value(&mut i, "--route")?;
                let backends: Vec<String> = list
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if backends.is_empty() {
                    return Err("--route expects a comma-separated list of host:port".to_string());
                }
                options.route = Some(backends);
            }
            "--replicas" => {
                let n: usize = value(&mut i, "--replicas")?
                    .parse()
                    .map_err(|_| "--replicas expects a number".to_string())?;
                options.replicas = n.max(1);
            }
            "--shard-timeout" => {
                let ms: u64 = value(&mut i, "--shard-timeout")?
                    .parse()
                    .map_err(|_| "--shard-timeout expects milliseconds".to_string())?;
                options.shard_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 1;
    }
    Ok(options)
}

/// Bind `--bind`:`--port`, print the startup line `banner` renders from
/// the bound address (the CI smoke tests parse it to discover an ephemeral
/// port), and serve until a client sends `SHUTDOWN`.
fn bind_and_serve<S: Service>(
    service: &S,
    options: &Options,
    banner: impl FnOnce(SocketAddr) -> String,
) -> ExitCode {
    let address = format!("{}:{}", options.bind, options.port);
    let (listener, local) = match bind(&address) {
        Ok(bound) => bound,
        Err(e) => {
            eprintln!("pplxd cannot bind {address}: {e}");
            return ExitCode::from(5);
        }
    };
    println!("{}", banner(local));
    // Line-buffered stdout may sit on the message until exit; the smoke
    // tests read it from a pipe, so flush explicitly.
    let _ = std::io::stdout().flush();
    let serve_options = ServeOptions {
        max_line: options.max_line,
        workers: options.threads,
        idle_timeout: options.idle_timeout,
    };
    match serve(listener, service, &serve_options) {
        Ok(()) => {
            println!("pplxd shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pplxd server error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    if let Some(backends) = &options.route {
        if options.preload.is_some() || options.budget.is_some() || options.engine.is_some() {
            eprintln!("pplxd: --preload/--budget/--engine apply to backends, not the router");
            return ExitCode::from(2);
        }
        let router = Arc::new(Router::new(RouterConfig {
            backends: backends.clone(),
            replication: options.replicas,
            shard_timeout: options.shard_timeout,
            ..RouterConfig::default()
        }));
        return bind_and_serve(&router, &options, |local| {
            format!("pplxd routing on {local} over {} shard(s)", backends.len())
        });
    }

    let corpus = Corpus::with_config(CorpusConfig {
        memory_budget: options.budget,
        threads: options.threads,
        queue_capacity: options.threads.max(1) * 2,
        engine: options.engine,
        ..CorpusConfig::default()
    });
    if let Some(dir) = &options.preload {
        match corpus.load_dir(std::path::Path::new(dir)) {
            Ok(names) => eprintln!("pplxd preloaded {} document(s) from {dir}", names.len()),
            Err(e) => {
                eprintln!("pplxd cannot preload {dir}: {e}");
                return ExitCode::from(5);
            }
        }
    }
    bind_and_serve(&corpus, &options, |local| {
        format!("pplxd listening on {local}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_overrides() {
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.bind, "127.0.0.1");
        assert_eq!(defaults.port, 7878);
        assert_eq!(defaults.budget, None);
        assert_eq!(defaults.threads, 4);
        assert!(defaults.engine.is_none());
        assert!(defaults.preload.is_none());
        assert_eq!(defaults.max_line, DEFAULT_MAX_LINE);

        let options = parse_args(&args(&[
            "--bind",
            "0.0.0.0",
            "--port",
            "0",
            "--budget",
            "1048576",
            "--threads",
            "0",
            "--engine",
            "ppl",
            "--preload",
            "/tmp/docs",
            "--max-line",
            "4096",
        ]))
        .unwrap();
        assert_eq!(options.max_line, 4096);
        assert_eq!(options.bind, "0.0.0.0");
        assert_eq!(options.port, 0);
        assert_eq!(options.budget, Some(1 << 20));
        assert_eq!(options.threads, 1, "--threads 0 clamps to 1");
        assert_eq!(options.engine, Some(ppl_xpath::Engine::Ppl));
        assert_eq!(options.preload.as_deref(), Some("/tmp/docs"));

        assert!(parse_args(&args(&["--port", "notanumber"])).is_err());
        assert!(parse_args(&args(&["--max-line", "lots"]))
            .unwrap_err()
            .contains("byte count"));
        assert_eq!(
            parse_args(&args(&["--max-line", "0"])).unwrap().max_line,
            1,
            "--max-line 0 clamps to 1"
        );
        assert!(parse_args(&args(&["--engine", "zzz"]))
            .unwrap_err()
            .contains("unknown engine"));
        assert!(parse_args(&args(&["--wat"]))
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_args(&args(&["--io", "threads"]))
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn parse_idle_timeout_and_router_flags() {
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(
            defaults.idle_timeout,
            Some(xpath_corpus::server::DEFAULT_IDLE_TIMEOUT)
        );
        assert!(defaults.route.is_none());
        assert_eq!(defaults.replicas, 2);
        assert_eq!(
            defaults.shard_timeout,
            std::time::Duration::from_millis(5000)
        );

        let options = parse_args(&args(&["--idle-timeout", "7"])).unwrap();
        assert_eq!(
            options.idle_timeout,
            Some(std::time::Duration::from_secs(7))
        );
        let options = parse_args(&args(&["--idle-timeout", "0"])).unwrap();
        assert_eq!(options.idle_timeout, None, "--idle-timeout 0 disables");
        assert!(parse_args(&args(&["--idle-timeout", "soon"])).is_err());

        let options = parse_args(&args(&[
            "--route",
            " 127.0.0.1:7001, 127.0.0.1:7002 ,127.0.0.1:7003",
            "--replicas",
            "3",
            "--shard-timeout",
            "250",
        ]))
        .unwrap();
        assert_eq!(
            options.route.as_deref(),
            Some(
                &[
                    "127.0.0.1:7001".to_string(),
                    "127.0.0.1:7002".to_string(),
                    "127.0.0.1:7003".to_string()
                ][..]
            )
        );
        assert_eq!(options.replicas, 3);
        assert_eq!(options.shard_timeout, std::time::Duration::from_millis(250));

        assert!(parse_args(&args(&["--route", " , "])).is_err());
        assert_eq!(parse_args(&args(&["--replicas", "0"])).unwrap().replicas, 1);
        assert_eq!(
            parse_args(&args(&["--shard-timeout", "0"]))
                .unwrap()
                .shard_timeout,
            std::time::Duration::from_millis(1),
            "--shard-timeout 0 clamps to 1ms"
        );
    }
}
