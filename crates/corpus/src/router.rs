//! The sharding router: one `pplxd` front door over many backend daemons.
//!
//! `pplxd --route host:port,host:port,…` serves the same line protocol as a
//! single daemon, but owns no documents itself: every request is routed to
//! backend shards over [`xpath_wire::ShardClient`] connections, and the
//! router's job is to keep answering — with data when it can, with a
//! well-formed `ERR` or a partial result when it cannot — no matter which
//! shards are slow, dead, or lying.
//!
//! # Serving
//!
//! The router is a [`Service`] of the daemon's own serving loop
//! ([`crate::server::serve`]), so it gets the same pipelining,
//! backpressure, idle timeout and
//! [`ServeOptions`](crate::server::ServeOptions); `pplxd --threads`
//! sizes its workers.  Each client connection owns a [`RouterConn`] — one
//! [`ShardClient`] per backend — that travels with the connection's
//! in-flight batch.  A slow shard therefore holds only its own client's
//! worker.  After a client's `SHUTDOWN` drains the loop, the shutdown hook
//! fans `SHUTDOWN` out to every shard.
//!
//! # Placement
//!
//! Documents are placed by consistent hashing (`Ring`): each backend owns
//! `VIRTUAL_NODES` points on a hash circle, and a document's replica set
//! is the first [`RouterConfig::replication`] *distinct* shards clockwise
//! from the hash of its name.  `LOAD`/`LOADTERMS` write to every replica
//! (success = at least one acknowledged, recorded in the catalog);
//! `QUERY`/`EVICT <name>` fan across the replicas, rotating the starting
//! shard for load spread and failing over on transport errors.  A daemon
//! `ERR` (unknown document, compile error) is *not* failure — it is the
//! answer, and it is returned as-is.
//!
//! # Degradation
//!
//! Every shard interaction runs under [`RouterConfig::shard_timeout`].
//! Consecutive transport failures past [`RouterConfig::fail_threshold`]
//! mark a shard DOWN; a DOWN shard is skipped (fail-fast) until
//! [`RouterConfig::probe_interval`] elapses, at which point exactly one
//! request is let through as a probe — success flips the shard back UP.
//! Scatter commands degrade per shard: `STATS` reports `status=down` lines
//! next to healthy ones, `QUERYALL` merges the live shards' blocks
//! (replicas deduplicated) and reports catalogued documents whose every
//! replica is unreachable as `doc=<name> error=…` lines — a partial answer,
//! never a hang and never a silent gap.
//!
//! # Failure injection
//!
//! A [`FaultHook`] installed with [`Router::set_fault_hook`] intercepts
//! every shard request and may kill the connection mid-query, delay past
//! the deadline, or poison the response with garbage bytes
//! ([`FaultAction`]).  The fuzz harness (`tests/router_fuzz.rs`) drives
//! random fault plans and asserts the router always answers within its
//! deadlines — the injection path is the *production* decode path, not a
//! mock.

use crate::protocol::{parse_command, Command};
use crate::server::Service;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xpath_sync::atomic::{AtomicUsize, Ordering};
use xpath_sync::{Mutex, MutexGuard};
use xpath_wire::{ClientConfig, Response, ShardClient, WireError};

/// Points each backend owns on the hash circle.  Enough that document load
/// spreads within a few percent of uniform across a handful of shards;
/// small enough that ring construction and lookup stay trivial.
pub const VIRTUAL_NODES: usize = 40;

/// Routing and degradation knobs of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend daemon addresses (`host:port`), in shard-index order.
    pub backends: Vec<String>,
    /// Copies of each document, clamped to `1..=backends.len()`.
    pub replication: usize,
    /// Deadline for one complete backend response.
    pub shard_timeout: Duration,
    /// Deadline for one backend connect attempt.
    pub connect_timeout: Duration,
    /// Consecutive transport failures before a shard is marked DOWN.
    pub fail_threshold: u32,
    /// How long a DOWN shard is skipped before one request is let through
    /// as a probe.
    pub probe_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            backends: Vec::new(),
            replication: 2,
            shard_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(1),
            fail_threshold: 3,
            probe_interval: Duration::from_millis(500),
        }
    }
}

/// What a [`FaultHook`] does to one shard request.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Let the request through untouched.
    None,
    /// Drop the shard connection as if the backend died mid-query.
    KillConn,
    /// Stall the request this long before sending; at or past the shard
    /// timeout this becomes a timeout failure without touching the wire.
    Delay(Duration),
    /// Replace the response status line with these bytes, exercising the
    /// decode path with truncated/garbage input.
    Garbage(String),
}

/// Failure-injection hook: called with the shard index and parsed command
/// before every shard request.  Production routers have none installed.
pub type FaultHook = Arc<dyn Fn(usize, &Command) -> FaultAction + Send + Sync>;

/// Health of one shard as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Requests are routed normally.
    Up,
    /// Skipped except for periodic probes.
    Down,
}

#[derive(Debug)]
struct ShardHealth {
    status: ShardStatus,
    consecutive_failures: u32,
    /// When DOWN: earliest moment the next probe request is let through.
    probe_at: Option<Instant>,
}

/// Hash a ring key: FNV-1a over the bytes, then a 64-bit finalizer.  Plain
/// FNV-1a barely diffuses its *upper* bits on short, similar keys
/// (`shard-0-vnode-17`…), and ring placement orders by the full `u64` — so
/// without the finalizer the vnode points cluster and one shard owns most
/// of the circle.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    // fmix64: the standard xor-shift/multiply avalanche finalizer.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    hash
}

/// The consistent-hash circle: sorted (point, shard) pairs.
#[derive(Debug)]
struct Ring {
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    fn new(shards: usize) -> Ring {
        let mut points = Vec::with_capacity(shards * VIRTUAL_NODES);
        for shard in 0..shards {
            for v in 0..VIRTUAL_NODES {
                points.push((
                    ring_hash(format!("shard-{shard}-vnode-{v}").as_bytes()),
                    shard,
                ));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// The first `count` *distinct* shards clockwise from `name`'s point.
    fn replicas(&self, name: &str, count: usize) -> Vec<usize> {
        let count = count.clamp(1, self.shards.max(1));
        let hash = ring_hash(name.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let mut replicas = Vec::with_capacity(count);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !replicas.contains(&shard) {
                replicas.push(shard);
                if replicas.len() == count {
                    break;
                }
            }
        }
        replicas
    }
}

/// Shared router state: placement, health, and the fault hook.  Per-client
/// connection state (the actual [`ShardClient`]s) lives in [`RouterConn`].
pub struct Router {
    config: RouterConfig,
    ring: Ring,
    /// Where each document was actually placed (shard indices that acked
    /// its `LOAD`).  Documents never loaded through this router fall back
    /// to ring placement.
    catalog: Mutex<HashMap<String, Vec<usize>>>,
    health: Vec<Mutex<ShardHealth>>,
    /// Rotates the starting replica of read fan-outs for load spread.
    rotation: AtomicUsize,
    fault_hook: Mutex<Option<FaultHook>>,
}

impl Router {
    /// A router over `config.backends`.  Panics if no backends are given —
    /// a router with nothing behind it cannot answer anything.
    pub fn new(mut config: RouterConfig) -> Router {
        assert!(
            !config.backends.is_empty(),
            "router needs at least one backend"
        );
        config.replication = config.replication.clamp(1, config.backends.len());
        let ring = Ring::new(config.backends.len());
        let health = config
            .backends
            .iter()
            .map(|_| {
                Mutex::new(ShardHealth {
                    status: ShardStatus::Up,
                    consecutive_failures: 0,
                    probe_at: None,
                })
            })
            .collect();
        Router {
            config,
            ring,
            catalog: Mutex::new(HashMap::new()),
            health,
            rotation: AtomicUsize::new(0),
            fault_hook: Mutex::new(None),
        }
    }

    /// The routing configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Poison policy for the fault hook: a hook that panicked mid-call is
    /// dropped — failure injection must never wedge the router itself.
    fn fault_hook_slot(&self) -> MutexGuard<'_, Option<FaultHook>> {
        match self.fault_hook.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = None;
                self.fault_hook.clear_poison();
                guard
            }
        }
    }

    /// Poison policy for shard health: every writer leaves the struct
    /// field-consistent, so the state is taken as-is (worst case a stale
    /// status, which the next success/failure overwrites).
    fn health_slot(&self, idx: usize) -> MutexGuard<'_, ShardHealth> {
        self.health[idx].lock().unwrap_or_else(|poisoned| {
            self.health[idx].clear_poison();
            poisoned.into_inner()
        })
    }

    /// Poison policy for the placement catalog: inserts are single-call
    /// atomic, so the map is taken as-is (worst case one document falls
    /// back to ring placement until its next `LOAD`).
    fn catalog_slot(&self) -> MutexGuard<'_, HashMap<String, Vec<usize>>> {
        self.catalog.lock().unwrap_or_else(|poisoned| {
            self.catalog.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Install a failure-injection hook (tests and the fuzz harness).
    pub fn set_fault_hook(&self, hook: FaultHook) {
        *self.fault_hook_slot() = Some(hook);
    }

    /// Current health of shard `idx`.
    pub fn shard_status(&self, idx: usize) -> ShardStatus {
        self.health_slot(idx).status
    }

    /// The replica shard set of `name`: its catalogued placement, or ring
    /// placement for documents this router never loaded.
    pub fn replicas_for(&self, name: &str) -> Vec<usize> {
        if let Some(placed) = self.catalog_slot().get(name) {
            return placed.clone();
        }
        self.ring.replicas(name, self.config.replication)
    }

    /// May a request be sent to shard `idx` right now?  UP shards: always.
    /// DOWN shards: only once per probe interval — claiming the probe slot
    /// pushes the next one out, so concurrent requests don't pile onto a
    /// sick shard.
    fn available(&self, idx: usize) -> bool {
        let mut health = self.health_slot(idx);
        match health.status {
            ShardStatus::Up => true,
            ShardStatus::Down => {
                let now = Instant::now();
                match health.probe_at {
                    Some(at) if now >= at => {
                        health.probe_at = Some(now + self.config.probe_interval);
                        true
                    }
                    _ => false,
                }
            }
        }
    }

    fn record_success(&self, idx: usize) {
        let mut health = self.health_slot(idx);
        health.status = ShardStatus::Up;
        health.consecutive_failures = 0;
        health.probe_at = None;
    }

    fn record_failure(&self, idx: usize) {
        let mut health = self.health_slot(idx);
        health.consecutive_failures = health.consecutive_failures.saturating_add(1);
        if health.consecutive_failures >= self.config.fail_threshold {
            health.status = ShardStatus::Down;
            health.probe_at = Some(Instant::now() + self.config.probe_interval);
        }
    }

    fn fault_for(&self, shard: usize, command: &Command) -> FaultAction {
        match self.fault_hook_slot().as_ref() {
            Some(hook) => hook(shard, command),
            None => FaultAction::None,
        }
    }
}

/// [`ShardClient`] deadlines derived from the router's knobs.  The client's
/// own reconnect backoff is kept below the probe interval so a health probe
/// is never swallowed by a client-level `Backoff` fail-fast.
fn client_config(config: &RouterConfig) -> ClientConfig {
    let backoff_max = (config.probe_interval / 4).max(Duration::from_millis(1));
    ClientConfig {
        connect_timeout: Some(config.connect_timeout),
        read_timeout: Some(config.shard_timeout),
        // The health machinery owns retries; a serving worker never sleeps
        // in a refused-connect loop.
        connect_retries: 0,
        backoff_initial: Duration::from_millis(5).min(backoff_max),
        backoff_max,
    }
}

/// Send one request to one shard through the fault hook, recording the
/// outcome in the shard's health.
fn routed(
    router: &Router,
    client: &mut ShardClient,
    shard: usize,
    line: &str,
    command: &Command,
) -> Result<Response, WireError> {
    match router.fault_for(shard, command) {
        FaultAction::None => {}
        FaultAction::KillConn => {
            client.kill_connection();
            router.record_failure(shard);
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "fault injection: connection killed mid-query",
            )));
        }
        FaultAction::Delay(delay) => {
            if delay >= router.config.shard_timeout {
                std::thread::sleep(router.config.shard_timeout);
                router.record_failure(shard);
                return Err(WireError::Timeout);
            }
            std::thread::sleep(delay);
        }
        FaultAction::Garbage(status) => client.inject_status_line(status),
    }
    let result = client.request(line);
    match &result {
        Ok(_) => router.record_success(shard),
        Err(_) => router.record_failure(shard),
    }
    result
}

/// Per-client routing state: one [`ShardClient`] per backend, sharing the
/// router's placement/health through an [`Arc<Router>`].
pub struct RouterConn {
    router: Arc<Router>,
    clients: Vec<ShardClient>,
}

impl RouterConn {
    /// A connection context over `router`'s backends.
    pub fn new(router: Arc<Router>) -> RouterConn {
        let config = client_config(&router.config);
        let clients = router
            .config
            .backends
            .iter()
            .map(|addr| ShardClient::new(addr.clone(), config.clone()))
            .collect();
        RouterConn { router, clients }
    }

    /// Route one request line in process and return its response.
    /// `SHUTDOWN` fans out to every shard here; over TCP the serving loop
    /// answers it and the fan-out runs as the service's shutdown hook.
    pub fn handle_line(&mut self, line: &str) -> Response {
        let command = parse_command(line)?;
        self.execute(line, &command)
    }

    /// Route one parsed request; `line` is what the shards are sent.
    fn execute(&mut self, line: &str, command: &Command) -> Response {
        match command {
            Command::Quit => Ok(vec!["bye".to_string()]),
            Command::Shutdown => {
                self.shutdown_shards();
                Ok(vec!["bye".to_string()])
            }
            Command::Load { name, .. } | Command::LoadTerms { name, .. } => {
                self.route_load(name, line, command)
            }
            Command::Query { name, .. } => self.route_query(name, line, command),
            Command::Mutate { name, .. } => self.route_mutate(name, line, command),
            Command::Evict(Some(name)) => self.route_evict_one(name, line, command),
            Command::Evict(None) => self.route_evict_all(line, command),
            Command::Stats => self.route_stats(line, command),
            Command::QueryAll { .. } => self.route_queryall(line, command),
        }
    }

    /// Tell every shard to stop: best effort, in parallel, DOWN shards
    /// included — a dying fleet should still be told to stop.
    fn shutdown_shards(&mut self) {
        self.scatter("SHUTDOWN", &Command::Shutdown, true);
    }

    /// `LOAD`/`LOADTERMS`: write to every replica; success is at least one
    /// acknowledgement, recorded in the catalog.
    fn route_load(&mut self, name: &str, line: &str, command: &Command) -> Response {
        let targets = self
            .router
            .ring
            .replicas(name, self.router.config.replication);
        let total = targets.len();
        let mut placed = Vec::new();
        let mut last_error: Option<String> = None;
        for shard in targets {
            if !self.router.available(shard) {
                last_error = Some(format!("shard {} down", self.router.config.backends[shard]));
                continue;
            }
            match routed(&self.router, &mut self.clients[shard], shard, line, command) {
                Ok(Ok(_)) => placed.push(shard),
                // A daemon ERR (malformed document) is deterministic: every
                // replica would refuse identically, so report it directly.
                Ok(Err(message)) => return Err(message),
                Err(e) => {
                    last_error = Some(format!("shard {}: {e}", self.router.config.backends[shard]))
                }
            }
        }
        if placed.is_empty() {
            let reason = last_error.unwrap_or_else(|| "no shard available".to_string());
            return Err(format!("load failed for '{name}': {reason}"));
        }
        let acked = placed.len();
        self.router.catalog_slot().insert(name.to_string(), placed);
        Ok(vec![format!("loaded {name} replicas={acked}/{total}")])
    }

    /// `QUERY`: fan across the replicas from a rotating start; transport
    /// failures fail over to the next replica, a daemon `ERR` is final.
    fn route_query(&mut self, name: &str, line: &str, command: &Command) -> Response {
        let candidates = self.router.replicas_for(name);
        let start = self.router.rotation.fetch_add(1, Ordering::Relaxed);
        let mut last_error: Option<String> = None;
        for i in 0..candidates.len() {
            let shard = candidates[(start + i) % candidates.len()];
            if !self.router.available(shard) {
                last_error = Some(format!("shard {} down", self.router.config.backends[shard]));
                continue;
            }
            match routed(&self.router, &mut self.clients[shard], shard, line, command) {
                Ok(response) => return response,
                Err(e) => {
                    last_error = Some(format!("shard {}: {e}", self.router.config.backends[shard]))
                }
            }
        }
        let reason = last_error.unwrap_or_else(|| "no replica available".to_string());
        Err(format!("no shard answered for '{name}': {reason}"))
    }

    /// `MUTATE`: a write — every replica must apply the edit, or replicas
    /// diverge.  Per-replica acks are accounted and reported; a replica
    /// that cannot be reached surfaces as a `doc=… error=` partial next to
    /// the acks (the operator's signal to re-`LOAD`), never as failure of
    /// the edit that *did* land.  A daemon `ERR` is a healthy final answer
    /// (the QUERY rule): it does not hurt shard health, and if no replica
    /// acked at all the first refusal is returned verbatim — every replica
    /// of an in-sync set refuses a malformed edit identically.
    fn route_mutate(&mut self, name: &str, line: &str, command: &Command) -> Response {
        let candidates = self.router.replicas_for(name);
        let total = candidates.len();
        let mut acked = Vec::new();
        let mut partials = Vec::new();
        let mut first_refusal: Option<String> = None;
        let mut last_transport: Option<String> = None;
        for shard in candidates {
            let addr = &self.router.config.backends[shard];
            if !self.router.available(shard) {
                partials.push(format!("doc={name} error=shard {addr} down"));
                last_transport = Some(format!("shard {addr} down"));
                continue;
            }
            match routed(&self.router, &mut self.clients[shard], shard, line, command) {
                Ok(Ok(payload)) => acked.extend(payload),
                Ok(Err(message)) => {
                    partials.push(format!("doc={name} error={message}"));
                    first_refusal.get_or_insert(message);
                }
                Err(e) => {
                    partials.push(format!("doc={name} error=shard {addr}: {e}"));
                    last_transport = Some(format!("shard {addr}: {e}"));
                }
            }
        }
        if acked.is_empty() {
            // No replica applied the edit: a unanimous daemon refusal is
            // the answer; otherwise report why nothing was reachable.
            if let Some(message) = first_refusal {
                return Err(message);
            }
            let reason = last_transport.unwrap_or_else(|| "no replica available".to_string());
            return Err(format!("mutate failed for '{name}': {reason}"));
        }
        let mut lines = vec![format!(
            "mutated {name} replicas={}/{total}",
            total - partials.len()
        )];
        lines.extend(acked);
        lines.extend(partials);
        Ok(lines)
    }

    /// `EVICT <name>`: every reachable replica evicts; `evicted=true` if
    /// any replica held a session.
    fn route_evict_one(&mut self, name: &str, line: &str, command: &Command) -> Response {
        let candidates = self.router.replicas_for(name);
        let mut reached = false;
        let mut evicted = false;
        let mut last_error: Option<String> = None;
        for shard in candidates {
            if !self.router.available(shard) {
                last_error = Some(format!("shard {} down", self.router.config.backends[shard]));
                continue;
            }
            match routed(&self.router, &mut self.clients[shard], shard, line, command) {
                Ok(Ok(payload)) => {
                    reached = true;
                    evicted |= payload.iter().any(|l| l == "evicted=true");
                }
                Ok(Err(message)) => return Err(message),
                Err(e) => {
                    last_error = Some(format!("shard {}: {e}", self.router.config.backends[shard]))
                }
            }
        }
        if !reached {
            let reason = last_error.unwrap_or_else(|| "no replica available".to_string());
            return Err(format!("evict failed for '{name}': {reason}"));
        }
        Ok(vec![format!("evicted={evicted}")])
    }

    /// `EVICT`: scatter to every live shard and sum the eviction counts.
    fn route_evict_all(&mut self, line: &str, command: &Command) -> Response {
        let results = self.scatter(line, command, false);
        let mut total: u64 = 0;
        let mut reached = false;
        for (_, outcome) in &results {
            if let Some(Ok(Ok(payload))) = outcome {
                reached = true;
                total += payload
                    .iter()
                    .filter_map(|l| l.strip_prefix("evicted="))
                    .filter_map(|n| n.parse::<u64>().ok())
                    .sum::<u64>();
            }
        }
        if !reached {
            return Err("evict failed: no shard reachable".to_string());
        }
        Ok(vec![format!("evicted={total}")])
    }

    /// `STATS`: scatter; aggregate document counts and report one
    /// `shard=… status=…` line per backend, down shards included.
    fn route_stats(&mut self, line: &str, command: &Command) -> Response {
        let results = self.scatter(line, command, false);
        let mut lines = Vec::new();
        let mut up = 0usize;
        let mut documents: u64 = 0;
        let mut per_shard = Vec::new();
        for (shard, outcome) in results {
            let addr = &self.router.config.backends[shard];
            match outcome {
                Some(Ok(Ok(payload))) => {
                    up += 1;
                    let docs = payload
                        .iter()
                        .filter_map(|l| l.strip_prefix("documents="))
                        .filter_map(|n| n.parse::<u64>().ok())
                        .next()
                        .unwrap_or(0);
                    documents += docs;
                    per_shard.push(format!("shard={addr} status=up documents={docs}"));
                }
                Some(Ok(Err(message))) => {
                    up += 1; // the wire is healthy even if the command failed
                    per_shard.push(format!("shard={addr} status=up error={message}"));
                }
                Some(Err(e)) => per_shard.push(format!("shard={addr} status=down error={e}")),
                None => per_shard.push(format!("shard={addr} status=down error=skipped (down)")),
            }
        }
        lines.push(format!("shards={}", self.router.config.backends.len()));
        lines.push(format!("shards_up={up}"));
        lines.push(format!("documents={documents}"));
        lines.extend(per_shard);
        Ok(lines)
    }

    /// `QUERYALL`: scatter, merge per-document blocks (replicas
    /// deduplicated, healthy blocks preferred over error blocks), and
    /// report catalogued documents whose every replica failed as
    /// `doc=<name> error=…` lines.  Always `OK` — partial results beat
    /// refusing to answer.
    fn route_queryall(&mut self, line: &str, command: &Command) -> Response {
        let results = self.scatter(line, command, false);
        let mut failed_shards = Vec::new();
        let mut merged: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (shard, outcome) in results {
            match outcome {
                Some(Ok(Ok(payload))) => {
                    for (name, block) in split_doc_blocks(&payload) {
                        match merged.get_mut(&name) {
                            // First replica wins unless it reported an
                            // error and this one answered.
                            Some(existing)
                                if is_error_block(existing) && !is_error_block(&block) =>
                            {
                                *existing = block
                            }
                            Some(_) => {}
                            None => {
                                merged.insert(name, block);
                            }
                        }
                    }
                }
                // A daemon ERR to QUERYALL (can't happen today — fan-out
                // reports per document) degrades to a failed shard.
                Some(Ok(Err(_))) | Some(Err(_)) | None => failed_shards.push(shard),
            }
        }
        // Catalogued documents with every replica in the failed set are
        // reported, not silently dropped.
        let catalog = self.router.catalog_slot();
        for (name, replicas) in catalog.iter() {
            if merged.contains_key(name) {
                continue;
            }
            if replicas.iter().all(|s| failed_shards.contains(s)) {
                let addrs: Vec<&str> = replicas
                    .iter()
                    .map(|&s| self.router.config.backends[s].as_str())
                    .collect();
                merged.insert(
                    name.clone(),
                    vec![format!(
                        "doc={name} error=shard unavailable ({})",
                        addrs.join(",")
                    )],
                );
            }
        }
        drop(catalog);
        Ok(merged.into_values().flatten().collect())
    }

    /// Send `line` to every shard in parallel.  Per-shard outcome: `None`
    /// when the shard was skipped as DOWN (and `include_down` was false),
    /// otherwise the request result.  Each request carries its own
    /// deadline, so the barrier is bounded by the slowest single shard.
    fn scatter(
        &mut self,
        line: &str,
        command: &Command,
        include_down: bool,
    ) -> Vec<(usize, Option<Result<Response, WireError>>)> {
        let router = &self.router;
        xpath_sync::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(shard, client)| {
                    let handle = scope.spawn(move || {
                        if !include_down && !router.available(shard) {
                            return (shard, None);
                        }
                        (shard, Some(routed(router, client, shard, line, command)))
                    });
                    (shard, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(shard, h)| {
                    h.join().unwrap_or_else(|_| {
                        // A panicking shard worker degrades to a failed
                        // shard; the fan-out and the router keep going.
                        let e = std::io::Error::other("shard worker panicked");
                        (shard, Some(Err(WireError::Io(e))))
                    })
                })
                .collect()
        })
    }
}

/// `true` for a block that is a single `doc=<name> error=…` line.
fn is_error_block(block: &[String]) -> bool {
    block.len() == 1 && block[0].contains(" error=")
}

/// Split a backend `QUERYALL` payload into per-document blocks: each
/// `doc=…` header line plus its following tuple lines.
fn split_doc_blocks(lines: &[String]) -> Vec<(String, Vec<String>)> {
    let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("doc=") {
            let name = rest.split_whitespace().next().unwrap_or("").to_string();
            blocks.push((name, vec![line.clone()]));
        } else if let Some(last) = blocks.last_mut() {
            last.1.push(line.clone());
        }
        // A tuple line before any header is a malformed payload; drop it
        // rather than misattribute it.
    }
    blocks
}

/// `pplxd --route`: the serving loop's workers route each request through
/// the connection's own [`RouterConn`].
impl Service for Arc<Router> {
    type State = RouterConn;

    fn open(&self) -> RouterConn {
        RouterConn::new(Arc::clone(self))
    }

    fn execute(&self, conn: &mut RouterConn, line: &str, command: &Command) -> Response {
        conn.execute(line, command)
    }

    fn shutdown(&self) {
        RouterConn::new(Arc::clone(self)).shutdown_shards();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{bind, serve, ServeOptions};
    use crate::Corpus;
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::{TcpListener, TcpStream};
    use xpath_sync::atomic::AtomicBool;

    fn spawn_backend() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let handle =
            std::thread::spawn(move || serve(listener, &Corpus::new(), &ServeOptions::default()));
        (addr.to_string(), handle)
    }

    /// Serve `router` over TCP with `workers` workers.
    fn spawn_router(
        router: &Arc<Router>,
        workers: usize,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let router = Arc::clone(router);
        let options = ServeOptions {
            workers,
            ..ServeOptions::default()
        };
        (
            addr,
            std::thread::spawn(move || serve(listener, &router, &options)),
        )
    }

    /// A client connection: its reader and writer halves.
    fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        (
            BufReader::new(stream.try_clone().unwrap()),
            BufWriter::new(stream),
        )
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> (String, Vec<String>) {
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

    /// Write `lines` in one flush.
    fn send(writer: &mut BufWriter<TcpStream>, lines: &[&str]) {
        for line in lines {
            writeln!(writer, "{line}").unwrap();
        }
        writer.flush().unwrap();
    }

    fn fast_router(backends: Vec<String>, replication: usize) -> Router {
        Router::new(RouterConfig {
            backends,
            replication,
            shard_timeout: Duration::from_millis(800),
            connect_timeout: Duration::from_millis(400),
            fail_threshold: 1,
            probe_interval: Duration::from_millis(50),
        })
    }

    /// Shut one backend down directly (not through the router).
    fn kill_backend(addr: &str) {
        let mut client = ShardClient::new(addr.to_string(), ClientConfig::default());
        let _ = client.request("SHUTDOWN");
    }

    #[test]
    fn ring_placement_is_deterministic_distinct_and_spread() {
        let ring = Ring::new(4);
        for name in ["bib", "news", "x", "a-very-long-document-name"] {
            let replicas = ring.replicas(name, 2);
            assert_eq!(replicas, ring.replicas(name, 2), "deterministic");
            assert_eq!(replicas.len(), 2);
            assert_ne!(replicas[0], replicas[1], "distinct shards");
        }
        // Replication clamps to the shard count.
        assert_eq!(ring.replicas("d", 9).len(), 4);
        // Load spreads: over many names every shard owns something, and no
        // shard owns everything.
        let mut owners = vec![0usize; 4];
        for i in 0..400 {
            owners[ring.replicas(&format!("doc-{i}"), 1)[0]] += 1;
        }
        for (shard, &count) in owners.iter().enumerate() {
            assert!(count > 0, "shard {shard} owns nothing: {owners:?}");
            assert!(count < 400, "shard {shard} owns everything: {owners:?}");
        }
    }

    #[test]
    fn load_query_stats_evict_round_trip_over_shards() {
        let backends: Vec<_> = (0..3).map(|_| spawn_backend()).collect();
        let addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
        let router = Arc::new(fast_router(addrs, 2));
        let mut conn = RouterConn::new(Arc::clone(&router));

        for i in 0..6 {
            let response = conn.handle_line(&format!("LOADTERMS d{i} r(a(b),a(b))"));
            assert_eq!(response, Ok(vec![format!("loaded d{i} replicas=2/2")]));
        }
        // Every document answers, whichever shard its query lands on.
        for i in 0..6 {
            let payload = conn
                .handle_line(&format!("QUERY d{i} descendant::b[. is $x] -> x"))
                .unwrap();
            assert_eq!(payload[0], "vars=x tuples=2", "d{i}: {payload:?}");
        }
        // A daemon ERR passes through untouched (semantic, not transport).
        let err = conn.handle_line("QUERY nope child::a").unwrap_err();
        assert!(err.contains("unknown document"), "{err}");

        // QUERYALL merges replicas: each document appears exactly once.
        let payload = conn
            .handle_line("QUERYALL descendant::b[. is $x] -> x")
            .unwrap();
        let headers: Vec<&String> = payload.iter().filter(|l| l.starts_with("doc=")).collect();
        assert_eq!(headers.len(), 6, "{payload:?}");

        // STATS aggregates and reports per-shard health.
        let payload = conn.handle_line("STATS").unwrap();
        assert_eq!(payload[0], "shards=3");
        assert_eq!(payload[1], "shards_up=3");
        // 6 documents at replication 2 = 12 physical placements.
        assert_eq!(payload[2], "documents=12");
        assert_eq!(
            payload.iter().filter(|l| l.contains("status=up")).count(),
            3,
            "{payload:?}"
        );

        // EVICT one document: replicas agree it held a session.
        assert_eq!(
            conn.handle_line("EVICT d0"),
            Ok(vec!["evicted=true".into()])
        );
        // EVICT all: counts sum across shards (d1..=d5 on 2 shards each,
        // d0's sessions were just dropped).
        let payload = conn.handle_line("EVICT").unwrap();
        assert_eq!(payload, vec!["evicted=10".to_string()]);

        // SHUTDOWN fans out: every backend stops.
        assert_eq!(conn.handle_line("SHUTDOWN"), Ok(vec!["bye".into()]));
        for (_, handle) in backends {
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn mutate_writes_every_replica_and_reports_partial_acks() {
        let mut backends: Vec<_> = (0..2).map(|_| spawn_backend()).collect();
        let addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
        let router = Arc::new(fast_router(addrs.clone(), 2));
        let mut conn = RouterConn::new(Arc::clone(&router));

        conn.handle_line("LOADTERMS bib bib(book(author),book(author))")
            .unwrap();
        let payload = conn
            .handle_line("MUTATE bib INSERT 0 2 book(author)")
            .unwrap();
        assert_eq!(payload[0], "mutated bib replicas=2/2");
        assert_eq!(
            payload
                .iter()
                .filter(|l| l.starts_with("mutated bib kind=insert nodes=7 epoch=1"))
                .count(),
            2,
            "both replicas must report their ack: {payload:?}"
        );
        // Both replicas now serve the edited document.
        for _ in 0..2 {
            let payload = conn
                .handle_line("QUERY bib descendant::author[. is $x] -> x")
                .unwrap();
            assert_eq!(payload[0], "vars=x tuples=3");
        }
        // A structurally invalid edit is refused by every replica: the
        // unanimous ERR is the final answer and leaves shard health alone.
        let err = conn.handle_line("MUTATE bib DELETE 99").unwrap_err();
        assert!(err.contains("cannot edit document"), "{err}");
        assert_eq!(router.shard_status(0), ShardStatus::Up);
        assert_eq!(router.shard_status(1), ShardStatus::Up);

        // One replica dies: the edit still lands on the survivor, with the
        // divergence reported as a partial, not as request failure.
        kill_backend(&addrs[0]);
        backends.remove(0).1.join().unwrap().unwrap();
        let payload = conn.handle_line("MUTATE bib DELETE 1").unwrap();
        assert_eq!(payload[0], "mutated bib replicas=1/2", "{payload:?}");
        assert!(
            payload.iter().any(|l| l.starts_with("doc=bib error=")),
            "the unreachable replica must surface: {payload:?}"
        );
        conn.handle_line("SHUTDOWN").unwrap();
        backends.into_iter().for_each(|(_, h)| {
            h.join().unwrap().unwrap();
        });
    }

    #[test]
    fn query_fails_over_when_a_replica_dies() {
        let mut backends: Vec<_> = (0..2).map(|_| spawn_backend()).collect();
        let addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
        let router = Arc::new(fast_router(addrs.clone(), 2));
        let mut conn = RouterConn::new(Arc::clone(&router));

        assert!(conn.handle_line("LOADTERMS d r(a(b))").is_ok());
        kill_backend(&addrs[0]);
        backends.remove(0).1.join().unwrap().unwrap();

        // Both replica orders must answer: whichever starting rotation
        // picks the dead shard first fails over to the live one.
        for _ in 0..4 {
            let payload = conn
                .handle_line("QUERY d descendant::b[. is $x] -> x")
                .unwrap();
            assert_eq!(payload[0], "vars=x tuples=1");
        }
        assert_eq!(router.shard_status(0), ShardStatus::Down);
        assert_eq!(router.shard_status(1), ShardStatus::Up);
        conn.handle_line("SHUTDOWN").unwrap();
        backends.into_iter().for_each(|(_, h)| {
            h.join().unwrap().unwrap();
        });
    }

    #[test]
    fn queryall_reports_dead_replicas_per_document() {
        let mut backends: Vec<_> = (0..2).map(|_| spawn_backend()).collect();
        let addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
        // Replication 1: each document lives on exactly one shard.
        let router = Arc::new(fast_router(addrs.clone(), 1));
        let mut conn = RouterConn::new(Arc::clone(&router));

        // Load documents until both shards hold at least one.
        let mut by_shard: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
        for i in 0..32 {
            let name = format!("d{i}");
            conn.handle_line(&format!("LOADTERMS {name} r(a(b))"))
                .unwrap();
            by_shard[router.replicas_for(&name)[0]].push(name);
            if by_shard.iter().all(|v| !v.is_empty()) && i >= 3 {
                break;
            }
        }
        assert!(by_shard.iter().all(|v| !v.is_empty()), "{by_shard:?}");

        kill_backend(&addrs[0]);
        backends.remove(0).1.join().unwrap().unwrap();

        let payload = conn
            .handle_line("QUERYALL descendant::b[. is $x] -> x")
            .unwrap();
        for name in &by_shard[1] {
            assert!(
                payload.iter().any(|l| l == &format!("doc={name} tuples=1")),
                "live shard's {name} must answer: {payload:?}"
            );
        }
        for name in &by_shard[0] {
            assert!(
                payload
                    .iter()
                    .any(|l| l.starts_with(&format!("doc={name} error=shard unavailable"))),
                "dead shard's {name} must be reported: {payload:?}"
            );
        }
        conn.handle_line("SHUTDOWN").unwrap();
        backends.into_iter().for_each(|(_, h)| {
            h.join().unwrap().unwrap();
        });
    }

    #[test]
    fn down_shard_is_probed_back_up() {
        // Reserve a port, leave it dead for now.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let router = Arc::new(fast_router(vec![addr.to_string()], 1));
        let mut conn = RouterConn::new(Arc::clone(&router));

        let err = conn.handle_line("QUERY d child::a").unwrap_err();
        assert!(err.contains("no shard answered"), "{err}");
        assert_eq!(router.shard_status(0), ShardStatus::Down);
        // While DOWN and before the probe interval, requests fail fast
        // without touching the socket.
        let start = Instant::now();
        let err = conn.handle_line("QUERY d child::a").unwrap_err();
        assert!(err.contains("down"), "{err}");
        assert!(start.elapsed() < Duration::from_millis(40), "fail-fast");

        // The backend comes back on the same port…
        let listener = TcpListener::bind(addr).unwrap();
        let backend =
            std::thread::spawn(move || serve(listener, &Corpus::new(), &ServeOptions::default()));
        // …and after the probe interval one request goes through as the
        // probe and flips the shard UP.
        std::thread::sleep(Duration::from_millis(120));
        let response = conn.handle_line("LOADTERMS d r(a)");
        assert_eq!(response, Ok(vec!["loaded d replicas=1/1".into()]));
        assert_eq!(router.shard_status(0), ShardStatus::Up);
        conn.handle_line("SHUTDOWN").unwrap();
        backend.join().unwrap().unwrap();
    }

    #[test]
    fn panicking_fault_hook_is_dropped_not_fatal() {
        // PR 9 poison policy: a fault hook that panics mid-call poisons its
        // mutex; the next caller drops the hook and keeps routing instead of
        // dying on what used to be `lock().unwrap()`.
        let router = fast_router(vec!["127.0.0.1:9".into()], 1);
        router.set_fault_hook(Arc::new(|_, _| panic!("hook blew up")));
        let command = parse_command("STATS").unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            router.fault_for(0, &command)
        }));
        assert!(caught.is_err(), "the hook's own panic still propagates");
        assert!(
            matches!(router.fault_for(0, &command), FaultAction::None),
            "the poisoned slot recovers by dropping the hook"
        );
        router.set_fault_hook(Arc::new(|_, _| FaultAction::KillConn));
        assert!(
            matches!(router.fault_for(0, &command), FaultAction::KillConn),
            "a fresh hook installs over the recovered slot"
        );
    }

    #[test]
    fn fault_hook_failures_always_answer_and_recover() {
        let backends: Vec<_> = (0..2).map(|_| spawn_backend()).collect();
        let addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
        let router = Arc::new(fast_router(addrs, 2));
        let mut conn = RouterConn::new(Arc::clone(&router));
        conn.handle_line("LOADTERMS d r(a(b))").unwrap();

        // Kill every shard connection mid-query: the query still fails over
        // (reconnect) or reports a well-formed error — here the hook fires
        // on every attempt, so the router reports failure cleanly.
        let deny = Arc::new(AtomicBool::new(true));
        let deny_hook = Arc::clone(&deny);
        router.set_fault_hook(Arc::new(move |_, command| {
            if deny_hook.load(Ordering::SeqCst) && matches!(command, Command::Query { .. }) {
                FaultAction::KillConn
            } else {
                FaultAction::None
            }
        }));
        let err = conn.handle_line("QUERY d child::a").unwrap_err();
        assert!(err.contains("connection killed"), "{err}");

        // Garbage responses surface as protocol failures, not hangs, and
        // the next clean request succeeds (connection resynced).
        deny.store(false, Ordering::SeqCst);
        router.set_fault_hook(Arc::new(|shard, command| {
            if shard == 0 && matches!(command, Command::Query { .. }) {
                FaultAction::Garbage("HTTP/1.1 502 Bad Gateway".into())
            } else {
                FaultAction::None
            }
        }));
        // The kill phase marked both shards DOWN (threshold 1); wait out
        // the probe interval so requests are let through again.
        std::thread::sleep(Duration::from_millis(120));
        // Shard 0 may or may not be hit first depending on rotation, but
        // every attempt must answer within the deadline.
        for _ in 0..4 {
            let response = conn.handle_line("QUERY d descendant::b[. is $x] -> x");
            let payload = response.expect("failover around the poisoned shard");
            assert_eq!(payload[0], "vars=x tuples=1");
        }
        conn.handle_line("SHUTDOWN").unwrap();
        for (_, handle) in backends {
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn serve_router_end_to_end_over_tcp() {
        let backends: Vec<_> = (0..2).map(|_| spawn_backend()).collect();
        let addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
        let router = Arc::new(fast_router(addrs, 2));
        let (addr, server) = spawn_router(&router, 2);
        let (mut reader, mut writer) = connect(addr);
        let mut request = |line: &str| {
            send(&mut writer, &[line]);
            read_response(&mut reader)
        };

        let (status, payload) = request("LOAD bib <bib><book><author/></book></bib>");
        assert_eq!(status, "OK 1");
        assert_eq!(payload[0], "loaded bib replicas=2/2");
        let (status, payload) = request("QUERY bib descendant::author[. is $a] -> a");
        assert_eq!(status, "OK 2");
        assert_eq!(payload, vec!["vars=a tuples=1", "author#2"]);
        let (status, _) = request("BOGUS");
        assert!(status.starts_with("ERR unknown command"), "{status}");
        let (_, payload) = request("STATS");
        assert_eq!(payload[1], "shards_up=2");

        // SHUTDOWN is answered, the router drains, and its shutdown hook
        // stops every shard before `serve` returns.
        let (status, payload) = request("SHUTDOWN");
        assert_eq!(status, "OK 1");
        assert_eq!(payload, vec!["bye"]);
        server.join().unwrap().unwrap();
        for (_, handle) in backends {
            handle.join().unwrap().unwrap();
        }
    }

    /// A pipelined burst written in one flush through the router is
    /// answered in request order, writes before the reads that see them.
    #[test]
    fn router_answers_a_pipelined_burst_in_order() {
        let backends: Vec<_> = (0..2).map(|_| spawn_backend()).collect();
        let addrs: Vec<String> = backends.iter().map(|(a, _)| a.clone()).collect();
        let router = Arc::new(fast_router(addrs, 2));
        let (addr, server) = spawn_router(&router, 2);
        let (mut reader, mut writer) = connect(addr);
        send(
            &mut writer,
            &[
                "LOADTERMS d r(a(b))",
                "QUERY d descendant::b[. is $x] -> x",
                "MUTATE d INSERT 1 1 b",
                "QUERY d descendant::b[. is $x] -> x",
                "BOGUS",
                "EVICT d",
                "SHUTDOWN",
            ],
        );
        assert_eq!(read_response(&mut reader).1, vec!["loaded d replicas=2/2"]);
        assert_eq!(read_response(&mut reader).1, vec!["vars=x tuples=1", "b#2"]);
        let (status, payload) = read_response(&mut reader);
        assert_eq!(status, "OK 3", "{payload:?}");
        assert_eq!(payload[0], "mutated d replicas=2/2");
        assert_eq!(read_response(&mut reader).1[0], "vars=x tuples=2");
        assert!(read_response(&mut reader)
            .0
            .starts_with("ERR unknown command"));
        assert_eq!(read_response(&mut reader).1, vec!["evicted=true"]);
        assert_eq!(read_response(&mut reader).1, vec!["bye"]);
        server.join().unwrap().unwrap();
        for (_, handle) in backends {
            handle.join().unwrap().unwrap();
        }
    }

    /// With two workers, a `QUERY` held by a slow shard blocks only its own
    /// connection: another connection's `QUERY` is answered meanwhile.
    #[test]
    fn slow_shard_blocks_only_its_own_connection() {
        const DELAY: Duration = Duration::from_millis(600);
        let backend = spawn_backend();
        let router = Arc::new(fast_router(vec![backend.0.clone()], 1));
        router.set_fault_hook(Arc::new(|_, command| match command {
            Command::Query { name, .. } if name == "slow" => FaultAction::Delay(DELAY),
            _ => FaultAction::None,
        }));
        assert!(
            DELAY < router.config().shard_timeout,
            "a delay, not a timeout"
        );
        let (addr, server) = spawn_router(&router, 2);
        let (mut slow_reader, mut slow_writer) = connect(addr);
        let (mut fast_reader, mut fast_writer) = connect(addr);
        send(
            &mut fast_writer,
            &["LOADTERMS slow r(a)", "LOADTERMS fast r(b)"],
        );
        read_response(&mut fast_reader);
        read_response(&mut fast_reader);

        let start = Instant::now();
        send(&mut slow_writer, &["QUERY slow descendant::a"]);
        // Give the slow request time to reach its worker first.
        std::thread::sleep(Duration::from_millis(50));
        send(&mut fast_writer, &["QUERY fast descendant::b"]);
        assert_eq!(read_response(&mut fast_reader).1, vec!["satisfiable=true"]);
        let fast_done = start.elapsed();
        assert_eq!(read_response(&mut slow_reader).1, vec!["satisfiable=true"]);
        assert!(
            fast_done < DELAY && start.elapsed() >= DELAY,
            "fast answered after {fast_done:?}, slow after {:?}",
            start.elapsed()
        );

        send(&mut fast_writer, &["SHUTDOWN"]);
        assert_eq!(read_response(&mut fast_reader).1, vec!["bye"]);
        server.join().unwrap().unwrap();
        backend.1.join().unwrap().unwrap();
    }
}
