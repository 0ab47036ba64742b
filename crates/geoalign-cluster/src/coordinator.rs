//! The cluster coordinator: a router that owns no crosswalk state of
//! its own. It consistently hashes each `(source, target)` pair to an
//! owner shard, forwards `/crosswalk` and `/ingest` bodies to that owner
//! verbatim, and broadcasts registrations to every shard.
//!
//! Answers stay byte-identical to a single node (DESIGN.md §16): the
//! owner shard holds exactly the per-pair state a single node would
//! consult and folds every ingest batch of the pair whole, as a single
//! node would.
//!
//! The coordinator plugs into a [`geoalign_serve::Server`] through the
//! route-override hook ([`Coordinator::install`]); the serve layer's
//! reactor, keep-alive handling, tracing, and cost accounting all apply
//! unchanged. Outbound hops carry the request's `X-Trace-Id`, and each
//! shard's `X-Cost` reply is folded back into the coordinator request's
//! cost as a labelled sub-cost, so one trace and one cost object cover
//! every hop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use geoalign_obs::{cost, current_trace_id, Registry, SubCost};
use geoalign_serve::store::RouteOverride;
use geoalign_serve::{json, AppState, Json, Request, Response};

use crate::client::{Backend, ClientConfig, ClientError, ClientResponse};
use crate::metrics::ClusterMetrics;
use crate::ring::HashRing;

/// One shard's replica set: a name (stable ring identity) plus a primary
/// address and an optional warm standby.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Ring identity. Failover swaps addresses, never the name, so
    /// promotion never moves pairs.
    pub name: String,
    /// `host:port` of the read-write primary.
    pub primary: String,
    /// `host:port` of the WAL-shipping standby, if any.
    pub standby: Option<String>,
}

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The shard map.
    pub shards: Vec<ShardSpec>,
    /// Outbound HTTP client settings.
    pub client: ClientConfig,
    /// Consecutive failed health probes before failover.
    pub fail_threshold: u32,
    /// Delay between health-probe rounds.
    pub health_interval: Duration,
}

impl CoordinatorConfig {
    /// Defaults for `shards`: failover after 3 misses, probe every
    /// 500 ms.
    pub fn new(shards: Vec<ShardSpec>) -> CoordinatorConfig {
        CoordinatorConfig {
            shards,
            client: ClientConfig::default(),
            fail_threshold: 3,
            health_interval: Duration::from_millis(500),
        }
    }
}

/// Which replica currently serves a shard's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Active {
    Primary,
    Standby,
}

#[derive(Debug)]
struct ShardHealth {
    active: Active,
    consecutive_failures: u32,
    failovers: u64,
}

/// A shard's runtime state: its spec, pooled backends, and health.
#[derive(Debug)]
struct Shard {
    spec: ShardSpec,
    primary: Backend,
    standby: Option<Backend>,
    health: Mutex<ShardHealth>,
}

impl Shard {
    fn health(&self) -> std::sync::MutexGuard<'_, ShardHealth> {
        self.health.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The backend traffic should go to right now.
    fn active(&self) -> &Backend {
        match self.health().active {
            Active::Primary => &self.primary,
            // A shard is only flipped when a standby exists; fall back
            // to the primary defensively rather than panic.
            Active::Standby => self.standby.as_ref().unwrap_or(&self.primary),
        }
    }

    fn retries_performed(&self) -> u64 {
        self.primary.retries_performed()
            + self.standby.as_ref().map_or(0, |b| b.retries_performed())
    }
}

/// The routing front end. Construct with [`Coordinator::new`],
/// attach to a server with [`Coordinator::install`], and drive failover
/// with [`Coordinator::run_health_loop`] (or [`health_round`] directly
/// in tests).
///
/// [`health_round`]: Coordinator::health_round
#[derive(Debug)]
pub struct Coordinator {
    ring: HashRing,
    shards: Vec<Shard>,
    metrics: ClusterMetrics,
    fail_threshold: u32,
    health_interval: Duration,
}

impl Coordinator {
    /// Builds the coordinator. Fails on an empty shard map or duplicate
    /// shard names (the ring hashes names, so duplicates would alias).
    pub fn new(config: CoordinatorConfig) -> Result<Arc<Coordinator>, String> {
        if config.shards.is_empty() {
            return Err("coordinator needs at least one shard".to_owned());
        }
        let names: Vec<String> = config.shards.iter().map(|s| s.name.clone()).collect();
        for (i, name) in names.iter().enumerate() {
            if names[..i].contains(name) {
                return Err(format!("duplicate shard name {name:?}"));
            }
        }
        let shards = config
            .shards
            .into_iter()
            .map(|spec| Shard {
                primary: Backend::new(spec.primary.clone(), config.client.clone()),
                standby: spec
                    .standby
                    .clone()
                    .map(|addr| Backend::new(addr, config.client.clone())),
                spec,
                health: Mutex::new(ShardHealth {
                    active: Active::Primary,
                    consecutive_failures: 0,
                    failovers: 0,
                }),
            })
            .collect();
        Ok(Arc::new(Coordinator {
            ring: HashRing::new(&names),
            shards,
            metrics: ClusterMetrics::new(),
            fail_threshold: config.fail_threshold.max(1),
            health_interval: config.health_interval,
        }))
    }

    /// The coordinator's metrics.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Installs this coordinator as `state`'s route override, so a
    /// server bound over `state` serves cluster traffic.
    pub fn install(self: &Arc<Self>, state: &AppState) {
        let me = Arc::clone(self);
        let hook: RouteOverride = Arc::new(move |req| me.handle(req));
        state.set_route_override(hook);
    }

    /// Routes one request; `None` falls through to the built-in routes
    /// of the (empty) local [`AppState`].
    pub fn handle(&self, req: &Request) -> Option<Response> {
        let resp = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/crosswalk") | ("POST", "/ingest") => self.route_to_owner(req),
            ("POST", "/systems") | ("POST", "/references") | ("POST", "/checkpoint") => {
                self.broadcast(req)
            }
            ("GET", "/healthz") => self.status_response(),
            ("GET", "/metrics") => self.metrics_response(),
            _ => return None,
        };
        self.metrics.requests.inc();
        Some(resp)
    }

    /// Cluster status as the `/healthz` JSON body.
    pub fn status_json(&self) -> Json {
        let shards: Vec<Json> = self
            .shards
            .iter()
            .map(|s| {
                let h = s.health();
                let active = match h.active {
                    Active::Primary => s.spec.primary.as_str(),
                    Active::Standby => s.spec.standby.as_deref().unwrap_or(s.spec.primary.as_str()),
                };
                Json::object([
                    ("name", s.spec.name.as_str().into()),
                    ("active", active.into()),
                    ("primary", s.spec.primary.as_str().into()),
                    (
                        "standby",
                        s.spec.standby.as_deref().map_or(Json::Null, Json::from),
                    ),
                    (
                        "consecutive_failures",
                        f64::from(h.consecutive_failures).into(),
                    ),
                    ("failovers", (h.failovers as f64).into()),
                ])
            })
            .collect();
        Json::object([
            ("status", "ok".into()),
            ("role", "coordinator".into()),
            ("shards", Json::Array(shards)),
        ])
    }

    fn status_response(&self) -> Response {
        self.sync_client_retries();
        Response::json(self.status_json().to_string())
    }

    fn metrics_response(&self) -> Response {
        self.sync_client_retries();
        let text =
            geoalign_obs::expo::prometheus_text([self.metrics.registry(), Registry::global()]);
        Response::text("text/plain; version=0.0.4", text)
    }

    /// Folds each backend's connection-retry count into the counter
    /// (counters only go up; backends track their own totals).
    fn sync_client_retries(&self) {
        let total: u64 = self.shards.iter().map(Shard::retries_performed).sum();
        let current = self.metrics.client_retries.get();
        if total > current {
            self.metrics.client_retries.add(total - current);
        }
    }

    /// `/crosswalk` and `/ingest`: forward verbatim to the pair's owner,
    /// which validates and folds the whole body as a single node would.
    /// Bodies that don't parse far enough to name a pair go to shard 0,
    /// whose error response matches what a single node would say.
    fn route_to_owner(&self, req: &Request) -> Response {
        let owner = req
            .body_text()
            .ok()
            .and_then(|body| owner_of(&self.ring, body))
            .unwrap_or(0);
        self.proxy(owner, req)
    }

    /// Forwards `req` verbatim to one shard and relays the answer.
    fn proxy(&self, shard_index: usize, req: &Request) -> Response {
        let t0 = Instant::now();
        self.metrics.proxied_requests.inc();
        let shard = &self.shards[shard_index];
        let path = if req.query.is_empty() {
            req.path.clone()
        } else {
            format!("{}?{}", req.path, req.query)
        };
        match shard
            .active()
            .request(&req.method, &path, &trace_headers(), &req.body)
        {
            Ok(resp) => {
                self.absorb_cost(&shard.spec.name, &resp);
                self.metrics
                    .proxy_latency
                    .record_value(t0.elapsed().as_micros() as u64);
                relay(resp)
            }
            Err(e) => self.transport_error(&shard.spec.name, &e),
        }
    }

    /// Sends `req` to every shard; registrations land everywhere, so
    /// whichever shard owns a pair knows both of its unit systems.
    /// Relays the first shard's response on success, the first failure
    /// otherwise.
    fn broadcast(&self, req: &Request) -> Response {
        let trace = trace_headers();
        let jobs: Vec<_> = self
            .shards
            .iter()
            .map(|shard| {
                let backend = shard.active();
                let (trace, method, path, body) = (&trace, &req.method, &req.path, &req.body);
                move || backend.request(method, path, trace, body)
            })
            .collect();
        self.metrics.fanout_requests.add(jobs.len() as u64);
        let results = fan_out(jobs);

        let mut first: Option<Response> = None;
        for (i, result) in results.into_iter().enumerate() {
            let shard_name = &self.shards[i].spec.name;
            let resp = match result {
                Ok(resp) => resp,
                Err(e) => return self.transport_error(shard_name, &e),
            };
            self.absorb_cost(shard_name, &resp);
            if resp.status != 200 {
                return relay(resp);
            }
            if first.is_none() {
                first = Some(relay(resp));
            }
        }
        first.unwrap_or_else(|| Response::error(500, "broadcast reached no shards"))
    }

    /// Maps a transport failure to the shed contract: timeouts become
    /// `504` naming the shard, everything else `503 Retry-After: 1`.
    fn transport_error(&self, shard_name: &str, err: &ClientError) -> Response {
        if err.is_timeout() {
            self.metrics.gateway_timeouts.inc();
            let mut resp = Response::json(
                Json::object([
                    ("error", "shard request timed out".into()),
                    ("shard", shard_name.into()),
                ])
                .to_string(),
            );
            resp.status = 504;
            resp
        } else {
            self.metrics.shard_unavailable.inc();
            let mut resp = Response::error(
                503,
                &format!("shard {shard_name} has no live replica: {err}"),
            );
            resp.set_header("Retry-After", "1");
            resp
        }
    }

    /// Folds a shard reply's `X-Cost` into the current request's cost as
    /// a labelled sub-cost. Must run on the serve worker thread (the
    /// cost scope is a thread-local), which is why fan-outs collect
    /// responses first and absorb after joining.
    fn absorb_cost(&self, label: &str, resp: &ClientResponse) {
        let Some(parsed) = resp
            .header("x-cost")
            .and_then(geoalign_obs::RequestCost::parse_header_value)
        else {
            return;
        };
        cost::add_remote(SubCost {
            label: label.to_owned(),
            rows: parsed.rows,
            cells: parsed.cells,
            exec_tasks: parsed.exec_tasks,
            alloc_bytes: parsed.alloc_bytes,
        });
    }

    /// One health-probe round: probe each shard's active backend, count
    /// consecutive misses, and fail over a shard whose primary has
    /// missed `fail_threshold` probes and has a standby. Public so tests
    /// (and `run_health_loop`) drive rounds deterministically.
    pub fn health_round(&self) {
        for shard in &self.shards {
            self.metrics.health_checks.inc();
            let healthy = shard
                .active()
                .request("GET", "/healthz", &[], b"")
                .map(|r| r.status == 200)
                .unwrap_or(false);
            let mut h = shard.health();
            if healthy {
                h.consecutive_failures = 0;
                continue;
            }
            h.consecutive_failures += 1;
            let promote = h.consecutive_failures >= self.fail_threshold
                && h.active == Active::Primary
                && shard.standby.is_some();
            drop(h);
            if promote {
                self.try_failover(shard);
            }
        }
    }

    /// Asks the standby to promote; on success flips the shard's active
    /// backend. A standby that is not ready (still healing a torn
    /// segment, say) answers 409 and the next round retries.
    fn try_failover(&self, shard: &Shard) {
        let Some(standby) = shard.standby.as_ref() else {
            return;
        };
        match standby.request("POST", "/replica/promote", &[], b"{}") {
            Ok(resp) if resp.status == 200 => {
                let mut h = shard.health();
                h.active = Active::Standby;
                h.consecutive_failures = 0;
                h.failovers += 1;
                drop(h);
                self.metrics.failover_transitions.inc();
            }
            // Unreachable or refusing: keep probing, retry next round.
            Ok(_) | Err(_) => {}
        }
    }

    /// Probes shards every `health_interval` until `stop` is set. Meant
    /// for the CLI's main thread; the serve reactor handles traffic on
    /// its own threads.
    pub fn run_health_loop(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            self.health_round();
            let mut slept = Duration::ZERO;
            while slept < self.health_interval && !stop.load(Ordering::Relaxed) {
                let step = Duration::from_millis(20).min(self.health_interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
        }
    }
}

/// Runs `jobs` on one scoped thread each, returning results in job
/// order. Scoped threads are joined before the handler returns — no
/// detached threads, no channels.
fn fan_out<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Re-homes a shard's response onto the coordinator's connection,
/// dropping hop-by-hop and serve-managed headers (the coordinator's own
/// serve layer re-adds `Content-Length`, `X-Trace-Id`, and `X-Cost`).
fn relay(resp: ClientResponse) -> Response {
    let content_type: &'static str = match resp.header("content-type") {
        Some(ct) if ct.starts_with("application/octet-stream") => "application/octet-stream",
        Some(ct) if ct.starts_with("text/plain") => "text/plain; version=0.0.4",
        _ => "application/json",
    };
    let mut out = Response::json(resp.body);
    out.status = resp.status;
    out.content_type = content_type;
    for (name, value) in resp.headers {
        if matches!(
            name.as_str(),
            "content-length" | "content-type" | "connection" | "x-trace-id" | "x-cost" | "date"
        ) {
            continue;
        }
        out.set_header(canonical_header(&name), value);
    }
    out
}

/// `retry-after` → `Retry-After`: shard responses arrive with lowercased
/// header names; re-emit them in canonical casing.
fn canonical_header(lower: &str) -> String {
    let mut out = String::with_capacity(lower.len());
    let mut upper_next = true;
    for ch in lower.chars() {
        if ch == '-' {
            upper_next = true;
            out.push(ch);
        } else if upper_next {
            out.push(ch.to_ascii_uppercase());
            upper_next = false;
        } else {
            out.push(ch);
        }
    }
    out
}

/// The shard owning the pair a `/crosswalk` or `/ingest` body names, or
/// `None` when the body does not parse or names no pair. A byte scan
/// reads the top-level `"source"` and `"target"` without decoding the
/// (large) attribute columns or points; on anything the scan cannot
/// vouch for, the full parse decides, so the owner is always the one the
/// parse would name.
fn owner_of(ring: &HashRing, body: &str) -> Option<usize> {
    match json::scan_str_fields(body, ["source", "target"]) {
        Some([source, target]) => Some(ring.shard_for(source, target)),
        None => owner_by_parse(ring, body),
    }
}

/// [`owner_of`] by a full parse: the fallback, and the reference the
/// scan is tested against.
fn owner_by_parse(ring: &HashRing, body: &str) -> Option<usize> {
    let doc = json::parse(body).ok()?;
    let source = doc.get("source")?.as_str()?;
    let target = doc.get("target")?.as_str()?;
    Some(ring.shard_for(source, target))
}

/// `X-Trace-Id` for outbound hops, read from the handler thread's trace
/// scope before any fan-out thread spawns.
fn trace_headers() -> Vec<(String, String)> {
    match current_trace_id() {
        Some(id) => vec![("X-Trace-Id".to_owned(), id)],
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoalign_serve::{Server, ServerConfig};
    use proptest::prelude::*;

    /// SplitMix64: one proptest seed drives a whole generated body. A
    /// clean generator emits only tokens the scan accepts; a dirty one
    /// also emits tokens it must refuse (escapes it does not decode,
    /// numbers and literals `parse` rejects or accepts off-grammar).
    struct Gen {
        state: u64,
        dirty: bool,
    }

    impl Gen {
        fn new(seed: u64) -> Gen {
            Gen {
                state: seed,
                dirty: seed % 2 == 1,
            }
        }

        fn below(&mut self, n: usize) -> usize {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }

        /// Picks from `clean`, or from `clean` and `bad` when dirty.
        fn token<'a>(&mut self, clean: &[&'a str], bad: &[&'a str]) -> &'a str {
            let n = clean.len() + if self.dirty { bad.len() } else { 0 };
            let i = self.below(n);
            clean
                .get(i)
                .copied()
                .unwrap_or_else(|| bad[i - clean.len()])
        }

        fn ws(&mut self) -> &'static str {
            self.pick(&["", "", " ", "\n\t", "\r\n  "])
        }

        /// A string token: plain, with escapes the scan skips or
        /// refuses, non-ASCII, or broken.
        fn string(&mut self) -> String {
            let raw = self.token(
                &[
                    "zip", "county", "tract", "", "a\\\"b", "x\\/y", "s\\n", "é世",
                ],
                &["\\u0041", "\\q", "tab\t"],
            );
            format!("\"{raw}\"")
        }

        fn value(&mut self, depth: usize) -> String {
            let kind = if depth == 0 {
                self.below(3)
            } else {
                self.below(5)
            };
            match kind {
                0 => self
                    .token(
                        &["0", "-1.5", "2e10", "1E-3", "42", "-0", "3.25e+2"],
                        &["01", ".5", "+1", "-", "1e", "1.", "2-3"],
                    )
                    .to_owned(),
                1 => self.string(),
                2 => self
                    .token(&["true", "false", "null"], &["nul", "True"])
                    .to_owned(),
                3 => {
                    let items: Vec<String> = (0..self.below(4))
                        .map(|_| format!("{}{}{}", self.ws(), self.value(depth - 1), self.ws()))
                        .collect();
                    format!("[{}]", items.join(","))
                }
                _ => self.object(depth - 1, false),
            }
        }

        /// An object of a few members; at the top level, keys lean
        /// towards `source` and `target` (duplicates and look-alikes
        /// included) and their values towards plain strings.
        fn object(&mut self, depth: usize, top: bool) -> String {
            let count = if top {
                2 + self.below(4)
            } else {
                self.below(4)
            };
            let members: Vec<String> = (0..count)
                .map(|_| {
                    let key = if top {
                        self.token(
                            &[
                                "\"source\"",
                                "\"target\"",
                                "\"source\"",
                                "\"target\"",
                                "\"attributes\"",
                                "\"Source\"",
                            ],
                            &["\"sour\\u0063e\"", "\"tar\\/get\""],
                        )
                        .to_owned()
                    } else {
                        self.string()
                    };
                    let value = if top && key.len() == 8 && self.below(8) > 0 {
                        format!("\"{}\"", self.pick(&["zip", "county", "tract", "", "é世"]))
                    } else {
                        self.value(depth)
                    };
                    format!(
                        "{}{key}{}:{}{value}{}",
                        self.ws(),
                        self.ws(),
                        self.ws(),
                        self.ws()
                    )
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }

        /// A top-level body, sometimes truncated or with one ASCII byte
        /// overwritten.
        fn body(&mut self) -> String {
            let mut body = format!("{}{}{}", self.ws(), self.object(3, true), self.ws());
            match self.below(6) {
                0 => {
                    let mut cut = self.below(body.len() + 1);
                    while !body.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    body.truncate(cut);
                }
                1 => {
                    let at = self.below(body.len());
                    if body.as_bytes()[at].is_ascii() {
                        let with =
                            self.pick(&["\"", "\\", ",", ":", "{", "}", "[", "]", " ", "x", "0"]);
                        body.replace_range(at..at + 1, with);
                    }
                }
                _ => {}
            }
            body
        }
    }

    fn test_ring() -> HashRing {
        HashRing::new(&["s0".to_owned(), "s1".to_owned(), "s2".to_owned()])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn routing_scan_agrees_with_the_full_parse(seed in 0u64..u64::MAX) {
            let ring = test_ring();
            let body = Gen::new(seed).body();
            let by_parse = owner_by_parse(&ring, &body);
            if let Some([source, target]) = json::scan_str_fields(&body, ["source", "target"]) {
                let scanned = Some(ring.shard_for(source, target));
                prop_assert!(scanned == by_parse, "scan {scanned:?} != parse {by_parse:?}: {body}");
            }
            let routed = owner_of(&ring, &body);
            prop_assert!(routed == by_parse, "route {routed:?} != parse {by_parse:?}: {body}");
        }
    }

    #[test]
    fn routing_scan_generator_covers_both_outcomes() {
        // The property above is only as good as its bodies: many must be
        // decided by the scan, and many must fall back, some of them to
        // shard 0 because they do not parse.
        let ring = test_ring();
        let (mut decided, mut fell_back, mut malformed) = (0, 0, 0);
        for seed in 0..2000 {
            let body = Gen::new(seed).body();
            if json::scan_str_fields(&body, ["source", "target"]).is_some() {
                decided += 1;
            } else {
                fell_back += 1;
                if json::parse(&body).is_err() {
                    malformed += 1;
                    assert_eq!(owner_of(&ring, &body), None, "{body}");
                }
            }
        }
        assert!(decided >= 200, "only {decided} bodies decided by the scan");
        assert!(fell_back >= 200, "only {fell_back} bodies fell back");
        assert!(malformed >= 100, "only {malformed} malformed bodies");
    }

    fn spawn_shard() -> Server {
        Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    fn coordinator_over(servers: &[&Server]) -> (Arc<Coordinator>, Server) {
        let shards = servers
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSpec {
                name: format!("shard-{i}"),
                primary: s.addr().to_string(),
                standby: None,
            })
            .collect();
        let coordinator = Coordinator::new(CoordinatorConfig::new(shards)).unwrap();
        let state = AppState::new(8);
        coordinator.install(&state);
        let front = Server::bind_with_state("127.0.0.1:0", ServerConfig::default(), state).unwrap();
        (coordinator, front)
    }

    fn client_for(server: &Server) -> Backend {
        Backend::new(server.addr().to_string(), ClientConfig::default())
    }

    /// Drives the same world through `front` and directly against a
    /// fresh single-node oracle, returning (cluster, oracle) bodies for
    /// each step so callers can byte-compare.
    fn run_world(front: &Backend, requests: &[(&str, &str, String)]) -> Vec<(u16, Vec<u8>)> {
        requests
            .iter()
            .map(|(method, path, body)| {
                let r = front.request(method, path, &[], body.as_bytes()).unwrap();
                (r.status, r.body)
            })
            .collect()
    }

    fn world_requests(points_per_batch: usize) -> Vec<(&'static str, &'static str, String)> {
        let mut reqs = vec![
            (
                "POST",
                "/systems",
                r#"{"name":"zip","units":["z1","z2","z3"]}"#.to_owned(),
            ),
            (
                "POST",
                "/systems",
                r#"{"name":"county","units":["A","B"]}"#.to_owned(),
            ),
            (
                "POST",
                "/references",
                r#"{"source":"zip","target":"county","name":"population",
                   "entries":[["z1","A",100],["z2","A",60],["z2","B",40],["z3","B",80]]}"#
                    .to_owned(),
            ),
        ];
        let points: Vec<String> = (0..points_per_batch)
            .map(|i| {
                let unit = ["z1", "z2", "z2", "z3", "nope"][i % 5];
                let county = if i % 2 == 0 { "A" } else { "B" };
                format!(r#"["{unit}","{county}",{}.5]"#, i + 1)
            })
            .collect();
        reqs.push((
            "POST",
            "/ingest",
            format!(
                r#"{{"source":"zip","target":"county","attribute":"households","points":[{}]}}"#,
                points.join(",")
            ),
        ));
        reqs.push((
            "POST",
            "/crosswalk",
            r#"{"source":"zip","target":"county","attributes":[{"name":"steam","values":[10,20,30]}]}"#
                .to_owned(),
        ));
        reqs
    }

    #[test]
    fn cluster_answers_are_byte_identical_to_a_single_node() {
        // 3 shards behind a coordinator vs one plain node, same inputs.
        let shards: Vec<Server> = (0..3).map(|_| spawn_shard()).collect();
        let refs: Vec<&Server> = shards.iter().collect();
        let (coordinator, front) = coordinator_over(&refs);
        let oracle = spawn_shard();

        let requests = world_requests(12);
        let got = run_world(&client_for(&front), &requests);
        let want = run_world(&client_for(&oracle), &requests);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.0, w.0, "status diverged at step {i}");
            assert_eq!(
                String::from_utf8_lossy(&g.1),
                String::from_utf8_lossy(&w.1),
                "body diverged at step {i}"
            );
        }
        // The ingest and the crosswalk went to the owner; the three
        // registrations were broadcast.
        assert_eq!(coordinator.metrics().proxied_requests.get(), 2);
        for s in shards {
            s.shutdown();
        }
        front.shutdown();
        oracle.shutdown();
    }

    #[test]
    fn ingest_reaches_only_the_owner_shard() {
        let shards: Vec<Server> = (0..2).map(|_| spawn_shard()).collect();
        let refs: Vec<&Server> = shards.iter().collect();
        let (coordinator, front) = coordinator_over(&refs);
        let client = client_for(&front);
        let requests = world_requests(1000);
        for (method, path, body) in &requests[..3] {
            let r = client.request(method, path, &[], body.as_bytes()).unwrap();
            assert_eq!(r.status, 200, "{}", r.body_text());
        }
        let proxied = coordinator.metrics().proxied_requests.get();
        let (_, path, body) = &requests[3];
        let r = client.request("POST", path, &[], body.as_bytes()).unwrap();
        assert_eq!(r.status, 200, "{}", r.body_text());

        assert_eq!(coordinator.metrics().proxied_requests.get(), proxied + 1);
        let names = ["shard-0".to_owned(), "shard-1".to_owned()];
        let owner = HashRing::new(&names).shard_for("zip", "county");
        let batches = |i: usize| shards[i].state().metrics.ingest_batch_points.count();
        assert_eq!(batches(owner), 1);
        assert_eq!(batches(1 - owner), 0);
        for s in shards {
            s.shutdown();
        }
        front.shutdown();
    }

    #[test]
    fn bad_batch_relays_the_owners_400_and_folds_nothing() {
        let shards: Vec<Server> = (0..2).map(|_| spawn_shard()).collect();
        let refs: Vec<&Server> = shards.iter().collect();
        let (_coordinator, front) = coordinator_over(&refs);
        let oracle = spawn_shard();
        let requests = world_requests(0);
        // A negative weight anywhere rejects the whole batch: the owner's
        // 400 comes back byte for byte as a single node says it.
        let bad = r#"{"source":"zip","target":"county","attribute":"h",
            "points":[["z1","A",1],["z2","B",2],["z3","B",-4],["z1","A",3]]}"#;
        let mut world: Vec<(&str, &str, String)> = requests[..3].to_vec();
        world.push(("POST", "/ingest", bad.to_owned()));
        world.push(requests[4].clone());
        let got = run_world(&client_for(&front), &world);
        let want = run_world(&client_for(&oracle), &world);
        assert_eq!(got, want);
        let (status, body) = &got[3];
        assert_eq!(*status, 400);
        assert!(String::from_utf8_lossy(body).contains("weight"));
        // No shard registered a streaming reference for the pair.
        for s in &shards {
            assert_eq!(s.state().pipeline().reference_count("zip", "county"), 1);
        }
        for s in shards {
            s.shutdown();
        }
        front.shutdown();
        oracle.shutdown();
    }

    #[test]
    fn downed_shard_sheds_with_503_and_retry_after() {
        let shard = spawn_shard();
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let shards = vec![
            ShardSpec {
                name: "alive".to_owned(),
                primary: shard.addr().to_string(),
                standby: None,
            },
            ShardSpec {
                name: "dead".to_owned(),
                primary: dead_addr,
                standby: None,
            },
        ];
        let mut config = CoordinatorConfig::new(shards);
        config.client.retries = 0;
        config.client.connect_timeout = Duration::from_millis(100);
        let coordinator = Coordinator::new(config).unwrap();
        let state = AppState::new(8);
        coordinator.install(&state);
        let front = Server::bind_with_state("127.0.0.1:0", ServerConfig::default(), state).unwrap();
        let client = client_for(&front);

        // Broadcasts touch the dead shard, so registration itself sheds.
        let r = client
            .request("POST", "/systems", &[], br#"{"name":"zip","units":["z1"]}"#)
            .unwrap();
        assert_eq!(r.status, 503, "{}", r.body_text());
        assert_eq!(r.header("retry-after"), Some("1"));
        assert!(r.body_text().contains("dead"), "{}", r.body_text());
        assert!(coordinator.metrics().shard_unavailable.get() >= 1);
        shard.shutdown();
        front.shutdown();
    }

    #[test]
    fn stalled_shard_times_out_with_504_naming_the_shard() {
        // A listener that accepts and never answers stands in for a hung
        // shard; every pair routes to it in a 1-shard map.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let shards = vec![ShardSpec {
            name: "tarpit".to_owned(),
            primary: listener.local_addr().unwrap().to_string(),
            standby: None,
        }];
        let mut config = CoordinatorConfig::new(shards);
        config.client.read_timeout = Duration::from_millis(100);
        config.client.retries = 0;
        let coordinator = Coordinator::new(config).unwrap();
        let state = AppState::new(8);
        coordinator.install(&state);
        let front = Server::bind_with_state("127.0.0.1:0", ServerConfig::default(), state).unwrap();
        let client = client_for(&front);
        let r = client
            .request(
                "POST",
                "/crosswalk",
                &[],
                br#"{"source":"a","target":"b","attributes":[]}"#,
            )
            .unwrap();
        assert_eq!(r.status, 504, "{}", r.body_text());
        let doc = json::parse(&r.body_text()).unwrap();
        assert_eq!(doc.get("shard").unwrap().as_str(), Some("tarpit"));
        assert_eq!(coordinator.metrics().gateway_timeouts.get(), 1);
        front.shutdown();
        drop(listener);
    }

    #[test]
    fn failover_promotes_the_standby_and_reroutes() {
        // The "standby" here is a plain server whose override accepts
        // /replica/promote; real promotion is the standby module's job.
        let primary = spawn_shard();
        let standby_state = AppState::new(8);
        let promoted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let promoted = Arc::clone(&promoted);
            standby_state.set_route_override(Arc::new(move |req: &Request| {
                if req.method == "POST" && req.path == "/replica/promote" {
                    promoted.store(true, Ordering::SeqCst);
                    return Some(Response::json(r#"{"promoted":true}"#.to_owned()));
                }
                None
            }));
        }
        let standby =
            Server::bind_with_state("127.0.0.1:0", ServerConfig::default(), standby_state).unwrap();
        let shards = vec![ShardSpec {
            name: "s0".to_owned(),
            primary: primary.addr().to_string(),
            standby: Some(standby.addr().to_string()),
        }];
        let mut config = CoordinatorConfig::new(shards);
        config.fail_threshold = 2;
        config.client.retries = 0;
        config.client.connect_timeout = Duration::from_millis(100);
        let coordinator = Coordinator::new(config).unwrap();

        coordinator.health_round();
        assert_eq!(coordinator.metrics().failover_transitions.get(), 0);

        // Kill the primary; two failed rounds trip the threshold.
        primary.shutdown();
        coordinator.health_round();
        coordinator.health_round();
        assert!(promoted.load(Ordering::SeqCst), "standby never promoted");
        assert_eq!(coordinator.metrics().failover_transitions.get(), 1);
        let status = coordinator.status_json();
        let shard = &status.get("shards").unwrap().as_array().unwrap()[0];
        assert_eq!(
            shard.get("active").unwrap().as_str().unwrap(),
            standby.addr().to_string()
        );
        assert_eq!(shard.get("failovers").unwrap(), &Json::Number(1.0));
        standby.shutdown();
    }
}
