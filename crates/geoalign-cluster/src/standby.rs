//! The warm standby: a process that continuously pulls its primary's
//! WAL segments and snapshot over the `/replica/*` shipping routes into
//! a local [`ReplicaDir`], refuses data traffic while unpromoted, and on
//! `POST /replica/promote` verifies the shipped copy is defect-free,
//! opens it read-write through the normal recovery path
//! ([`AppState::open_durable`]), and from then on serves every route
//! exactly like a single node.
//!
//! Promotion readiness is strict (DESIGN.md §16): *any* shipping defect
//! — torn snapshot, damaged sealed segment, torn final segment — blocks
//! promotion with `409` until a re-fetch from the primary's stable
//! valid-prefix boundary heals it. On a shipped copy a defect means
//! transfer damage, not a crash mid-append: the records still exist on
//! the primary, so refusing and re-fetching loses nothing, while
//! promoting through it would silently drop acknowledged writes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use geoalign_serve::{json, AppState, Json, Request, Response};
use geoalign_store::ship::ReplicaDir;

use crate::client::{Backend, ClientConfig};
use crate::metrics::ClusterMetrics;

/// Standby knobs.
#[derive(Debug, Clone)]
pub struct StandbyConfig {
    /// Local directory the shipped copy accumulates in (and the data
    /// dir the promoted server opens).
    pub data_dir: std::path::PathBuf,
    /// `host:port` of the primary to pull from.
    pub primary: String,
    /// Outbound HTTP client settings.
    pub client: ClientConfig,
    /// Delay between pull rounds.
    pub pull_interval: Duration,
    /// Crosswalk cache capacity for the post-promotion server.
    pub cache_capacity: usize,
}

impl StandbyConfig {
    /// Defaults: pull every 200 ms, cache 64 prepared crosswalks.
    pub fn new(data_dir: impl Into<std::path::PathBuf>, primary: impl Into<String>) -> Self {
        StandbyConfig {
            data_dir: data_dir.into(),
            primary: primary.into(),
            client: ClientConfig::default(),
            pull_interval: Duration::from_millis(200),
            cache_capacity: 64,
        }
    }
}

/// Routes a standby refuses until promoted: everything that reads or
/// writes crosswalk state.
const DATA_ROUTES: &[&str] = &[
    "/systems",
    "/references",
    "/ingest",
    "/crosswalk",
    "/checkpoint",
];

/// A WAL-shipping standby. Construct with [`Standby::new`], attach to a
/// server with [`Standby::install`], and drive replication with
/// [`Standby::run_pull_loop`] (or [`Standby::pull_once`] in tests).
#[derive(Debug)]
pub struct Standby {
    config: StandbyConfig,
    replica: ReplicaDir,
    upstream: Backend,
    /// Set exactly once, at promotion; afterwards every request routes
    /// through this state like a single node.
    promoted: OnceLock<Arc<AppState>>,
    applied_seq: AtomicU64,
    /// Serialises pull rounds against promotion, so a promote never
    /// races a half-applied chunk.
    serialize: Mutex<()>,
    metrics: ClusterMetrics,
}

impl Standby {
    /// Opens (or creates) the replica directory and readies the puller.
    pub fn new(config: StandbyConfig) -> Result<Arc<Standby>, geoalign_store::StoreError> {
        let replica = ReplicaDir::open(&config.data_dir)?;
        let upstream = Backend::new(config.primary.clone(), config.client.clone());
        Ok(Arc::new(Standby {
            replica,
            upstream,
            promoted: OnceLock::new(),
            applied_seq: AtomicU64::new(0),
            serialize: Mutex::new(()),
            metrics: ClusterMetrics::new(),
            config,
        }))
    }

    /// The standby's metrics.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Whether promotion has happened.
    pub fn is_promoted(&self) -> bool {
        self.promoted.get().is_some()
    }

    /// Highest sequence number the shipped copy has fully applied.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::SeqCst)
    }

    /// Installs this standby as `state`'s route override.
    pub fn install(self: &Arc<Self>, state: &AppState) {
        let me = Arc::clone(self);
        state.set_route_override(Arc::new(move |req| me.handle(req)));
    }

    /// Routes one request. Promoted: everything goes through the
    /// promoted state's normal router. Unpromoted: replication control
    /// routes answer, data routes shed with `503 Retry-After`.
    pub fn handle(&self, req: &Request) -> Option<Response> {
        if let Some(state) = self.promoted.get() {
            // Keep promotion idempotent after the flip: the built-in
            // router has no such route and would 404 a retrying
            // coordinator into a second, spurious failover attempt.
            if req.method == "POST" && req.path == "/replica/promote" {
                return Some(self.promote());
            }
            return Some(geoalign_serve::route(state, req));
        }
        self.metrics.requests.inc();
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/replica/promote") => Some(self.promote()),
            ("GET", "/healthz") => Some(self.health_response()),
            ("GET", "/metrics") => Some(Response::text(
                "text/plain; version=0.0.4",
                geoalign_obs::expo::prometheus_text([
                    self.metrics.registry(),
                    geoalign_obs::Registry::global(),
                ]),
            )),
            ("POST", p) if DATA_ROUTES.contains(&p) => {
                let mut resp = Response::error(503, "standby: not promoted; retry on the primary");
                resp.set_header("Retry-After", "1");
                Some(resp)
            }
            _ => None,
        }
    }

    fn health_response(&self) -> Response {
        match self.replica.status() {
            Ok(s) => Response::json(
                Json::object([
                    ("status", "standby".into()),
                    ("role", "standby".into()),
                    ("applied_seq", (s.applied_seq as f64).into()),
                    ("ready", Json::Bool(s.ready())),
                    ("snapshot_present", Json::Bool(s.snapshot_present)),
                    ("primary", self.config.primary.as_str().into()),
                    (
                        "defects",
                        Json::Array(s.defects.iter().map(|d| Json::from(d.as_str())).collect()),
                    ),
                ])
                .to_string(),
            ),
            Err(e) => Response::error(500, &format!("replica status failed: {e}")),
        }
    }

    /// `POST /replica/promote`: verify the shipped copy, open it
    /// read-write, flip. Idempotent; refuses with `409` listing the
    /// defects while the copy is damaged.
    fn promote(&self) -> Response {
        let _guard = self.serialize.lock().unwrap_or_else(|e| e.into_inner());
        if self.promoted.get().is_some() {
            return Response::json(
                Json::object([
                    ("promoted", Json::Bool(true)),
                    ("applied_seq", (self.applied_seq() as f64).into()),
                ])
                .to_string(),
            );
        }
        let status = match self.replica.status() {
            Ok(s) => s,
            Err(e) => return Response::error(500, &format!("replica status failed: {e}")),
        };
        if !status.ready() {
            let mut resp = Response::json(
                Json::object([
                    (
                        "error",
                        "shipped copy has defects: refusing promotion until re-fetch heals it"
                            .into(),
                    ),
                    (
                        "defects",
                        Json::Array(
                            status
                                .defects
                                .iter()
                                .map(|d| Json::from(d.as_str()))
                                .collect(),
                        ),
                    ),
                ])
                .to_string(),
            );
            resp.status = 409;
            return resp;
        }
        match AppState::open_durable(self.replica.dir(), self.config.cache_capacity) {
            Ok(state) => {
                self.applied_seq.store(status.applied_seq, Ordering::SeqCst);
                let _ = self.promoted.set(state);
                self.metrics.promotion_transitions.inc();
                Response::json(
                    Json::object([
                        ("promoted", Json::Bool(true)),
                        ("applied_seq", (status.applied_seq as f64).into()),
                    ])
                    .to_string(),
                )
            }
            Err(e) => Response::error(500, &format!("promotion failed: {e}")),
        }
    }

    /// One replication round: manifest → snapshot (if its seq moved) →
    /// per-segment tail chunks from the local valid-prefix boundary →
    /// prune segments the primary checkpointed away. Returns the applied
    /// sequence after the round.
    pub fn pull_once(&self) -> Result<u64, String> {
        let _guard = self.serialize.lock().unwrap_or_else(|e| e.into_inner());
        if self.promoted.get().is_some() {
            return Ok(self.applied_seq());
        }
        let manifest = self
            .upstream
            .request("GET", "/replica/manifest", &[], b"")
            .map_err(|e| e.to_string())?;
        if manifest.status != 200 {
            return Err(format!(
                "primary refused manifest ({}): {}",
                manifest.status,
                manifest.body_text()
            ));
        }
        let doc = json::parse(&manifest.body_text())
            .map_err(|e| format!("unparseable manifest: {e:?}"))?;

        if let Some(seq) = doc
            .get("snapshot")
            .filter(|s| !matches!(s, Json::Null))
            .and_then(|s| s.get("seq"))
            .and_then(Json::as_f64)
        {
            let seq = seq as u64;
            if self.replica.local_snapshot_seq() != Some(seq) {
                let snap = self
                    .upstream
                    .request("GET", "/replica/snapshot", &[], b"")
                    .map_err(|e| e.to_string())?;
                if snap.status == 200 {
                    self.replica
                        .apply_snapshot(&snap.body)
                        .map_err(|e| e.to_string())?;
                    self.metrics.replica_pull_bytes.add(snap.body.len() as u64);
                }
                // A 404 means the primary checkpointed between manifest
                // and fetch; the next round's manifest will be coherent.
            }
        }

        let segments = doc
            .get("segments")
            .and_then(Json::as_array)
            .ok_or("manifest missing segments")?;
        let mut keep = Vec::with_capacity(segments.len());
        for seg in segments {
            let index = seg
                .get("index")
                .and_then(Json::as_f64)
                .ok_or("segment missing index")? as u64;
            let remote_valid = seg
                .get("valid_bytes")
                .and_then(Json::as_f64)
                .ok_or("segment missing valid_bytes")? as u64;
            keep.push(index);
            let local = self
                .replica
                .segment_state(index)
                .map_err(|e| e.to_string())?;
            if local.valid_bytes >= remote_valid && local.defect.is_none() {
                continue;
            }
            // Defect or lag: re-fetch everything past the local valid
            // prefix. The chunk replaces the damaged/missing tail.
            let path = format!("/replica/segment?index={index}&from={}", local.valid_bytes);
            let chunk = self
                .upstream
                .request("GET", &path, &[], b"")
                .map_err(|e| e.to_string())?;
            if chunk.status == 404 {
                continue; // checkpointed away mid-round
            }
            if chunk.status != 200 {
                return Err(format!(
                    "segment {index} fetch failed ({}): {}",
                    chunk.status,
                    chunk.body_text()
                ));
            }
            let from: u64 = chunk
                .header("x-segment-from")
                .and_then(|v| v.parse().ok())
                .ok_or("segment response missing X-Segment-From")?;
            self.replica
                .apply_segment_chunk(index, from, &chunk.body)
                .map_err(|e| e.to_string())?;
            self.metrics.replica_pull_bytes.add(chunk.body.len() as u64);
        }
        self.replica
            .prune_segments(&keep)
            .map_err(|e| e.to_string())?;

        let status = self.replica.status().map_err(|e| e.to_string())?;
        self.applied_seq.store(status.applied_seq, Ordering::SeqCst);
        self.metrics.replica_pull_rounds.inc();
        Ok(status.applied_seq)
    }

    /// Pulls every `pull_interval` until `stop` is set or promotion
    /// happens. Pull errors are swallowed: the primary being down is the
    /// expected state right before this standby matters most.
    pub fn run_pull_loop(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) && !self.is_promoted() {
            let _ = self.pull_once();
            let mut slept = Duration::ZERO;
            while slept < self.config.pull_interval && !stop.load(Ordering::Relaxed) {
                let step = Duration::from_millis(20).min(self.config.pull_interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoalign_serve::{Server, ServerConfig};

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "geoalign-cluster-standby-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_server(dir: &std::path::Path) -> Server {
        let config = ServerConfig {
            data_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        };
        Server::bind("127.0.0.1:0", config).unwrap()
    }

    fn standby_server(standby: &Arc<Standby>) -> Server {
        let state = AppState::new(8);
        standby.install(&state);
        Server::bind_with_state("127.0.0.1:0", ServerConfig::default(), state).unwrap()
    }

    fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
        let b = Backend::new(addr.to_string(), ClientConfig::default());
        let r = b.request("POST", path, &[], body.as_bytes()).unwrap();
        (r.status, r.body_text())
    }

    fn seed_world(addr: &str) {
        for (path, body) in [
            ("/systems", r#"{"name":"zip","units":["z1","z2","z3"]}"#),
            ("/systems", r#"{"name":"county","units":["A","B"]}"#),
            (
                "/references",
                r#"{"source":"zip","target":"county","name":"population",
                   "entries":[["z1","A",100],["z2","A",60],["z2","B",40],["z3","B",80]]}"#,
            ),
            (
                "/ingest",
                r#"{"source":"zip","target":"county","attribute":"h",
                   "points":[["z1","A",2.5],["z2","A",1.25],["z2","B",0.75],["z3","B",4.5]]}"#,
            ),
        ] {
            let (status, body) = post(addr, path, body);
            assert_eq!(status, 200, "{body}");
        }
    }

    #[test]
    fn standby_replicates_promotes_and_answers_like_the_primary() {
        let primary_dir = scratch("primary");
        let replica_dir = scratch("replica");
        let primary = durable_server(&primary_dir);
        seed_world(&primary.addr().to_string());

        let standby =
            Standby::new(StandbyConfig::new(&replica_dir, primary.addr().to_string())).unwrap();
        let front = standby_server(&standby);
        let client = Backend::new(front.addr().to_string(), ClientConfig::default());

        // Pre-promotion: data routes shed, health reports standby.
        let shed = client
            .request(
                "POST",
                "/crosswalk",
                &[],
                br#"{"source":"zip","target":"county"}"#,
            )
            .unwrap();
        assert_eq!(shed.status, 503);
        assert_eq!(shed.header("retry-after"), Some("1"));

        let applied = standby.pull_once().unwrap();
        assert!(applied > 0);
        let health = client.request("GET", "/healthz", &[], b"").unwrap();
        let doc = json::parse(&health.body_text()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("standby"));
        assert_eq!(doc.get("ready"), Some(&Json::Bool(true)));

        // The primary's answer, captured before it dies.
        let xwalk =
            r#"{"source":"zip","target":"county","attributes":[{"name":"s","values":[10,20,30]}]}"#;
        let want = post(&primary.addr().to_string(), "/crosswalk", xwalk);
        primary.shutdown();

        let promote = client
            .request("POST", "/replica/promote", &[], b"{}")
            .unwrap();
        assert_eq!(promote.status, 200, "{}", promote.body_text());
        assert!(standby.is_promoted());
        // Promote is idempotent.
        let again = client
            .request("POST", "/replica/promote", &[], b"{}")
            .unwrap();
        assert_eq!(again.status, 200);

        let got = post(&front.addr().to_string(), "/crosswalk", xwalk);
        assert_eq!(got, want, "promoted standby diverged from primary");
        assert_eq!(standby.metrics().promotion_transitions.get(), 1);
        front.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn torn_shipped_segment_refuses_promotion_until_repull() {
        let primary_dir = scratch("torn-primary");
        let replica_dir = scratch("torn-replica");
        let primary = durable_server(&primary_dir);
        seed_world(&primary.addr().to_string());

        let standby =
            Standby::new(StandbyConfig::new(&replica_dir, primary.addr().to_string())).unwrap();
        let front = standby_server(&standby);
        let client = Backend::new(front.addr().to_string(), ClientConfig::default());
        standby.pull_once().unwrap();

        // Tear the shipped copy: chop bytes off the tail of the last
        // record-bearing segment, as a mid-stream transfer cut would.
        let mut segs: Vec<_> = std::fs::read_dir(&replica_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
            })
            .collect();
        segs.sort();
        let victim = segs
            .iter()
            .rev()
            .find(|p| std::fs::metadata(p).unwrap().len() > 8)
            .unwrap();
        let len = std::fs::metadata(victim).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(victim)
            .unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let refuse = client
            .request("POST", "/replica/promote", &[], b"{}")
            .unwrap();
        assert_eq!(refuse.status, 409, "{}", refuse.body_text());
        assert!(
            refuse.body_text().contains("defects"),
            "{}",
            refuse.body_text()
        );
        assert!(!standby.is_promoted());

        // A pull round re-fetches the tail from the primary and heals.
        standby.pull_once().unwrap();
        let promote = client
            .request("POST", "/replica/promote", &[], b"{}")
            .unwrap();
        assert_eq!(promote.status, 200, "{}", promote.body_text());
        primary.shutdown();
        front.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    #[test]
    fn pull_survives_a_primary_checkpoint() {
        let primary_dir = scratch("ckpt-primary");
        let replica_dir = scratch("ckpt-replica");
        let primary = durable_server(&primary_dir);
        seed_world(&primary.addr().to_string());
        let standby =
            Standby::new(StandbyConfig::new(&replica_dir, primary.addr().to_string())).unwrap();
        let before = standby.pull_once().unwrap();

        let (status, body) = post(&primary.addr().to_string(), "/checkpoint", "{}");
        assert_eq!(status, 200, "{body}");
        let after = standby.pull_once().unwrap();
        assert!(
            after >= before,
            "checkpoint lost sequence: {after} < {before}"
        );
        let s = standby.replica.status().unwrap();
        assert!(s.ready(), "{:?}", s.defects);
        assert!(s.snapshot_present);
        primary.shutdown();
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }
}
