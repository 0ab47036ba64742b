//! The untraced, served half of a run: start the workload's `geoalign`
//! processes, set them up, drive the closed loop over one keep-alive
//! connection, and record what the client and the host saw.

use crate::client::{Client, Reply};
use crate::gen;
use crate::plan::{Op, Plan, Workload};
use crate::procs::{self, ServerProc};
use crate::stats::Scrape;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The running processes of one workload.
#[derive(Debug)]
pub struct Nodes {
    /// Every server process (shards first, then the coordinator).
    pub procs: Vec<ServerProc>,
    /// Where the workload's requests go.
    pub front: SocketAddr,
    /// The durable node's data directory.
    pub data_dir: Option<PathBuf>,
}

impl Nodes {
    /// Starts the processes `workload` runs on.
    pub fn start(workload: Workload, bin: &Path, scratch: &Path) -> io::Result<Nodes> {
        let threads = workload.node_threads();
        let serve = |extra: &[String]| {
            let mut args = vec!["serve".to_owned()];
            args.extend_from_slice(extra);
            ServerProc::spawn(bin, &args, threads)
        };
        match workload {
            Workload::CrosswalkPaper => {
                let node = serve(&[])?;
                Ok(Nodes {
                    front: node.addr,
                    procs: vec![node],
                    data_dir: None,
                })
            }
            Workload::IngestDurable => {
                let dir = scratch.join("data");
                let node = serve(&["--data-dir".to_owned(), dir.display().to_string()])?;
                Ok(Nodes {
                    front: node.addr,
                    procs: vec![node],
                    data_dir: Some(dir),
                })
            }
            Workload::ClusterMixed => {
                let shards = [serve(&[])?, serve(&[])?];
                let mut args = vec!["cluster".to_owned(), "serve".to_owned()];
                for (i, shard) in shards.iter().enumerate() {
                    args.push("--shard".to_owned());
                    args.push(format!("s{i}={}", shard.addr));
                }
                // Registration bodies take seconds to resolve on each
                // shard; the default 5 s hop deadline would cut them off.
                args.extend(["--timeout-ms".to_owned(), "120000".to_owned()]);
                let coordinator = ServerProc::spawn(bin, &args, threads)?;
                let front = coordinator.addr;
                let [a, b] = shards;
                Ok(Nodes {
                    procs: vec![a, b, coordinator],
                    front,
                    data_dir: None,
                })
            }
        }
    }

    /// Summed CPU seconds of every process.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        self.procs.iter().map(ServerProc::cpu_seconds).sum()
    }

    /// Summed RSS of every process, MiB.
    pub fn rss_mib(&self) -> io::Result<f64> {
        self.procs.iter().map(ServerProc::rss_mib).sum()
    }

    /// Summed Prometheus scrape of every process.
    pub fn scrape(&self) -> io::Result<Scrape> {
        let mut total = Scrape::default();
        for p in &self.procs {
            let reply = Client::new(p.addr).request("GET", "/metrics?format=prometheus", b"")?;
            total.add(&Scrape::parse(reply.text()));
        }
        Ok(total)
    }
}

impl Drop for Nodes {
    fn drop(&mut self) {
        // Stop the processes before removing the directory they write.
        self.procs.clear();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A served `/crosswalk` answer kept for the oracle: how many plan
/// batches had been ingested when it was asked, and which read it was.
#[derive(Debug)]
pub struct Kept {
    /// Plan batches folded before the read.
    pub version: usize,
    /// Read body index.
    pub read: usize,
    /// The served body.
    pub bytes: Vec<u8>,
    /// Timed operations that received exactly these bytes.
    pub uses: u64,
}

/// Everything one served run measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Seconds from spawning the processes until ready to time.
    pub setup_s: f64,
    /// Milliseconds per `/references` registration.
    pub register_ms: Vec<f64>,
    /// Timed-phase latencies (ms) by operation, in arrival order.
    pub crosswalk_ms: Vec<f64>,
    /// Timed `/ingest` latencies (ms).
    pub ingest_ms: Vec<f64>,
    /// Timed `/checkpoint` latencies (ms).
    pub checkpoint_ms: Vec<f64>,
    /// Timed operations sent.
    pub attempted: u64,
    /// Timed operations that failed (status, transport or mismatch).
    pub failed: u64,
    /// Why the first failure failed.
    pub first_failure: Option<String>,
    /// Server CPU over the timed phase, seconds.
    pub cpu_s: f64,
    /// Summed server RSS after each timed operation, MiB.
    pub rss_mib: Vec<f64>,
    /// Timed-phase wall time, seconds.
    pub wall_s: f64,
    /// Host CPU steal over the timed phase, percent.
    pub steal_pct: f64,
    /// 1-minute load average before and after the timed phase.
    pub load: (f64, f64),
    /// Client reconnects over the timed phase.
    pub reconnects: u64,
    /// Bytes the data directory grew by across timed ingests.
    pub wal_bytes: u64,
    /// Points sent in timed ingests.
    pub points: u64,
    /// Scrapes just before and after the timed phase.
    pub scrape: (Scrape, Scrape),
    /// Answers to check against the oracle, one per (version, read).
    pub kept: Vec<Kept>,
    /// Plan batches ingested in total (warm-up and timed).
    pub ingested: usize,
    /// The final read, for the split-invariance check.
    pub final_read: Option<Vec<u8>>,
}

impl Served {
    /// Records a wrong or missing answer; only timed operations count
    /// towards `failed`, but any failure makes the run incorrect.
    fn fail(&mut self, why: String, timed: bool) {
        self.failed += u64::from(timed);
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

/// Sends `op` and checks its status and shape; `Err` describes a failed
/// operation.
fn send(client: &mut Client, plan: &Plan, op: Op) -> Result<Reply, String> {
    let (path, body) = match op {
        Op::Crosswalk(r) => ("/crosswalk", plan.read_bodies[r].as_bytes()),
        Op::Ingest(k) => ("/ingest", plan.batch_bodies[k].as_bytes()),
        Op::Checkpoint => ("/checkpoint", &b""[..]),
    };
    let reply = client
        .request("POST", path, body)
        .map_err(|e| format!("{path}: transport error: {e}"))?;
    if !reply.ok() {
        return Err(format!("{path}: status {}: {}", reply.status, reply.text()));
    }
    if let Op::Ingest(k) = op {
        let want = format!("\"absorbed\":{},", plan.batches[k].len());
        if !reply.text().contains(&want) {
            return Err(format!(
                "/ingest absorbed the wrong count: {}",
                reply.text()
            ));
        }
    }
    Ok(reply)
}

/// Set-up: start the processes, register systems and references, fold
/// the full-support batch, fill the prepared cache, checkpoint. Returns
/// the nodes, ready to time, and the answers seen so far.
fn set_up(
    plan: &Plan,
    bin: &Path,
    scratch: &Path,
    served: &mut Served,
) -> Result<(Nodes, Client), String> {
    let t0 = Instant::now();
    let nodes = Nodes::start(plan.workload, bin, scratch)
        .map_err(|e| format!("cannot start geoalign: {e}"))?;
    let mut client = Client::new(nodes.front);
    let mut post = |path: &str, body: &[u8]| -> Result<Reply, String> {
        let reply = client
            .request("POST", path, body)
            .map_err(|e| format!("set-up {path}: {e}"))?;
        if reply.ok() {
            Ok(reply)
        } else {
            Err(format!("set-up {path}: {} {}", reply.status, reply.text()))
        }
    };
    for body in &plan.system_bodies {
        post("/systems", body.as_bytes())?;
    }
    for body in &plan.reference_bodies {
        let t = Instant::now();
        post("/references", body.as_bytes())?;
        served.register_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    if !plan.warm_body.is_empty() {
        post("/ingest", plan.warm_body.as_bytes())?;
    }
    // The first read prepares the crosswalk (a cache miss); it is checked
    // like every other answer, and the hits after it are the reference
    // bytes later reads must repeat.
    let prime = post("/crosswalk", plan.read_bodies[0].as_bytes())?;
    let mut kept = vec![Kept {
        version: 0,
        read: 0,
        bytes: prime.body,
        uses: 0,
    }];
    for r in 0..plan.read_bodies.len() {
        let reply = post("/crosswalk", plan.read_bodies[r].as_bytes())?;
        kept.push(Kept {
            version: 0,
            read: r,
            bytes: reply.body,
            uses: 0,
        });
    }
    if plan.workload.checkpoint_every().is_some() {
        post("/checkpoint", b"")?;
    }
    served.setup_s = t0.elapsed().as_secs_f64();
    served.kept = kept;
    Ok((nodes, client))
}

/// Runs the served half: set-up, then the closed loop for `seconds`.
pub fn run(
    plan: &Plan,
    bin: &Path,
    scratch: &Path,
    seconds: f64,
) -> Result<(Served, Nodes), String> {
    let mut served = Served::default();
    let (nodes, mut client) = set_up(plan, bin, scratch, &mut served)?;

    // Stationary start: the first cycles of the loop run untimed, so the
    // incremental-fold path and every read body have been exercised.
    let warm_ops = match plan.workload.reads_per_ingest() {
        Some(reads) => 2 * (1 + reads),
        None => 0,
    };
    let mut version = 0usize;
    // Later entries win, so the primed miss is never the reference.
    let mut verified: HashMap<(usize, usize), usize> = served
        .kept
        .iter()
        .enumerate()
        .map(|(i, k)| ((k.version, k.read), i))
        .collect();
    let mut i = 0usize;
    let mut step = |i: usize,
                    timed: bool,
                    served: &mut Served,
                    version: &mut usize,
                    client: &mut Client|
     -> bool {
        let op = plan.op(i);
        if let Op::Ingest(k) = op {
            if k >= plan.batches.len() {
                return false;
            }
        }
        let dir_before = nodes.data_dir.as_deref().map(procs::dir_bytes);
        let t = Instant::now();
        let result = send(client, plan, op);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if timed {
            served.attempted += 1;
            // Sampled after every operation: a single end-of-phase reading
            // depends on where in the cycle (ingest, checkpoint) it lands.
            if let Ok(rss) = nodes.rss_mib() {
                served.rss_mib.push(rss);
            }
        }
        let reply = match result {
            Ok(reply) => reply,
            Err(why) => {
                served.fail(why, timed);
                // A failed ingest leaves the oracle's version unknowable.
                return !matches!(op, Op::Ingest(_));
            }
        };
        match op {
            Op::Crosswalk(r) => {
                if timed {
                    served.crosswalk_ms.push(ms);
                }
                match verified.get(&(*version, r)) {
                    Some(&idx) => {
                        if served.kept[idx].bytes == reply.body {
                            served.kept[idx].uses += u64::from(timed);
                        } else {
                            served.fail(
                                format!(
                                    "read {r} after {version} ingests answered differently from the same read earlier"
                                ),
                                timed,
                            );
                        }
                    }
                    None => {
                        verified.insert((*version, r), served.kept.len());
                        served.kept.push(Kept {
                            version: *version,
                            read: r,
                            bytes: reply.body,
                            uses: u64::from(timed),
                        });
                    }
                }
            }
            Op::Ingest(k) => {
                *version = k + 1;
                if timed {
                    served.ingest_ms.push(ms);
                    served.points += plan.batches[k].len() as u64;
                    if let (Some(before), Some(dir)) = (dir_before, nodes.data_dir.as_deref()) {
                        served.wal_bytes += procs::dir_bytes(dir).saturating_sub(before);
                    }
                }
            }
            Op::Checkpoint => {
                if timed {
                    served.checkpoint_ms.push(ms);
                }
            }
        }
        true
    };
    while i < warm_ops {
        if !step(i, false, &mut served, &mut version, &mut client) {
            return Err(served.first_failure.unwrap_or_default());
        }
        i += 1;
    }

    let before = nodes.scrape().map_err(|e| format!("scrape: {e}"))?;
    let cpu0 = nodes.cpu_seconds().map_err(|e| format!("cpu: {e}"))?;
    let (steal0, total0) = procs::host_cpu();
    let load0 = procs::load_average();
    let reconnects0 = client.reconnects();
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    while t0.elapsed() < deadline {
        if !step(i, true, &mut served, &mut version, &mut client) {
            break;
        }
        i += 1;
    }
    served.wall_s = t0.elapsed().as_secs_f64();
    served.cpu_s = nodes.cpu_seconds().map_err(|e| format!("cpu: {e}"))? - cpu0;
    let (steal1, total1) = procs::host_cpu();
    served.steal_pct = 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    served.load = (load0, procs::load_average());
    served.reconnects = client.reconnects() - reconnects0;
    let after = nodes.scrape().map_err(|e| format!("scrape: {e}"))?;
    served.scrape = (before, after);
    served.ingested = version;

    if plan.workload.reads_per_ingest().is_some() {
        // One more read, checked against a cold state fed every point at once.
        served.attempted += 1;
        match send(&mut client, plan, Op::Crosswalk(0)) {
            Ok(reply) => served.final_read = Some(reply.body),
            Err(why) => served.fail(why, true),
        }
    }
    Ok((served, nodes))
}

/// Every point the served stream absorbed, in order, as one batch.
pub fn all_points(plan: &Plan, ingested: usize) -> Vec<gen::Triple> {
    let mut points = plan.warm_points.clone();
    for batch in &plan.batches[..ingested] {
        points.extend_from_slice(batch);
    }
    points
}
