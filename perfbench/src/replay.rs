//! The traced run: the workload's operation sequence replayed in process
//! against the program's public functions, each call wrapped in a span
//! by the benchmark's own code (see [`crate::trace`]).
//!
//! A main `AppState` receives every operation through the real `route`.
//! The child calls `route` makes are replayed beside it on a twin state
//! holding the same references, and on benchmark-held copies of the
//! streaming rollup and prepared crosswalk, so each layer is timed from
//! outside without touching the program. For the cluster workload the
//! same reads and ingests are also sent through the coordinator and
//! straight to the owning shard, and the difference is the hop.

use crate::client::Client;
use crate::gen::{self, Triple};
use crate::http_run::{Nodes, Served};
use crate::oracle;
use crate::plan::{Op, Plan, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use geoalign_agg::AggState;
use geoalign_core::{fingerprint_references, PreparedCrosswalk, ReferenceData};
use geoalign_partition::{AggregateVector, DisaggregationMatrix};
use geoalign_serve::http::{Request, RequestParser, MAX_HEAD_BYTES};
use geoalign_serve::{json, route, AppState};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What the traced run measured.
#[derive(Debug)]
pub struct Layers {
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// In-process `route(/crosswalk)` median, ms (for the transport split).
    pub route_crosswalk_p50_ms: f64,
}

/// A parsed request for `route`, as the server's parser would build it.
pub fn request(path: &str, body: &[u8]) -> Request {
    Request {
        method: "POST".to_owned(),
        path: path.to_owned(),
        query: String::new(),
        version: "HTTP/1.1".to_owned(),
        headers: vec![("content-length".to_owned(), body.len().to_string())],
        body: body.to_vec(),
    }
}

/// The raw bytes a client sends for `POST path` with `body`.
fn raw_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Operations replayed per workload: whole cycles, a few seconds each.
fn replay_ops(workload: Workload) -> usize {
    match workload {
        Workload::CrosswalkPaper => 48,
        // One checkpoint group: its ingests, their reads, a checkpoint.
        Workload::IngestDurable => {
            let every = workload.checkpoint_every().unwrap_or(1);
            every * (1 + workload.reads_per_ingest().unwrap_or(0)) + 1
        }
        Workload::ClusterMixed => 12 * 4,
    }
}

fn state_for(workload: Workload, dir: &Path) -> Result<Arc<AppState>, String> {
    if workload == Workload::IngestDurable {
        AppState::open_durable(dir, 64).map_err(|e| format!("open_durable: {e}"))
    } else {
        Ok(AppState::new(64))
    }
}

fn ok(resp: &geoalign_serve::Response, what: &str) -> Result<(), String> {
    if (200..300).contains(&resp.status) {
        Ok(())
    } else {
        Err(format!(
            "in-process {what}: {} {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ))
    }
}

/// Runs the traced replay and the cluster hop probe.
/// Spans go to `spans_dir`; the states' files to the run's `scratch`.
pub fn run(
    plan: &Plan,
    served: &Served,
    nodes: &Nodes,
    spans_dir: &Path,
    scratch: &Path,
) -> Result<Layers, String> {
    let workload = plan.workload;
    let threads = workload.node_threads();
    geoalign_exec::set_global_threads(threads);
    let durable = workload == Workload::IngestDurable;
    let streaming = workload.reads_per_ingest().is_some();
    let main = state_for(workload, &scratch.join("trace-main"))?;
    let twin = state_for(workload, &scratch.join("trace-twin"))?;
    oracle::register(&twin, plan);
    let rollup_store = if durable {
        Some(
            geoalign_store::Store::open(scratch.join("trace-put"))
                .map_err(|e| format!("scratch store: {e}"))?,
        )
    } else {
        None
    };
    let mut tr = Tracer::new();

    // Set-up through the real router, one span per registration.
    for body in &plan.system_bodies {
        ok(
            &route(&main, &request("/systems", body.as_bytes())),
            "/systems",
        )?;
    }
    // One registration goes through the router for its span; the others
    // are registered and persisted as `/references` would leave them,
    // which spares the traced run two multi-second name-resolution scans.
    let (resp, _) = tr.time("serve.router.register", None, || {
        route(
            &main,
            &request("/references", plan.reference_bodies[0].as_bytes()),
        )
    });
    ok(&resp, "/references")?;
    for k in 1..plan.reference_bodies.len() {
        let reference = plan.universe.reference_data(k);
        let mut pipeline = main.pipeline_mut();
        pipeline
            .register_reference(gen::SOURCE, gen::TARGET, reference.clone())
            .map_err(|e| format!("register reference {k}: {e}"))?;
        main.persist_reference(gen::SOURCE, gen::TARGET, &reference)
            .map_err(|e| format!("persist reference {k}: {e}"))?;
    }
    let mut live = None;
    if streaming {
        ok(
            &route(&main, &request("/ingest", plan.warm_body.as_bytes())),
            "warm /ingest",
        )?;
        oracle::ingest(&twin, &plan.warm_points)?;
        live = Some(oracle::absorb(&plan.warm_points)?);
    }
    let mut prepared: Arc<PreparedCrosswalk> = {
        let pipeline = twin.pipeline();
        let refs: Vec<&ReferenceData> = pipeline
            .references(gen::SOURCE, gen::TARGET)
            .iter()
            .collect();
        let aligner = *pipeline.aligner();
        let (p, _) = tr.time("core.prepare.full", None, || aligner.prepare(&refs));
        Arc::new(p.map_err(|e| format!("prepare: {e}"))?)
    };
    for body in &plan.read_bodies {
        ok(
            &route(&main, &request("/crosswalk", body.as_bytes())),
            "warm /crosswalk",
        )?;
        ok(
            &route(&twin, &request("/crosswalk", body.as_bytes())),
            "warm /crosswalk",
        )?;
    }

    let mut touched_rows = Vec::new();
    let mut rollup_bytes = 0usize;
    let mut route_crosswalk = Vec::new();
    for i in 0..replay_ops(workload) {
        tr.set_op(i as u64);
        let op = plan.op(i);
        let (path, body): (&str, &[u8]) = match op {
            Op::Crosswalk(r) => ("/crosswalk", plan.read_bodies[r].as_bytes()),
            Op::Ingest(k) => ("/ingest", plan.batch_bodies[k].as_bytes()),
            Op::Checkpoint => ("/checkpoint", b""),
        };
        let raw = raw_request(path, body);
        let root = tr.open("op", None);
        let (parsed, _) = tr.time("serve.http.parse", Some(root), || {
            RequestParser::new(MAX_HEAD_BYTES).feed(&raw)
        });
        let req = match parsed {
            Ok((_, Some(req))) => req,
            other => return Err(format!("request parser rejected {path}: {other:?}")),
        };
        let route_name = match op {
            Op::Crosswalk(_) => "serve.router.crosswalk",
            Op::Ingest(_) => "serve.router.ingest",
            Op::Checkpoint => "serve.router.checkpoint",
        };
        let (resp, rid) = tr.time(route_name, Some(root), || route(&main, &req));
        ok(&resp, path)?;
        if workload == Workload::ClusterMixed && op != Op::Checkpoint {
            // The coordinator parses the whole body to pick the owner.
            let (doc, _) = tr.time("cluster.route_parse", Some(root), || {
                json::parse(req.body_text().unwrap_or(""))
            });
            doc.map_err(|e| format!("route parse: {e}"))?;
        }
        match op {
            Op::Crosswalk(r) => {
                route_crosswalk.push(tr.micros(rid));
                let (doc, _) = tr.time("serve.json.decode", Some(rid), || {
                    json::parse(req.body_text().unwrap_or(""))
                });
                doc.map_err(|e| format!("decode: {e}"))?;
                let lookup = tr.open("serve.store.lookup", Some(rid));
                let found = twin.prepared_crosswalk(gen::SOURCE, gen::TARGET);
                tr.close(lookup);
                let (snapshot, _) = found.map_err(|e| format!("lookup: {e}"))?;
                {
                    let pipeline = twin.pipeline();
                    let refs: Vec<&ReferenceData> = pipeline
                        .references(gen::SOURCE, gen::TARGET)
                        .iter()
                        .collect();
                    tr.time("core.store.fingerprint", Some(lookup), || {
                        fingerprint_references(&refs)
                    });
                }
                let vectors = vectors(&plan.read_columns[r])?;
                let (applied, _) =
                    tr.time("core.apply", Some(rid), || snapshot.apply_batch(&vectors));
                applied.map_err(|e| format!("apply: {e}"))?;
                let (one, _) = tr.time("exec.apply_1t", Some(root), || {
                    snapshot.apply_batch_with(&vectors, geoalign_exec::Executor::new(1))
                });
                one.map_err(|e| format!("apply: {e}"))?;
                let reply = json::parse(std::str::from_utf8(&resp.body).unwrap_or(""))
                    .map_err(|e| format!("route reply: {e}"))?;
                tr.time("serve.json.encode", Some(rid), || reply.to_string());
            }
            Op::Ingest(k) => {
                let (doc, _) = tr.time("serve.json.decode", Some(rid), || {
                    json::parse(req.body_text().unwrap_or(""))
                });
                doc.map_err(|e| format!("decode: {e}"))?;
                let batch = &plan.batches[k];
                let (outcome, sid) = tr.time("serve.store.ingest", Some(rid), || {
                    twin.ingest(gen::SOURCE, gen::TARGET, gen::STREAM_ATTR, batch, 0)
                });
                outcome.map_err(|e| format!("twin ingest: {e}"))?;
                let state = live
                    .as_mut()
                    .expect("streaming workloads keep a live rollup");
                let (folded, _) = tr.time("agg.fold", Some(sid), || fold(state, batch));
                folded?;
                let (dm, _) = tr.time("partition.from_state", Some(sid), || {
                    DisaggregationMatrix::from_state(state)
                });
                let reference = ReferenceData::from_dm(
                    gen::STREAM_ATTR,
                    dm.map_err(|e| format!("from_state: {e}"))?,
                )
                .map_err(|e| format!("reference: {e}"))?;
                {
                    let pipeline = twin.pipeline();
                    let refs: Vec<&ReferenceData> = pipeline
                        .references(gen::SOURCE, gen::TARGET)
                        .iter()
                        .collect();
                    for _ in 0..2 {
                        tr.time("core.store.fingerprint", Some(sid), || {
                            fingerprint_references(&refs)
                        });
                    }
                }
                let (updated, _) = tr.time("core.prepare.incremental", Some(sid), || {
                    prepared.with_reference_updated(gen::STATIC_REFS.len(), reference)
                });
                let (next, touched) = updated.map_err(|e| format!("incremental prepare: {e}"))?;
                prepared = Arc::new(next);
                touched_rows.push(touched as f64);
                let encoded = state.encode();
                rollup_bytes = encoded.len();
                if let Some(store) = &rollup_store {
                    let (put, _) =
                        tr.time("store.put", Some(sid), || store.put("agg/replay", encoded));
                    put.map_err(|e| format!("store put: {e}"))?;
                }
            }
            Op::Checkpoint => {}
        }
        tr.close(root);
    }

    // Tracing overhead: each read once inside a span and once timed
    // bare, back to back, over two rounds of the bodies. Each body runs
    // in both orders, one per round, so the call that runs on caches the
    // other warmed is the traced one half the time; each pair's
    // difference is taken so drift between pairs cancels.
    let (mut diffs, mut untraced) = (Vec::new(), Vec::new());
    let bodies = plan.read_bodies.len();
    for (n, body) in plan.read_bodies.iter().chain(&plan.read_bodies).enumerate() {
        let req = request("/crosswalk", body.as_bytes());
        let (mut with, mut bare) = (0.0, 0.0);
        let traced_first = (n + n / bodies) % 2 == 1;
        for traced_now in [traced_first, !traced_first] {
            if traced_now {
                let (resp, id) = tr.time("trace.overhead.route", None, || route(&main, &req));
                with = tr.micros(id);
                ok(&resp, "/crosswalk")?;
            } else {
                let t = Instant::now();
                let resp = std::hint::black_box(route(&main, &req));
                bare = t.elapsed().as_secs_f64() * 1e6;
                ok(&resp, "/crosswalk")?;
            }
        }
        diffs.push(with - bare);
        untraced.push(bare);
    }
    let overhead_pct = 100.0 * median(&diffs) / median(&untraced);
    let traced_route = median(&route_crosswalk);

    let hop = if workload == Workload::ClusterMixed {
        hop_probe(plan, served, nodes)?
    } else {
        (0.0, 0.0)
    };
    if let Err(e) = tr.write_jsonl(&spans_dir.join(format!(
        "spans-{}-{}.jsonl",
        workload.name(),
        std::process::id()
    ))) {
        eprintln!("perfbench: cannot write spans: {e}");
    }

    let med = |name: &str| median(&tr.durations(name));
    let self_med = |name: &str| median(&tr.self_times(name));
    let apply = med("core.apply");
    let or0 = |v: f64| if v.is_finite() { v } else { 0.0 };
    let metrics = vec![
        (
            "serve.http.parse_us",
            or0(median(&tr.durations_in_ops_with(
                "serve.http.parse",
                "serve.router.crosswalk",
            ))),
            "us",
        ),
        (
            "serve.json.decode_us",
            or0(med_child(
                &tr,
                "serve.json.decode",
                "serve.router.crosswalk",
            )),
            "us",
        ),
        ("serve.json.encode_us", or0(med("serve.json.encode")), "us"),
        (
            "serve.router.crosswalk_self_us",
            or0(self_med("serve.router.crosswalk")),
            "us",
        ),
        (
            "serve.router.ingest_resolve_us",
            or0(self_med("serve.router.ingest")),
            "us",
        ),
        (
            "serve.router.register_ms",
            or0(med("serve.router.register") / 1e3),
            "ms",
        ),
        (
            "serve.store.lookup_us",
            or0(med("serve.store.lookup")),
            "us",
        ),
        (
            "core.store.fingerprint_us",
            or0(med("core.store.fingerprint")),
            "us",
        ),
        (
            "serve.store.ingest_us",
            or0(med("serve.store.ingest")),
            "us",
        ),
        (
            "core.prepare.full_ms",
            or0(med("core.prepare.full") / 1e3),
            "ms",
        ),
        (
            "core.prepare.incremental_us",
            or0(med("core.prepare.incremental")),
            "us",
        ),
        (
            "core.prepare.touched_rows",
            or0(median(&touched_rows)),
            "count",
        ),
        (
            "core.apply.us_per_col",
            or0(apply / workload.columns() as f64),
            "us",
        ),
        (
            "exec.parallel_efficiency",
            or0(med("exec.apply_1t") / (threads as f64 * apply)),
            "ratio",
        ),
        ("agg.fold_us", or0(med("agg.fold")), "us"),
        ("agg.rollup_bytes", rollup_bytes as f64, "B"),
        (
            "partition.from_state_us",
            or0(med("partition.from_state")),
            "us",
        ),
        ("store.put_us", or0(med("store.put")), "us"),
        (
            "cluster.route_parse_us",
            or0(med("cluster.route_parse")),
            "us",
        ),
        ("cluster.hop_ms", hop.0, "ms"),
        ("cluster.ingest_hop_ms", hop.1, "ms"),
        ("trace.overhead_pct", or0(overhead_pct), "%"),
    ];
    Ok(Layers {
        metrics,
        route_crosswalk_p50_ms: traced_route / 1e3,
    })
}

/// Median duration of `name` spans whose parent is named `parent`.
fn med_child(tr: &Tracer, name: &str, parent: &str) -> f64 {
    median(&tr.durations_under(name, parent))
}

fn vectors(columns: &[gen::Column]) -> Result<Vec<AggregateVector>, String> {
    columns
        .iter()
        .map(|(name, values)| AggregateVector::new(name.as_str(), values.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad read column: {e}"))
}

/// `AggState::absorb` of the batch plus `merge` into the live rollup.
fn fold(live: &mut AggState, points: &[Triple]) -> Result<(), String> {
    let batch = oracle::absorb(points)?;
    live.merge(&batch).map_err(|e| format!("merge: {e}"))
}

/// Sends reads and ingests through the coordinator and straight to the
/// owning shard; returns the read and ingest p50 differences, ms.
fn hop_probe(plan: &Plan, served: &Served, nodes: &Nodes) -> Result<(f64, f64), String> {
    let mut front = Client::new(nodes.front);
    let mut shards: Vec<Client> = nodes.procs[..2]
        .iter()
        .map(|p| Client::new(p.addr))
        .collect();
    let body = plan.read_bodies[0].as_bytes();
    let via = front
        .request("POST", "/crosswalk", body)
        .map_err(|e| format!("hop probe: {e}"))?;
    // Only the owner holds the streaming reference, so only its answer
    // matches the coordinator's.
    let mut owner = None;
    for (i, shard) in shards.iter_mut().enumerate() {
        let direct = shard
            .request("POST", "/crosswalk", body)
            .map_err(|e| format!("hop probe: {e}"))?;
        if direct.body == via.body {
            owner = Some(i);
        }
    }
    let owner = owner.ok_or("no shard answers like the coordinator")?;
    let timed = |client: &mut Client, path: &str, body: &[u8]| -> Result<(f64, Vec<u8>), String> {
        let t = Instant::now();
        let reply = client
            .request("POST", path, body)
            .map_err(|e| format!("hop probe {path}: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !reply.ok() {
            return Err(format!("hop probe {path}: status {}", reply.status));
        }
        Ok((ms, reply.body))
    };
    let (mut via_ms, mut direct_ms) = (Vec::new(), Vec::new());
    for body in &plan.read_bodies {
        let (a, via) = timed(&mut front, "/crosswalk", body.as_bytes())?;
        let (b, direct) = timed(&mut shards[owner], "/crosswalk", body.as_bytes())?;
        if via != direct {
            return Err("coordinator and owner shard answer a read differently".into());
        }
        via_ms.push(a);
        direct_ms.push(b);
    }
    // Ingests alternate between the two routes; either way the owner
    // folds the same state, so the stream stays consistent.
    let (mut via_ingest, mut direct_ingest) = (Vec::new(), Vec::new());
    let spare = &plan.batch_bodies[served.ingested.min(plan.batch_bodies.len())..];
    for (n, body) in spare.iter().take(8).enumerate() {
        if n % 2 == 0 {
            via_ingest.push(timed(&mut front, "/ingest", body.as_bytes())?.0);
        } else {
            direct_ingest.push(timed(&mut shards[owner], "/ingest", body.as_bytes())?.0);
        }
    }
    Ok((
        median(&via_ms) - median(&direct_ms),
        median(&via_ingest) - median(&direct_ingest),
    ))
}
