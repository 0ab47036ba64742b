//! Route dispatch and the endpoint handlers.
//!
//! | Method | Path                | Purpose                                        |
//! |--------|---------------------|------------------------------------------------|
//! | POST   | `/systems`          | register a unit system                         |
//! | POST   | `/references`       | register a reference crosswalk                 |
//! | POST   | `/ingest`           | fold a point batch into a streaming reference  |
//! | POST   | `/crosswalk`        | apply one crosswalk to a batch of attributes   |
//! | GET    | `/healthz`          | readiness: store size, uptime, build info      |
//! | GET    | `/metrics`          | counters, cache stats, latency histograms      |
//! | GET    | `/replica/manifest` | WAL-shipping manifest (durable servers only)   |
//! | GET    | `/replica/segment`  | one segment's clean prefix, `?index=N&from=M`  |
//! | GET    | `/replica/snapshot` | the committed snapshot file                    |
//!
//! The `/replica/*` family exists for `geoalign-cluster`: warm standbys
//! converge on a primary's durable directory through it (DESIGN.md §16).
//!
//! `/metrics` serves the JSON snapshot by default and Prometheus text
//! exposition when asked — either `GET /metrics?format=prometheus` or an
//! `Accept: text/plain` header.
//!
//! With [`crate::ServerConfig::debug_endpoints`] the introspection suite
//! `GET /debug/{profile,spans,slow,threads}` answers too (DESIGN.md §13);
//! without the flag the whole `/debug` prefix 404s like any unknown path.

use crate::http::{HttpError, Request, Response};
use crate::json::{self, Field, Json};
use crate::store::AppState;
use geoalign_core::{CoreError, ReferenceData};
use geoalign_obs::{expo, Registry};
use geoalign_partition::{AggregateVector, DisaggregationMatrix, UnitIndex};

/// `Content-Type` of the Prometheus text exposition format.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Dispatches one request to its handler. Never panics; every failure
/// becomes a JSON error response.
pub fn route(state: &AppState, req: &Request) -> Response {
    // An installed override (the cluster coordinator's router, a
    // standby's promotion gate) answers first; `None` falls through to
    // the built-in routes below.
    if let Some(intercept) = state.route_override() {
        if let Some(resp) = intercept(req) {
            return resp;
        }
    }
    // The introspection suite answers only with `--debug-endpoints`;
    // without the flag the whole prefix 404s exactly like unknown paths,
    // so production config reveals nothing.
    if req.path == "/debug" || req.path.starts_with("/debug/") {
        return route_debug(state, req);
    }
    let result = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/systems") => post_systems(state, req),
        ("POST", "/references") => post_references(state, req),
        ("POST", "/ingest") => post_ingest(state, req),
        ("POST", "/crosswalk") => post_crosswalk(state, req),
        ("POST", "/checkpoint") => post_checkpoint(state),
        ("GET", "/healthz") => Ok(get_healthz(state)),
        ("GET", "/metrics") => Ok(get_metrics(state, req)),
        ("GET", "/replica/manifest") => get_replica_manifest(state),
        ("GET", "/replica/segment") => get_replica_segment(state, req),
        ("GET", "/replica/snapshot") => get_replica_snapshot(state),
        (_, "/systems" | "/references" | "/ingest" | "/crosswalk" | "/checkpoint") => {
            Ok(method_not_allowed(&req.method, "POST"))
        }
        (
            _,
            "/healthz" | "/metrics" | "/replica/manifest" | "/replica/segment"
            | "/replica/snapshot",
        ) => Ok(method_not_allowed(&req.method, "GET")),
        _ => Err(HttpError {
            status: 404,
            message: format!("no route for {}", req.path),
        }),
    };
    result.unwrap_or_else(Response::from)
}

/// Dispatch within `/debug/*` (gated on `--debug-endpoints`).
fn route_debug(state: &AppState, req: &Request) -> Response {
    let not_found = || {
        Response::from(HttpError {
            status: 404,
            message: format!("no route for {}", req.path),
        })
    };
    if !state.debug_endpoints_enabled() {
        return not_found();
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/debug/profile") => get_debug_profile(req),
        ("GET", "/debug/spans") => get_debug_spans(),
        ("GET", "/debug/slow") => get_debug_slow(state),
        ("GET", "/debug/threads") => get_debug_threads(state),
        (_, "/debug/profile" | "/debug/spans" | "/debug/slow" | "/debug/threads") => {
            method_not_allowed(&req.method, "GET")
        }
        _ => not_found(),
    }
}

/// A 405 carrying the `Allow` header RFC 9110 requires. The request was
/// fully parsed, so the connection stays open — unlike protocol errors,
/// where the stream position is unknown.
fn method_not_allowed(method: &str, allow: &'static str) -> Response {
    let mut resp = Response::error(405, &format!("method {method} not allowed"));
    resp.set_header("Allow", allow);
    resp
}

/// Parses the JSON body; a depth-limit rejection (stack-overflow guard)
/// is counted separately from plain syntax errors.
fn parse_body(state: &AppState, req: &Request) -> Result<Json, HttpError> {
    json::parse(req.body_text()?).map_err(|e| json_error(state, &e))
}

fn json_error(state: &AppState, e: &json::JsonError) -> HttpError {
    if e.kind == json::JsonErrorKind::TooDeep {
        state.metrics.depth_limit_rejections.inc();
    }
    HttpError::bad_request(e.to_string())
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, HttpError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| missing_string(key))
}

fn array_field<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], HttpError> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| missing_array(key))
}

fn missing_string(key: &str) -> HttpError {
    HttpError::bad_request(format!("missing string field '{key}'"))
}

fn missing_array(key: &str) -> HttpError {
    HttpError::bad_request(format!("missing array field '{key}'"))
}

fn core_error(e: &CoreError) -> HttpError {
    let status = match e {
        CoreError::UnknownReference { .. } => 404,
        CoreError::Persist { .. } => 500,
        _ => 400,
    };
    HttpError {
        status,
        message: e.to_string(),
    }
}

/// `POST /systems` — body `{"name": "zip", "units": ["z1", "z2", ...]}`.
fn post_systems(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let doc = parse_body(state, req)?;
    let name = str_field(&doc, "name")?;
    let units: Vec<String> = array_field(&doc, "units")?
        .iter()
        .map(|u| {
            u.as_str()
                .map(str::to_owned)
                .ok_or_else(|| HttpError::bad_request("'units' must be an array of strings"))
        })
        .collect::<Result<_, _>>()?;
    if units.is_empty() {
        return Err(HttpError::bad_request("'units' must not be empty"));
    }
    let n = units.len();
    // Write through before registering: a system the durable store never
    // saw would orphan every reference on it at the next warm start.
    state
        .persist_system(name, &units)
        .map_err(|e| core_error(&e))?;
    state.pipeline_mut().register_system(name, units);
    Ok(Response::json(
        Json::object([
            ("registered", Json::from(name)),
            ("units", Json::Number(n as f64)),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// `POST /references` — body
/// `{"source": "zip", "target": "county", "name": "population",
///   "entries": [["z1", "A", 100.0], ...]}`
/// where each entry is `[source unit id, target unit id, value]`.
fn post_references(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let doc = parse_body(state, req)?;
    let source = str_field(&doc, "source")?;
    let target = str_field(&doc, "target")?;
    let name = str_field(&doc, "name")?;
    let entries = array_field(&doc, "entries")?;

    let mut pipeline = state.pipeline_mut();
    let source_index = pipeline.unit_index(source).map_err(|e| core_error(&e))?;
    let target_index = pipeline.unit_index(target).map_err(|e| core_error(&e))?;
    let find = |index: &UnitIndex, id: &str, system: &str| -> Result<usize, HttpError> {
        index.get(id).ok_or_else(|| {
            HttpError::bad_request(format!("unknown unit '{id}' in system '{system}'"))
        })
    };

    let mut triples = Vec::with_capacity(entries.len());
    for entry in entries {
        let fields = entry
            .as_array()
            .filter(|f| f.len() == 3)
            .ok_or_else(|| HttpError::bad_request("each entry must be [source, target, value]"))?;
        let s = fields[0]
            .as_str()
            .ok_or_else(|| HttpError::bad_request("entry source unit must be a string"))?;
        let t = fields[1]
            .as_str()
            .ok_or_else(|| HttpError::bad_request("entry target unit must be a string"))?;
        let v = fields[2]
            .as_f64()
            .ok_or_else(|| HttpError::bad_request("entry value must be a number"))?;
        triples.push((
            find(source_index, s, source)?,
            find(target_index, t, target)?,
            v,
        ));
    }

    let dm =
        DisaggregationMatrix::from_triples(name, source_index.len(), target_index.len(), triples)
            .map_err(|e| HttpError::bad_request(e.to_string()))?;
    let nnz = dm.nnz();
    let reference = ReferenceData::from_dm(name, dm).map_err(|e| core_error(&e))?;
    // Register before persisting: a record the registry rejected must
    // never reach the WAL, where it would fail replay at the next boot.
    pipeline
        .register_reference(source, target, reference.clone())
        .map_err(|e| core_error(&e))?;
    let count = pipeline.reference_count(source, target);
    // Persist while still holding the pipeline write lock: the durable
    // ref/<nnnnnnnn> index must be assigned in registration order, or a
    // warm start would replay concurrent registrations in a different
    // order than the cold pipeline saw them and break the byte-identical
    // warm-start guarantee. Registration is rare; the fsync under the
    // lock is acceptable.
    state
        .persist_reference(source, target, &reference)
        .map_err(|e| core_error(&e))?;
    drop(pipeline);
    Ok(Response::json(
        Json::object([
            ("registered", Json::from(name)),
            ("pair", Json::from(format!("{source}->{target}"))),
            ("nnz", Json::Number(nnz as f64)),
            ("references_for_pair", Json::Number(count as f64)),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// `POST /ingest` — body
/// `{"source": "zip", "target": "county", "attribute": "pop",
///   "points": [["z1", "A", 2.5], ...]}`
/// where each point is `[source unit id, target unit id, weight]`.
///
/// Folds the batch into the pair's streaming reference: the first batch
/// registers it, later batches merge into its state and replace it in
/// place, refreshing any cached prepared crosswalk through the
/// incremental delta path. Points naming unknown units are skipped and
/// counted (mirroring `OutsidePolicy::Skip`); negative or non-finite
/// weights reject the whole batch up front, so a batch is folded
/// all-or-nothing.
fn post_ingest(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let doc = parse_body(state, req)?;
    let source = str_field(&doc, "source")?;
    let target = str_field(&doc, "target")?;
    let attribute = str_field(&doc, "attribute")?;
    let entries = array_field(&doc, "points")?;
    if entries.is_empty() {
        return Err(HttpError::bad_request("'points' must not be empty"));
    }

    let pipeline = state.pipeline();
    let source_index = pipeline.unit_index(source).map_err(|e| core_error(&e))?;
    let target_index = pipeline.unit_index(target).map_err(|e| core_error(&e))?;

    let mut points = Vec::with_capacity(entries.len());
    let mut unknown = 0u64;
    for entry in entries {
        let fields = entry
            .as_array()
            .filter(|f| f.len() == 3)
            .ok_or_else(|| HttpError::bad_request("each point must be [source, target, weight]"))?;
        let s = fields[0]
            .as_str()
            .ok_or_else(|| HttpError::bad_request("point source unit must be a string"))?;
        let t = fields[1]
            .as_str()
            .ok_or_else(|| HttpError::bad_request("point target unit must be a string"))?;
        let w = fields[2]
            .as_f64()
            .ok_or_else(|| HttpError::bad_request("point weight must be a number"))?;
        if !w.is_finite() || w < 0.0 {
            return Err(HttpError::bad_request(format!(
                "point weight {w} must be finite and non-negative"
            )));
        }
        match (source_index.get(s), target_index.get(t)) {
            (Some(si), Some(ti)) => points.push((si, ti, w)),
            _ => unknown += 1,
        }
    }
    // `ingest` takes the pipeline write lock.
    drop(pipeline);

    state
        .metrics
        .ingest_batch_points
        .record_value(entries.len() as u64);
    let outcome = state
        .ingest(source, target, attribute, &points, unknown)
        .map_err(|e| core_error(&e))?;
    Ok(Response::json(
        Json::object([
            ("ingested", Json::from(attribute)),
            ("pair", Json::from(format!("{source}->{target}"))),
            ("absorbed", Json::Number(outcome.absorbed as f64)),
            ("skipped", Json::Number(outcome.skipped as f64)),
            ("total_points", Json::Number(outcome.total_points as f64)),
            ("total_skipped", Json::Number(outcome.total_skipped as f64)),
            (
                "references_for_pair",
                Json::Number(outcome.references_for_pair as f64),
            ),
            ("incremental", Json::Bool(outcome.incremental)),
            ("touched_rows", Json::Number(outcome.touched_rows as f64)),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// `POST /crosswalk` — body
/// `{"source": "zip", "target": "county",
///   "attributes": [{"name": "crimes", "values": [...]}, ...]}`
/// with `values` positional in the source system's registered unit order.
/// One prepared crosswalk (cached across requests) is applied to every
/// attribute in the batch.
///
/// The body decodes straight into typed fields and the reply is written
/// straight into its bytes; no [`Json`] value is built either way. The
/// checks, their order and their messages are those of a handler that
/// reads the same fields from [`json::parse`] with [`Json::get`].
fn post_crosswalk(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let body = json::decode_crosswalk(req.body_text()?).map_err(|e| json_error(state, &e))?;
    let Field::Val(source) = body.source else {
        return Err(missing_string("source"));
    };
    let Field::Val(target) = body.target else {
        return Err(missing_string("target"));
    };
    let Field::Val(attributes) = body.attributes else {
        return Err(missing_array("attributes"));
    };
    if attributes.is_empty() {
        return Err(HttpError::bad_request("'attributes' must not be empty"));
    }

    let (prepared, cache_hit) = state
        .prepared_crosswalk(&source, &target)
        .map_err(|e| core_error(&e))?;
    let mut reply = String::new();
    {
        let pipeline = state.pipeline();
        let ids = pipeline.unit_ids(&target).map_err(|e| core_error(&e))?;
        // Ids and separators, then about 24 bytes per estimate and weight.
        let numbers = attributes.len() * (prepared.n_target() + prepared.references().len());
        reply.reserve(128 + ids.iter().map(|id| id.len() + 3).sum::<usize>() + numbers * 24);
        write_reply_head(&mut reply, &target, ids, cache_hit).expect("writing to a String");
    }

    // Validate the whole batch up front, then hand it to the prepared
    // crosswalk in one `apply_batch` call so the executor can spread the
    // attributes over the process thread budget.
    let mut vectors = Vec::with_capacity(attributes.len());
    for attr in attributes {
        let Field::Val(name) = attr.name else {
            return Err(missing_string("name"));
        };
        let values = match attr.values {
            Field::Val(Some(values)) => values,
            Field::Val(None) => {
                return Err(HttpError::bad_request(format!(
                    "attribute '{name}': values must be numbers"
                )))
            }
            Field::Absent | Field::Wrong => return Err(missing_array("values")),
        };
        if values.len() != prepared.n_source() {
            return Err(HttpError::bad_request(format!(
                "attribute '{name}': {} values for {} source units",
                values.len(),
                prepared.n_source()
            )));
        }
        let vector = AggregateVector::new(name.as_str(), values)
            .map_err(|e| HttpError::bad_request(format!("attribute '{name}': {e}")))?;
        vectors.push(vector);
    }

    let applied_batch = prepared.apply_batch(&vectors).map_err(|e| core_error(&e))?;
    for applied in &applied_batch {
        state.metrics.record_phases(&applied.timings);
    }
    let columns = vectors
        .iter()
        .zip(&applied_batch)
        .map(|(v, a)| (v.attribute(), &a.estimate[..], &a.weights[..]));
    write_reply_columns(&mut reply, columns).expect("writing to a String");
    Ok(Response::json(reply))
}

/// The `/crosswalk` reply up to its `columns`, which
/// [`write_reply_columns`] adds; key order and bytes are those of
/// `Json::object([("target_system", ..), ("target_units", ..),
/// ("cache_hit", ..), ("columns", ..)]).to_string()`.
fn write_reply_head(
    out: &mut String,
    target: &str,
    ids: &[String],
    cache_hit: bool,
) -> std::fmt::Result {
    out.push_str("{\"target_system\":");
    json::write_string(out, target)?;
    out.push_str(",\"target_units\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_string(out, id)?;
    }
    out.push_str("],\"cache_hit\":");
    out.push_str(if cache_hit { "true" } else { "false" });
    Ok(())
}

/// The rest of the `/crosswalk` reply after [`write_reply_head`]: the
/// `columns` array, one `{"name":..,"values":[..],"weights":[..]}` per
/// `(name, estimate, weights)`, and the closing brace.
fn write_reply_columns<'a>(
    out: &mut String,
    columns: impl IntoIterator<Item = (&'a str, &'a [f64], &'a [f64])>,
) -> std::fmt::Result {
    out.push_str(",\"columns\":[");
    for (i, (name, estimate, weights)) in columns.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_string(out, name)?;
        for (key, numbers) in [("values", estimate), ("weights", weights)] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":[");
            for (j, &v) in numbers.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_number(out, v)?;
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

/// `POST /checkpoint` — flushes the write-behind persister, snapshots the
/// durable store, and truncates the WAL. `409` when the server runs
/// without `--data-dir` (there is nothing to checkpoint).
fn post_checkpoint(state: &AppState) -> Result<Response, HttpError> {
    let Some(backing) = state.durable() else {
        return Err(HttpError {
            status: 409,
            message: "no durable store: server started without --data-dir".to_owned(),
        });
    };
    let report = backing.checkpoint().map_err(|e| core_error(&e))?;
    Ok(Response::json(
        Json::object([
            ("seq", Json::Number(report.seq as f64)),
            ("records", Json::Number(report.records as f64)),
            ("snapshot_bytes", Json::Number(report.snapshot_bytes as f64)),
            (
                "wal_segments_removed",
                Json::Number(report.wal_segments_removed as f64),
            ),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// The durable backing, or the `409` every `/replica/*` route answers
/// on a server that has nothing to ship.
fn replica_backing(
    state: &AppState,
) -> Result<&std::sync::Arc<geoalign_core::DurableBacking>, HttpError> {
    state.durable().ok_or_else(|| HttpError {
        status: 409,
        message: "no durable store: server started without --data-dir".to_owned(),
    })
}

fn store_error(e: &geoalign_store::StoreError) -> HttpError {
    HttpError {
        status: 500,
        message: e.to_string(),
    }
}

/// `GET /replica/manifest` — the WAL-shipping manifest: committed
/// sequence, snapshot metadata, and every segment's clean-prefix length
/// (see `geoalign_store::ship`).
fn get_replica_manifest(state: &AppState) -> Result<Response, HttpError> {
    let backing = replica_backing(state)?;
    let m = geoalign_store::ship::manifest(backing.store()).map_err(|e| store_error(&e))?;
    let snapshot = match m.snapshot {
        Some(info) => Json::object([
            ("bytes", Json::Number(info.bytes as f64)),
            ("seq", Json::Number(info.seq as f64)),
        ]),
        None => Json::Null,
    };
    let segments: Vec<Json> = m
        .segments
        .iter()
        .map(|s| {
            Json::object([
                ("index", Json::Number(s.index as f64)),
                ("valid_bytes", Json::Number(s.valid_bytes as f64)),
                ("sealed", Json::Bool(s.sealed)),
            ])
        })
        .collect();
    Ok(Response::json(
        Json::object([
            ("last_seq", Json::Number(m.last_seq as f64)),
            ("snapshot", snapshot),
            ("segments", Json::Array(segments)),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// `GET /replica/segment?index=N[&from=M]` — bytes `M..` of segment
/// `N`'s clean prefix, as `application/octet-stream`. `X-Segment-*`
/// headers carry the slice coordinates so the standby can detect a
/// concurrent checkpoint (`404`: the segment was compacted away).
fn get_replica_segment(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let backing = replica_backing(state)?;
    let index = req
        .query
        .split('&')
        .find_map(|kv| kv.strip_prefix("index="))
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| HttpError::bad_request("missing or invalid 'index' query parameter"))?;
    let from = query_u64(req, "from", 0, 0, u64::MAX);
    let chunk = geoalign_store::ship::read_segment(backing.store().dir(), index, from)
        .map_err(|e| store_error(&e))?
        .ok_or_else(|| HttpError {
            status: 404,
            message: format!("segment {index} does not exist (checkpointed away?)"),
        })?;
    let mut resp = Response::text("application/octet-stream", chunk.bytes);
    resp.set_header("X-Segment-From", chunk.from.to_string());
    resp.set_header("X-Segment-Valid-Bytes", chunk.valid_bytes.to_string());
    resp.set_header("X-Segment-Sealed", chunk.sealed.to_string());
    Ok(resp)
}

/// `GET /replica/snapshot` — the committed snapshot file verbatim;
/// `404` when the primary has never checkpointed.
fn get_replica_snapshot(state: &AppState) -> Result<Response, HttpError> {
    let backing = replica_backing(state)?;
    let bytes = geoalign_store::ship::read_snapshot(backing.store().dir())
        .map_err(|e| store_error(&e))?
        .ok_or_else(|| HttpError {
            status: 404,
            message: "no snapshot: the primary has never checkpointed".to_owned(),
        })?;
    Ok(Response::text("application/octet-stream", bytes))
}

/// The `durability` object in `/healthz`: whether a durable store is
/// attached and, when it is, what recovery found at boot — replayed WAL
/// records, snapshot records, torn-tail and corruption repairs.
fn durability_json(state: &AppState) -> Json {
    let Some(backing) = state.durable() else {
        return Json::object([("enabled", Json::Bool(false))]);
    };
    let store = backing.store();
    let recovery = store.recovery();
    let opt_str = |s: &Option<String>| match s {
        Some(v) => Json::from(v.as_str()),
        None => Json::Null,
    };
    Json::object([
        ("enabled", Json::Bool(true)),
        ("entries", Json::Number(store.len() as f64)),
        ("last_seq", Json::Number(store.last_seq() as f64)),
        (
            "recovery",
            Json::object([
                (
                    "snapshot_records",
                    Json::Number(recovery.snapshot_records as f64),
                ),
                ("snapshot_defect", opt_str(&recovery.snapshot_defect)),
                ("wal_segments", Json::Number(recovery.wal_segments as f64)),
                (
                    "wal_records_replayed",
                    Json::Number(recovery.wal_records_replayed as f64),
                ),
                ("repairs", Json::Number(recovery.repairs as f64)),
                ("torn_tail", opt_str(&recovery.torn_tail)),
                (
                    "replay_micros",
                    Json::Number(recovery.replay.as_micros().min(u128::from(u64::MAX)) as f64),
                ),
            ]),
        ),
    ])
}

/// `GET /healthz` — readiness detail: cached crosswalks, uptime, and the
/// build this binary came from (`GEOALIGN_GIT_HASH` is stamped at build
/// time when available; "unknown" otherwise).
fn get_healthz(state: &AppState) -> Response {
    let build = Json::object([
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        (
            "git_hash",
            Json::from(option_env!("GEOALIGN_GIT_HASH").unwrap_or("unknown")),
        ),
    ]);
    Response::json(
        Json::object([
            ("status", Json::from("ok")),
            (
                "store_entries",
                Json::Number(state.cache.stats().entries as f64),
            ),
            (
                "uptime_seconds",
                Json::Number(state.uptime().as_secs() as f64),
            ),
            ("durability", durability_json(state)),
            ("build", build),
        ])
        .to_string()
        .into_bytes(),
    )
}

/// Whether the request asked for Prometheus text exposition — via
/// `?format=prometheus` or an `Accept: text/plain` header.
fn wants_prometheus(req: &Request) -> bool {
    if req.query.split('&').any(|kv| kv == "format=prometheus") {
        return true;
    }
    req.header("accept")
        .is_some_and(|accept| accept.contains("text/plain"))
}

/// `GET /metrics` — counters, cache stats, per-phase latency histograms.
/// JSON by default (the shape pre-registry clients rely on), Prometheus
/// text exposition when asked (see [`wants_prometheus`]).
fn get_metrics(state: &AppState, req: &Request) -> Response {
    let stats = state.cache.stats();
    if wants_prometheus(req) {
        // Cache stats live as plain atomics on the store, so mirror them
        // into a scratch registry for this scrape. The serve registry is
        // scraped first, then the scratch, then the process-global
        // registry with the core/partition library metrics.
        let scratch = Registry::new();
        scratch
            .counter(
                "geoalign_serve_cache_hits_total",
                "Prepared-crosswalk cache hits",
            )
            .add(stats.hits);
        scratch
            .counter(
                "geoalign_serve_cache_misses_total",
                "Prepared-crosswalk cache misses",
            )
            .add(stats.misses);
        scratch
            .counter(
                "geoalign_serve_cache_evictions_total",
                "Prepared-crosswalk cache evictions",
            )
            .add(stats.evictions);
        scratch
            .gauge(
                "geoalign_serve_cache_entries",
                "Prepared crosswalks currently cached",
            )
            .set(stats.entries as i64);
        let text = expo::prometheus_text([state.metrics.registry(), &scratch, Registry::global()]);
        return Response::text(PROMETHEUS_CONTENT_TYPE, text.into_bytes());
    }
    let cache = Json::object([
        ("hits", Json::Number(stats.hits as f64)),
        ("misses", Json::Number(stats.misses as f64)),
        ("evictions", Json::Number(stats.evictions as f64)),
        ("entries", Json::Number(stats.entries as f64)),
        ("hit_rate", Json::Number(stats.hit_rate())),
    ]);
    let mut doc = match state.metrics.to_json() {
        Json::Object(pairs) => pairs,
        _ => unreachable!("Metrics::to_json returns an object"),
    };
    doc.push(("cache".to_owned(), cache));
    Response::json(Json::Object(doc).to_string().into_bytes())
}

/// One `k=v` query parameter parsed as an integer, clamped to a range.
fn query_u64(req: &Request, key: &str, default: u64, min: u64, max: u64) -> u64 {
    req.query
        .split('&')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default)
        .clamp(min, max)
}

/// `GET /debug/profile?seconds=N[&hz=M]` — runs the sampling profiler
/// for the window and answers collapsed stacks as `text/plain`
/// (`flamegraph.pl` input). Blocks the handling worker for the window by
/// design; the window is capped at 30 s. Sampling statistics ride in
/// `X-Profile-*` headers so the body stays pure collapsed stacks.
fn get_debug_profile(req: &Request) -> Response {
    let seconds = query_u64(req, "seconds", 2, 1, 30);
    let hz = query_u64(req, "hz", 997, 1, 5_000);
    let profiler = geoalign_obs::Profiler::start(hz);
    std::thread::sleep(std::time::Duration::from_secs(seconds));
    let report = profiler.stop();
    let mut resp = Response::text(
        "text/plain; charset=utf-8",
        report.collapsed_text().into_bytes(),
    );
    resp.set_header("X-Profile-Sweeps", report.sweeps.to_string());
    resp.set_header("X-Profile-Stack-Samples", report.stack_samples.to_string());
    resp.set_header("X-Profile-Idle-Samples", report.idle_samples.to_string());
    resp.set_header(
        "X-Profile-Sampler-Busy-Micros",
        report.sampler_busy.as_micros().to_string(),
    );
    resp
}

/// `GET /debug/spans` — drains the process-global trace ring and answers
/// the recent span records as a JSON array (oldest first).
fn get_debug_spans() -> Response {
    let records: Vec<Json> = geoalign_obs::trace::drain_recent()
        .iter()
        .map(span_record_json)
        .collect();
    Response::json(
        Json::object([
            ("count", Json::Number(records.len() as f64)),
            ("spans", Json::Array(records)),
        ])
        .to_string()
        .into_bytes(),
    )
}

/// `GET /debug/slow` — the slowest requests retained so far, slowest
/// first, each with its full span records (ids and parents intact, so a
/// client can rebuild the tree).
fn get_debug_slow(state: &AppState) -> Response {
    let entries: Vec<Json> = state
        .slow_requests()
        .iter()
        .map(|e| {
            Json::object([
                ("trace_id", Json::from(e.trace_id.as_str())),
                ("method", Json::from(e.method.as_str())),
                ("path", Json::from(e.path.as_str())),
                ("status", Json::Number(f64::from(e.status))),
                ("duration_micros", Json::Number(e.duration_micros as f64)),
                (
                    "spans",
                    Json::Array(e.spans.iter().map(span_record_json).collect()),
                ),
            ])
        })
        .collect();
    Response::json(
        Json::object([("slowest", Json::Array(entries))])
            .to_string()
            .into_bytes(),
    )
}

/// `GET /debug/threads` — request-pool occupancy (submitted / started /
/// completed, queue depth, jobs in flight) plus the process thread
/// budget.
fn get_debug_threads(state: &AppState) -> Response {
    let pool = match state.pool_stats() {
        Some(s) => Json::object([
            ("submitted", Json::Number(s.submitted as f64)),
            ("started", Json::Number(s.started as f64)),
            ("completed", Json::Number(s.completed as f64)),
            ("queue_depth", Json::Number(s.queue_depth as f64)),
            ("active", Json::Number(s.active as f64)),
        ]),
        // Routing without a bound server (unit tests, embedders).
        None => Json::Null,
    };
    Response::json(
        Json::object([
            ("pool", pool),
            (
                "exec_threads",
                Json::Number(geoalign_exec::global_threads() as f64),
            ),
            (
                "hardware_threads",
                Json::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
        ])
        .to_string()
        .into_bytes(),
    )
}

/// One span record as JSON for the debug endpoints: identity, tree
/// links, timing.
fn span_record_json(s: &geoalign_obs::SpanRecord) -> Json {
    Json::object([
        ("id", Json::Number(s.id as f64)),
        (
            "parent",
            s.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
        ),
        (
            "trace_id",
            s.trace_id.as_deref().map_or(Json::Null, Json::from),
        ),
        ("name", Json::from(s.name)),
        ("thread", Json::from(&*s.thread)),
        (
            "start_unix_micros",
            Json::Number(s.start_unix_micros as f64),
        ),
        ("duration_micros", Json::Number(s.duration_micros as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_bodies::BodyGen;
    use proptest::prelude::*;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query: String::new(),
            version: "HTTP/1.1".to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn body_json(resp: &Response) -> Json {
        json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    fn state_with_world() -> std::sync::Arc<AppState> {
        let state = AppState::new(8);
        let r = route(
            &state,
            &request(
                "POST",
                "/systems",
                r#"{"name":"zip","units":["z1","z2","z3"]}"#,
            ),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let r = route(
            &state,
            &request("POST", "/systems", r#"{"name":"county","units":["A","B"]}"#),
        );
        assert_eq!(r.status, 200);
        let r = route(
            &state,
            &request(
                "POST",
                "/references",
                r#"{"source":"zip","target":"county","name":"population",
                   "entries":[["z1","A",100],["z2","A",60],["z2","B",40],["z3","B",80]]}"#,
            ),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        state
    }

    #[test]
    fn health_and_unknown_routes() {
        let state = AppState::new(4);
        let r = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        assert_eq!(body_json(&r).get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(route(&state, &request("GET", "/nope", "")).status, 404);
        assert_eq!(
            route(&state, &request("DELETE", "/healthz", "")).status,
            405
        );
    }

    #[test]
    fn crosswalk_end_to_end() {
        let state = state_with_world();
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        let r = route(&state, &request("POST", "/crosswalk", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let doc = body_json(&r);
        assert_eq!(doc.get("cache_hit"), Some(&Json::Bool(false)));
        let col = &doc.get("columns").unwrap().as_array().unwrap()[0];
        let values = col.get("values").unwrap().as_array().unwrap();
        // z1 wholly in A, z2 splits 60/40, z3 wholly in B: A=22, B=38.
        assert!((values[0].as_f64().unwrap() - 22.0).abs() < 1e-9);
        assert!((values[1].as_f64().unwrap() - 38.0).abs() < 1e-9);
        // Second request hits the cache.
        let r = route(&state, &request("POST", "/crosswalk", body));
        assert_eq!(body_json(&r).get("cache_hit"), Some(&Json::Bool(true)));
    }

    #[test]
    fn crosswalk_validates_input() {
        let state = state_with_world();
        // Wrong value count.
        let r = route(
            &state,
            &request(
                "POST",
                "/crosswalk",
                r#"{"source":"zip","target":"county","attributes":[{"name":"x","values":[1]}]}"#,
            ),
        );
        assert_eq!(r.status, 400);
        // Unregistered pair.
        let r = route(
            &state,
            &request(
                "POST",
                "/crosswalk",
                r#"{"source":"county","target":"zip","attributes":[{"name":"x","values":[1,2]}]}"#,
            ),
        );
        assert_eq!(r.status, 404);
        // Malformed JSON.
        let r = route(&state, &request("POST", "/crosswalk", "{nope"));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn deep_json_bodies_are_rejected_and_counted() {
        let state = AppState::new(4);
        let hostile = "[".repeat(100_000);
        let r = route(&state, &request("POST", "/systems", &hostile));
        assert_eq!(r.status, 400);
        assert!(
            String::from_utf8_lossy(&r.body).contains("depth limit"),
            "{:?}",
            String::from_utf8_lossy(&r.body)
        );
        assert_eq!(state.metrics.depth_limit_rejections.get(), 1);
        // An ordinary syntax error does not bump the depth counter.
        let r = route(&state, &request("POST", "/systems", "{nope"));
        assert_eq!(r.status, 400);
        assert_eq!(state.metrics.depth_limit_rejections.get(), 1);
    }

    #[test]
    fn references_validate_units() {
        let state = state_with_world();
        let r = route(
            &state,
            &request(
                "POST",
                "/references",
                r#"{"source":"zip","target":"county","name":"bad",
                   "entries":[["z9","A",1]]}"#,
            ),
        );
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("z9"));
    }

    #[test]
    fn unknown_units_keep_their_answers() {
        let state = state_with_world();
        // /references: the first unknown name decides the whole 400 body.
        let r = route(
            &state,
            &request(
                "POST",
                "/references",
                r#"{"source":"zip","target":"county","name":"bad",
                   "entries":[["z1","A",1],["z1","Q",1],["z9","A",1]]}"#,
            ),
        );
        assert_eq!(r.status, 400);
        assert_eq!(
            String::from_utf8_lossy(&r.body),
            r#"{"error":"unknown unit 'Q' in system 'county'"}"#
        );
        assert_eq!(state.pipeline().reference_count("zip", "county"), 1);
        // /ingest: points naming an unknown unit on either side are
        // counted as skipped, not rejected.
        let r = route(
            &state,
            &request(
                "POST",
                "/ingest",
                r#"{"source":"zip","target":"county","attribute":"pop",
                   "points":[["z1","A",2],["z9","A",1],["z2","Q",1],["z3","B",4]]}"#,
            ),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let doc = body_json(&r);
        assert_eq!(doc.get("absorbed").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("skipped").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn duplicate_unit_ids_resolve_to_their_first_occurrence() {
        let state = AppState::new(8);
        for body in [
            r#"{"name":"zip","units":["z1","z2","z1","z3","z2"]}"#,
            r#"{"name":"county","units":["A","B","A"]}"#,
        ] {
            assert_eq!(
                route(&state, &request("POST", "/systems", body)).status,
                200
            );
        }
        // Each name resolves where a scan of the registered ids finds it.
        let ids = state.pipeline().unit_ids("zip").unwrap().to_vec();
        assert_eq!(ids, ["z1", "z2", "z3"]);
        let r = route(
            &state,
            &request(
                "POST",
                "/references",
                r#"{"source":"zip","target":"county","name":"pop",
                   "entries":[["z3","B",5],["z1","A",1],["z2","B",2]]}"#,
            ),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let pipeline = state.pipeline();
        let reference = &pipeline.references("zip", "county")[0];
        assert_eq!((reference.n_source(), reference.n_target()), (3, 2));
        let entries: Vec<(usize, usize, f64)> = reference.dm().matrix().iter().collect();
        assert_eq!(entries, [(0, 0, 1.0), (1, 1, 2.0), (2, 1, 5.0)]);
        drop(pipeline);
        // /ingest resolves through the same index.
        let body = r#"{"source":"zip","target":"county","attribute":"pop",
            "points":[["z3","B",1],["z2","A",1]]}"#;
        let r = route(&state, &request("POST", "/ingest", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        assert_eq!(body_json(&r).get("absorbed").unwrap().as_f64(), Some(2.0));
        let pipeline = state.pipeline();
        let streamed = &pipeline.references("zip", "county")[1];
        let entries: Vec<(usize, usize, f64)> = streamed.dm().matrix().iter().collect();
        assert_eq!(entries, [(1, 0, 1.0), (2, 1, 1.0)]);
    }

    #[test]
    fn healthz_reports_readiness_detail() {
        let state = state_with_world();
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        route(&state, &request("POST", "/crosswalk", body));
        let r = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        let doc = body_json(&r);
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("store_entries").unwrap().as_f64(), Some(1.0));
        assert!(doc.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
        let build = doc.get("build").unwrap();
        assert_eq!(
            build.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(build.get("git_hash").unwrap().as_str().is_some());
    }

    #[test]
    fn metrics_content_negotiation() {
        let state = state_with_world();
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        route(&state, &request("POST", "/crosswalk", body));

        // ?format=prometheus switches to text exposition.
        let mut prom_req = request("GET", "/metrics", "");
        prom_req.query = "format=prometheus".to_owned();
        let r = route(&state, &prom_req);
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "text/plain; version=0.0.4");
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("# TYPE geoalign_serve_requests_total counter"));
        assert!(
            text.contains("geoalign_serve_weight_learning_latency_micros_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("geoalign_serve_weight_learning_latency_micros_count 1"));
        assert!(text.contains("geoalign_serve_cache_misses_total 1"));
        assert!(text.contains("geoalign_serve_cache_entries 1"));
        // Library metrics from the process-global registry ride along.
        assert!(text.contains("geoalign_core_solver_iterations"), "{text}");

        // Accept: text/plain also selects Prometheus.
        let mut accept_req = request("GET", "/metrics", "");
        accept_req
            .headers
            .push(("accept".to_owned(), "text/plain".to_owned()));
        let r = route(&state, &accept_req);
        assert_eq!(r.content_type, "text/plain; version=0.0.4");

        // The default stays JSON, same shape as ever.
        let r = route(&state, &request("GET", "/metrics", ""));
        assert_eq!(r.content_type, "application/json");
        assert!(body_json(&r).get("request_latency").is_some());
    }

    #[test]
    fn checkpoint_without_data_dir_is_409() {
        let state = AppState::new(4);
        let r = route(&state, &request("POST", "/checkpoint", ""));
        assert_eq!(r.status, 409);
        assert!(String::from_utf8_lossy(&r.body).contains("--data-dir"));
        // And /healthz says durability is off.
        let health = body_json(&route(&state, &request("GET", "/healthz", "")));
        let durability = health.get("durability").unwrap();
        assert_eq!(durability.get("enabled"), Some(&Json::Bool(false)));
    }

    #[test]
    fn checkpoint_and_healthz_report_durable_detail() {
        let dir = std::env::temp_dir().join(format!("geoalign-router-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let state = AppState::open_durable(&dir, 8).unwrap();
            let r = route(
                &state,
                &request("POST", "/systems", r#"{"name":"zip","units":["z1","z2"]}"#),
            );
            assert_eq!(r.status, 200);
            let r = route(
                &state,
                &request("POST", "/systems", r#"{"name":"county","units":["A","B"]}"#),
            );
            assert_eq!(r.status, 200);
            let r = route(
                &state,
                &request(
                    "POST",
                    "/references",
                    r#"{"source":"zip","target":"county","name":"pop",
                       "entries":[["z1","A",10],["z1","B",30],["z2","B",5]]}"#,
                ),
            );
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
            let r = route(&state, &request("POST", "/checkpoint", ""));
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
            let doc = body_json(&r);
            assert_eq!(doc.get("records").unwrap().as_f64(), Some(3.0));
            assert!(doc.get("snapshot_bytes").unwrap().as_f64().unwrap() > 0.0);
        }
        // Reopen: the registrations came back through the snapshot, and
        // /healthz carries the recovery detail.
        let state = AppState::open_durable(&dir, 8).unwrap();
        let health = body_json(&route(&state, &request("GET", "/healthz", "")));
        let durability = health.get("durability").unwrap();
        assert_eq!(durability.get("enabled"), Some(&Json::Bool(true)));
        assert_eq!(durability.get("entries").unwrap().as_f64(), Some(3.0));
        let recovery = durability.get("recovery").unwrap();
        assert_eq!(
            recovery.get("snapshot_records").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(recovery.get("repairs").unwrap().as_f64(), Some(0.0));
        assert_eq!(recovery.get("torn_tail"), Some(&Json::Null));
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"x","values":[4,6]}]}"#;
        let r = route(&state, &request("POST", "/crosswalk", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_reference_posts_persist_in_registration_order() {
        // Regression: the ref/<nnnnnnnn> index must be assigned while the
        // pipeline write lock is held, so racing POSTs persist in the
        // same order they registered and warm-start replay reproduces the
        // cold pipeline's reference sequence exactly.
        let dir =
            std::env::temp_dir().join(format!("geoalign-router-reforder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold_order: Vec<String> = {
            let state = AppState::open_durable(&dir, 8).unwrap();
            let r = route(
                &state,
                &request("POST", "/systems", r#"{"name":"zip","units":["z1","z2"]}"#),
            );
            assert_eq!(r.status, 200);
            let r = route(
                &state,
                &request("POST", "/systems", r#"{"name":"county","units":["A","B"]}"#),
            );
            assert_eq!(r.status, 200);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let state = &state;
                    s.spawn(move || {
                        for i in 0..5 {
                            let body = format!(
                                r#"{{"source":"zip","target":"county","name":"r{t}-{i}",
                                   "entries":[["z1","A",10],["z1","B",30],["z2","B",5]]}}"#
                            );
                            let r = route(state, &request("POST", "/references", &body));
                            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
                        }
                    });
                }
            });
            let order: Vec<String> = state
                .pipeline()
                .references("zip", "county")
                .iter()
                .map(|r| r.name().to_owned())
                .collect();
            order
        };
        assert_eq!(cold_order.len(), 20);

        let state = AppState::open_durable(&dir, 8).unwrap();
        let warm_order: Vec<String> = state
            .pipeline()
            .references("zip", "county")
            .iter()
            .map(|r| r.name().to_owned())
            .collect();
        assert_eq!(
            warm_order, cold_order,
            "warm-start replay must preserve registration order"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn route_override_intercepts_before_builtin_routes() {
        let state = state_with_world();
        state.set_route_override(std::sync::Arc::new(|req: &Request| {
            (req.path == "/healthz")
                .then(|| Response::json(b"{\"status\":\"intercepted\"}".to_vec()))
        }));
        let r = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(
            body_json(&r).get("status").unwrap().as_str(),
            Some("intercepted")
        );
        // Everything the override declines falls through untouched.
        let r = route(&state, &request("GET", "/metrics", ""));
        assert_eq!(r.status, 200);
        assert!(body_json(&r).get("request_latency").is_some());
    }

    #[test]
    fn replica_routes_require_a_durable_store() {
        let state = AppState::new(4);
        for path in ["/replica/manifest", "/replica/segment", "/replica/snapshot"] {
            let r = route(&state, &request("GET", path, ""));
            assert_eq!(r.status, 409, "{path}");
        }
        assert_eq!(
            route(&state, &request("POST", "/replica/manifest", "")).status,
            405
        );
    }

    #[test]
    fn replica_manifest_segment_and_snapshot_ship_real_bytes() {
        let dir = std::env::temp_dir().join(format!("geoalign-router-ship-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = AppState::open_durable(&dir, 8).unwrap();
        let r = route(
            &state,
            &request("POST", "/systems", r#"{"name":"zip","units":["z1","z2"]}"#),
        );
        assert_eq!(r.status, 200);

        let manifest = body_json(&route(&state, &request("GET", "/replica/manifest", "")));
        assert!(manifest.get("last_seq").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(manifest.get("snapshot"), Some(&Json::Null));
        let segments = manifest.get("segments").unwrap().as_array().unwrap();
        assert!(!segments.is_empty());
        let index = segments[0].get("index").unwrap().as_f64().unwrap() as u64;

        let mut seg_req = request("GET", "/replica/segment", "");
        seg_req.query = format!("index={index}");
        let r = route(&state, &seg_req);
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/octet-stream");
        assert_eq!(&r.body[..4], b"GAWL");
        assert!(r
            .headers
            .iter()
            .any(|(k, v)| k == "X-Segment-Valid-Bytes" && v.parse::<u64>().unwrap() > 8));

        // No index → 400; unknown segment → 404; snapshot before any
        // checkpoint → 404, after → the GASN image.
        assert_eq!(
            route(&state, &request("GET", "/replica/segment", "")).status,
            400
        );
        let mut missing = request("GET", "/replica/segment", "");
        missing.query = "index=999".to_owned();
        assert_eq!(route(&state, &missing).status, 404);
        assert_eq!(
            route(&state, &request("GET", "/replica/snapshot", "")).status,
            404
        );
        assert_eq!(
            route(&state, &request("POST", "/checkpoint", "")).status,
            200
        );
        let r = route(&state, &request("GET", "/replica/snapshot", ""));
        assert_eq!(r.status, 200);
        assert_eq!(&r.body[..4], b"GASN");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_include_cache_stats() {
        let state = state_with_world();
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        route(&state, &request("POST", "/crosswalk", body));
        route(&state, &request("POST", "/crosswalk", body));
        let r = route(&state, &request("GET", "/metrics", ""));
        let doc = body_json(&r);
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("entries").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("attributes_applied").unwrap().as_f64(), Some(2.0));
        assert!(doc
            .get("weight_learning_latency")
            .unwrap()
            .get("count")
            .is_some());
    }

    /// `POST /crosswalk` as it was built on [`json::parse`] and a [`Json`]
    /// reply tree: the reference `post_crosswalk` must answer like.
    fn post_crosswalk_by_tree(state: &AppState, req: &Request) -> Result<Response, HttpError> {
        let doc = parse_body(state, req)?;
        let source = str_field(&doc, "source")?;
        let target = str_field(&doc, "target")?;
        let attributes = array_field(&doc, "attributes")?;
        if attributes.is_empty() {
            return Err(HttpError::bad_request("'attributes' must not be empty"));
        }
        let (prepared, cache_hit) = state
            .prepared_crosswalk(source, target)
            .map_err(|e| core_error(&e))?;
        let target_units: Vec<Json> = {
            let pipeline = state.pipeline();
            let ids = pipeline.unit_ids(target).map_err(|e| core_error(&e))?;
            ids.iter().map(|id| Json::from(id.clone())).collect()
        };
        let mut names = Vec::with_capacity(attributes.len());
        let mut vectors = Vec::with_capacity(attributes.len());
        for attr in attributes {
            let name = str_field(attr, "name")?;
            let values: Vec<f64> = array_field(attr, "values")?
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| {
                        HttpError::bad_request(format!(
                            "attribute '{name}': values must be numbers"
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            if values.len() != prepared.n_source() {
                return Err(HttpError::bad_request(format!(
                    "attribute '{name}': {} values for {} source units",
                    values.len(),
                    prepared.n_source()
                )));
            }
            let vector = AggregateVector::new(name, values)
                .map_err(|e| HttpError::bad_request(format!("attribute '{name}': {e}")))?;
            names.push(name);
            vectors.push(vector);
        }
        let applied_batch = prepared.apply_batch(&vectors).map_err(|e| core_error(&e))?;
        let columns = names
            .into_iter()
            .zip(applied_batch)
            .map(|(name, applied)| {
                Json::object([
                    ("name", Json::from(name)),
                    (
                        "values",
                        Json::Array(applied.estimate.into_iter().map(Json::Number).collect()),
                    ),
                    (
                        "weights",
                        Json::Array(applied.weights.into_iter().map(Json::Number).collect()),
                    ),
                ])
            })
            .collect();
        Ok(Response::json(
            Json::object([
                ("target_system", Json::from(target)),
                ("target_units", Json::Array(target_units)),
                ("cache_hit", Json::Bool(cache_hit)),
                ("columns", Json::Array(columns)),
            ])
            .to_string()
            .into_bytes(),
        ))
    }

    /// Everything a client can observe of a response.
    fn observable(r: &Response) -> (u16, &str, &[(String, String)], bool, String) {
        let body = String::from_utf8_lossy(&r.body).into_owned();
        (
            r.status,
            r.content_type,
            &r.headers,
            r.connection_close,
            body,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        #[test]
        fn crosswalk_answers_like_the_tree_handler(seed in 0u64..u64::MAX) {
            let body = BodyGen::new(seed).body();
            let req = request("POST", "/crosswalk", &body);
            let (typed, by_tree) = (state_with_world(), state_with_world());
            // Twice each: a cold prepare, then a cache hit.
            for _ in 0..2 {
                let got = route(&typed, &req);
                let want = post_crosswalk_by_tree(&by_tree, &req).unwrap_or_else(Response::from);
                prop_assert!(observable(&got) == observable(&want), "{body}\n got: {:?}\nwant: {:?}", observable(&got), observable(&want));
            }
            prop_assert_eq!(
                typed.metrics.depth_limit_rejections.get(),
                by_tree.metrics.depth_limit_rejections.get()
            );
        }
    }

    #[test]
    fn crosswalk_body_generator_reaches_every_status() {
        let state = state_with_world();
        let mut counts = std::collections::BTreeMap::new();
        for seed in 0..1500 {
            let body = BodyGen::new(seed).body();
            let status = route(&state, &request("POST", "/crosswalk", &body)).status;
            *counts.entry(status).or_insert(0) += 1;
        }
        for status in [200, 400, 404] {
            assert!(
                counts.get(&status).copied().unwrap_or(0) >= 50,
                "{counts:?}"
            );
        }
    }

    #[test]
    fn streamed_reply_matches_the_tree_rendering() {
        let mut gen = BodyGen::new(5);
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            1e300,
            -1e300,
            f64::MAX,
            42.0,
            -7.0,
            0.1,
            1.0 / 3.0,
            9007199254740993.0,
        ];
        let text = [
            "z1", "A", "\"", "\\", "\u{0}", "\u{1f}", "\n", "\r", "\t", "\u{7f}", "é", "世", "😀",
            "",
        ];
        for _ in 0..300 {
            let word = |gen: &mut BodyGen| -> String {
                (0..gen.below(4))
                    .map(|_| text[gen.below(text.len())])
                    .collect()
            };
            let numbers = |gen: &mut BodyGen| -> Vec<f64> {
                (0..gen.below(6))
                    .map(|_| match gen.below(3) {
                        0 => f64::from_bits(
                            ((gen.below(1 << 32) as u64) << 32) | gen.below(1 << 32) as u64,
                        ),
                        _ => specials[gen.below(specials.len())],
                    })
                    .collect()
            };
            let target = word(&mut gen);
            let ids: Vec<String> = (0..gen.below(5)).map(|_| word(&mut gen)).collect();
            let columns: Vec<(String, Vec<f64>, Vec<f64>)> = (0..1 + gen.below(3))
                .map(|_| (word(&mut gen), numbers(&mut gen), numbers(&mut gen)))
                .collect();
            for cache_hit in [false, true] {
                let mut streamed = String::new();
                write_reply_head(&mut streamed, &target, &ids, cache_hit).unwrap();
                let parts = columns.iter().map(|(n, e, w)| (n.as_str(), &e[..], &w[..]));
                write_reply_columns(&mut streamed, parts).unwrap();
                let tree = Json::object([
                    ("target_system", Json::from(target.as_str())),
                    (
                        "target_units",
                        Json::Array(ids.iter().map(|id| Json::from(id.as_str())).collect()),
                    ),
                    ("cache_hit", Json::Bool(cache_hit)),
                    (
                        "columns",
                        Json::Array(
                            columns
                                .iter()
                                .map(|(name, estimate, weights)| {
                                    let numbers = |v: &[f64]| {
                                        Json::Array(v.iter().copied().map(Json::Number).collect())
                                    };
                                    Json::object([
                                        ("name", Json::from(name.as_str())),
                                        ("values", numbers(estimate)),
                                        ("weights", numbers(weights)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]);
                assert_eq!(streamed, tree.to_string());
            }
        }
    }
}
