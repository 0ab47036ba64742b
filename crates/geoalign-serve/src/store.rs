//! Shared service state: the registry of unit systems and references
//! (an [`IntegrationPipeline`] behind a `RwLock`) plus the prepared-
//! crosswalk cache and the metrics. Registration takes the write lock;
//! the `/crosswalk` hot path only ever takes the read lock, and all
//! cache and metrics traffic is lock-free or sharded.

use crate::metrics::Metrics;
use geoalign_agg::AggState;
use geoalign_core::{
    persist, CoreError, CrosswalkKey, CrosswalkStore, DurableBacking, IntegrationPipeline,
    PreparedCrosswalk, ReferenceData,
};
use geoalign_obs::SpanRecord;
use geoalign_partition::DisaggregationMatrix;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// How many slowest requests `/debug/slow` retains.
pub const SLOW_RING_CAPACITY: usize = 16;

/// One retained slow request: the access-log facts plus the full span
/// records, so `/debug/slow` can render the span tree.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The request's trace ID.
    pub trace_id: String,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Total wall time in microseconds.
    pub duration_micros: u64,
    /// Every span finished while routing (ids/parents intact).
    pub spans: Vec<SpanRecord>,
}

/// The k-slowest-requests ring behind `/debug/slow`: kept sorted by
/// duration descending, evicting the fastest entry once full.
#[derive(Debug, Default)]
struct SlowRing {
    entries: Vec<SlowEntry>,
}

impl SlowRing {
    fn record(&mut self, entry: SlowEntry) {
        if self.entries.len() >= SLOW_RING_CAPACITY {
            let min = self.entries.last().map(|e| e.duration_micros).unwrap_or(0);
            if entry.duration_micros <= min {
                return;
            }
            self.entries.pop();
        }
        let at = self
            .entries
            .partition_point(|e| e.duration_micros >= entry.duration_micros);
        self.entries.insert(at, entry);
    }
}

/// Default number of prepared crosswalks the cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// A route override consulted before the built-in router (see
/// [`AppState::set_route_override`]): returns `Some(response)` to answer
/// the request itself, `None` to fall through to the built-in routes.
pub type RouteOverride =
    Arc<dyn Fn(&crate::http::Request) -> Option<crate::http::Response> + Send + Sync>;

/// One streaming reference fed by `/ingest`: its durable rollup key, its
/// position within the pair's reference list, and the mergeable state
/// every batch so far has been folded into.
#[derive(Debug)]
struct IngestSlot {
    agg_index: u64,
    position: usize,
    state: AggState,
}

/// All streaming references, keyed by `(source, target, attribute)`.
#[derive(Debug, Default)]
struct IngestRegistry {
    slots: HashMap<(String, String, String), IngestSlot>,
    /// Next `agg/<nnnnnnnn>` key index — one past the highest replayed.
    next_index: u64,
}

/// What one `/ingest` batch did, for the response body.
#[derive(Debug)]
pub struct IngestOutcome {
    /// Points folded into the state this batch.
    pub absorbed: u64,
    /// Points skipped this batch (unknown unit ids).
    pub skipped: u64,
    /// Points folded across every batch so far.
    pub total_points: u64,
    /// Points skipped across every batch so far.
    pub total_skipped: u64,
    /// The streaming reference's position within the pair.
    pub position: usize,
    /// References registered for the pair after the fold.
    pub references_for_pair: usize,
    /// Whether a cached prepared crosswalk was refreshed in place through
    /// the incremental delta path (vs left for the next `/crosswalk`).
    pub incremental: bool,
    /// Design-matrix rows the incremental update touched.
    pub touched_rows: usize,
}

/// Everything the worker threads share.
pub struct AppState {
    pipeline: RwLock<IntegrationPipeline>,
    /// The prepared-crosswalk cache.
    pub cache: CrosswalkStore,
    /// Service metrics.
    pub metrics: Metrics,
    started: Instant,
    access_log: Mutex<Option<Box<dyn Write + Send>>>,
    /// The durable tier (`serve --data-dir`): registrations are written
    /// through synchronously, prepared crosswalks behind the cache.
    durable: Option<Arc<DurableBacking>>,
    /// Next `ref/<nnnnnnnn>` key index — one past the highest replayed.
    next_ref_index: AtomicU64,
    /// Streaming-ingest references. Lock order: pipeline write lock
    /// first, then this (only [`Self::ingest`] takes both).
    ingest: Mutex<IngestRegistry>,
    /// Whether `/debug/*` introspection routes answer (requires the
    /// `--debug-endpoints` flag; everything 404s otherwise).
    debug_endpoints: AtomicBool,
    /// The slowest requests seen so far, for `/debug/slow`. Only fed
    /// while debug endpoints are enabled.
    slow: Mutex<SlowRing>,
    /// The request pool's occupancy counters, set by the server at bind
    /// time; `/debug/threads` reads them.
    pool_stats: Mutex<Option<Arc<geoalign_exec::PoolStats>>>,
    /// Optional route override consulted before the built-in router —
    /// the cluster crate mounts its coordinator and standby front ends
    /// on the serve reactor through this hook.
    route_override: RwLock<Option<RouteOverride>>,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState")
            .field("cache", &self.cache)
            .field("metrics", &self.metrics)
            .field("uptime_seconds", &self.uptime().as_secs())
            .finish_non_exhaustive()
    }
}

impl AppState {
    /// Fresh state with an empty pipeline and a cache of `capacity`.
    pub fn new(cache_capacity: usize) -> Arc<Self> {
        Self::with_pipeline(IntegrationPipeline::new(), cache_capacity)
    }

    /// State wrapping an already-populated pipeline (used by tests and by
    /// embedders that register data programmatically).
    pub fn with_pipeline(pipeline: IntegrationPipeline, cache_capacity: usize) -> Arc<Self> {
        Arc::new(AppState {
            pipeline: RwLock::new(pipeline),
            cache: CrosswalkStore::new(cache_capacity),
            metrics: Metrics::default(),
            started: Instant::now(),
            access_log: Mutex::new(None),
            durable: None,
            next_ref_index: AtomicU64::new(0),
            ingest: Mutex::new(IngestRegistry::default()),
            debug_endpoints: AtomicBool::new(false),
            slow: Mutex::new(SlowRing::default()),
            pool_stats: Mutex::new(None),
            route_override: RwLock::new(None),
        })
    }

    /// State backed by the durable store at `data_dir` (`serve
    /// --data-dir`). Opens (or creates) the store — running its recovery:
    /// snapshot load, WAL replay, torn-tail repair — then warm-starts the
    /// registry by replaying every persisted unit system and reference
    /// registration into a fresh pipeline. Prepared crosswalks revive
    /// lazily through the cache's read-through, so the first `/crosswalk`
    /// after a restart answers from disk without re-running the solver.
    pub fn open_durable(
        data_dir: impl AsRef<std::path::Path>,
        cache_capacity: usize,
    ) -> Result<Arc<Self>, CoreError> {
        let backing = Arc::new(DurableBacking::open(data_dir)?);
        let mut pipeline = IntegrationPipeline::new();

        // Replay systems first: references validate against them.
        for (key, bytes) in backing.store().iter_prefix(persist::SYSTEM_PREFIX) {
            let Some(name) = persist::system_name_from_key(&key) else {
                continue;
            };
            let units = persist::decode_unit_system(&bytes)?;
            pipeline.register_system(name, units);
        }
        // `ref/<nnnnnnnn>` keys sort in registration order, so the warm
        // pipeline sees the same sequence the cold one did.
        let mut next_ref_index = 0u64;
        for (key, bytes) in backing.store().iter_prefix(persist::REFERENCE_PREFIX) {
            let (source, target, data) = persist::decode_reference(&bytes)?;
            pipeline.register_reference(&source, &target, data)?;
            if let Some(idx) = key
                .strip_prefix(persist::REFERENCE_PREFIX)
                .and_then(|s| s.parse::<u64>().ok())
            {
                next_ref_index = next_ref_index.max(idx + 1);
            }
        }
        // `agg/<nnnnnnnn>` keys sort in first-ingest order. Streaming
        // references append after the replayed static registrations, so
        // warm positions match the cold server's as long as a pair's
        // static references are all registered before its first ingest
        // (the supported ordering; DESIGN.md §12).
        let mut ingest = IngestRegistry::default();
        for (key, bytes) in backing.store().iter_prefix(persist::AGG_PREFIX) {
            let (source, target, state) = persist::decode_agg_rollup(&bytes)?;
            let dm = DisaggregationMatrix::from_state(&state).map_err(CoreError::from)?;
            let reference = ReferenceData::from_dm(state.attribute(), dm)?;
            let position = pipeline.reference_count(&source, &target);
            pipeline.register_reference(&source, &target, reference)?;
            let agg_index = key
                .strip_prefix(persist::AGG_PREFIX)
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(ingest.next_index);
            ingest.next_index = ingest.next_index.max(agg_index + 1);
            let attribute = state.attribute().to_owned();
            ingest.slots.insert(
                (source, target, attribute),
                IngestSlot {
                    agg_index,
                    position,
                    state,
                },
            );
        }

        Ok(Arc::new(AppState {
            pipeline: RwLock::new(pipeline),
            cache: CrosswalkStore::with_backing(cache_capacity, Arc::clone(&backing)),
            metrics: Metrics::default(),
            started: Instant::now(),
            access_log: Mutex::new(None),
            durable: Some(backing),
            next_ref_index: AtomicU64::new(next_ref_index),
            ingest: Mutex::new(ingest),
            debug_endpoints: AtomicBool::new(false),
            slow: Mutex::new(SlowRing::default()),
            pool_stats: Mutex::new(None),
            route_override: RwLock::new(None),
        }))
    }

    /// Installs a [`RouteOverride`] consulted at the top of the router,
    /// before any built-in route. The cluster coordinator and standby
    /// both reuse the serve reactor/parser this way: they intercept the
    /// routes they own and let everything else (or, after a standby's
    /// promotion, nothing) fall through. Passing a fresh override
    /// replaces the previous one.
    pub fn set_route_override(&self, f: RouteOverride) {
        *self
            .route_override
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(f);
    }

    /// The installed route override, if any (cloned handle).
    pub fn route_override(&self) -> Option<RouteOverride> {
        self.route_override
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Whether `/debug/*` routes answer; off by default.
    pub fn debug_endpoints_enabled(&self) -> bool {
        self.debug_endpoints.load(Ordering::Relaxed)
    }

    /// Turns `/debug/*` routes on or off (the server sets this from
    /// `ServerConfig::debug_endpoints` at bind time).
    pub fn set_debug_endpoints(&self, enabled: bool) {
        self.debug_endpoints.store(enabled, Ordering::Relaxed);
    }

    /// Offers a finished request to the slow-request ring (kept only if
    /// it ranks among the slowest seen).
    pub fn record_slow(&self, entry: SlowEntry) {
        self.slow
            .lock()
            .expect("slow ring lock poisoned")
            .record(entry);
    }

    /// The current slow-request ring, slowest first.
    pub fn slow_requests(&self) -> Vec<SlowEntry> {
        self.slow
            .lock()
            .expect("slow ring lock poisoned")
            .entries
            .clone()
    }

    /// Publishes the request pool's counters for `/debug/threads`.
    pub fn set_pool_stats(&self, stats: Arc<geoalign_exec::PoolStats>) {
        *self.pool_stats.lock().expect("pool stats lock poisoned") = Some(stats);
    }

    /// The request pool's counters, when a server is attached.
    pub fn pool_stats(&self) -> Option<geoalign_exec::PoolStatsSnapshot> {
        self.pool_stats
            .lock()
            .expect("pool stats lock poisoned")
            .as_ref()
            .map(|s| s.snapshot())
    }

    /// The durable tier, when the server was started with `--data-dir`.
    pub fn durable(&self) -> Option<&Arc<DurableBacking>> {
        self.durable.as_ref()
    }

    /// Writes a unit-system registration through to the durable store.
    /// Registration is rare and losing one would orphan every reference
    /// on it, so this is a synchronous durable append (unlike prepared
    /// crosswalks, which are persisted behind the response).
    pub fn persist_system(&self, name: &str, unit_ids: &[String]) -> Result<(), CoreError> {
        let Some(backing) = &self.durable else {
            return Ok(());
        };
        backing
            .store()
            .put(
                &persist::system_key(name),
                persist::encode_unit_system(unit_ids),
            )
            .map_err(|e| CoreError::Persist {
                detail: e.to_string(),
            })?;
        Ok(())
    }

    /// Writes a reference registration through to the durable store under
    /// the next `ref/<nnnnnnnn>` key. Synchronous, like
    /// [`Self::persist_system`]. Callers that can race (the `/references`
    /// handler) must invoke this while still holding the pipeline write
    /// lock, so the persisted index order matches registration order and
    /// warm-start replay sees the same sequence the cold pipeline did.
    pub fn persist_reference(
        &self,
        source: &str,
        target: &str,
        reference: &ReferenceData,
    ) -> Result<(), CoreError> {
        let Some(backing) = &self.durable else {
            return Ok(());
        };
        let index = self.next_ref_index.fetch_add(1, Ordering::SeqCst);
        backing
            .store()
            .put(
                &persist::reference_key(index),
                persist::encode_reference(source, target, reference),
            )
            .map_err(|e| CoreError::Persist {
                detail: e.to_string(),
            })?;
        Ok(())
    }

    /// Writes a streaming-ingest rollup through to the durable store
    /// under its assigned `agg/<nnnnnnnn>` key. Each fold overwrites the
    /// previous rollup for the slot — the mergeable state subsumes every
    /// batch — so warm-start replay reads one record per streaming
    /// reference. Synchronous, like [`Self::persist_reference`], and for
    /// the same reason called under the pipeline write lock.
    fn persist_agg_rollup(
        &self,
        index: u64,
        source: &str,
        target: &str,
        state: &AggState,
    ) -> Result<(), CoreError> {
        let Some(backing) = &self.durable else {
            return Ok(());
        };
        backing
            .store()
            .put(
                &persist::agg_key(index),
                persist::encode_agg_rollup(source, target, state),
            )
            .map_err(|e| CoreError::Persist {
                detail: e.to_string(),
            })?;
        Ok(())
    }

    /// Folds one `/ingest` batch of pre-located points into the streaming
    /// reference for `(source, target, attribute)`.
    ///
    /// The first batch for a key registers a new reference on the pair;
    /// later batches merge into the slot's [`AggState`] and replace that
    /// reference in place, so `/crosswalk` always answers over the full
    /// point stream seen so far — byte-identical to a cold server fed the
    /// concatenated points in one shot, because the state's merge is
    /// split-invariant and the prepared-crosswalk delta path is bitwise
    /// exact. A cached prepared crosswalk for the pair is refreshed
    /// through [`PreparedCrosswalk::with_reference_updated`] (re-solving
    /// only the touched design rows) and re-keyed; the stale cache entry
    /// is invalidated either way. The updated rollup is written through
    /// to the durable store before the fold commits.
    ///
    /// `points` are `(source unit, target unit, weight)` index triples
    /// already resolved and validated by the caller; `unknown` counts the
    /// batch's points that named unknown units (recorded as skipped,
    /// mirroring `OutsidePolicy::Skip`).
    pub fn ingest(
        &self,
        source: &str,
        target: &str,
        attribute: &str,
        points: &[(usize, usize, f64)],
        unknown: u64,
    ) -> Result<IngestOutcome, CoreError> {
        let mut pipeline = self.pipeline_mut();
        let n_source = pipeline.unit_ids(source)?.len();
        let n_target = pipeline.unit_ids(target)?.len();
        let mut batch = AggState::new(attribute, n_source, n_target)
            .map_err(geoalign_partition::PartitionError::from)?;
        for &(si, ti, w) in points {
            batch
                .absorb(si, ti, w)
                .map_err(geoalign_partition::PartitionError::from)?;
        }
        for _ in 0..unknown {
            batch.record_skipped();
        }

        // The pair's cache key before the fold — the entry to refresh
        // incrementally and then invalidate.
        let old_key = pipeline
            .fingerprint(source, target)
            .map(|fp| CrosswalkKey::with_fingerprint(source, target, fp));
        let absorbed = batch.count();

        let mut registry = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let slot_key = (source.to_owned(), target.to_owned(), attribute.to_owned());
        let (state, position, agg_index, appended) = match registry.slots.get(&slot_key) {
            Some(slot) => {
                let mut state = slot.state.clone();
                state
                    .merge(&batch)
                    .map_err(geoalign_partition::PartitionError::from)?;
                (state, slot.position, slot.agg_index, false)
            }
            None => (
                batch,
                pipeline.reference_count(source, target),
                registry.next_index,
                true,
            ),
        };
        let total_points = state.count();
        let total_skipped = state.skipped();

        let dm = DisaggregationMatrix::from_state(&state)?;
        let reference = ReferenceData::from_dm(attribute, dm)?;
        if appended {
            pipeline.register_reference(source, target, reference.clone())?;
        } else {
            pipeline.replace_reference(source, target, position, reference.clone())?;
        }
        // Durable write under both locks, so rollup state on disk never
        // runs ahead of (or falls behind) the registered reference.
        self.persist_agg_rollup(agg_index, source, target, &state)?;
        if appended {
            registry.next_index += 1;
        }
        registry.slots.insert(
            slot_key,
            IngestSlot {
                agg_index,
                position,
                state,
            },
        );
        drop(registry);

        let references_for_pair = pipeline.reference_count(source, target);
        let mut touched_rows = 0usize;
        let mut incremental = false;
        if let Some(old) = &old_key {
            // The fold above re-registered the pair, so its memoized
            // fingerprint is already the post-fold one.
            let new_fp = pipeline.fingerprint(source, target);
            if let (Some(prepared), Some(new_fp)) = (self.cache.get(old), new_fp) {
                let (updated, touched) = prepared.with_reference_updated(position, reference)?;
                let new_key = CrosswalkKey::with_fingerprint(source, target, new_fp);
                self.cache.insert(new_key, Arc::new(updated));
                touched_rows = touched;
                incremental = true;
            }
            // Only the folded pair's entry is touched; prepared
            // crosswalks for other pairs stay cached.
            self.cache.invalidate(old);
        }
        self.metrics.ingest_touched_rows.add(touched_rows as u64);

        Ok(IngestOutcome {
            absorbed,
            skipped: unknown,
            total_points,
            total_skipped,
            position,
            references_for_pair,
            incremental,
            touched_rows,
        })
    }

    /// Time since this state was created (the server's uptime).
    pub fn uptime(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Installs an access-log sink; each finished request appends one
    /// JSON line. Passing a fresh sink replaces the previous one.
    pub fn set_access_log(&self, sink: Box<dyn Write + Send>) {
        *self.access_log.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    }

    /// Whether an access-log sink is installed.
    pub fn access_log_enabled(&self) -> bool {
        self.access_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Appends one line to the access log, if a sink is installed. Write
    /// failures are swallowed — logging must never break serving.
    pub fn log_access(&self, line: &str) {
        let mut guard = self.access_log.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sink) = guard.as_mut() {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }

    /// Read access to the registry.
    pub fn pipeline(&self) -> RwLockReadGuard<'_, IntegrationPipeline> {
        self.pipeline.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write access to the registry (registration endpoints only).
    pub fn pipeline_mut(&self) -> RwLockWriteGuard<'_, IntegrationPipeline> {
        self.pipeline.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The prepared crosswalk for `source → target` over the references
    /// currently registered for that pair — cached by content
    /// fingerprint, so re-registered references can never serve a stale
    /// snapshot. The fingerprint is the pipeline's memoized value, so a
    /// hit costs a map lookup, not a walk over every reference entry.
    /// Returns the snapshot and whether it was a cache hit; cache misses
    /// feed the prepare-latency histogram.
    pub fn prepared_crosswalk(
        &self,
        source: &str,
        target: &str,
    ) -> Result<(Arc<PreparedCrosswalk>, bool), CoreError> {
        let pipeline = self.pipeline();
        let Some(fingerprint) = pipeline.fingerprint(source, target) else {
            return Err(CoreError::UnknownReference {
                name: format!("crosswalk {source} -> {target}"),
            });
        };
        let refs: Vec<&ReferenceData> = pipeline.references(source, target).iter().collect();
        let key = CrosswalkKey::with_fingerprint(source, target, fingerprint);
        let aligner = *pipeline.aligner();
        let t0 = Instant::now();
        let (prepared, hit) = self
            .cache
            .get_or_insert_with(&key, || aligner.prepare(&refs))?;
        if !hit {
            self.metrics.prepare_latency.record(t0.elapsed());
        }
        Ok((prepared, hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoalign_core::GeoAlign;
    use geoalign_partition::DisaggregationMatrix;

    fn populated() -> Arc<AppState> {
        let state = AppState::new(8);
        {
            let mut p = state.pipeline_mut();
            p.register_system("zip", ["z1", "z2"]);
            p.register_system("county", ["A", "B"]);
            let dm = DisaggregationMatrix::from_triples(
                "pop",
                2,
                2,
                [(0, 0, 10.0), (0, 1, 30.0), (1, 1, 5.0)],
            )
            .unwrap();
            p.register_reference("zip", "county", ReferenceData::from_dm("pop", dm).unwrap())
                .unwrap();
        }
        state
    }

    #[test]
    fn prepared_crosswalk_caches_by_fingerprint() {
        let state = populated();
        let (first, hit1) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(!hit1);
        let (second, hit2) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(state.cache.stats().entries, 1);
        assert_eq!(state.metrics.prepare_latency.count(), 1);
    }

    #[test]
    fn re_registering_references_changes_the_key() {
        let state = populated();
        let (_, _) = state.prepared_crosswalk("zip", "county").unwrap();
        {
            let mut p = state.pipeline_mut();
            let dm = DisaggregationMatrix::from_triples(
                "jobs",
                2,
                2,
                [(0, 0, 1.0), (1, 0, 2.0), (1, 1, 2.0)],
            )
            .unwrap();
            p.register_reference("zip", "county", ReferenceData::from_dm("jobs", dm).unwrap())
                .unwrap();
        }
        let (prepared, hit) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(!hit, "new reference set must not reuse the old snapshot");
        assert_eq!(prepared.references().len(), 2);
    }

    #[test]
    fn missing_crosswalk_is_an_error() {
        let state = populated();
        assert!(state.prepared_crosswalk("county", "zip").is_err());
    }

    #[test]
    fn memoized_key_revives_a_prep_entry_keyed_by_a_full_walk() {
        // A `prep/` entry written under `CrosswalkKey::new` — the key
        // every earlier release persisted — must be found by the
        // memoized-fingerprint lookup, with no prepare run.
        let dir = std::env::temp_dir().join(format!("geoalign-serve-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dm = DisaggregationMatrix::from_triples(
            "pop",
            2,
            2,
            [(0, 0, 10.0), (0, 1, 30.0), (1, 1, 5.0)],
        )
        .unwrap();
        let reference = ReferenceData::from_dm("pop", dm).unwrap();
        let walked = CrosswalkKey::new("zip", "county", &[&reference]);
        {
            let state = AppState::open_durable(&dir, 8).unwrap();
            state
                .persist_system("zip", &["z1".to_owned(), "z2".to_owned()])
                .unwrap();
            state
                .persist_system("county", &["A".to_owned(), "B".to_owned()])
                .unwrap();
            state
                .persist_reference("zip", "county", &reference)
                .unwrap();
            let prepared = GeoAlign::new().prepare(&[&reference]).unwrap();
            let backing = state.durable().unwrap();
            backing.persist_prepared(&walked, &Arc::new(prepared));
            backing.flush();
        }

        let state = AppState::open_durable(&dir, 8).unwrap();
        let memo = state.pipeline().fingerprint("zip", "county");
        assert_eq!(memo, Some(walked.fingerprint));
        assert_eq!(
            persist::prepared_key(&CrosswalkKey::with_fingerprint(
                "zip",
                "county",
                memo.unwrap()
            )),
            persist::prepared_key(&walked)
        );
        let (_, hit) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(hit, "the persisted prepare must be revived");
        assert_eq!(state.metrics.prepare_latency.count(), 0, "no prepare ran");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_state_warm_starts_registry_and_crosswalks() {
        let dir = std::env::temp_dir().join(format!("geoalign-serve-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cold_estimate: Vec<f64> = {
            let state = AppState::open_durable(&dir, 8).unwrap();
            {
                let mut p = state.pipeline_mut();
                p.register_system("zip", ["z1", "z2"]);
                p.register_system("county", ["A", "B"]);
            }
            state
                .persist_system("zip", &["z1".to_owned(), "z2".to_owned()])
                .unwrap();
            state
                .persist_system("county", &["A".to_owned(), "B".to_owned()])
                .unwrap();
            let dm = DisaggregationMatrix::from_triples(
                "pop",
                2,
                2,
                [(0, 0, 10.0), (0, 1, 30.0), (1, 1, 5.0)],
            )
            .unwrap();
            let reference = ReferenceData::from_dm("pop", dm).unwrap();
            state
                .pipeline_mut()
                .register_reference("zip", "county", reference.clone())
                .unwrap();
            state
                .persist_reference("zip", "county", &reference)
                .unwrap();

            let (prepared, hit) = state.prepared_crosswalk("zip", "county").unwrap();
            assert!(!hit);
            let obj = geoalign_partition::AggregateVector::new("o", vec![7.0, 11.0]).unwrap();
            let result = prepared.apply_values(&obj).unwrap();
            state.durable().unwrap().flush();
            result.estimate
        };

        // A fresh state over the same directory replays the registry and
        // revives the prepared crosswalk from disk: the closure would
        // panic if the solver ran again.
        let state = AppState::open_durable(&dir, 8).unwrap();
        assert!(state.pipeline().has_system("zip"));
        assert!(state.pipeline().has_system("county"));
        assert_eq!(state.pipeline().references("zip", "county").len(), 1);
        let (prepared, hit) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(hit, "warm start must revive the prepared crosswalk");
        let obj = geoalign_partition::AggregateVector::new("o", vec![7.0, 11.0]).unwrap();
        let warm = prepared.apply_values(&obj).unwrap();
        for (w, c) in warm.estimate.iter().zip(&cold_estimate) {
            assert_eq!(
                w.to_bits(),
                c.to_bits(),
                "warm answer must be byte-identical"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
