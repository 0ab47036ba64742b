//! A sharded, concurrency-friendly cache of [`PreparedCrosswalk`]s.
//!
//! The serving layer answers many crosswalk queries against few distinct
//! (source system, target system, reference set) combinations, so the
//! expensive prepare half of the prepare/apply split is cached here.
//! Entries are keyed by the two system names plus a fingerprint of the
//! reference set, so re-registering different references under the same
//! system pair can never serve a stale snapshot.
//!
//! The map is split into [`SHARDS`] independent `RwLock`ed shards hashed
//! by key, so concurrent readers on different crosswalks never contend on
//! one lock, and readers of the *same* crosswalk share a read lock.
//! Hit/miss/eviction counters are lock-free atomics. Eviction is
//! approximate LRU over last-used stamps from a global atomic clock.

use crate::durable::DurableBacking;
use crate::error::CoreError;
use crate::prepare::PreparedCrosswalk;
use crate::reference::ReferenceData;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Number of independent lock shards.
const SHARDS: usize = 16;

/// Identity of one cached crosswalk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CrosswalkKey {
    /// Name of the source unit system (e.g. `"zip"`).
    pub source: String,
    /// Name of the target unit system (e.g. `"county"`).
    pub target: String,
    /// Fingerprint of the exact reference set the snapshot was prepared
    /// from (see [`fingerprint_references`]).
    pub fingerprint: u64,
}

impl CrosswalkKey {
    /// Key for `source → target` over the given reference set.
    pub fn new(
        source: impl Into<String>,
        target: impl Into<String>,
        refs: &[&ReferenceData],
    ) -> Self {
        Self::with_fingerprint(source, target, fingerprint_references(refs))
    }

    /// Key for `source → target` over a reference set whose
    /// [`fingerprint_references`] is already known — e.g. the value
    /// [`IntegrationPipeline::fingerprint`](crate::IntegrationPipeline::fingerprint)
    /// memoizes at registration, which keeps cache hits O(1).
    pub fn with_fingerprint(
        source: impl Into<String>,
        target: impl Into<String>,
        fingerprint: u64,
    ) -> Self {
        CrosswalkKey {
            source: source.into(),
            target: target.into(),
            fingerprint,
        }
    }
}

/// Content fingerprint of a reference set: FNV-1a over each reference's
/// name, dimensions, source aggregates, and every disaggregation-matrix
/// entry (as exact f64 bit patterns). Order-sensitive — the same
/// references supplied in a different order learn weights in a different
/// order and are deliberately treated as a different crosswalk.
pub fn fingerprint_references(refs: &[&ReferenceData]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(refs.len() as u64).to_le_bytes());
    for r in refs {
        eat(r.name().as_bytes());
        eat(&[0xff]); // name terminator so "ab"+"c" != "a"+"bc"
        eat(&(r.n_source() as u64).to_le_bytes());
        eat(&(r.n_target() as u64).to_le_bytes());
        for v in r.source().values() {
            eat(&v.to_bits().to_le_bytes());
        }
        for (i, j, v) in r.dm().matrix().iter() {
            eat(&(i as u64).to_le_bytes());
            eat(&(j as u64).to_le_bytes());
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

struct Entry {
    prepared: Arc<PreparedCrosswalk>,
    last_used: AtomicU64,
}

/// One in-flight prepare that threads racing on the same cold key wait on
/// (single-flight coalescing). `done` flips to `true` when the leading
/// thread finishes — successfully or not — and the condvar wakes waiters.
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Counter snapshot of a [`CrosswalkStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Lookups that waited on another thread's in-flight prepare instead
    /// of preparing themselves (single-flight coalescing).
    pub coalesced: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl StoreStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded concurrent cache of prepared crosswalks. All methods take
/// `&self`; the store is meant to be shared as an `Arc` across serving
/// threads.
pub struct CrosswalkStore {
    shards: Vec<RwLock<HashMap<CrosswalkKey, Entry>>>,
    /// Prepares currently in flight, for single-flight coalescing.
    flights: Mutex<HashMap<CrosswalkKey, Arc<Flight>>>,
    /// Optional durable tier: cold misses read through to disk before
    /// recomputing, and fresh prepares are written behind to it.
    backing: Option<Arc<DurableBacking>>,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

impl std::fmt::Debug for CrosswalkStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CrosswalkStore")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl CrosswalkStore {
    /// Store holding at most `capacity` prepared crosswalks (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CrosswalkStore {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            flights: Mutex::new(HashMap::new()),
            backing: None,
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// [`CrosswalkStore::new`] with a durable backing tier. Cold misses
    /// in [`CrosswalkStore::get_or_insert_with`] consult the disk store
    /// before recomputing (a warm hit counts in
    /// `geoalign_store_warm_hits_total`), and freshly prepared snapshots
    /// are handed to the backing's write-behind persister.
    pub fn with_backing(capacity: usize, backing: Arc<DurableBacking>) -> Self {
        let mut store = Self::new(capacity);
        store.backing = Some(backing);
        store
    }

    /// The durable backing tier, when one is attached.
    pub fn backing(&self) -> Option<&Arc<DurableBacking>> {
        self.backing.as_ref()
    }

    fn shard(&self, key: &CrosswalkKey) -> &RwLock<HashMap<CrosswalkKey, Entry>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a prepared crosswalk, counting a hit or miss.
    pub fn get(&self, key: &CrosswalkKey) -> Option<Arc<PreparedCrosswalk>> {
        let shard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        match shard.get(key) {
            Some(entry) => {
                entry.last_used.store(self.tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                crate::obs::store_hits().inc();
                Some(Arc::clone(&entry.prepared))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                crate::obs::store_misses().inc();
                None
            }
        }
    }

    /// Inserts (or replaces) a prepared crosswalk, evicting the
    /// least-recently-used entries if the store grows past capacity.
    pub fn insert(&self, key: CrosswalkKey, prepared: Arc<PreparedCrosswalk>) {
        let entry = Entry {
            prepared,
            last_used: AtomicU64::new(self.tick()),
        };
        {
            let mut shard = self.shard(&key).write().unwrap_or_else(|e| e.into_inner());
            shard.insert(key, entry);
        }
        self.evict_over_capacity();
    }

    /// Cache lookup that refreshes the LRU stamp but does not count a hit
    /// or miss — used by the single-flight re-checks, whose initial
    /// [`CrosswalkStore::get`] already counted the lookup.
    fn lookup_quiet(&self, key: &CrosswalkKey) -> Option<Arc<PreparedCrosswalk>> {
        let shard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        shard.get(key).map(|entry| {
            entry.last_used.store(self.tick(), Ordering::Relaxed);
            Arc::clone(&entry.prepared)
        })
    }

    /// Cache-through lookup: returns the cached snapshot or prepares one
    /// with `prepare`, stores it, and returns it. The boolean is `true`
    /// when the snapshot came from the cache (including after waiting on
    /// another thread's prepare).
    ///
    /// Cold keys are **single-flight**: threads racing on the same missing
    /// key elect one leader to run `prepare` (outside every lock, so a
    /// slow prepare never blocks readers of other keys) while the rest
    /// wait on it and are counted in `geoalign_core_store_coalesced_total`.
    /// If the leader fails or panics its error is its own; waiters retry,
    /// electing a new leader, so one bad prepare never wedges the key.
    pub fn get_or_insert_with<F>(
        &self,
        key: &CrosswalkKey,
        prepare: F,
    ) -> Result<(Arc<PreparedCrosswalk>, bool), CoreError>
    where
        F: FnOnce() -> Result<PreparedCrosswalk, CoreError>,
    {
        if let Some(found) = self.get(key) {
            return Ok((found, true));
        }
        let mut prepare = Some(prepare);
        loop {
            // Decide leader vs. waiter under the flights lock; the leader
            // may have landed its insert between our miss and here, so
            // re-check the cache first.
            enum Role {
                Leader(Arc<Flight>),
                Waiter(Arc<Flight>),
            }
            let role = {
                let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(found) = self.lookup_quiet(key) {
                    return Ok((found, true));
                }
                match flights.get(key) {
                    Some(flight) => Role::Waiter(Arc::clone(flight)),
                    None => {
                        let flight = Arc::new(Flight::default());
                        flights.insert(key.clone(), Arc::clone(&flight));
                        Role::Leader(flight)
                    }
                }
            };
            match role {
                Role::Leader(flight) => {
                    // The guard lands even on error or panic, so waiters
                    // always wake up and can retry.
                    let _landing = FlightLanding {
                        store: self,
                        key,
                        flight: &flight,
                    };
                    // Read-through: a snapshot persisted by an earlier
                    // process serves this miss without re-preparing.
                    if let Some(revived) =
                        self.backing.as_ref().and_then(|b| b.lookup_prepared(key))
                    {
                        self.insert(key.clone(), Arc::clone(&revived));
                        return Ok((revived, true));
                    }
                    let prepare = prepare.take().expect("a leader runs the closure only once");
                    let snapshot = Arc::new(prepare()?);
                    self.insert(key.clone(), Arc::clone(&snapshot));
                    // Write-behind: persist off the request path.
                    if let Some(backing) = &self.backing {
                        backing.persist_prepared(key, &snapshot);
                    }
                    return Ok((snapshot, false));
                }
                Role::Waiter(flight) => {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    crate::obs::store_coalesced().inc();
                    let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
                    while !*done {
                        done = flight.cv.wait(done).unwrap_or_else(|e| e.into_inner());
                    }
                    drop(done);
                    if let Some(found) = self.lookup_quiet(key) {
                        return Ok((found, true));
                    }
                    // The leader failed; loop and possibly lead ourselves.
                }
            }
        }
    }

    /// Drops the entry for `key`, if present. Used when a reference set
    /// is re-registered.
    pub fn invalidate(&self, key: &CrosswalkKey) -> bool {
        let mut shard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
        shard.remove(key).is_some()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Evicts approximate-LRU entries until the store fits its capacity.
    fn evict_over_capacity(&self) {
        while self.len() > self.capacity {
            // Find the globally oldest stamp under read locks...
            let mut victim: Option<(usize, CrosswalkKey, u64)> = None;
            for (s, shard) in self.shards.iter().enumerate() {
                let shard = shard.read().unwrap_or_else(|e| e.into_inner());
                for (key, entry) in shard.iter() {
                    let stamp = entry.last_used.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|(_, _, best)| stamp < *best) {
                        victim = Some((s, key.clone(), stamp));
                    }
                }
            }
            // ...then remove it under the shard's write lock. A concurrent
            // touch between the scan and the removal makes this merely
            // approximate LRU, which is fine for a cache.
            let Some((s, key, _)) = victim else { break };
            let removed = {
                let mut shard = self.shards[s].write().unwrap_or_else(|e| e.into_inner());
                shard.remove(&key).is_some()
            };
            if removed {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                crate::obs::store_evictions().inc();
            }
        }
    }
}

/// Drop guard of a single-flight leader: deregisters the flight and wakes
/// every waiter, whether the prepare returned, errored, or panicked.
struct FlightLanding<'a> {
    store: &'a CrosswalkStore,
    key: &'a CrosswalkKey,
    flight: &'a Arc<Flight>,
}

impl Drop for FlightLanding<'_> {
    fn drop(&mut self) {
        let mut flights = self.store.flights.lock().unwrap_or_else(|e| e.into_inner());
        flights.remove(self.key);
        drop(flights);
        let mut done = self.flight.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        drop(done);
        self.flight.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::GeoAlign;
    use geoalign_partition::DisaggregationMatrix;

    fn make_ref(name: &str, scale: f64) -> ReferenceData {
        let dm = DisaggregationMatrix::from_triples(
            name,
            2,
            2,
            [(0, 0, scale), (0, 1, 2.0 * scale), (1, 1, 3.0 * scale)],
        )
        .unwrap();
        ReferenceData::from_dm(name, dm).unwrap()
    }

    fn prepared(r: &ReferenceData) -> Arc<PreparedCrosswalk> {
        Arc::new(GeoAlign::new().prepare(&[r]).unwrap())
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        let a = make_ref("pop", 1.0);
        let b = make_ref("pop", 2.0); // same name, different values
        let c = make_ref("jobs", 1.0); // different name, same values
        let fa = fingerprint_references(&[&a]);
        assert_eq!(fa, fingerprint_references(&[&a]));
        assert_ne!(fa, fingerprint_references(&[&b]));
        assert_ne!(fa, fingerprint_references(&[&c]));
        assert_ne!(
            fingerprint_references(&[&a, &c]),
            fingerprint_references(&[&c, &a])
        );
    }

    /// Held by every test that evicts: the obs eviction counter is
    /// process-wide, and one test asserts its exact delta.
    fn evicting_lock() -> std::sync::MutexGuard<'static, ()> {
        static EVICTING: std::sync::Mutex<()> = std::sync::Mutex::new(());
        EVICTING.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn hit_and_miss_counters() {
        let store = CrosswalkStore::new(8);
        let r = make_ref("pop", 1.0);
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        assert!(store.get(&key).is_none());
        store.insert(key.clone(), prepared(&r));
        assert!(store.get(&key).is_some());
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let _serial = evicting_lock();
        let store = CrosswalkStore::new(2);
        let refs: Vec<ReferenceData> = (0..5)
            .map(|k| make_ref(&format!("r{k}"), k as f64 + 1.0))
            .collect();
        let keys: Vec<CrosswalkKey> = refs
            .iter()
            .map(|r| CrosswalkKey::new("zip", "county", &[r]))
            .collect();
        store.insert(keys[0].clone(), prepared(&refs[0]));
        store.insert(keys[1].clone(), prepared(&refs[1]));
        // Touch key 0 so key 1 is the LRU when key 2 arrives.
        assert!(store.get(&keys[0]).is_some());
        store.insert(keys[2].clone(), prepared(&refs[2]));
        assert_eq!(store.len(), 2);
        assert!(store.get(&keys[1]).is_none(), "LRU entry should be evicted");
        assert!(store.get(&keys[0]).is_some());
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        store.insert(keys[3].clone(), prepared(&refs[3]));
        store.insert(keys[4].clone(), prepared(&refs[4]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 3);
    }

    #[test]
    fn get_or_insert_with_prepares_once_per_key() {
        let store = CrosswalkStore::new(4);
        let r = make_ref("pop", 1.0);
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        let ga = GeoAlign::new();
        let (first, hit1) = store
            .get_or_insert_with(&key, || ga.prepare(&[&r]))
            .unwrap();
        assert!(!hit1);
        let (second, hit2) = store
            .get_or_insert_with(&key, || panic!("must not re-prepare"))
            .unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn racing_cold_lookups_coalesce_to_one_prepare() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;
        use std::time::Duration;

        let store = CrosswalkStore::new(4);
        let r = make_ref("pop", 1.0);
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        let calls = AtomicUsize::new(0);
        let (leader_entered_tx, leader_entered_rx) = mpsc::channel::<()>();

        let (store, key, calls, r) = (&store, &key, &calls, &r);
        let (first, second) = std::thread::scope(|s| {
            let leader = s.spawn(move || {
                let (p, hit) = store
                    .get_or_insert_with(key, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        leader_entered_tx.send(()).unwrap();
                        // Hold the flight open until the other thread is
                        // provably waiting on it (bounded, ~1 s worst case).
                        for _ in 0..1000 {
                            if store.stats().coalesced >= 1 {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        GeoAlign::new().prepare(&[r])
                    })
                    .unwrap();
                assert!(!hit, "the leader prepared, it did not hit");
                p
            });
            let waiter = s.spawn(move || {
                // Only start once the leader is inside its prepare, so this
                // lookup must coalesce rather than lead or hit.
                leader_entered_rx.recv().unwrap();
                let (p, hit) = store
                    .get_or_insert_with(key, || panic!("the closure must run exactly once"))
                    .unwrap();
                assert!(hit, "the waiter is served from the leader's insert");
                p
            });
            (leader.join().unwrap(), waiter.join().unwrap())
        });

        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(store.stats().coalesced, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn failed_leader_does_not_wedge_the_key() {
        let store = CrosswalkStore::new(4);
        let r = make_ref("pop", 1.0);
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        let err = store
            .get_or_insert_with(&key, || Err(CoreError::NoReferences))
            .unwrap_err();
        assert!(matches!(err, CoreError::NoReferences));
        // The flight was cleaned up: a later lookup prepares normally.
        let (p, hit) = store
            .get_or_insert_with(&key, || GeoAlign::new().prepare(&[&r]))
            .unwrap();
        assert!(!hit);
        assert_eq!(p.n_source(), 2);
    }

    #[test]
    fn evictions_are_counted_exactly_once_per_removed_entry() {
        // Regression guard for the eviction metric: the counter (and its
        // obs twin) must tick exactly once per entry actually removed —
        // never for replacements, invalidations, or failed prepares.
        let _serial = evicting_lock();
        let store = CrosswalkStore::new(3);
        let refs: Vec<ReferenceData> = (0..10)
            .map(|k| make_ref(&format!("r{k}"), k as f64 + 1.0))
            .collect();
        let obs_before = crate::obs::store_evictions().get();
        for r in &refs {
            let key = CrosswalkKey::new("zip", "county", &[r]);
            store.insert(key, prepared(r));
        }
        // 10 inserts into capacity 3: exactly 7 entries were evicted.
        let stats = store.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 7);
        assert_eq!(crate::obs::store_evictions().get() - obs_before, 7);

        // Replacing an existing key is not an eviction.
        let key0 = CrosswalkKey::new("zip", "county", &[&refs[9]]);
        store.insert(key0.clone(), prepared(&refs[9]));
        assert_eq!(store.stats().evictions, 7);

        // Invalidation is not an eviction.
        store.invalidate(&key0);
        assert_eq!(store.stats().evictions, 7);

        // A failed single-flight leader inserts nothing and therefore
        // evicts nothing.
        let cold = CrosswalkKey::new("tract", "county", &[&refs[0]]);
        let _ = store.get_or_insert_with(&cold, || Err(CoreError::NoReferences));
        assert_eq!(store.stats().evictions, 7);
        assert_eq!(crate::obs::store_evictions().get() - obs_before, 7);
    }

    #[test]
    fn concurrent_eviction_never_double_counts() {
        // Hammer a capacity-1 store from several threads; every eviction
        // decision races with the others. Conservation must hold exactly:
        // entries inserted == entries evicted + entries still present.
        let _serial = evicting_lock();
        let store = CrosswalkStore::new(1);
        let refs: Vec<ReferenceData> = (0..8)
            .map(|k| make_ref(&format!("c{k}"), k as f64 + 1.0))
            .collect();
        let per_thread = 5usize;
        std::thread::scope(|s| {
            for chunk in refs.chunks(2) {
                let (store, chunk) = (&store, chunk);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        for r in chunk {
                            let key = CrosswalkKey::new("zip", "county", &[r]);
                            store.insert(key, prepared(r));
                        }
                    }
                });
            }
        });
        let stats = store.stats();
        // 8 distinct keys re-inserted 5 times each: a re-insert of a key
        // still cached replaces (no eviction); each eviction removed one
        // entry. Exact conservation: what went in and is gone was evicted.
        assert!(stats.entries <= 1 + 7); // capacity 1, transiently above
        assert!(stats.evictions >= 7, "at least 7 distinct keys displaced");
        assert!(
            stats.evictions <= (per_thread * 8) as u64 - stats.entries as u64,
            "counted more evictions ({}) than entries that could have left",
            stats.evictions
        );
    }

    #[test]
    fn backing_read_through_and_write_behind() {
        let dir =
            std::env::temp_dir().join(format!("geoalign-core-backing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = geoalign_store::StoreOptions {
            segment_max_bytes: 64 << 20,
            fsync: false,
        };
        let r = make_ref("pop", 1.0);
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        {
            let backing =
                Arc::new(crate::durable::DurableBacking::open_with(&dir, opts.clone()).unwrap());
            let store = CrosswalkStore::with_backing(4, Arc::clone(&backing));
            let (_, hit) = store
                .get_or_insert_with(&key, || GeoAlign::new().prepare(&[&r]))
                .unwrap();
            assert!(!hit, "first compute is a genuine miss");
            backing.flush();
        }
        // Fresh cache, same disk: the miss is served from the store
        // without running the prepare closure.
        let backing = Arc::new(crate::durable::DurableBacking::open_with(&dir, opts).unwrap());
        let store = CrosswalkStore::with_backing(4, backing);
        let warm_before = geoalign_store::obs::warm_hits().get();
        let (revived, hit) = store
            .get_or_insert_with(&key, || panic!("warm start must not re-prepare"))
            .unwrap();
        assert!(hit, "disk revival counts as a hit");
        assert_eq!(revived.n_source(), 2);
        assert!(geoalign_store::obs::warm_hits().get() > warm_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalidate_removes_entries() {
        let store = CrosswalkStore::new(4);
        let r = make_ref("pop", 1.0);
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        store.insert(key.clone(), prepared(&r));
        assert!(store.invalidate(&key));
        assert!(!store.invalidate(&key));
        assert!(store.is_empty());
    }
}
