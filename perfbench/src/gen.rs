//! Seeded inputs at the paper's US scale (GeoAlign, EDBT 2018, §4.1):
//! 30,238 zip codes mapped onto 3,142 counties through three static
//! references, plus `/crosswalk` bodies and pre-located `/ingest`
//! batches. The same seed always yields the same bytes; the served
//! program only ever sees the generated request bodies.

use geoalign_core::ReferenceData;
use geoalign_partition::DisaggregationMatrix;
use std::fmt::Write as _;

/// Source units (United States zip codes).
pub const N_SOURCE: usize = 30_238;
/// Target units (United States counties).
pub const N_TARGET: usize = 3_142;
/// Source system name.
pub const SOURCE: &str = "zip";
/// Target system name.
pub const TARGET: &str = "county";
/// The three static references every workload registers.
pub const STATIC_REFS: [&str; 3] = ["population", "housing_units", "employment"];
/// The streaming attribute `/ingest` folds into a fourth reference.
pub const STREAM_ATTR: &str = "trips";
/// Targets each source cell can spill into (also the point generator's
/// jitter), so the streaming rollup's full support is `3 * N_SOURCE` cells.
pub const SPREAD: usize = 3;
/// Points per timed `/ingest`.
pub const INGEST_POINTS: usize = 1_000;

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so independent
    /// input families do not shift when one of them changes length.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The first of the `SPREAD` targets source `si` can map onto: targets
/// follow the source's position, as neighbouring zips share counties.
pub fn base_target(si: usize) -> usize {
    si * N_TARGET / N_SOURCE
}

/// One located point or reference entry: `(source, target, value)`.
pub type Triple = (usize, usize, f64);

/// One `/crosswalk` attribute column: name plus one value per source unit.
pub type Column = (String, Vec<f64>);

/// Unit names and static references shared by every workload.
#[derive(Debug)]
pub struct Universe {
    /// Source unit ids, five-digit zip codes in registration order.
    pub zips: Vec<String>,
    /// Target unit ids, five-digit county FIPS codes.
    pub counties: Vec<String>,
    /// `(name, entries)` of each static reference.
    pub refs: Vec<(String, Vec<Triple>)>,
}

impl Universe {
    /// Builds the universe for `seed`.
    pub fn generate(seed: u64) -> Universe {
        let mut rng = Rng::new(seed, 1);
        // Strictly increasing codes: 3 (resp. 30) slots per unit, one taken.
        let zips = (0..N_SOURCE)
            .map(|i| format!("{:05}", 501 + 3 * i + rng.below(3)))
            .collect();
        let counties = (0..N_TARGET)
            .map(|j| format!("{:05}", 1001 + 30 * j + rng.below(30)))
            .collect();
        let refs = STATIC_REFS
            .iter()
            .map(|name| {
                let mut entries = Vec::with_capacity(N_SOURCE * 2);
                for si in 0..N_SOURCE {
                    let spread = 1 + rng.below(SPREAD);
                    for k in 0..spread {
                        let ti = (base_target(si) + k) % N_TARGET;
                        entries.push((si, ti, cents(100 + rng.below(9_900))));
                    }
                }
                ((*name).to_owned(), entries)
            })
            .collect();
        Universe {
            zips,
            counties,
            refs,
        }
    }

    /// `POST /systems` bodies: the zip system, then the county system.
    pub fn system_bodies(&self) -> [String; 2] {
        let body = |name: &str, units: &[String]| {
            let mut s = format!("{{\"name\":\"{name}\",\"units\":[");
            for (i, u) in units.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{u}\"");
            }
            s.push_str("]}");
            s
        };
        [body(SOURCE, &self.zips), body(TARGET, &self.counties)]
    }

    /// `POST /references` body for static reference `k`.
    pub fn reference_body(&self, k: usize) -> String {
        let (name, entries) = &self.refs[k];
        let mut s = format!(
            "{{\"source\":\"{SOURCE}\",\"target\":\"{TARGET}\",\"name\":\"{name}\",\"entries\":"
        );
        self.write_triples(&mut s, entries);
        s.push('}');
        s
    }

    /// The in-process twin of static reference `k`, built from the same
    /// values the request body carries.
    pub fn reference_data(&self, k: usize) -> ReferenceData {
        let (name, entries) = &self.refs[k];
        let dm =
            DisaggregationMatrix::from_triples(name, N_SOURCE, N_TARGET, entries.iter().copied())
                .expect("generated reference is a valid disaggregation matrix");
        ReferenceData::from_dm(name, dm).expect("generated reference is valid")
    }

    /// `POST /ingest` body for pre-located `points` of the stream.
    pub fn ingest_body(&self, points: &[Triple]) -> String {
        let mut s = format!(
            "{{\"source\":\"{SOURCE}\",\"target\":\"{TARGET}\",\"attribute\":\"{STREAM_ATTR}\",\"points\":"
        );
        self.write_triples(&mut s, points);
        s.push('}');
        s
    }

    fn write_triples(&self, s: &mut String, triples: &[Triple]) {
        s.reserve(triples.len() * 24);
        s.push('[');
        for (i, &(si, ti, v)) in triples.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[\"{}\",\"{}\",{v}]", self.zips[si], self.counties[ti]);
        }
        s.push(']');
    }
}

/// `n / 100` — two-decimal values whose shortest decimal form parses
/// back to the same bits on the server.
fn cents(n: usize) -> f64 {
    n as f64 / 100.0
}

/// `count` distinct `/crosswalk` batches of `columns` attribute columns
/// each (integer counts, as in the paper's crime and census tables).
pub fn crosswalk_batches(seed: u64, stream: u64, count: usize, columns: usize) -> Vec<Vec<Column>> {
    let mut rng = Rng::new(seed, stream);
    (0..count)
        .map(|b| {
            (0..columns)
                .map(|c| {
                    let values = (0..N_SOURCE).map(|_| rng.below(1_000) as f64).collect();
                    (format!("attr{b}_{c}"), values)
                })
                .collect()
        })
        .collect()
}

/// `POST /crosswalk` body applying the pair's crosswalk to `columns`.
pub fn crosswalk_body(columns: &[Column]) -> String {
    let mut s = format!("{{\"source\":\"{SOURCE}\",\"target\":\"{TARGET}\",\"attributes\":[");
    for (i, (name, values)) in columns.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"name\":\"{name}\",\"values\":[");
        for (k, v) in values.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "{v}");
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

/// One pre-located ingest batch: uniform sources, each point landing in
/// one of its source's `SPREAD` cells, weights in 0.50..2.49.
pub fn ingest_batch(rng: &mut Rng, n: usize) -> Vec<Triple> {
    (0..n)
        .map(|_| {
            let si = rng.below(N_SOURCE);
            let ti = (base_target(si) + rng.below(SPREAD)) % N_TARGET;
            (si, ti, cents(50 + rng.below(200)))
        })
        .collect()
}

/// One point in every cell [`ingest_batch`] can emit, so the rollup has
/// its full support before timing and every timed fold costs the same.
pub fn full_support_batch(rng: &mut Rng) -> Vec<Triple> {
    let mut points = Vec::with_capacity(N_SOURCE * SPREAD);
    for si in 0..N_SOURCE {
        for k in 0..SPREAD {
            let ti = (base_target(si) + k) % N_TARGET;
            points.push((si, ti, cents(50 + rng.below(200))));
        }
    }
    points
}
