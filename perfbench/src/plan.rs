//! The three workloads as fixed, seeded operation sequences. Every
//! request body is generated here, before any server starts; the timed
//! phase only walks the sequence.

use crate::gen::{self, Column, Rng, Triple, Universe};

/// One operation of a workload's closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /crosswalk` with read body `n`.
    Crosswalk(usize),
    /// `POST /ingest` with batch `n`.
    Ingest(usize),
    /// `POST /checkpoint`.
    Checkpoint,
}

/// Which workload, and the knobs that shape it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale 4-column reads on one in-memory node.
    CrosswalkPaper,
    /// 1,000-point ingests plus 1-column reads on one durable node.
    IngestDurable,
    /// 4-column reads plus scattered ingests through a coordinator.
    ClusterMixed,
}

impl Workload {
    /// The name `--workload` takes and results report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CrosswalkPaper => "crosswalk_paper",
            Workload::IngestDurable => "ingest_durable",
            Workload::ClusterMixed => "cluster_mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        [
            Workload::CrosswalkPaper,
            Workload::IngestDurable,
            Workload::ClusterMixed,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// Attribute columns per `/crosswalk`.
    pub fn columns(self) -> usize {
        match self {
            Workload::IngestDurable => 1,
            Workload::CrosswalkPaper | Workload::ClusterMixed => 4,
        }
    }

    /// Reads after each ingest (no ingests at all on crosswalk_paper).
    ///
    /// The repository holds no record of real traffic, so both mixed
    /// workloads use one stated rule instead: reads and ingests each take
    /// about half of the loop's time. The counts are the ingest p50 over
    /// the read p50 measured on each workload at the commit that defined
    /// this benchmark (2-vCPU host): ingest_durable 155-166 ms per
    /// 1,000-point ingest over 17-18 ms per 1-column read, about 9;
    /// cluster_mixed 113-118 ms over 37-40 ms per 4-column read, about 3.
    /// They are fixed, not measured per run, so every run of a seed sends
    /// the same sequence.
    pub fn reads_per_ingest(self) -> Option<usize> {
        match self {
            Workload::CrosswalkPaper => None,
            Workload::IngestDurable => Some(9),
            Workload::ClusterMixed => Some(3),
        }
    }

    /// A `/checkpoint` follows every this many ingests (durable only).
    ///
    /// Eight keeps the WAL under eight full rollups (about 27 MB) and
    /// a checkpoint (about 110 ms) under 5% of the loop's time.
    pub fn checkpoint_every(self) -> Option<usize> {
        match self {
            Workload::IngestDurable => Some(8),
            Workload::CrosswalkPaper | Workload::ClusterMixed => None,
        }
    }

    /// `--threads` of each server process the workload starts.
    pub fn node_threads(self) -> usize {
        match self {
            Workload::CrosswalkPaper | Workload::IngestDurable => 2,
            // Two shards plus a coordinator on a 2-core host: one thread
            // each keeps the busy threads (both shards during a scatter,
            // or the owner during a read) at or below the core count.
            Workload::ClusterMixed => 1,
        }
    }
}

/// Distinct `/crosswalk` bodies each workload cycles over. The server's
/// prepared cache is keyed by the pair and its references, not by the
/// values, so this count does not change the server's work; it sets how
/// many different answers the oracle checks, and bounds its cost.
pub const DISTINCT_READS: usize = 16;

/// Everything the workload sends, generated from the seed.
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Units and static references.
    pub universe: Universe,
    /// `/systems` bodies.
    pub system_bodies: [String; 2],
    /// `/references` bodies, one per static reference.
    pub reference_bodies: Vec<String>,
    /// Read columns per distinct body (kept for the oracle).
    pub read_columns: Vec<Vec<Column>>,
    /// Read bodies.
    pub read_bodies: Vec<String>,
    /// The full-support warm-up batch (ingest workloads).
    pub warm_points: Vec<Triple>,
    /// Its body.
    pub warm_body: String,
    /// Timed ingest batches.
    pub batches: Vec<Vec<Triple>>,
    /// Their bodies.
    pub batch_bodies: Vec<String>,
}

impl Plan {
    /// Generates every input of `workload` for `seed`, with enough ingest
    /// batches for `max_ingests` ingest operations.
    pub fn generate(workload: Workload, seed: u64, max_ingests: usize) -> Plan {
        let universe = Universe::generate(seed);
        let system_bodies = universe.system_bodies();
        let reference_bodies = (0..gen::STATIC_REFS.len())
            .map(|k| universe.reference_body(k))
            .collect();
        let read_columns = gen::crosswalk_batches(seed, 2, DISTINCT_READS, workload.columns());
        let read_bodies = read_columns
            .iter()
            .map(|c| gen::crosswalk_body(c))
            .collect();
        let ingests = if workload.reads_per_ingest().is_some() {
            max_ingests
        } else {
            0
        };
        let mut rng = Rng::new(seed, 3);
        let (warm_points, warm_body) = if ingests > 0 {
            let points = gen::full_support_batch(&mut rng);
            let body = universe.ingest_body(&points);
            (points, body)
        } else {
            (Vec::new(), String::new())
        };
        let batches: Vec<Vec<Triple>> = (0..ingests)
            .map(|_| gen::ingest_batch(&mut rng, gen::INGEST_POINTS))
            .collect();
        let batch_bodies = batches.iter().map(|b| universe.ingest_body(b)).collect();
        Plan {
            workload,
            universe,
            system_bodies,
            reference_bodies,
            read_columns,
            read_bodies,
            warm_points,
            warm_body,
            batches,
            batch_bodies,
        }
    }

    /// Operation `i` of the endless closed-loop sequence: crosswalk_paper
    /// cycles over its reads; the others repeat one ingest, a fixed
    /// number of reads, and (durable) a checkpoint every few ingests.
    pub fn op(&self, i: usize) -> Op {
        let Some(reads) = self.workload.reads_per_ingest() else {
            return Op::Crosswalk(i % DISTINCT_READS);
        };
        let every = self.workload.checkpoint_every();
        // One group: `every` cycles of (ingest + reads), then a checkpoint.
        let cycle = 1 + reads;
        let group = every.map_or(cycle, |n| n * cycle + 1);
        let (g, pos) = (i / group, i % group);
        if pos == group - 1 && every.is_some() {
            return Op::Checkpoint;
        }
        let (c, k) = (pos / cycle, pos % cycle);
        let cycles_before = g * every.unwrap_or(1) + c;
        if k == 0 {
            Op::Ingest(cycles_before)
        } else {
            Op::Crosswalk((cycles_before * reads + k - 1) % DISTINCT_READS)
        }
    }
}
