//! Implementation of the `geoalign` command-line tool.
//!
//! Subcommands:
//!
//! * `crosswalk` — realign an aggregate table from its source units to the
//!   target units of one or more reference crosswalk files;
//! * `evaluate` — additionally compare the estimate against a ground-truth
//!   table and report RMSE / NRMSE;
//! * `weights` — print only the learned reference weights;
//! * `profile` — run the crosswalk pipeline repeatedly under the
//!   std-only sampling profiler and emit collapsed stacks plus a
//!   top-phases table (`geoalign-obs`);
//! * `serve` — run the batch crosswalk HTTP service (`geoalign-serve`);
//! * `store` — administer a durable store directory (`geoalign-store`):
//!   initialise, inspect, compact, or verify it offline;
//! * `agg` — inspect or merge mergeable aggregate states
//!   (`geoalign-agg`), either standalone state files or the streaming
//!   rollups inside a durable store.
//!
//! All inputs are CSV: aggregate tables are `unit,value` with a header,
//! crosswalk files are `source,target,value` (the HUD USPS crosswalk
//! shape). The estimate is written as a `unit,value` table.

#![warn(missing_docs)]

use geoalign_core::{CoreError, GeoAlign, PhaseTimings, ReferenceData};
use geoalign_linalg::stats;
use geoalign_partition::{AggregateTable, CrosswalkTable, UnitIndex};
use std::fmt::Write as _;

/// Errors surfaced to the CLI user with exit code 1.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O failure reading or writing a file.
    Io(String, std::io::Error),
    /// Parse or algorithm failure.
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(path, e) => write!(f, "cannot access '{path}': {e}"),
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::Run(e.to_string())
    }
}

/// Parsed command line for the crosswalk-style subcommands.
#[derive(Debug, Clone)]
pub struct CrosswalkArgs {
    /// Path of the objective aggregate table.
    pub table: String,
    /// Paths of the reference crosswalk files (at least one).
    pub references: Vec<String>,
    /// Optional ground-truth table for `evaluate`.
    pub truth: Option<String>,
    /// Output path (stdout when absent).
    pub out: Option<String>,
    /// Print the learned weights to stderr.
    pub show_weights: bool,
    /// Print per-phase wall-clock timings to stderr.
    pub show_timings: bool,
    /// Write JSON-lines span records of the run to this path.
    pub trace: Option<String>,
    /// Override of the process-wide thread budget (`--threads`).
    pub threads: Option<usize>,
}

/// Usage text.
pub const USAGE: &str = "\
geoalign — multi-reference crosswalk of aggregate tables (GeoAlign, EDBT 2018)

USAGE:
    geoalign crosswalk --table T.csv --reference X1.csv [--reference X2.csv ...]
                       [--out OUT.csv] [--weights] [--timings] [--trace SPANS.jsonl]
                       [--threads N]
    geoalign evaluate  --table T.csv --reference X1.csv [...] --truth TRUE.csv
    geoalign weights   --table T.csv --reference X1.csv [...]
    geoalign profile   --table T.csv --reference X1.csv [...]
                       [--hz HZ] [--rounds N] [--out STACKS.txt] [--top N]
                       [--threads N]
    geoalign serve     [--addr HOST:PORT] [--workers N] [--cache-capacity M]
                       [--access-log LOG.jsonl] [--threads N]
                       [--max-connections N] [--idle-timeout SECS]
                       [--max-requests-per-conn N] [--drain-timeout SECS]
                       [--event-loop epoll|poll] [--data-dir DIR]
                       [--debug-endpoints]
    geoalign cluster   serve --shard NAME=PRIMARY[,STANDBY] [--shard ...]
                       [--addr HOST:PORT] [--fail-threshold K]
                       [--health-interval-ms MS] [--timeout-ms MS]
                       [--connect-timeout-ms MS] [--retries N]
                       [--access-log LOG.jsonl] [--threads N]
    geoalign cluster   standby --data-dir DIR --primary HOST:PORT
                       [--addr HOST:PORT] [--pull-interval-ms MS]
                       [--cache-capacity M] [--access-log LOG.jsonl]
                       [--threads N]
    geoalign cluster   status [--addr HOST:PORT]
    geoalign store     <init|inspect|compact|verify> --data-dir DIR
    geoalign agg       inspect (FILE | --data-dir DIR)
    geoalign agg       merge OUT.aggstate IN1.aggstate [IN2.aggstate ...]

FLAGS:
    --timings          print per-phase wall-clock timings to stderr
    --trace            write JSON-lines span records of the run to a file
    --threads          process-wide thread budget for parallel work
                       (default: GEOALIGN_THREADS, else available parallelism;
                       results are bit-identical at any setting)
    --addr             serve: listen address (default 127.0.0.1:8077)
    --workers          serve: compute worker threads (default: the thread
                       budget); bounds concurrent request execution only —
                       idle connections don't hold workers
    --cache-capacity   serve: prepared-crosswalk cache size (default 64)
    --access-log       serve: append one JSON line per request to a file
    --max-connections  serve: open connections admitted beyond the workers
                       (cap = workers + N); arrivals past the cap are shed
                       with 503 (default 128)
    --idle-timeout     serve: seconds a keep-alive connection may idle, and
                       the stalled-request deadline (default 30)
    --max-requests-per-conn
                       serve: requests served over one connection before the
                       server closes it (default 1000)
    --drain-timeout    serve: seconds shutdown waits for in-flight requests
                       before force-closing their connections (default 5)
    --event-loop       serve: readiness backend for the connection reactor,
                       epoll (default) or poll
    --data-dir         serve: durable store directory; registrations and
                       prepared crosswalks survive restarts (snapshot + WAL)
                       store: the directory the subcommand operates on
    --debug-endpoints  serve: enable GET /debug/{profile,spans,slow,threads}
                       (off by default; they 404 when disabled)
    --hz               profile: sampling frequency (default 997)
    --rounds           profile: pipeline repetitions under the profiler
                       (default 20)
    --top              profile: rows in the stderr phase table (default 10)
    --out              profile: write collapsed stacks here instead of
                       stdout (feed to flamegraph.pl)

CLUSTER SUBCOMMANDS (see DESIGN.md §16):
    cluster serve    routing coordinator over N shard backends: forwards
                     each /crosswalk and /ingest to the owner shard of its
                     (source,target) pair, broadcasts registrations,
                     health-checks shards, and fails a dead primary over
                     to its WAL-shipping standby
    cluster standby  warm standby: pulls the primary's snapshot + WAL
                     over /replica/*, refuses data traffic until
                     POST /replica/promote verifies the copy and opens
                     it read-write
    cluster status   print the coordinator's /healthz cluster summary

STORE SUBCOMMANDS:
    store init      create an empty durable store (fails on a non-empty dir)
    store inspect   open the store (running recovery) and summarise contents
    store compact   flush the WAL into a fresh snapshot and drop old segments
    store verify    read-only structural check; exits 1 on any defect

AGG SUBCOMMANDS:
    agg inspect FILE           decode one mergeable aggregate state file
                               (the versioned `AggState` codec) and summarise it
    agg inspect --data-dir DIR open a durable store and summarise every
                               streaming-ingest rollup under agg/
    agg merge OUT IN [IN ...]  merge state files into OUT; the merge is
                               commutative and associative, so any order and
                               grouping writes the identical bytes

FILES:
    aggregate tables:  CSV `unit,value` with a header line
    crosswalk files:   CSV `source,target,value` with a header line
                       (the value is the reference attribute's aggregate in
                       each source∩target intersection, e.g. population)
";

/// Parses the flags shared by all subcommands.
pub fn parse_args(args: &[String]) -> Result<CrosswalkArgs, CliError> {
    let mut table = None;
    let mut references = Vec::new();
    let mut truth = None;
    let mut out = None;
    let mut show_weights = false;
    let mut show_timings = false;
    let mut trace = None;
    let mut threads = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--table" => table = Some(need(&mut it, "--table")?),
            "--reference" => references.push(need(&mut it, "--reference")?),
            "--truth" => truth = Some(need(&mut it, "--truth")?),
            "--out" => out = Some(need(&mut it, "--out")?),
            "--weights" => show_weights = true,
            "--timings" => show_timings = true,
            "--trace" => trace = Some(need(&mut it, "--trace")?),
            "--threads" => threads = Some(positive(&mut it, "--threads")?),
            other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
        }
    }
    let table = table.ok_or_else(|| CliError::Usage("--table is required".into()))?;
    if references.is_empty() {
        return Err(CliError::Usage(
            "at least one --reference is required".into(),
        ));
    }
    Ok(CrosswalkArgs {
        table,
        references,
        truth,
        out,
        show_weights,
        show_timings,
        trace,
        threads,
    })
}

/// Parsed command line for `geoalign serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen address.
    pub addr: String,
    /// Worker thread count override; `None` follows the process-wide
    /// thread budget ([`geoalign_exec::global_threads`]).
    pub workers: Option<usize>,
    /// Prepared-crosswalk cache capacity.
    pub cache_capacity: usize,
    /// JSON-lines access-log path (`--access-log`); `None` disables it.
    pub access_log: Option<String>,
    /// Override of the process-wide thread budget (`--threads`).
    pub threads: Option<usize>,
    /// Connections queued for a worker before new arrivals are shed
    /// with 503 (`--max-connections`).
    pub max_connections: usize,
    /// Seconds a keep-alive connection may idle — also the stalled-
    /// request read deadline (`--idle-timeout`).
    pub idle_timeout_secs: u64,
    /// Requests served over one connection before the server closes it
    /// (`--max-requests-per-conn`).
    pub max_requests_per_conn: usize,
    /// Seconds shutdown waits for in-flight requests before force-closing
    /// their connections (`--drain-timeout`).
    pub drain_timeout_secs: u64,
    /// Readiness backend for the connection reactor (`--event-loop`).
    pub event_loop: geoalign_serve::EventLoopKind,
    /// Durable store directory (`--data-dir`); `None` serves from memory.
    pub data_dir: Option<String>,
    /// Enable the `/debug/*` introspection endpoints
    /// (`--debug-endpoints`); off by default — they 404 otherwise.
    pub debug_endpoints: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:8077".to_owned(),
            workers: None,
            cache_capacity: 64,
            access_log: None,
            threads: None,
            max_connections: geoalign_serve::server::DEFAULT_MAX_CONNECTIONS,
            idle_timeout_secs: geoalign_serve::server::DEFAULT_IDLE_TIMEOUT.as_secs(),
            max_requests_per_conn: geoalign_serve::server::DEFAULT_MAX_REQUESTS_PER_CONN,
            drain_timeout_secs: geoalign_serve::server::DEFAULT_DRAIN_TIMEOUT.as_secs(),
            event_loop: geoalign_serve::EventLoopKind::default(),
            data_dir: None,
            debug_endpoints: false,
        }
    }
}

/// Parses the `serve` subcommand's flags.
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut parsed = ServeArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => parsed.addr = need(&mut it, "--addr")?,
            "--workers" => parsed.workers = Some(positive(&mut it, "--workers")?),
            "--cache-capacity" => {
                parsed.cache_capacity = need(&mut it, "--cache-capacity")?
                    .parse()
                    .map_err(|_| CliError::Usage("--cache-capacity needs an integer".into()))?;
            }
            "--access-log" => parsed.access_log = Some(need(&mut it, "--access-log")?),
            "--threads" => parsed.threads = Some(positive(&mut it, "--threads")?),
            "--max-connections" => {
                // 0 is meaningful: a rendezvous queue that only accepts a
                // connection when a worker is already free.
                parsed.max_connections = need(&mut it, "--max-connections")?
                    .parse()
                    .map_err(|_| CliError::Usage("--max-connections needs an integer".into()))?;
            }
            "--idle-timeout" => {
                parsed.idle_timeout_secs = positive(&mut it, "--idle-timeout")? as u64;
            }
            "--max-requests-per-conn" => {
                parsed.max_requests_per_conn = positive(&mut it, "--max-requests-per-conn")?;
            }
            "--drain-timeout" => {
                // 0 is meaningful: shutdown force-closes in-flight
                // connections immediately.
                parsed.drain_timeout_secs = need(&mut it, "--drain-timeout")?
                    .parse()
                    .map_err(|_| CliError::Usage("--drain-timeout needs an integer".into()))?;
            }
            "--event-loop" => {
                parsed.event_loop = need(&mut it, "--event-loop")?
                    .parse()
                    .map_err(|e: String| CliError::Usage(e))?;
            }
            "--data-dir" => parsed.data_dir = Some(need(&mut it, "--data-dir")?),
            "--debug-endpoints" => parsed.debug_endpoints = true,
            other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
        }
    }
    Ok(parsed)
}

/// Parsed command line for `geoalign cluster serve` (the coordinator).
#[derive(Debug, Clone)]
pub struct ClusterServeArgs {
    /// Coordinator listen address.
    pub addr: String,
    /// The shard map, one entry per `--shard name=primary[,standby]`.
    pub shards: Vec<geoalign_cluster::ShardSpec>,
    /// Consecutive failed health probes before failover.
    pub fail_threshold: u32,
    /// Milliseconds between health-probe rounds.
    pub health_interval_ms: u64,
    /// Per-hop read deadline in milliseconds.
    pub timeout_ms: u64,
    /// TCP connect deadline in milliseconds.
    pub connect_timeout_ms: u64,
    /// Connection-level retries per hop.
    pub retries: u32,
    /// JSON-lines access-log path; `None` disables it.
    pub access_log: Option<String>,
    /// Override of the process-wide thread budget (`--threads`).
    pub threads: Option<usize>,
}

impl Default for ClusterServeArgs {
    fn default() -> Self {
        ClusterServeArgs {
            addr: "127.0.0.1:8078".to_owned(),
            shards: Vec::new(),
            fail_threshold: 3,
            health_interval_ms: 500,
            timeout_ms: 5000,
            connect_timeout_ms: 500,
            retries: 2,
            access_log: None,
            threads: None,
        }
    }
}

/// Parsed command line for `geoalign cluster standby`.
#[derive(Debug, Clone)]
pub struct ClusterStandbyArgs {
    /// Standby listen address.
    pub addr: String,
    /// Local replica directory the shipped copy accumulates in.
    pub data_dir: String,
    /// `host:port` of the primary to pull from.
    pub primary: String,
    /// Milliseconds between pull rounds.
    pub pull_interval_ms: u64,
    /// Crosswalk cache capacity for the post-promotion server.
    pub cache_capacity: usize,
    /// JSON-lines access-log path; `None` disables it.
    pub access_log: Option<String>,
    /// Override of the process-wide thread budget (`--threads`).
    pub threads: Option<usize>,
}

/// Parsed command line for `geoalign cluster`.
#[derive(Debug, Clone)]
pub enum ClusterArgs {
    /// Run the routing coordinator.
    Serve(ClusterServeArgs),
    /// Run a WAL-shipping standby.
    Standby(ClusterStandbyArgs),
    /// Print a coordinator's cluster status.
    Status {
        /// Coordinator address.
        addr: String,
    },
}

/// Parses one `--shard name=primary[,standby]` value.
fn parse_shard_spec(value: &str) -> Result<geoalign_cluster::ShardSpec, CliError> {
    let (name, addrs) = value.split_once('=').ok_or_else(|| {
        CliError::Usage(format!(
            "--shard needs name=primary[,standby], got '{value}'"
        ))
    })?;
    if name.is_empty() {
        return Err(CliError::Usage(format!("--shard '{value}' has no name")));
    }
    let (primary, standby) = match addrs.split_once(',') {
        Some((p, s)) => (p, Some(s.to_owned())),
        None => (addrs, None),
    };
    if primary.is_empty() || standby.as_deref() == Some("") {
        return Err(CliError::Usage(format!(
            "--shard '{value}' has an empty address"
        )));
    }
    Ok(geoalign_cluster::ShardSpec {
        name: name.to_owned(),
        primary: primary.to_owned(),
        standby,
    })
}

/// Parses the `cluster` subcommand's flags.
pub fn parse_cluster_args(args: &[String]) -> Result<ClusterArgs, CliError> {
    let Some((mode, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "cluster needs a mode: serve, standby, or status".into(),
        ));
    };
    match mode.as_str() {
        "serve" => {
            let mut parsed = ClusterServeArgs::default();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => parsed.addr = need(&mut it, "--addr")?,
                    "--shard" => parsed
                        .shards
                        .push(parse_shard_spec(&need(&mut it, "--shard")?)?),
                    "--fail-threshold" => {
                        parsed.fail_threshold = positive(&mut it, "--fail-threshold")? as u32;
                    }
                    "--health-interval-ms" => {
                        parsed.health_interval_ms =
                            positive(&mut it, "--health-interval-ms")? as u64;
                    }
                    "--timeout-ms" => parsed.timeout_ms = positive(&mut it, "--timeout-ms")? as u64,
                    "--connect-timeout-ms" => {
                        parsed.connect_timeout_ms =
                            positive(&mut it, "--connect-timeout-ms")? as u64;
                    }
                    "--retries" => {
                        // 0 is meaningful: fail fast, no retry.
                        parsed.retries = need(&mut it, "--retries")?
                            .parse()
                            .map_err(|_| CliError::Usage("--retries needs an integer".into()))?;
                    }
                    "--access-log" => parsed.access_log = Some(need(&mut it, "--access-log")?),
                    "--threads" => parsed.threads = Some(positive(&mut it, "--threads")?),
                    other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
                }
            }
            if parsed.shards.is_empty() {
                return Err(CliError::Usage(
                    "cluster serve needs at least one --shard name=primary[,standby]".into(),
                ));
            }
            Ok(ClusterArgs::Serve(parsed))
        }
        "standby" => {
            let mut addr = "127.0.0.1:8079".to_owned();
            let mut data_dir = None;
            let mut primary = None;
            let mut pull_interval_ms = 200u64;
            let mut cache_capacity = 64usize;
            let mut access_log = None;
            let mut threads = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => addr = need(&mut it, "--addr")?,
                    "--data-dir" => data_dir = Some(need(&mut it, "--data-dir")?),
                    "--primary" => primary = Some(need(&mut it, "--primary")?),
                    "--pull-interval-ms" => {
                        pull_interval_ms = positive(&mut it, "--pull-interval-ms")? as u64;
                    }
                    "--cache-capacity" => {
                        cache_capacity = positive(&mut it, "--cache-capacity")?;
                    }
                    "--access-log" => access_log = Some(need(&mut it, "--access-log")?),
                    "--threads" => threads = Some(positive(&mut it, "--threads")?),
                    other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
                }
            }
            Ok(ClusterArgs::Standby(ClusterStandbyArgs {
                addr,
                data_dir: data_dir
                    .ok_or_else(|| CliError::Usage("cluster standby requires --data-dir".into()))?,
                primary: primary
                    .ok_or_else(|| CliError::Usage("cluster standby requires --primary".into()))?,
                pull_interval_ms,
                cache_capacity,
                access_log,
                threads,
            }))
        }
        "status" => {
            let mut addr = "127.0.0.1:8078".to_owned();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => addr = need(&mut it, "--addr")?,
                    other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
                }
            }
            Ok(ClusterArgs::Status { addr })
        }
        other => Err(CliError::Usage(format!(
            "unknown cluster mode '{other}' (serve, standby, or status)"
        ))),
    }
}

/// `geoalign cluster status`: fetches and returns the coordinator's
/// `/healthz` JSON.
pub fn run_cluster_status(addr: &str) -> Result<String, CliError> {
    let backend =
        geoalign_cluster::Backend::new(addr.to_owned(), geoalign_cluster::ClientConfig::default());
    let resp = backend
        .request("GET", "/healthz", &[], b"")
        .map_err(|e| CliError::Run(e.to_string()))?;
    if resp.status != 200 {
        return Err(CliError::Run(format!(
            "coordinator at {addr} answered {}: {}",
            resp.status,
            resp.body_text()
        )));
    }
    Ok(resp.body_text())
}

/// Parsed command line for `geoalign profile`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileArgs {
    /// Path of the objective aggregate table.
    pub table: String,
    /// Paths of the reference crosswalk files (at least one).
    pub references: Vec<String>,
    /// Sampling frequency in Hz (`--hz`, default 997 — a prime, so the
    /// sampler does not phase-lock with periodic work).
    pub hz: u64,
    /// Pipeline repetitions under the profiler (`--rounds`).
    pub rounds: usize,
    /// Collapsed-stack output path (stdout when absent).
    pub out: Option<String>,
    /// Rows in the stderr phase table (`--top`).
    pub top: usize,
    /// Override of the process-wide thread budget (`--threads`).
    pub threads: Option<usize>,
}

impl Default for ProfileArgs {
    fn default() -> Self {
        ProfileArgs {
            table: String::new(),
            references: Vec::new(),
            hz: 997,
            rounds: 20,
            out: None,
            top: 10,
            threads: None,
        }
    }
}

/// Parses the `profile` subcommand's flags.
pub fn parse_profile_args(args: &[String]) -> Result<ProfileArgs, CliError> {
    let mut parsed = ProfileArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--table" => parsed.table = need(&mut it, "--table")?,
            "--reference" => parsed.references.push(need(&mut it, "--reference")?),
            "--hz" => parsed.hz = positive(&mut it, "--hz")? as u64,
            "--rounds" => parsed.rounds = positive(&mut it, "--rounds")?,
            "--out" => parsed.out = Some(need(&mut it, "--out")?),
            "--top" => parsed.top = positive(&mut it, "--top")?,
            "--threads" => parsed.threads = Some(positive(&mut it, "--threads")?),
            other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
        }
    }
    if parsed.table.is_empty() {
        return Err(CliError::Usage("--table is required".into()));
    }
    if parsed.references.is_empty() {
        return Err(CliError::Usage(
            "at least one --reference is required".into(),
        ));
    }
    Ok(parsed)
}

/// Everything one profiling run produced.
#[derive(Debug)]
pub struct ProfileOutput {
    /// Collapsed-stack lines (`thread;span;... count`), ready for
    /// `flamegraph.pl`.
    pub collapsed: String,
    /// The plain-text top-phases table for stderr.
    pub phase_table: String,
    /// Sampler sweeps performed.
    pub sweeps: u64,
    /// Samples that captured a non-empty span stack.
    pub stack_samples: u64,
    /// Wall-clock duration of the profiled section.
    pub duration: std::time::Duration,
}

/// Runs the crosswalk pipeline `rounds` times under the sampling
/// profiler and returns the collapsed stacks plus a phase summary.
/// Each round is wrapped in a `pipeline` span so the profile is
/// non-empty even when individual phases finish between samples.
pub fn run_profile(
    table_csv: &str,
    reference_csvs: &[(String, String)],
    args: &ProfileArgs,
) -> Result<ProfileOutput, CliError> {
    let profiler = geoalign_obs::Profiler::start(args.hz);
    for _ in 0..args.rounds {
        let _span = geoalign_obs::span!("pipeline");
        run_crosswalk(table_csv, reference_csvs, None)?;
    }
    let report = profiler.stop();
    Ok(ProfileOutput {
        collapsed: report.collapsed_text(),
        phase_table: report.phase_table(args.top),
        sweeps: report.sweeps,
        stack_samples: report.stack_samples,
        duration: report.duration,
    })
}

/// What `geoalign store` should do to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Create an empty store (refuses a directory that already has one).
    Init,
    /// Open the store (running recovery) and summarise its contents.
    Inspect,
    /// Flush the WAL into a fresh snapshot and drop superseded segments.
    Compact,
    /// Read-only structural check of snapshot and WAL segments.
    Verify,
}

/// Parsed command line for `geoalign store`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreArgs {
    /// The action to run.
    pub action: StoreAction,
    /// The store directory (`--data-dir`).
    pub data_dir: String,
}

/// Parses the `store` subcommand's action and flags.
pub fn parse_store_args(args: &[String]) -> Result<StoreArgs, CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "store needs an action: init, inspect, compact, or verify".into(),
        ));
    };
    let action = match action.as_str() {
        "init" => StoreAction::Init,
        "inspect" => StoreAction::Inspect,
        "compact" => StoreAction::Compact,
        "verify" => StoreAction::Verify,
        other => {
            return Err(CliError::Usage(format!(
                "unknown store action '{other}' (expected init, inspect, compact, or verify)"
            )))
        }
    };
    let mut data_dir = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--data-dir" => data_dir = Some(need(&mut it, "--data-dir")?),
            other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
        }
    }
    let data_dir = data_dir.ok_or_else(|| CliError::Usage("store needs --data-dir".into()))?;
    Ok(StoreArgs { action, data_dir })
}

/// Runs a `geoalign store` action and returns the report text to print.
/// `verify` returns `Err` when the store has any structural defect, so
/// the process exits nonzero for scripts.
pub fn run_store(args: &StoreArgs) -> Result<String, CliError> {
    use geoalign_store::Store;
    let dir = &args.data_dir;
    let store_err = |e: geoalign_store::StoreError| CliError::Run(e.to_string());
    match args.action {
        StoreAction::Init => {
            Store::init(dir).map_err(store_err)?;
            Ok(format!("initialised empty store at {dir}\n"))
        }
        StoreAction::Inspect => {
            let store = Store::open(dir).map_err(store_err)?;
            let count = |prefix: &str| store.iter_prefix(prefix).len();
            let r = store.recovery();
            let mut out = String::new();
            let _ = writeln!(out, "store at {dir}");
            let _ = writeln!(out, "  entries:              {}", store.len());
            let _ = writeln!(out, "    unit systems:       {}", count("sys/"));
            let _ = writeln!(out, "    references:         {}", count("ref/"));
            let _ = writeln!(out, "    prepared crosswalks:{}", count("prep/"));
            let _ = writeln!(out, "  last sequence:        {}", store.last_seq());
            let _ = writeln!(out, "  snapshot records:     {}", r.snapshot_records);
            let _ = writeln!(out, "  wal records replayed: {}", r.wal_records_replayed);
            let _ = writeln!(out, "  wal segments:         {}", r.wal_segments);
            let _ = writeln!(out, "  repairs:              {}", r.repairs);
            if let Some(torn) = &r.torn_tail {
                let _ = writeln!(out, "  torn tail repaired:   {torn}");
            }
            if let Some(defect) = &r.snapshot_defect {
                let _ = writeln!(out, "  snapshot discarded:   {defect}");
            }
            Ok(out)
        }
        StoreAction::Compact => {
            let store = Store::open(dir).map_err(store_err)?;
            let report = store.checkpoint().map_err(store_err)?;
            Ok(format!(
                "compacted store at {dir}\n  records:              {}\n  snapshot bytes:       {}\n  wal segments removed: {}\n",
                report.records, report.snapshot_bytes, report.wal_segments_removed
            ))
        }
        StoreAction::Verify => {
            let report = Store::verify(dir).map_err(store_err)?;
            let mut out = String::new();
            let _ = writeln!(out, "store at {dir}");
            let _ = writeln!(out, "  snapshot present:     {}", report.snapshot_present);
            let _ = writeln!(out, "  snapshot records:     {}", report.snapshot_records);
            let _ = writeln!(out, "  wal records:          {}", report.wal_records);
            let _ = writeln!(out, "  wal segments:         {}", report.segments.len());
            let _ = writeln!(out, "  last sequence:        {}", report.last_seq);
            let mut defects = Vec::new();
            if let Some(d) = &report.snapshot_defect {
                defects.push(format!("snapshot: {d}"));
            }
            for seg in &report.segments {
                if let Some(d) = &seg.defect {
                    defects.push(format!("segment {}: {d}", seg.index));
                }
            }
            if defects.is_empty() {
                let _ = writeln!(out, "  clean");
                Ok(out)
            } else {
                for d in &defects {
                    let _ = writeln!(out, "  DEFECT {d}");
                }
                Err(CliError::Run(format!(
                    "{out}store has {} defect(s); `geoalign store inspect` repairs what it can",
                    defects.len()
                )))
            }
        }
    }
}

/// Parsed command line for `geoalign agg`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggArgs {
    /// Decode one aggregate state file and summarise it.
    InspectFile(String),
    /// Open a durable store and summarise every `agg/` rollup.
    InspectStore(String),
    /// Merge state files into one output file.
    Merge {
        /// Output path for the merged state.
        out: String,
        /// Input state files (at least one).
        inputs: Vec<String>,
    },
}

/// Parses the `agg` subcommand's action and flags.
pub fn parse_agg_args(args: &[String]) -> Result<AggArgs, CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "agg needs an action: inspect or merge".into(),
        ));
    };
    match action.as_str() {
        "inspect" => match rest {
            [flag, dir] if flag == "--data-dir" => Ok(AggArgs::InspectStore(dir.clone())),
            [file] if file != "--data-dir" => Ok(AggArgs::InspectFile(file.clone())),
            _ => Err(CliError::Usage(
                "agg inspect needs exactly one of FILE or --data-dir DIR".into(),
            )),
        },
        "merge" => match rest {
            [] | [_] => Err(CliError::Usage(
                "agg merge needs an output path and at least one input file".into(),
            )),
            [out, inputs @ ..] => Ok(AggArgs::Merge {
                out: out.clone(),
                inputs: inputs.to_vec(),
            }),
        },
        other => Err(CliError::Usage(format!(
            "unknown agg action '{other}' (expected inspect or merge)"
        ))),
    }
}

/// Renders one state as the `agg inspect` report lines, indented by
/// `pad`.
fn format_agg_state(out: &mut String, state: &geoalign_agg::AggState, pad: &str) {
    let fin = state.finalize();
    let source_total: f64 = fin.source.iter().sum();
    let target_total: f64 = fin.target.iter().sum();
    let _ = writeln!(
        out,
        "{pad}shape:           {} x {} (source x target)",
        state.n_source(),
        state.n_target()
    );
    let _ = writeln!(out, "{pad}points absorbed: {}", state.count());
    let _ = writeln!(out, "{pad}points skipped:  {}", state.skipped());
    let _ = writeln!(out, "{pad}nonzero cells:   {}", state.n_cells());
    let _ = writeln!(out, "{pad}source total:    {source_total}");
    let _ = writeln!(out, "{pad}target total:    {target_total}");
}

fn read_agg_state(path: &str) -> Result<geoalign_agg::AggState, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(path.to_owned(), e))?;
    geoalign_agg::AggState::decode(&bytes).map_err(|e| CliError::Run(format!("{path}: {e}")))
}

/// Runs a `geoalign agg` action and returns the report text to print.
pub fn run_agg(args: &AggArgs) -> Result<String, CliError> {
    match args {
        AggArgs::InspectFile(path) => {
            let state = read_agg_state(path)?;
            let mut out = String::new();
            let _ = writeln!(out, "aggregate state '{}' ({path})", state.attribute());
            format_agg_state(&mut out, &state, "  ");
            Ok(out)
        }
        AggArgs::InspectStore(dir) => {
            let store =
                geoalign_store::Store::open(dir).map_err(|e| CliError::Run(e.to_string()))?;
            let rollups = store.iter_prefix("agg/");
            let mut out = String::new();
            let _ = writeln!(out, "store at {dir}: {} streaming rollup(s)", rollups.len());
            for (key, bytes) in rollups {
                let (source, target, state) = geoalign_core::persist::decode_agg_rollup(&bytes)
                    .map_err(|e| CliError::Run(format!("{key}: {e}")))?;
                let _ = writeln!(
                    out,
                    "  {key}: '{}' on {source} -> {target}",
                    state.attribute()
                );
                format_agg_state(&mut out, &state, "    ");
            }
            Ok(out)
        }
        AggArgs::Merge { out, inputs } => {
            let mut states = inputs.iter().map(|p| read_agg_state(p));
            let mut merged = states.next().expect("parse enforces at least one input")?;
            for state in states {
                merged
                    .merge(&state?)
                    .map_err(|e| CliError::Run(e.to_string()))?;
            }
            std::fs::write(out, merged.encode()).map_err(|e| CliError::Io(out.clone(), e))?;
            Ok(format!(
                "merged {} state(s) into {out}: '{}', {} points, {} cells\n",
                inputs.len(),
                merged.attribute(),
                merged.count(),
                merged.n_cells()
            ))
        }
    }
}

/// Renders per-phase timings as the stderr lines `--timings` prints.
pub fn format_timings(t: &PhaseTimings) -> String {
    let micros = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    format!(
        "phase[weight_learning] = {:.1} µs\nphase[disaggregation] = {:.1} µs\nphase[reaggregation] = {:.1} µs\nphase[total] = {:.1} µs",
        micros(t.weight_learning),
        micros(t.disaggregation),
        micros(t.reaggregation),
        micros(t.total()),
    )
}

fn need(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

/// Parses a flag value as a positive integer (thread/worker counts).
fn positive(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, CliError> {
    let n: usize = need(it, flag)?
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag} needs an integer")))?;
    if n == 0 {
        return Err(CliError::Usage(format!("{flag} must be at least 1")));
    }
    Ok(n)
}

/// Everything the run produced, for the caller to print or write.
#[derive(Debug)]
pub struct CrosswalkOutput {
    /// The realigned table as CSV.
    pub csv: String,
    /// `(reference name, weight)` pairs.
    pub weights: Vec<(String, f64)>,
    /// RMSE / NRMSE vs the truth table, when supplied.
    pub accuracy: Option<(f64, f64)>,
    /// Per-phase wall-clock timings of the run (the same struct the
    /// serving layer's `/metrics` histograms are fed from).
    pub timings: PhaseTimings,
}

/// Runs a crosswalk from in-memory CSV strings (the testable core of the
/// CLI; `main` only shuttles files).
pub fn run_crosswalk(
    table_csv: &str,
    reference_csvs: &[(String, String)],
    truth_csv: Option<&str>,
) -> Result<CrosswalkOutput, CliError> {
    let table = AggregateTable::parse_csv(table_csv)
        .map_err(|e| CliError::Run(format!("objective table: {e}")))?;

    // The source index is defined by the union of the crosswalk files'
    // source units (tables may cover a subset). Target likewise.
    let mut source = UnitIndex::new();
    let mut target = UnitIndex::new();
    let parsed: Vec<(String, CrosswalkTable)> = reference_csvs
        .iter()
        .map(|(name, csv)| {
            CrosswalkTable::parse_csv(csv)
                .map(|t| (name.clone(), t))
                .map_err(|e| CliError::Run(format!("crosswalk '{name}': {e}")))
        })
        .collect::<Result<_, _>>()?;
    for (_, x) in &parsed {
        for (s, t, _) in &x.rows {
            source.intern(s);
            target.intern(t);
        }
    }

    let refs: Vec<ReferenceData> = parsed
        .iter()
        .map(|(name, x)| {
            let dm = x
                .to_matrix(&source, &target)
                .map_err(|e| CliError::Run(format!("crosswalk '{name}': {e}")))?;
            let attr = if x.attribute.is_empty() {
                name.clone()
            } else {
                x.attribute.clone()
            };
            ReferenceData::from_dm(attr, dm).map_err(CliError::from)
        })
        .collect::<Result<_, _>>()?;

    let objective = table
        .to_vector(&source)
        .map_err(|e| CliError::Run(format!("objective table: {e}")))?;

    let ref_slices: Vec<&ReferenceData> = refs.iter().collect();
    let result = GeoAlign::new().estimate(&objective, &ref_slices)?;

    let mut csv = String::new();
    let _ = writeln!(csv, "unit,{}", table.attribute);
    for (j, id) in target.ids().iter().enumerate() {
        let _ = writeln!(csv, "{},{}", id, result.estimate[j]);
    }

    let weights = refs
        .iter()
        .zip(&result.weights)
        .map(|(r, &w)| (r.name().to_owned(), w))
        .collect();

    let accuracy = match truth_csv {
        Some(text) => {
            let truth_table = AggregateTable::parse_csv(text)
                .map_err(|e| CliError::Run(format!("truth table: {e}")))?;
            let truth = truth_table
                .to_vector(&target)
                .map_err(|e| CliError::Run(format!("truth table: {e}")))?;
            let rmse = stats::rmse(&result.estimate, truth.values())
                .map_err(|e| CliError::Run(e.to_string()))?;
            let nrmse = stats::nrmse(&result.estimate, truth.values())
                .map_err(|e| CliError::Run(e.to_string()))?;
            Some((rmse, nrmse))
        }
        None => None,
    };

    Ok(CrosswalkOutput {
        csv,
        weights,
        accuracy,
        timings: result.timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEAM: &str = "zip,steam\nz1,10\nz2,20\nz3,30\n";
    const POP: &str = "zip,county,population\nz1,A,100\nz2,A,60\nz2,B,40\nz3,B,80\n";
    const ACC: &str = "zip,county,accidents\nz1,A,5\nz2,A,1\nz2,B,9\nz3,B,4\n";

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cluster_serve_args_parse_shard_specs() {
        let parsed = parse_cluster_args(&sv(&[
            "serve",
            "--addr",
            "127.0.0.1:9000",
            "--shard",
            "s0=127.0.0.1:9001,127.0.0.1:9004",
            "--shard",
            "s1=127.0.0.1:9002",
            "--fail-threshold",
            "2",
            "--timeout-ms",
            "250",
            "--retries",
            "0",
        ]))
        .unwrap();
        let ClusterArgs::Serve(args) = parsed else {
            panic!("expected serve");
        };
        assert_eq!(args.addr, "127.0.0.1:9000");
        assert_eq!(args.shards.len(), 2);
        assert_eq!(args.shards[0].name, "s0");
        assert_eq!(args.shards[0].standby.as_deref(), Some("127.0.0.1:9004"));
        assert_eq!(args.shards[1].standby, None);
        assert_eq!(args.fail_threshold, 2);
        assert_eq!(args.timeout_ms, 250);
        assert_eq!(args.retries, 0);
    }

    #[test]
    fn cluster_args_reject_malformed_input() {
        // No shards at all.
        assert!(matches!(
            parse_cluster_args(&sv(&["serve"])),
            Err(CliError::Usage(_))
        ));
        // Shard spec without a name=addr split.
        assert!(matches!(
            parse_cluster_args(&sv(&["serve", "--shard", "127.0.0.1:9001"])),
            Err(CliError::Usage(_))
        ));
        // Standby without its required flags.
        assert!(matches!(
            parse_cluster_args(&sv(&["standby", "--addr", "127.0.0.1:9009"])),
            Err(CliError::Usage(_))
        ));
        // Unknown mode.
        assert!(matches!(
            parse_cluster_args(&sv(&["resync"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn cluster_standby_args_parse() {
        let parsed = parse_cluster_args(&sv(&[
            "standby",
            "--data-dir",
            "/tmp/replica",
            "--primary",
            "127.0.0.1:9001",
            "--pull-interval-ms",
            "50",
        ]))
        .unwrap();
        let ClusterArgs::Standby(args) = parsed else {
            panic!("expected standby");
        };
        assert_eq!(args.data_dir, "/tmp/replica");
        assert_eq!(args.primary, "127.0.0.1:9001");
        assert_eq!(args.pull_interval_ms, 50);
        let ClusterArgs::Status { addr } = parse_cluster_args(&sv(&["status"])).unwrap() else {
            panic!("expected status");
        };
        assert_eq!(addr, "127.0.0.1:8078");
    }

    #[test]
    fn crosswalk_from_strings() {
        let out = run_crosswalk(STEAM, &[("pop".into(), POP.into())], None).unwrap();
        assert!(out.csv.contains("unit,steam"));
        assert!(out.csv.contains("A,22"));
        assert!(out.csv.contains("B,38"));
        assert_eq!(out.weights.len(), 1);
        assert_eq!(out.weights[0].0, "population");
        assert!(out.accuracy.is_none());
    }

    #[test]
    fn evaluate_reports_accuracy() {
        // Objective proportional to the population reference: the learned
        // mixture concentrates on population and reproduces its split
        // exactly, so the truth table derived from that split gives
        // zero error.
        let steam = "zip,steam
z1,50
z2,50
z3,40
";
        let truth = "county,steam
A,80
B,60
";
        let out = run_crosswalk(
            steam,
            &[("pop".into(), POP.into()), ("acc".into(), ACC.into())],
            Some(truth),
        )
        .unwrap();
        let (rmse, nrmse) = out.accuracy.unwrap();
        assert!(rmse < 1e-6, "rmse {rmse}");
        assert!(nrmse < 1e-6);
        assert_eq!(out.weights.len(), 2);
        let wsum: f64 = out.weights.iter().map(|(_, w)| w).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        assert!(
            out.weights[0].1 > 0.99,
            "population should dominate: {:?}",
            out.weights
        );
    }

    #[test]
    fn informative_errors() {
        let e = run_crosswalk("zip,steam\n", &[("p".into(), POP.into())], None).unwrap_err();
        assert!(e.to_string().contains("objective table"));
        let e = run_crosswalk(STEAM, &[("p".into(), "a,b\nbad\n".into())], None).unwrap_err();
        assert!(e.to_string().contains("crosswalk 'p'"), "{e}");
        // Objective mentions a zip absent from every crosswalk.
        let e = run_crosswalk("zip,steam\nz9,1\n", &[("p".into(), POP.into())], None).unwrap_err();
        assert!(e.to_string().contains("z9"), "{e}");
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = [
            "--table",
            "t.csv",
            "--reference",
            "x.csv",
            "--weights",
            "--timings",
            "--trace",
            "spans.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!(a.table, "t.csv");
        assert_eq!(a.references, vec!["x.csv".to_owned()]);
        assert!(a.show_weights);
        assert!(a.show_timings);
        assert_eq!(a.trace.as_deref(), Some("spans.jsonl"));
        assert!(a.out.is_none());
        assert!(a.threads.is_none());

        assert!(parse_args(&["--table".into()]).is_err());
        assert!(parse_args(&["--trace".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--table".into(), "t".into()]).is_err()); // no refs
    }

    #[test]
    fn agg_arg_parsing() {
        let sv = |xs: &[&str]| -> Vec<String> { xs.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            parse_agg_args(&sv(&["inspect", "s.aggstate"])).unwrap(),
            AggArgs::InspectFile("s.aggstate".into())
        );
        assert_eq!(
            parse_agg_args(&sv(&["inspect", "--data-dir", "d"])).unwrap(),
            AggArgs::InspectStore("d".into())
        );
        assert_eq!(
            parse_agg_args(&sv(&["merge", "out", "a", "b"])).unwrap(),
            AggArgs::Merge {
                out: "out".into(),
                inputs: vec!["a".into(), "b".into()],
            }
        );
        assert!(parse_agg_args(&[]).is_err());
        assert!(parse_agg_args(&sv(&["inspect"])).is_err());
        assert!(parse_agg_args(&sv(&["inspect", "--data-dir"])).is_err());
        assert!(parse_agg_args(&sv(&["inspect", "a", "b"])).is_err());
        assert!(parse_agg_args(&sv(&["merge", "out"])).is_err());
        assert!(parse_agg_args(&sv(&["bogus"])).is_err());
    }

    #[test]
    fn agg_inspect_and_merge_roundtrip() {
        let dir = std::env::temp_dir().join(format!("geoalign-cli-agg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

        let mut a = geoalign_agg::AggState::new("footfall", 3, 2).unwrap();
        a.absorb(0, 0, 2.5).unwrap();
        a.absorb(2, 1, 1.25).unwrap();
        a.record_skipped();
        let mut b = geoalign_agg::AggState::new("footfall", 3, 2).unwrap();
        b.absorb(0, 0, 0.5).unwrap();
        b.absorb(1, 1, 4.0).unwrap();
        std::fs::write(path("a.aggstate"), a.encode()).unwrap();
        std::fs::write(path("b.aggstate"), b.encode()).unwrap();

        let report = run_agg(&AggArgs::InspectFile(path("a.aggstate"))).unwrap();
        assert!(report.contains("'footfall'"), "{report}");
        assert!(report.contains("3 x 2"), "{report}");
        assert!(report.contains("points absorbed: 2"), "{report}");
        assert!(report.contains("points skipped:  1"), "{report}");

        // Merge in both orders: commutativity means identical bytes.
        run_agg(&AggArgs::Merge {
            out: path("ab.aggstate"),
            inputs: vec![path("a.aggstate"), path("b.aggstate")],
        })
        .unwrap();
        run_agg(&AggArgs::Merge {
            out: path("ba.aggstate"),
            inputs: vec![path("b.aggstate"), path("a.aggstate")],
        })
        .unwrap();
        let ab = std::fs::read(path("ab.aggstate")).unwrap();
        let ba = std::fs::read(path("ba.aggstate")).unwrap();
        assert_eq!(ab, ba, "merge order must not change the bytes");
        let merged = geoalign_agg::AggState::decode(&ab).unwrap();
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.skipped(), 1);

        // Mismatched shapes refuse to merge.
        let other = geoalign_agg::AggState::new("footfall", 2, 2).unwrap();
        std::fs::write(path("other.aggstate"), other.encode()).unwrap();
        let e = run_agg(&AggArgs::Merge {
            out: path("bad.aggstate"),
            inputs: vec![path("a.aggstate"), path("other.aggstate")],
        })
        .unwrap_err();
        assert!(e.to_string().contains("cannot merge"), "{e}");

        // Corrupt input errors cleanly with the path named.
        std::fs::write(path("junk.aggstate"), [9u8, 9, 9]).unwrap();
        let e = run_agg(&AggArgs::InspectFile(path("junk.aggstate"))).unwrap_err();
        assert!(e.to_string().contains("junk.aggstate"), "{e}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn threads_flag_parsing() {
        let args: Vec<String> = ["--table", "t.csv", "--reference", "x.csv", "--threads", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_args(&args).unwrap().threads, Some(8));
        assert!(parse_args(&["--threads".into(), "0".into()]).is_err());
        assert!(parse_args(&["--threads".into(), "many".into()]).is_err());

        let a = parse_serve_args(&["--threads".into(), "4".into()]).unwrap();
        assert_eq!(a.threads, Some(4));
        assert!(a.workers.is_none());
        assert!(parse_serve_args(&["--threads".into(), "0".into()]).is_err());
    }

    #[test]
    fn serve_arg_parsing() {
        assert_eq!(parse_serve_args(&[]).unwrap(), ServeArgs::default());
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--cache-capacity",
            "16",
            "--access-log",
            "access.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_serve_args(&args).unwrap();
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.workers, Some(8));
        assert_eq!(a.cache_capacity, 16);
        assert_eq!(a.access_log.as_deref(), Some("access.jsonl"));
        assert!(parse_serve_args(&["--workers".into(), "zero".into()]).is_err());
        assert!(parse_serve_args(&["--access-log".into()]).is_err());
        assert!(parse_serve_args(&["--workers".into(), "0".into()]).is_err());
        assert!(parse_serve_args(&["--nope".into()]).is_err());
    }

    #[test]
    fn serve_hardening_flag_parsing() {
        // Defaults mirror the server's.
        let d = parse_serve_args(&[]).unwrap();
        assert_eq!(
            d.max_connections,
            geoalign_serve::server::DEFAULT_MAX_CONNECTIONS
        );
        assert_eq!(
            d.idle_timeout_secs,
            geoalign_serve::server::DEFAULT_IDLE_TIMEOUT.as_secs()
        );
        assert_eq!(
            d.max_requests_per_conn,
            geoalign_serve::server::DEFAULT_MAX_REQUESTS_PER_CONN
        );

        let args: Vec<String> = [
            "--max-connections",
            "4",
            "--idle-timeout",
            "5",
            "--max-requests-per-conn",
            "100",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_serve_args(&args).unwrap();
        assert_eq!(a.max_connections, 4);
        assert_eq!(a.idle_timeout_secs, 5);
        assert_eq!(a.max_requests_per_conn, 100);

        // --max-connections 0 means a rendezvous queue and is legal;
        // the time and per-connection caps must stay positive.
        assert_eq!(
            parse_serve_args(&["--max-connections".into(), "0".into()])
                .unwrap()
                .max_connections,
            0
        );
        assert!(parse_serve_args(&["--max-connections".into(), "many".into()]).is_err());
        assert!(parse_serve_args(&["--idle-timeout".into(), "0".into()]).is_err());
        assert!(parse_serve_args(&["--max-requests-per-conn".into(), "0".into()]).is_err());
    }

    #[test]
    fn serve_reactor_flag_parsing() {
        let d = parse_serve_args(&[]).unwrap();
        assert_eq!(
            d.drain_timeout_secs,
            geoalign_serve::server::DEFAULT_DRAIN_TIMEOUT.as_secs()
        );
        assert_eq!(d.event_loop, geoalign_serve::EventLoopKind::Epoll);

        let a = parse_serve_args(&[
            "--drain-timeout".into(),
            "9".into(),
            "--event-loop".into(),
            "poll".into(),
        ])
        .unwrap();
        assert_eq!(a.drain_timeout_secs, 9);
        assert_eq!(a.event_loop, geoalign_serve::EventLoopKind::Poll);

        // 0 is legal: shutdown force-closes in-flight work immediately.
        assert_eq!(
            parse_serve_args(&["--drain-timeout".into(), "0".into()])
                .unwrap()
                .drain_timeout_secs,
            0
        );
        assert!(parse_serve_args(&["--event-loop".into(), "kqueue".into()]).is_err());
        assert!(parse_serve_args(&["--drain-timeout".into(), "soon".into()]).is_err());
    }

    #[test]
    fn serve_data_dir_flag_parsing() {
        assert!(parse_serve_args(&[]).unwrap().data_dir.is_none());
        let a = parse_serve_args(&["--data-dir".into(), "/tmp/ga".into()]).unwrap();
        assert_eq!(a.data_dir.as_deref(), Some("/tmp/ga"));
        assert!(parse_serve_args(&["--data-dir".into()]).is_err());
    }

    #[test]
    fn serve_debug_endpoints_flag_parsing() {
        // Off by default: /debug/* must not be reachable unless asked for.
        assert!(!parse_serve_args(&[]).unwrap().debug_endpoints);
        let a = parse_serve_args(&["--debug-endpoints".into()]).unwrap();
        assert!(a.debug_endpoints);
    }

    #[test]
    fn profile_arg_parsing() {
        let a = parse_profile_args(&[
            "--table".into(),
            "t.csv".into(),
            "--reference".into(),
            "x.csv".into(),
        ])
        .unwrap();
        assert_eq!(a.table, "t.csv");
        assert_eq!(a.references, vec!["x.csv".to_owned()]);
        assert_eq!(a.hz, 997);
        assert_eq!(a.rounds, 20);
        assert_eq!(a.top, 10);
        assert!(a.out.is_none());

        let b = parse_profile_args(&[
            "--table".into(),
            "t.csv".into(),
            "--reference".into(),
            "x.csv".into(),
            "--hz".into(),
            "2000".into(),
            "--rounds".into(),
            "3".into(),
            "--top".into(),
            "5".into(),
            "--out".into(),
            "stacks.txt".into(),
        ])
        .unwrap();
        assert_eq!(b.hz, 2000);
        assert_eq!(b.rounds, 3);
        assert_eq!(b.top, 5);
        assert_eq!(b.out.as_deref(), Some("stacks.txt"));

        assert!(parse_profile_args(&[]).is_err());
        assert!(parse_profile_args(&["--table".into(), "t.csv".into()]).is_err());
        assert!(parse_profile_args(&[
            "--table".into(),
            "t.csv".into(),
            "--reference".into(),
            "x.csv".into(),
            "--hz".into(),
            "0".into(),
        ])
        .is_err());
    }

    #[test]
    fn profile_run_captures_the_pipeline_span() {
        let args = ProfileArgs {
            table: "t".into(),
            references: vec!["pop".into()],
            hz: 4000,
            rounds: 40,
            ..ProfileArgs::default()
        };
        let out = run_profile(STEAM, &[("pop".into(), POP.into())], &args).unwrap();
        // The tiny fixture may finish between samples, but sweeps must
        // have happened and any captured stack must mention `pipeline`.
        assert!(out.sweeps > 0);
        if !out.collapsed.is_empty() {
            assert!(out.collapsed.contains("pipeline"), "{}", out.collapsed);
        }
    }

    #[test]
    fn store_arg_parsing() {
        let a = parse_store_args(&["init".into(), "--data-dir".into(), "d".into()]).unwrap();
        assert_eq!(a.action, StoreAction::Init);
        assert_eq!(a.data_dir, "d");
        for (name, action) in [
            ("inspect", StoreAction::Inspect),
            ("compact", StoreAction::Compact),
            ("verify", StoreAction::Verify),
        ] {
            let a = parse_store_args(&[name.into(), "--data-dir".into(), "d".into()]).unwrap();
            assert_eq!(a.action, action);
        }
        assert!(parse_store_args(&[]).is_err()); // no action
        assert!(parse_store_args(&["frobnicate".into()]).is_err()); // bad action
        assert!(parse_store_args(&["init".into()]).is_err()); // no --data-dir
        assert!(parse_store_args(&["init".into(), "--bogus".into()]).is_err());
    }

    #[test]
    fn store_actions_init_inspect_compact_verify() {
        let dir = std::env::temp_dir().join(format!("geoalign-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        let args = |action| StoreArgs {
            action,
            data_dir: dir_str.clone(),
        };

        let report = run_store(&args(StoreAction::Init)).unwrap();
        assert!(report.contains("initialised"), "{report}");
        // Init refuses to clobber an existing store.
        assert!(run_store(&args(StoreAction::Init)).is_err());

        // Put something in it through the store API, as serve would.
        {
            let store = geoalign_store::Store::open(&dir).unwrap();
            store.put("sys/zip", vec![1, 2, 3]).unwrap();
            store.put("prep/abc", vec![4, 5]).unwrap();
        }

        let report = run_store(&args(StoreAction::Inspect)).unwrap();
        assert!(report.contains("unit systems:       1"), "{report}");
        assert!(report.contains("prepared crosswalks:1"), "{report}");

        let report = run_store(&args(StoreAction::Compact)).unwrap();
        assert!(report.contains("records:              2"), "{report}");

        let report = run_store(&args(StoreAction::Verify)).unwrap();
        assert!(report.contains("clean"), "{report}");

        // Damage the WAL tail: verify reports the defect and errs.
        {
            let store = geoalign_store::Store::open(&dir).unwrap();
            store.put("sys/county", vec![9; 64]).unwrap();
        }
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "log"))
            .max()
            .unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let err = run_store(&args(StoreAction::Verify)).unwrap_err();
        assert!(err.to_string().contains("DEFECT"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timings_are_returned_and_formatted() {
        let out = run_crosswalk(STEAM, &[("pop".into(), POP.into())], None).unwrap();
        let text = format_timings(&out.timings);
        assert!(text.contains("phase[weight_learning]"), "{text}");
        assert!(text.contains("phase[total]"));
        assert_eq!(text.lines().count(), 4);
    }
}
