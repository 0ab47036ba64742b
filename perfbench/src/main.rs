//! Paper-scale serving benchmark for the `geoalign` binary.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!            --geoalign PATH`
//!
//! Drives real `geoalign` processes over loopback HTTP through one of
//! three workloads (see `README.md` beside this crate), checks every
//! answer against an in-process oracle, and prints one JSON object as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A `detail`
//! object with the run's noise provenance is the line before it.

mod client;
mod gen;
mod http_run;
mod oracle;
mod plan;
mod procs;
mod replay;
mod stats;
mod trace;

use http_run::Served;
use oracle::Oracle;
use plan::{Plan, Workload};
use stats::{half_medians, median, quantile, Scrape};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    geoalign: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut geoalign = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--geoalign" => geoalign = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        geoalign: geoalign.ok_or("--geoalign is required")?,
    })
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Everything a run writes stays under `.bench_run` in the checkout,
    // one directory per process, so concurrent runs never share files.
    let spans_dir = PathBuf::from(".bench_run");
    let scratch = spans_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = run_in(&args, &spans_dir, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(args: &Args, spans_dir: &Path, scratch: &Path) -> Result<(), String> {
    let t_gen = Instant::now();
    // Enough batches for an ingest every 80 ms; a measured cycle (one
    // ingest plus its reads) takes well over 150 ms.
    let max_ingests = 16 + (args.seconds * 12.0) as usize;
    let plan = Plan::generate(args.workload, args.seed, max_ingests);
    let gen_s = t_gen.elapsed().as_secs_f64();

    let (served, nodes) = http_run::run(&plan, &args.geoalign, scratch, args.seconds)?;
    let traced = if args.trace {
        Some(replay::run(&plan, &served, &nodes, spans_dir, scratch)?)
    } else {
        None
    };
    drop(nodes);

    let t_verify = Instant::now();
    let check = verify(&plan, &served)?;
    let verify_s = t_verify.elapsed().as_secs_f64();
    let failed = served.failed + check.failed;
    let correct = failed == 0 && check.problem.is_none() && served.first_failure.is_none();
    let ops =
        (served.crosswalk_ms.len() + served.ingest_ms.len() + served.checkpoint_ms.len()) as f64;

    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"workload\":\"{}\",\"seed\":{},\"git_rev\":\"{}\",\"nproc\":{},\"threads_per_process\":{},\
         \"processes\":{},\"load_avg_1m\":[{},{}],\"steal_pct\":{},\"input_gen_s\":{:.3},\
         \"setup_s\":{:.3},\"register_ms\":{:?},\"timed_wall_s\":{:.3},\"verify_s\":{:.3},\"ops\":{},\"reconnects\":{}",
        args.workload.name(),
        args.seed,
        git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.workload.node_threads(),
        if args.workload == Workload::ClusterMixed { 3 } else { 1 },
        num(served.load.0),
        num(served.load.1),
        num(served.steal_pct),
        gen_s,
        served.setup_s,
        rounded(&served.register_ms),
        served.wall_s,
        verify_s,
        ops,
        served.reconnects,
    );
    for (name, samples) in [
        ("crosswalk", &served.crosswalk_ms),
        ("ingest", &served.ingest_ms),
        ("checkpoint", &served.checkpoint_ms),
    ] {
        if samples.is_empty() {
            continue;
        }
        let (first, second) = half_medians(samples);
        let _ = write!(
            detail,
            ",\"{name}_ms\":{{\"n\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\
             \"p50_first_half\":{},\"p50_second_half\":{}}}",
            samples.len(),
            num(median(samples)),
            num(quantile(samples, 0.9)),
            num(quantile(samples, 0.99)),
            num(quantile(samples, 1.0)),
            num(first),
            num(second)
        );
    }
    if let Some(problem) = served.first_failure.as_ref().or(check.problem.as_ref()) {
        let _ = write!(detail, ",\"first_failure\":{:?}", problem);
    }
    detail.push('}');
    println!("{{\"detail\":{detail}}}");

    if served.attempted == 0 {
        return Err("no timed operation ran".to_owned());
    }
    let metrics: Metrics = match traced {
        None => {
            let gated = vec![
                ("setup_s", served.setup_s, "s"),
                ("crosswalk_p50_ms", median(&served.crosswalk_ms), "ms"),
                ("server_cpu_ms_per_op", served.cpu_s * 1e3 / ops, "ms"),
                ("server_rss_mb", median(&served.rss_mib), "MiB"),
            ];
            // A gated metric that was not measured has no value to
            // report; printing 0 would read as the best possible one.
            if let Some((name, value, _)) = gated.iter().find(|m| !(m.1.is_finite() && m.1 > 0.0)) {
                return Err(format!("{name} was not measured (value {value})"));
            }
            gated
        }
        // Layers a workload does not run read 0.
        Some(layers) => per_layer(&served, layers),
    };
    let mut out = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{out}}}}}",
        served.attempted
    );
    Ok(())
}

/// A JSON number with three decimals, or `null` when undefined.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_owned()
    }
}

fn rounded(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| (v * 1e3).round() / 1e3).collect()
}

/// The git revision of the checkout, when it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Outcome of checking the served answers.
#[derive(Debug, Default)]
struct Check {
    failed: u64,
    problem: Option<String>,
}

/// Replays the plan's ingests into the oracle in order and checks every
/// kept answer; then checks the final read against a cold state fed
/// every point in one batch (split invariance).
fn verify(plan: &Plan, served: &Served) -> Result<Check, String> {
    let mut check = Check::default();
    let mut oracle = Oracle::new(plan)?;
    let mut version = 0;
    for kept in &served.kept {
        while version < kept.version {
            oracle.ingest(&plan.batches[version])?;
            version += 1;
        }
        let columns = &plan.read_columns[kept.read];
        let want = oracle.expected(columns)?;
        if let Err(why) = oracle::check_reply(plan, columns, &want, &kept.bytes) {
            check.failed += kept.uses;
            check.problem.get_or_insert(format!(
                "read {} after {} ingests: {why}",
                kept.read, kept.version
            ));
        }
    }
    if let Some(final_read) = &served.final_read {
        let cold = oracle::registered_state(plan);
        oracle::ingest(&cold, &http_run::all_points(plan, served.ingested))?;
        let req = replay::request("/crosswalk", plan.read_bodies[0].as_bytes());
        // The second call is a cache hit, like the served read.
        let _ = geoalign_serve::route(&cold, &req);
        let want = geoalign_serve::route(&cold, &req);
        if want.body != *final_read {
            check.failed += 1;
            check.problem.get_or_insert(
                "final read differs from a cold state fed every point in one batch".to_owned(),
            );
        }
    }
    Ok(check)
}

/// The per-layer metrics of a traced run.
fn per_layer(served: &Served, layers: replay::Layers) -> Metrics {
    let (before, after) = &served.scrape;
    let d = |name: &str| Scrape::delta(before, after, name);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ingests = served.ingest_ms.len() as f64;
    let hits = d("geoalign_serve_cache_hits_total");
    let misses = d("geoalign_serve_cache_misses_total");
    let crosswalk_p50 = median(&served.crosswalk_ms);
    let mut m: Metrics = layers.metrics;
    m.extend([
        ("serve.cache.hit_ratio", per(hits, hits + misses), "ratio"),
        (
            "exec.pool_queue_wait_us",
            per(
                d("geoalign_exec_pool_queue_wait_micros_sum"),
                d("geoalign_exec_pool_queue_wait_micros_count"),
            ),
            "us",
        ),
        (
            "store.fsync_us",
            per(
                d("geoalign_store_wal_fsync_micros_sum"),
                d("geoalign_store_wal_fsync_micros_count"),
            ),
            "us",
        ),
        (
            "store.wal_appends_per_ingest",
            per(d("geoalign_store_wal_appends_total"), ingests),
            "count",
        ),
        ("store.checkpoint_ms", median(&served.checkpoint_ms), "ms"),
        (
            "cluster.scatter_us",
            per(
                d("geoalign_cluster_scatter_latency_micros_sum"),
                d("geoalign_cluster_scatter_latency_micros_count"),
            ),
            "us",
        ),
        (
            "cluster.scattered_batches",
            d("geoalign_cluster_scattered_batches_total"),
            "count",
        ),
        (
            "cluster.retries",
            d("geoalign_cluster_client_retries_total"),
            "count",
        ),
        (
            "serve.transport_ms",
            crosswalk_p50 - layers.route_crosswalk_p50_ms,
            "ms",
        ),
        ("ingest_p50_ms", median(&served.ingest_ms), "ms"),
        (
            "wal_bytes_per_point",
            per(served.wal_bytes as f64, served.points as f64),
            "B",
        ),
        (
            "client.crosswalk_p90_ms",
            quantile(&served.crosswalk_ms, 0.9),
            "ms",
        ),
        (
            "client.crosswalk_p99_ms",
            quantile(&served.crosswalk_ms, 0.99),
            "ms",
        ),
        (
            "client.crosswalk_samples",
            served.crosswalk_ms.len() as f64,
            "count",
        ),
        (
            "client.ingest_p90_ms",
            quantile(&served.ingest_ms, 0.9),
            "ms",
        ),
        ("client.ingest_samples", ingests, "count"),
        ("client.reconnects", served.reconnects as f64, "count"),
        ("client.steal_pct", served.steal_pct, "%"),
    ]);
    m
}
