//! The `geoalign` command-line entry point; see [`geoalign_cli`] for the
//! testable implementation.

use geoalign_cli::{
    format_timings, parse_agg_args, parse_args, parse_cluster_args, parse_profile_args,
    parse_serve_args, parse_store_args, run_agg, run_cluster_status, run_crosswalk, run_profile,
    run_store, CliError, ClusterArgs, USAGE,
};
use std::process::ExitCode;

// Byte-level cost accounting (the alloc_bytes of X-Cost and the access
// log) is opt-in per binary; the CLI opts in. See DESIGN.md §13.
geoalign_obs::install_counting_allocator!();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_owned(), e))
}

fn real_main(args: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    match cmd.as_str() {
        "crosswalk" | "evaluate" | "weights" => {
            let mut parsed = parse_args(rest)?;
            if cmd == "evaluate" && parsed.truth.is_none() {
                return Err(CliError::Usage("evaluate requires --truth".into()));
            }
            if let Some(n) = parsed.threads {
                geoalign_exec::set_global_threads(n);
            }
            // `--trace PATH`: stream every span the run finishes (prepare,
            // weight learning, disaggregation, ...) to PATH as JSON lines.
            let trace_subscriber = match &parsed.trace {
                Some(path) => {
                    let subscriber = geoalign_obs::JsonLinesSubscriber::create(path)
                        .map_err(|e| CliError::Io(path.clone(), e))?;
                    Some(geoalign_obs::trace::subscribe(std::sync::Arc::new(
                        subscriber,
                    )))
                }
                None => None,
            };
            let table_csv = read(&parsed.table)?;
            let reference_csvs: Vec<(String, String)> = parsed
                .references
                .iter()
                .map(|p| read(p).map(|text| (p.clone(), text)))
                .collect::<Result<_, _>>()?;
            let truth_csv = match &parsed.truth {
                Some(p) => Some(read(p)?),
                None => None,
            };
            let result = {
                let scope = geoalign_obs::begin_trace(&geoalign_obs::new_trace_id());
                let result = run_crosswalk(&table_csv, &reference_csvs, truth_csv.as_deref());
                scope.finish();
                result
            };
            if let Some(id) = trace_subscriber {
                geoalign_obs::trace::unsubscribe(id);
            }
            let out = result?;

            if cmd == "weights" {
                parsed.show_weights = true;
            } else {
                match &parsed.out {
                    Some(path) => {
                        std::fs::write(path, &out.csv).map_err(|e| CliError::Io(path.clone(), e))?
                    }
                    None => print!("{}", out.csv),
                }
            }
            if parsed.show_weights || cmd == "weights" {
                for (name, w) in &out.weights {
                    eprintln!("weight[{name}] = {w:.6}");
                }
            }
            if let Some((rmse, nrmse)) = out.accuracy {
                eprintln!("RMSE = {rmse:.6}");
                eprintln!("NRMSE = {nrmse:.6}");
            }
            if parsed.show_timings {
                eprintln!("{}", format_timings(&out.timings));
            }
            Ok(())
        }
        "profile" => {
            let parsed = parse_profile_args(rest)?;
            if let Some(n) = parsed.threads {
                geoalign_exec::set_global_threads(n);
            }
            let table_csv = read(&parsed.table)?;
            let reference_csvs: Vec<(String, String)> = parsed
                .references
                .iter()
                .map(|p| read(p).map(|text| (p.clone(), text)))
                .collect::<Result<_, _>>()?;
            let out = run_profile(&table_csv, &reference_csvs, &parsed)?;
            match &parsed.out {
                Some(path) => std::fs::write(path, &out.collapsed)
                    .map_err(|e| CliError::Io(path.clone(), e))?,
                None => print!("{}", out.collapsed),
            }
            eprintln!(
                "profiled {} rounds in {:.1} ms: {} sweeps, {} stack samples",
                parsed.rounds,
                out.duration.as_secs_f64() * 1e3,
                out.sweeps,
                out.stack_samples,
            );
            eprint!("{}", out.phase_table);
            Ok(())
        }
        "serve" => {
            let parsed = parse_serve_args(rest)?;
            if let Some(n) = parsed.threads {
                geoalign_exec::set_global_threads(n);
            }
            let config = geoalign_serve::ServerConfig {
                // `--workers` overrides the request pool alone; otherwise
                // it follows the process-wide thread budget.
                workers: parsed.workers.unwrap_or_else(geoalign_exec::global_threads),
                cache_capacity: parsed.cache_capacity,
                access_log: parsed.access_log.clone(),
                max_connections: parsed.max_connections,
                idle_timeout: std::time::Duration::from_secs(parsed.idle_timeout_secs),
                max_requests_per_conn: parsed.max_requests_per_conn,
                drain_timeout: std::time::Duration::from_secs(parsed.drain_timeout_secs),
                event_loop: parsed.event_loop,
                data_dir: parsed.data_dir.clone().map(std::path::PathBuf::from),
                debug_endpoints: parsed.debug_endpoints,
            };
            let server = geoalign_serve::Server::bind(parsed.addr.as_str(), config)
                .map_err(|e| CliError::Io(parsed.addr.clone(), e))?;
            eprintln!("geoalign-serve listening on http://{}", server.addr());
            eprintln!(
                "endpoints: POST /systems /references /ingest /crosswalk /checkpoint — GET /healthz /metrics"
            );
            if parsed.debug_endpoints {
                eprintln!(
                    "debug endpoints: GET /debug/profile /debug/spans /debug/slow /debug/threads"
                );
            }
            if let Some(dir) = &parsed.data_dir {
                let state = server.state();
                if let Some(backing) = state.durable() {
                    let r = backing.store().recovery();
                    eprintln!(
                        "durable store at {dir}: {} entries ({} from snapshot, {} WAL records replayed, {} repairs)",
                        backing.store().len(),
                        r.snapshot_records,
                        r.wal_records_replayed,
                        r.repairs
                    );
                }
            }
            // Serve until the process is killed.
            loop {
                std::thread::park();
            }
        }
        "cluster" => match parse_cluster_args(rest)? {
            ClusterArgs::Serve(parsed) => {
                if let Some(n) = parsed.threads {
                    geoalign_exec::set_global_threads(n);
                }
                let client = geoalign_cluster::ClientConfig {
                    connect_timeout: std::time::Duration::from_millis(parsed.connect_timeout_ms),
                    read_timeout: std::time::Duration::from_millis(parsed.timeout_ms),
                    retries: parsed.retries,
                    ..geoalign_cluster::ClientConfig::default()
                };
                let mut config = geoalign_cluster::CoordinatorConfig::new(parsed.shards.clone());
                config.client = client;
                config.fail_threshold = parsed.fail_threshold;
                config.health_interval =
                    std::time::Duration::from_millis(parsed.health_interval_ms);
                let coordinator =
                    geoalign_cluster::Coordinator::new(config).map_err(CliError::Usage)?;
                let state = geoalign_serve::AppState::new(8);
                coordinator.install(&state);
                let server_config = geoalign_serve::ServerConfig {
                    access_log: parsed.access_log.clone(),
                    ..geoalign_serve::ServerConfig::default()
                };
                let server = geoalign_serve::Server::bind_with_state(
                    parsed.addr.as_str(),
                    server_config,
                    state,
                )
                .map_err(|e| CliError::Io(parsed.addr.clone(), e))?;
                eprintln!(
                    "geoalign-cluster coordinator listening on http://{}",
                    server.addr()
                );
                for shard in &parsed.shards {
                    match &shard.standby {
                        Some(standby) => eprintln!(
                            "shard {}: primary {} standby {standby}",
                            shard.name, shard.primary
                        ),
                        None => eprintln!(
                            "shard {}: primary {} (no standby)",
                            shard.name, shard.primary
                        ),
                    }
                }
                // The health/failover prober runs on the main thread; the
                // reactor serves traffic on its own threads.
                let stop = std::sync::atomic::AtomicBool::new(false);
                coordinator.run_health_loop(&stop);
                Ok(())
            }
            ClusterArgs::Standby(parsed) => {
                if let Some(n) = parsed.threads {
                    geoalign_exec::set_global_threads(n);
                }
                let mut config = geoalign_cluster::StandbyConfig::new(
                    parsed.data_dir.as_str(),
                    parsed.primary.clone(),
                );
                config.pull_interval = std::time::Duration::from_millis(parsed.pull_interval_ms);
                config.cache_capacity = parsed.cache_capacity;
                let standby = geoalign_cluster::Standby::new(config)
                    .map_err(|e| CliError::Run(e.to_string()))?;
                let state = geoalign_serve::AppState::new(8);
                standby.install(&state);
                let server_config = geoalign_serve::ServerConfig {
                    access_log: parsed.access_log.clone(),
                    ..geoalign_serve::ServerConfig::default()
                };
                let server = geoalign_serve::Server::bind_with_state(
                    parsed.addr.as_str(),
                    server_config,
                    state,
                )
                .map_err(|e| CliError::Io(parsed.addr.clone(), e))?;
                eprintln!(
                    "geoalign-cluster standby listening on http://{}",
                    server.addr()
                );
                eprintln!("replicating {} into {}", parsed.primary, parsed.data_dir);
                let stop = std::sync::atomic::AtomicBool::new(false);
                // Pull until promotion flips this process into a normal
                // serving node, then keep serving until killed.
                standby.run_pull_loop(&stop);
                eprintln!("promoted: serving read-write from {}", parsed.data_dir);
                loop {
                    std::thread::park();
                }
            }
            ClusterArgs::Status { addr } => {
                print!("{}", run_cluster_status(&addr)?);
                Ok(())
            }
        },
        "store" => {
            let parsed = parse_store_args(rest)?;
            print!("{}", run_store(&parsed)?);
            Ok(())
        }
        "agg" => {
            let parsed = parse_agg_args(rest)?;
            print!("{}", run_agg(&parsed)?);
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}
