//! Cluster routing bench: aggregate `/crosswalk` and `/ingest`
//! throughput through a `geoalign-cluster` coordinator at 1, 2 and 4
//! shards, against a direct single-node baseline — every server a real
//! `geoalign-serve` reactor on a loopback socket, every request a real
//! HTTP exchange through the cluster's pooled keep-alive client.
//!
//! Also measures what the coordinator *costs*: the proxy overhead
//! (mean single-client `/crosswalk` latency through a 1-shard cluster
//! minus the same request direct). That overhead, each row's mean
//! `/ingest` latency (behind a coordinator, a batch forwarded whole to
//! its owner) and `hardware_threads` land in `BENCH_cluster.json`
//! regardless of host parallelism; the ≥1.5x aggregate-throughput gate
//! at 4 shards only arms on multi-core hosts, where shard parallelism
//! can actually pay.
//!
//! The bench asserts byte-identity before timing anything: the 4-shard
//! cluster's `/crosswalk` body must equal the single node's for every
//! pair, including after an ingest on both sides.
//!
//! Usage: `cluster [--small] [--seed N] [--requests N] [--clients N]
//!                 [--out BENCH_cluster.json]`

use geoalign_cluster::{Backend, ClientConfig, Coordinator, CoordinatorConfig, ShardSpec};
use geoalign_serve::store::AppState;
use geoalign_serve::{Server, ServerConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Bench world shape: `pairs` independent (source, target) system pairs
/// so requests spread across the hash ring, each `n_source`x`n_target`.
struct Universe {
    pairs: usize,
    n_source: usize,
    n_target: usize,
}

struct Cluster {
    /// Shard servers, held for their reactors; dropped at the end.
    shards: Vec<Server>,
    /// The coordinator front end, when this fixture has one.
    front: Option<Server>,
    /// Address requests go to: the coordinator's, or the lone shard's.
    addr: String,
}

impl Cluster {
    fn shutdown(self) {
        if let Some(front) = self.front {
            front.shutdown();
        }
        for s in self.shards {
            s.shutdown();
        }
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        // Two compute workers per shard: enough to overlap fan-out
        // without oversubscribing the host times the shard count.
        workers: 2,
        ..ServerConfig::default()
    }
}

/// Boots `n` in-process shard servers; with `coordinated` (or n > 1) a
/// coordinator front end is installed over them, otherwise requests hit
/// the lone shard directly.
fn boot(n: usize, coordinated: bool) -> Cluster {
    let shards: Vec<Server> = (0..n)
        .map(|_| Server::bind("127.0.0.1:0", server_config()).expect("bind shard"))
        .collect();
    if !coordinated {
        assert_eq!(n, 1, "direct mode is the single-node baseline");
        let addr = shards[0].addr().to_string();
        return Cluster {
            shards,
            front: None,
            addr,
        };
    }
    let specs: Vec<ShardSpec> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| ShardSpec {
            name: format!("s{i}"),
            primary: s.addr().to_string(),
            standby: None,
        })
        .collect();
    let mut config = CoordinatorConfig::new(specs);
    config.client = ClientConfig {
        read_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    };
    let coordinator = Coordinator::new(config).expect("coordinator");
    let state = AppState::new(4);
    coordinator.install(&state);
    let front = Server::bind_with_state("127.0.0.1:0", server_config(), state).expect("bind front");
    let addr = front.addr().to_string();
    Cluster {
        shards,
        front: Some(front),
        addr,
    }
}

fn post(backend: &Backend, path: &str, body: &str) -> (u16, String) {
    let resp = backend
        .request("POST", path, &[], body.as_bytes())
        .unwrap_or_else(|e| panic!("POST {path}: {e}"));
    let text = resp.body_text();
    (resp.status, text)
}

/// Registers the bench universe through `addr` (broadcast routes reach
/// every shard behind a coordinator; a direct node just registers).
fn register_world(addr: &str, u: &Universe, seed: u64) {
    let backend = Backend::new(addr.to_owned(), ClientConfig::default());
    let mut state = seed;
    for p in 0..u.pairs {
        let sources: Vec<String> = (0..u.n_source).map(|i| format!("\"u{p}_{i}\"")).collect();
        let targets: Vec<String> = (0..u.n_target).map(|j| format!("\"t{p}_{j}\"")).collect();
        let (status, body) = post(
            &backend,
            "/systems",
            &format!(r#"{{"name":"src{p}","units":[{}]}}"#, sources.join(",")),
        );
        assert_eq!(status, 200, "{body}");
        let (status, body) = post(
            &backend,
            "/systems",
            &format!(r#"{{"name":"tgt{p}","units":[{}]}}"#, targets.join(",")),
        );
        assert_eq!(status, 200, "{body}");
        // Every source unit weighted into one or two targets.
        let entries: Vec<String> = (0..u.n_source)
            .flat_map(|i| {
                let a = i % u.n_target;
                let b = (i + 1) % u.n_target;
                let w = 10.0 + (lcg(&mut state) * 90.0).round();
                [
                    format!(r#"["u{p}_{i}","t{p}_{a}",{w}]"#),
                    format!(r#"["u{p}_{i}","t{p}_{b}",{}]"#, 100.0 - w),
                ]
            })
            .collect();
        let (status, body) = post(
            &backend,
            "/references",
            &format!(
                r#"{{"source":"src{p}","target":"tgt{p}","name":"population","entries":[{}]}}"#,
                entries.join(",")
            ),
        );
        assert_eq!(status, 200, "{body}");
    }
}

/// A `/crosswalk` body for pair `p` with fresh attribute values — the
/// prepared pair is cached, the apply runs every time (serving steady
/// state).
fn crosswalk_body(u: &Universe, p: usize, state: &mut u64) -> String {
    let values: Vec<String> = (0..u.n_source)
        .map(|_| format!("{:.3}", lcg(state) * 1000.0))
        .collect();
    format!(
        r#"{{"source":"src{p}","target":"tgt{p}","attributes":[{{"name":"a","values":[{}]}}]}}"#,
        values.join(",")
    )
}

/// An `/ingest` batch of `points` points for pair `p`.
fn ingest_body(u: &Universe, p: usize, points: usize, state: &mut u64) -> String {
    let pts: Vec<String> = (0..points)
        .map(|_| {
            let i = (lcg(state) * u.n_source as f64) as usize % u.n_source;
            let a = i % u.n_target;
            format!(r#"["u{p}_{i}","t{p}_{a}",{:.3}]"#, lcg(state) * 50.0)
        })
        .collect();
    format!(
        r#"{{"source":"src{p}","target":"tgt{p}","attribute":"stream","points":[{}]}}"#,
        pts.join(",")
    )
}

/// `requests` POSTs of `make_body(i)` to `addr`, spread over `clients`
/// threads each holding its own pooled keep-alive [`Backend`]. Returns
/// (elapsed seconds, mean per-request milliseconds).
fn drive(
    addr: &str,
    path: &str,
    requests: usize,
    clients: usize,
    make_body: impl Fn(usize) -> String + Sync,
) -> (f64, f64) {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let make_body = &make_body;
            scope.spawn(move || {
                let backend = Backend::new(addr.to_owned(), ClientConfig::default());
                let mut i = c;
                while i < requests {
                    let body = make_body(i);
                    let (status, text) = post(&backend, path, &body);
                    assert_eq!(status, 200, "{path} request {i}: {text}");
                    i += clients;
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    (elapsed, elapsed * 1e3 / requests as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 20180326u64;
    let mut out_path = "BENCH_cluster.json".to_owned();
    let mut universe = Universe {
        pairs: 12,
        n_source: 400,
        n_target: 40,
    };
    let mut requests = 480usize;
    let mut clients = 4usize;
    let mut ingest_points = 64usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().expect("--seed value").parse().expect("int"),
            "--requests" => requests = it.next().expect("--requests value").parse().expect("int"),
            "--clients" => clients = it.next().expect("--clients value").parse().expect("int"),
            "--out" => out_path = it.next().expect("--out value").clone(),
            "--small" => {
                universe = Universe {
                    pairs: 6,
                    n_source: 80,
                    n_target: 12,
                };
                requests = 96;
                clients = 2;
                ingest_points = 24;
            }
            flag => {
                eprintln!("unknown argument: {flag}");
                std::process::exit(2);
            }
        }
    }
    let hardware_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    eprintln!(
        "# cluster — {} pairs of {}x{} units, {} requests over {} clients, {} hardware threads",
        universe.pairs, universe.n_source, universe.n_target, requests, clients, hardware_threads
    );

    // ---- Byte-identity gate: 4-shard cluster vs single node. ----
    // Same registrations, same ingests, same crosswalks; every
    // body compared byte for byte before any throughput is trusted.
    {
        let cluster = boot(4, true);
        let single = boot(1, false);
        register_world(&cluster.addr, &universe, seed);
        register_world(&single.addr, &universe, seed);
        let cluster_client = Backend::new(cluster.addr.clone(), ClientConfig::default());
        let single_client = Backend::new(single.addr.clone(), ClientConfig::default());
        let mut s = seed ^ 0xA5A5;
        for p in 0..universe.pairs {
            let ingest = ingest_body(&universe, p, ingest_points, &mut s);
            let got = post(&cluster_client, "/ingest", &ingest);
            let want = post(&single_client, "/ingest", &ingest);
            assert_eq!(got, want, "pair {p}: cluster ingest diverged");
            let crosswalk = crosswalk_body(&universe, p, &mut s);
            let got = post(&cluster_client, "/crosswalk", &crosswalk);
            let want = post(&single_client, "/crosswalk", &crosswalk);
            assert_eq!(
                got, want,
                "pair {p}: cluster crosswalk diverged from single node"
            );
        }
        eprintln!(
            "bit-identity: 4-shard cluster == single node across {} pairs",
            universe.pairs
        );
        cluster.shutdown();
        single.shutdown();
    }

    // ---- Throughput sweep: direct baseline, then 1/2/4 shards. ----
    let mut rows: Vec<String> = Vec::new();
    let mut results: Vec<(usize, bool, f64, f64, f64, f64)> = Vec::new();
    for &(shards, coordinated) in &[(1usize, false), (1, true), (2, true), (4, true)] {
        let cluster = boot(shards, coordinated);
        register_world(&cluster.addr, &universe, seed);

        // Warm every pair (prepare + cache) so the sweep times serving.
        let mut warm_state = seed ^ 0x17;
        let warm = Backend::new(cluster.addr.clone(), ClientConfig::default());
        for p in 0..universe.pairs {
            let (status, body) = post(
                &warm,
                "/crosswalk",
                &crosswalk_body(&universe, p, &mut warm_state),
            );
            assert_eq!(status, 200, "{body}");
        }

        let (cw_elapsed, cw_mean_ms) = drive(&cluster.addr, "/crosswalk", requests, clients, |i| {
            let mut s = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            crosswalk_body(&universe, i % universe.pairs, &mut s)
        });
        let ingest_requests = requests / 2;
        let (in_elapsed, in_mean_ms) =
            drive(&cluster.addr, "/ingest", ingest_requests, clients, |i| {
                let mut s = seed ^ (i as u64).wrapping_mul(0xD1B54A32D192ED03);
                ingest_body(&universe, i % universe.pairs, ingest_points, &mut s)
            });
        let cw_rps = requests as f64 / cw_elapsed;
        let in_rps = ingest_requests as f64 / in_elapsed;
        let label = if coordinated {
            format!("{shards}-shard cluster")
        } else {
            "single node (direct)".to_owned()
        };
        eprintln!(
            "{label:>22}: crosswalk {cw_rps:>8.1} req/s ({cw_mean_ms:.3} ms), \
             ingest {in_rps:>8.1} req/s ({in_mean_ms:.3} ms)"
        );
        rows.push(format!(
            "    {{ \"shards\": {shards}, \"coordinated\": {coordinated}, \
             \"crosswalk_rps\": {cw_rps:.1}, \"crosswalk_mean_ms\": {cw_mean_ms:.3}, \
             \"ingest_rps\": {in_rps:.1}, \"ingest_mean_ms\": {in_mean_ms:.3} }}"
        ));
        results.push((shards, coordinated, cw_rps, cw_mean_ms, in_rps, in_mean_ms));
        cluster.shutdown();
    }

    let direct = results.iter().find(|r| !r.1).expect("direct baseline row");
    let one = results
        .iter()
        .find(|r| r.0 == 1 && r.1)
        .expect("1-shard row");
    let four = results
        .iter()
        .find(|r| r.0 == 4 && r.1)
        .expect("4-shard row");

    // What the hop costs: coordinator-in-the-middle minus direct.
    let proxy_overhead_ms = one.3 - direct.3;
    let speedup_4 = four.2 / direct.2;
    eprintln!(
        "proxy overhead {proxy_overhead_ms:.3} ms, 4-shard crosswalk speedup {speedup_4:.2}x"
    );

    if hardware_threads > 1 {
        assert!(
            speedup_4 >= 1.5,
            "4-shard aggregate crosswalk throughput must reach 1.5x the single \
             node on a multi-core host; measured {speedup_4:.2}x"
        );
    } else {
        eprintln!("(single hardware thread: 1.5x @ 4 shards gate not armed)");
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"cluster\",");
    json.push_str(&geoalign_bench::metadata_json_lines());
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(
        json,
        "  \"universe\": {{ \"pairs\": {}, \"n_source\": {}, \"n_target\": {} }},",
        universe.pairs, universe.n_source, universe.n_target
    );
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"ingest_points_per_batch\": {ingest_points},");
    let _ = writeln!(json, "  \"configs\": [");
    let _ = writeln!(json, "{}", rows.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"proxy_overhead_ms\": {proxy_overhead_ms:.3},");
    let _ = writeln!(json, "  \"crosswalk_speedup_4_shards\": {speedup_4:.3}");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_cluster.json");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
