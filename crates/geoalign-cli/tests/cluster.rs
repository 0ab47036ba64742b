//! End-to-end cluster proof, all real processes over loopback: 3 shard
//! primaries with WAL-shipping standbys behind a routing coordinator
//! answer `/crosswalk` and `/ingest` byte-identically to a single-node
//! oracle — including after `kill -9` of the owning shard's primary and
//! failover onto its promoted standby.

mod util;

use std::path::{Path, PathBuf};
use util::{body_of, json_u64, poll_until, status_of, try_request, Proc};

const SHARDS: usize = 3;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("geoalign-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_serve(dir: &Path, access_log: Option<&Path>) -> Proc {
    let dir_s = dir.to_str().unwrap().to_owned();
    let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--data-dir", &dir_s];
    let log_s;
    if let Some(log) = access_log {
        log_s = log.to_str().unwrap().to_owned();
        args.push("--access-log");
        args.push(&log_s);
    }
    Proc::spawn("shard", &args)
}

fn start_standby(dir: &Path, primary: &str) -> Proc {
    Proc::spawn(
        "standby",
        &[
            "cluster",
            "standby",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            dir.to_str().unwrap(),
            "--primary",
            primary,
            "--pull-interval-ms",
            "50",
        ],
    )
}

/// The registration + ingest + crosswalk script both sides replay.
fn script() -> Vec<(&'static str, &'static str, String)> {
    let points: Vec<String> = (0..12)
        .map(|i| {
            let unit = ["z1", "z2", "z2", "z3", "nope"][i % 5];
            let county = if i % 2 == 0 { "A" } else { "B" };
            format!(r#"["{unit}","{county}",{}.25]"#, i + 1)
        })
        .collect();
    vec![
        (
            "POST",
            "/systems",
            r#"{"name":"zip","units":["z1","z2","z3"]}"#.to_owned(),
        ),
        (
            "POST",
            "/systems",
            r#"{"name":"county","units":["A","B"]}"#.to_owned(),
        ),
        (
            "POST",
            "/references",
            r#"{"source":"zip","target":"county","name":"population",
               "entries":[["z1","A",100],["z2","A",60],["z2","B",40],["z3","B",80]]}"#
                .to_owned(),
        ),
        (
            "POST",
            "/ingest",
            format!(
                r#"{{"source":"zip","target":"county","attribute":"households","points":[{}]}}"#,
                points.join(",")
            ),
        ),
        (
            "POST",
            "/crosswalk",
            r#"{"source":"zip","target":"county","attributes":[{"name":"steam","values":[10,20,30]}]}"#
                .to_owned(),
        ),
    ]
}

/// A second, post-failover ingest + crosswalk round.
fn after_failover_script() -> Vec<(&'static str, &'static str, String)> {
    vec![
        (
            "POST",
            "/ingest",
            r#"{"source":"zip","target":"county","attribute":"households",
                "points":[["z1","A",7.5],["z2","B",3.25],["z3","B",1.125],["z2","A",2.75]]}"#
                .to_owned(),
        ),
        (
            "POST",
            "/crosswalk",
            r#"{"source":"zip","target":"county","attributes":[{"name":"rain","values":[4,8,16]}]}"#
                .to_owned(),
        ),
    ]
}

/// Runs one script step against `addr`, retrying through the transient
/// 503/504 window a failover opens. Returns (status, body).
fn step_with_retry(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut last = (0u16, String::new());
    let deadline = std::time::Instant::now() + util::POLL_DEADLINE;
    loop {
        if let Some(resp) = try_request(addr, method, path, &[], body) {
            let status = status_of(&resp);
            last = (status, body_of(&resp).to_owned());
            if status != 503 && status != 504 {
                return last;
            }
        }
        if std::time::Instant::now() > deadline {
            panic!("{method} {path} still failing: {} {}", last.0, last.1);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[test]
fn three_shard_cluster_matches_single_node_through_kill9_failover() {
    // ---- Fixture: 3 primaries, 3 standbys, coordinator, oracle. ----
    let shard_dirs: Vec<PathBuf> = (0..SHARDS).map(|i| scratch(&format!("p{i}"))).collect();
    let replica_dirs: Vec<PathBuf> = (0..SHARDS).map(|i| scratch(&format!("r{i}"))).collect();
    let oracle_dir = scratch("oracle");
    let log_paths: Vec<PathBuf> = (0..SHARDS)
        .map(|i| {
            std::env::temp_dir().join(format!("geoalign-cluster-log{i}-{}", std::process::id()))
        })
        .collect();
    for p in &log_paths {
        let _ = std::fs::remove_file(p);
    }

    let mut primaries: Vec<Option<Proc>> = shard_dirs
        .iter()
        .zip(&log_paths)
        .map(|(dir, log)| Some(start_serve(dir, Some(log))))
        .collect();
    let standbys: Vec<Proc> = replica_dirs
        .iter()
        .enumerate()
        .map(|(i, dir)| start_standby(dir, &primaries[i].as_ref().unwrap().addr))
        .collect();
    let oracle = start_serve(&oracle_dir, None);

    let shard_flags: Vec<String> = (0..SHARDS)
        .map(|i| {
            format!(
                "s{i}={},{}",
                primaries[i].as_ref().unwrap().addr,
                standbys[i].addr
            )
        })
        .collect();
    let mut args = vec!["cluster", "serve", "--addr", "127.0.0.1:0"];
    for flag in &shard_flags {
        args.push("--shard");
        args.push(flag);
    }
    args.extend_from_slice(&[
        "--fail-threshold",
        "2",
        "--health-interval-ms",
        "100",
        "--connect-timeout-ms",
        "250",
        "--retries",
        "1",
    ]);
    let coordinator = Proc::spawn("coordinator", &args);

    // ---- Byte-identity: same script, cluster vs single node. ----
    let trace_id = "cluster-itest-trace-0001";
    for (i, (method, path, body)) in script().iter().enumerate() {
        let got = coordinator.request_with_headers(method, path, &[("X-Trace-Id", trace_id)], body);
        let want = oracle.request(method, path, body);
        assert_eq!(
            status_of(&got),
            status_of(&want),
            "step {i}: status diverged\n{got}"
        );
        assert_eq!(
            body_of(&got),
            body_of(&want),
            "step {i} ({path}): cluster body diverged from single node"
        );
        assert_eq!(status_of(&got), 200, "step {i} failed: {got}");
    }

    // ---- Satellite: one X-Trace-Id covers the whole fan-out. The
    // propagated id must appear in shard access logs. ----
    poll_until("trace id in a shard access log", || {
        log_paths.iter().any(|p| {
            std::fs::read_to_string(p)
                .map(|text| text.contains(trace_id))
                .unwrap_or(false)
        })
    });

    // ---- Make everything durable, then wait for standby catch-up. ----
    let (status, body) = step_with_retry(&coordinator.addr, "POST", "/checkpoint", "");
    assert_eq!(status, 200, "{body}");
    for i in 0..SHARDS {
        let primary_health = primaries[i]
            .as_ref()
            .unwrap()
            .request("GET", "/healthz", "");
        let last_seq = json_u64(body_of(&primary_health), "last_seq")
            .unwrap_or_else(|| panic!("no last_seq in {primary_health}"));
        let standby = &standbys[i];
        poll_until(&format!("standby {i} catch-up to seq {last_seq}"), || {
            let Some(resp) = try_request(&standby.addr, "GET", "/healthz", &[], "") else {
                return false;
            };
            let b = body_of(&resp);
            json_u64(b, "applied_seq").is_some_and(|seq| seq >= last_seq)
                && b.contains(r#""ready":true"#)
        });
    }

    // ---- kill -9 the primary that owns the test pair. ----
    let names: Vec<String> = (0..SHARDS).map(|i| format!("s{i}")).collect();
    let owner = geoalign_cluster::HashRing::new(&names).shard_for("zip", "county");
    primaries[owner].take().unwrap().kill();

    // The coordinator's prober must promote the standby and re-route.
    poll_until("coordinator failover", || {
        let Some(resp) = try_request(&coordinator.addr, "GET", "/healthz", &[], "") else {
            return false;
        };
        body_of(&resp).contains(r#""failovers":1"#)
    });

    // ---- Still byte-identical: reads AND new writes after failover. ----
    let (status, body) = step_with_retry(
        &coordinator.addr,
        "POST",
        "/crosswalk",
        r#"{"source":"zip","target":"county","attributes":[{"name":"steam","values":[10,20,30]}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let want = oracle.request(
        "POST",
        "/crosswalk",
        r#"{"source":"zip","target":"county","attributes":[{"name":"steam","values":[10,20,30]}]}"#,
    );
    // The promoted standby recomputes or revives the pair; either way
    // the numeric payload must not drift by a single byte. (cache_hit
    // can legitimately differ across the failover, so compare from the
    // columns on.)
    let columns = |b: &str| {
        let at = b.find(r#""columns":"#).expect("columns in body");
        b[at..].to_owned()
    };
    assert_eq!(columns(&body), columns(body_of(&want)));

    for (method, path, body) in &after_failover_script() {
        let (got_status, got_body) = step_with_retry(&coordinator.addr, method, path, body);
        let want = oracle.request(method, path, body);
        assert_eq!(got_status, status_of(&want), "{got_body}");
        if *path == "/crosswalk" {
            assert_eq!(columns(&got_body), columns(body_of(&want)));
        } else {
            assert_eq!(
                got_body,
                body_of(&want),
                "post-failover {path} diverged from single node"
            );
        }
    }

    // ---- `cluster status` sees the promoted topology. ----
    let status_out = std::process::Command::new(env!("CARGO_BIN_EXE_geoalign"))
        .args(["cluster", "status", "--addr", &coordinator.addr])
        .output()
        .expect("run cluster status");
    assert!(status_out.status.success());
    let text = String::from_utf8_lossy(&status_out.stdout);
    assert!(text.contains(r#""role":"coordinator""#), "{text}");
    assert!(text.contains(&standbys[owner].addr), "{text}");

    // ---- Cleanup. ----
    coordinator.kill();
    oracle.kill();
    for p in primaries.into_iter().flatten() {
        p.kill();
    }
    for s in standbys {
        s.kill();
    }
    for dir in shard_dirs.iter().chain(&replica_dirs).chain([&oracle_dir]) {
        let _ = std::fs::remove_dir_all(dir);
    }
    for p in &log_paths {
        let _ = std::fs::remove_file(p);
    }
}
