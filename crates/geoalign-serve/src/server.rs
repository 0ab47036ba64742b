//! The TCP front end: a single-threaded readiness reactor
//! ([`crate::reactor`]) multiplexing every connection over non-blocking
//! sockets, feeding an *unbounded* [`WorkerPool`](geoalign_exec::WorkerPool)
//! of compute workers. No async runtime — the event loop is `poll(2)`/
//! `epoll(7)` behind a std-only FFI shim, and the request handlers stay
//! plain synchronous code on pool threads.
//!
//! Connections are persistent and cheap: an idle keep-alive connection
//! costs a slab slot and a file descriptor, not a thread, so `--workers`
//! bounds *compute concurrency* only. Admission is still bounded —
//! `workers + max_connections` sockets may be open; arrivals past that
//! are shed with `503` + `Retry-After` from the reactor, exactly as the
//! blocking front end shed them from its accept loop. The pool queue can
//! be unbounded precisely because each connection has at most one
//! request in flight: the connection cap is the queue bound.
//!
//! The pool size defaults to [`geoalign_exec::global_threads`], the same
//! process-wide budget the executor's parallel jobs draw from, so a serve
//! process has one thread knob (`GEOALIGN_THREADS` / `--threads`) instead
//! of two competing pools.

use crate::http::{Request, Response};
use crate::reactor::{self, Completion, EventLoopKind, ExecJob, ReactorConfig};
use crate::router::route;
use crate::store::AppState;
use geoalign_exec::{CompletionQueue, WorkerPool};
use geoalign_obs::{begin_trace, new_trace_id, SpanRecord};
use std::io;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling request compute. Defaults to the
    /// process-wide thread budget ([`geoalign_exec::global_threads`]).
    /// Bounds compute only — idle connections don't consume workers.
    pub workers: usize,
    /// Capacity of the prepared-crosswalk cache.
    pub cache_capacity: usize,
    /// Path of the JSON-lines access log (`serve --access-log`); `None`
    /// disables access logging.
    pub access_log: Option<String>,
    /// Connections admitted beyond the `workers` actively computable
    /// ones: the open-connection cap is `workers + max_connections`.
    /// Arrivals past it are shed with `503 Service Unavailable` +
    /// `Retry-After` (`serve --max-connections`).
    pub max_connections: usize,
    /// How long an idle keep-alive connection stays open, and the
    /// deadline for a stalled request head (answered `408`).
    /// (`serve --idle-timeout`.)
    pub idle_timeout: Duration,
    /// Requests served over one connection before the server closes it
    /// (`Connection: close` on the last response), so no client can pin
    /// a connection forever (`serve --max-requests-per-conn`).
    pub max_requests_per_conn: usize,
    /// How long shutdown waits for in-flight requests to finish before
    /// force-closing their connections (`serve --drain-timeout`). Idle
    /// connections close immediately when shutdown begins.
    pub drain_timeout: Duration,
    /// Readiness backend for the reactor (`serve --event-loop`):
    /// `epoll` (Linux default) or portable `poll`.
    pub event_loop: EventLoopKind,
    /// Directory of the durable store (`serve --data-dir`). When set, the
    /// server warm-starts its registry from disk at boot and persists
    /// registrations and prepared crosswalks; `None` serves from memory
    /// only.
    pub data_dir: Option<std::path::PathBuf>,
    /// Whether the `/debug/*` introspection routes (profile, spans, slow,
    /// threads) answer. Off by default — without `serve
    /// --debug-endpoints` they 404 like any unknown path, so
    /// introspection cannot leak in production config.
    pub debug_endpoints: bool,
}

/// Default connection headroom beyond the worker count.
pub const DEFAULT_MAX_CONNECTIONS: usize = 128;
/// Default socket read / idle timeout.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Default requests-per-connection cap.
pub const DEFAULT_MAX_REQUESTS_PER_CONN: usize = 1000;
/// Default shutdown drain window for in-flight requests.
pub const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: geoalign_exec::global_threads(),
            cache_capacity: crate::store::DEFAULT_CACHE_CAPACITY,
            access_log: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            max_requests_per_conn: DEFAULT_MAX_REQUESTS_PER_CONN,
            drain_timeout: DEFAULT_DRAIN_TIMEOUT,
            event_loop: EventLoopKind::default(),
            data_dir: None,
            debug_endpoints: false,
        }
    }
}

/// A running server: its address, state handle, and shutdown control.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    reactor_thread: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool<ExecJob>>>,
    wake_tx: UnixStream,
}

impl Server {
    /// Binds `addr` and starts the reactor in a background thread.
    /// Returns once the socket is bound (so the port is immediately
    /// connectable — handy for tests binding port 0).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let state = match &config.data_dir {
            Some(dir) => AppState::open_durable(dir, config.cache_capacity)
                .map_err(|e| io::Error::other(format!("opening durable store: {e}")))?,
            None => AppState::new(config.cache_capacity),
        };
        Self::bind_with_state(addr, config.clone(), state)
    }

    /// Like [`Server::bind`] but serving pre-populated state.
    pub fn bind_with_state(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        state: Arc<AppState>,
    ) -> io::Result<Server> {
        if let Some(path) = &config.access_log {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            state.set_access_log(Box::new(file));
        }
        state.set_debug_endpoints(config.debug_endpoints);
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        // The wakeup pipe: workers (and shutdown) write one byte to pull
        // the reactor out of its poll. Both ends non-blocking; a full
        // pipe or a gone reactor makes the write a harmless error.
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        let completions = {
            let tx = wake_tx.try_clone()?;
            Arc::new(CompletionQueue::new(move || {
                let _ = (&tx).write(&[1]);
            }))
        };

        let pool = {
            let state = Arc::clone(&state);
            let completions = Arc::clone(&completions);
            let stop = Arc::clone(&stop);
            WorkerPool::new("geoalign-worker", config.workers, move |job| {
                handle_request(job, &state, &completions, &stop)
            })
        };
        let pool_handle = Arc::new(pool);
        state.set_pool_stats(pool_handle.stats());

        let reactor_thread = reactor::spawn(ReactorConfig {
            listener,
            state: Arc::clone(&state),
            pool: Arc::clone(&pool_handle),
            completions,
            wake_rx,
            stop: Arc::clone(&stop),
            idle_timeout: config.idle_timeout,
            max_requests: config.max_requests_per_conn,
            // "being computed + admitted beyond that", the same budget
            // the bounded pool queue used to enforce.
            capacity: config.workers + config.max_connections,
            drain_timeout: config.drain_timeout,
            event_loop: config.event_loop,
        })?;

        Ok(Server {
            addr: local_addr,
            state,
            stop,
            reactor_thread: Some(reactor_thread),
            pool: Some(pool_handle),
            wake_tx,
        })
    }

    /// The bound address (with the OS-chosen port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (registry, cache, metrics).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops accepting (the port refuses immediately), closes idle
    /// keep-alive connections, lets in-flight requests finish for up to
    /// [`ServerConfig::drain_timeout`], then joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // One byte down the wakeup pipe: the reactor notices `stop` the
        // moment it wakes, no listener-poke connection needed.
        let _ = (&self.wake_tx).write(&[1]);
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        // With the reactor joined, this is the pool's last handle:
        // shutting it down drains queued jobs and joins the workers
        // (the Arc's Drop would do the same, but do it explicitly).
        if let Some(pool) = self.pool.take().and_then(Arc::into_inner) {
            pool.shutdown();
        }
    }
}

/// Runs one parsed request on a pool worker: route, observe, serialize,
/// and push the finished bytes back to the reactor.
///
/// Every request runs under a trace scope keyed by its `X-Trace-Id`
/// header (one is generated when absent); the ID is echoed in the
/// response, and the spans finished while routing — the core's
/// per-phase spans among them — go into the access-log line. The
/// request latency is measured from dispatch, so it includes any wait
/// in the pool queue.
fn handle_request(
    job: ExecJob,
    state: &Arc<AppState>,
    completions: &Arc<CompletionQueue<Completion>>,
    stop: &AtomicBool,
) {
    let ExecJob {
        token,
        gen,
        request,
        close,
        t0,
    } = job;
    let trace_id = request
        .header("x-trace-id")
        .map(str::to_owned)
        .unwrap_or_else(new_trace_id);
    let scope = begin_trace(&trace_id);
    let cost_scope = geoalign_obs::cost::begin();
    let mut response = route(state, &request);
    let cost = cost_scope.finish();
    let spans = scope.finish();
    // Shutdown may have begun while this request was queued or routing:
    // honor the old front end's promise that a draining keep-alive
    // connection is *told* `Connection: close` on its final response.
    let close = close || stop.load(Ordering::SeqCst);
    response.set_header("X-Trace-Id", trace_id.clone());
    response.set_header("X-Cost", cost.header_value());
    response.connection_close = close;
    let elapsed = t0.elapsed();
    state.log_access(&access_log_line(
        &trace_id,
        &request,
        response.status,
        elapsed,
        &spans,
        &cost,
    ));
    state.metrics.record_request(response.status, elapsed);
    state.metrics.slo.record(&request.path, elapsed);
    if state.debug_endpoints_enabled() {
        state.record_slow(crate::store::SlowEntry {
            trace_id: trace_id.clone(),
            method: request.method.clone(),
            path: request.path.clone(),
            status: response.status,
            duration_micros: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
            spans,
        });
    }
    completions.push(Completion {
        token,
        gen,
        bytes: response.to_bytes(),
        close,
    });
}

/// Answers a connection the reactor could not admit — the open-connection
/// cap is reached or the server is draining: `503` with a `Retry-After`
/// hint, written with a short write timeout so a slow reader cannot
/// stall the reactor. Every shed lands one JSON line in the access log
/// (there is no request to log, so the line carries the `reason`
/// instead of a request line).
pub(crate) fn shed_connection(mut stream: TcpStream, state: &Arc<AppState>, reason: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut response = Response::error(503, "server saturated, retry shortly");
    response.connection_close = true;
    response.set_header("Retry-After", "1");
    state.metrics.shed.inc();
    state.metrics.record_request(503, Duration::ZERO);
    state.log_access(&shed_log_line(reason));
    let _ = response.write_to(&mut stream);
}

/// One JSON access-log line for a shed connection.
fn shed_log_line(reason: &str) -> String {
    use crate::json::Json;
    Json::object([
        ("event", Json::from("shed")),
        ("reason", Json::from(reason)),
        ("status", Json::Number(503.0)),
        ("retry_after_seconds", Json::Number(1.0)),
    ])
    .to_string()
}

/// One JSON access-log line: the trace ID, request line, status, total
/// duration, a `spans` array with each finished span's name and wall
/// time (the per-phase breakdown of `/crosswalk` requests), and the
/// request's resource `cost` (rows/cells/tasks/bytes; see
/// [`geoalign_obs::RequestCost`]).
fn access_log_line(
    trace_id: &str,
    request: &Request,
    status: u16,
    duration: Duration,
    spans: &[SpanRecord],
    cost: &geoalign_obs::RequestCost,
) -> String {
    use crate::json::Json;
    let span_entries: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::object([
                ("name", Json::from(s.name)),
                ("duration_micros", Json::Number(s.duration_micros as f64)),
            ])
        })
        .collect();
    Json::object([
        ("trace_id", Json::from(trace_id)),
        ("method", Json::from(request.method.as_str())),
        ("path", Json::from(request.path.as_str())),
        ("status", Json::Number(f64::from(status))),
        (
            "duration_micros",
            Json::Number(duration.as_micros().min(u128::from(u64::MAX)) as f64),
        ),
        ("spans", Json::Array(span_entries)),
        ("cost", cost_json(cost)),
    ])
    .to_string()
}

/// The `cost` object of an access-log line. Totals first; when the
/// request fanned out to cluster shards, a `subcosts` array breaks the
/// totals down per shard hop (each entry is a shard's own `X-Cost`,
/// absorbed via [`geoalign_obs::cost::add_remote`]).
fn cost_json(cost: &geoalign_obs::RequestCost) -> crate::json::Json {
    use crate::json::Json;
    let mut fields = vec![
        ("rows", Json::Number(cost.rows as f64)),
        ("cells", Json::Number(cost.cells as f64)),
        ("exec_tasks", Json::Number(cost.exec_tasks as f64)),
        ("alloc_bytes", Json::Number(cost.alloc_bytes as f64)),
    ];
    if !cost.subcosts.is_empty() {
        let subcosts: Vec<Json> = cost
            .subcosts
            .iter()
            .map(|sub| {
                Json::object([
                    ("label", Json::from(sub.label.as_str())),
                    ("rows", Json::Number(sub.rows as f64)),
                    ("cells", Json::Number(sub.cells as f64)),
                    ("exec_tasks", Json::Number(sub.exec_tasks as f64)),
                    ("alloc_bytes", Json::Number(sub.alloc_bytes as f64)),
                ])
            })
            .collect();
        fields.push(("subcosts", Json::Array(subcosts)));
    }
    Json::object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Instant;

    /// One-shot client: sends `raw` and reads to EOF (with an explicit
    /// chunked loop — check.sh bans the unbounded read helpers in this
    /// crate), so requests must carry `Connection: close` (or trip an
    /// error) to terminate.
    fn send(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk).unwrap() {
                0 => break,
                n => out.extend_from_slice(&chunk[..n]),
            }
        }
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn serves_health_and_counts_requests() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr();
        let reply = send(
            addr,
            "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains(r#""status":"ok""#));
        assert!(reply.contains(r#""uptime_seconds":"#));
        assert!(reply.contains("\r\nX-Trace-Id: "), "{reply}");
        let reply = send(addr, "GET /missing HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
        let metrics = send(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(metrics.contains("\"requests_total\":"), "{metrics}");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_not_a_hang() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let reply = send(server.addr(), "TOTALLY BOGUS\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn http10_connections_close_by_default() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        // No Connection header at all: HTTP/1.0 defaults to close, so
        // read_to_string terminates without the client asking.
        let reply = send(server.addr(), "GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("Connection: close\r\n"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn shed_answers_503_with_retry_after_and_logs_the_event() {
        use std::sync::Mutex;
        // A connected socket pair through a throwaway listener: the
        // server half plays the connection the reactor rejected.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_half, _) = listener.accept().unwrap();

        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let state = AppState::new(4);
        state.set_access_log(Box::new(SharedSink(Arc::clone(&log))));

        // The shutdown-race path: shutdown began with this connection
        // already accepted.
        shed_connection(server_half, &state, "draining");

        let mut reply = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match client.read(&mut chunk).unwrap() {
                0 => break,
                n => reply.extend_from_slice(&chunk[..n]),
            }
        }
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
        assert!(reply.contains("Retry-After: 1\r\n"), "{reply}");
        assert!(reply.contains("Connection: close\r\n"), "{reply}");

        let logged = String::from_utf8(log.lock().unwrap().clone()).unwrap();
        assert!(logged.contains(r#""event":"shed""#), "{logged}");
        assert!(logged.contains(r#""reason":"draining""#), "{logged}");
        assert!(logged.contains(r#""status":503"#), "{logged}");
        assert_eq!(state.metrics.shed.get(), 1);
    }

    #[test]
    fn access_log_cost_breaks_out_per_shard_subcosts() {
        let mut cost = geoalign_obs::RequestCost {
            rows: 10,
            cells: 100,
            exec_tasks: 2,
            alloc_bytes: 4096,
            subcosts: Vec::new(),
        };
        let plain = cost_json(&cost).to_string();
        assert!(!plain.contains("subcosts"), "{plain}");
        cost.subcosts.push(geoalign_obs::SubCost {
            label: "shard-1".to_owned(),
            rows: 7,
            cells: 70,
            exec_tasks: 1,
            alloc_bytes: 1024,
        });
        let fanned = cost_json(&cost).to_string();
        assert!(
            fanned.contains(r#""subcosts":[{"label":"shard-1","rows":7"#),
            "{fanned}"
        );
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                cache_capacity: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        send(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        server.shutdown();
        // The port stops accepting once the OS tears the listener down;
        // poll for refusal instead of guessing a fixed grace period.
        let mut refused = false;
        for _ in 0..200 {
            if TcpStream::connect(addr).is_err() {
                refused = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(refused, "listener should be closed after shutdown");
    }

    #[test]
    fn shutdown_waits_for_an_in_flight_request_then_closes() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                cache_capacity: 4,
                debug_endpoints: true,
                drain_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        // Park a request on a worker: /debug/profile sleeps ~1s.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /debug/profile?seconds=1 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        // Give the reactor time to parse and dispatch it.
        std::thread::sleep(Duration::from_millis(200));
        let t0 = Instant::now();
        server.shutdown();
        let shutdown_took = t0.elapsed();
        // Shutdown must have waited for the profile to finish (~800ms
        // left of its second), not cut the connection...
        let mut reply = Vec::new();
        let mut chunk = [0u8; 4096];
        slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loop {
            match slow.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
            }
        }
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        // ...and the response of a drained connection says close even
        // though the client asked keep-alive.
        assert!(reply.contains("Connection: close\r\n"), "{reply}");
        assert!(
            shutdown_took < Duration::from_secs(5),
            "drain should end when the in-flight request does, took {shutdown_took:?}"
        );
    }

    #[test]
    fn shutdown_force_closes_past_the_drain_timeout() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                cache_capacity: 4,
                debug_endpoints: true,
                drain_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        // A 3s in-flight request against a 200ms drain budget.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /debug/profile?seconds=3 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let t0 = Instant::now();
        server.shutdown();
        // The reactor must give up at the drain deadline; only the pool
        // join (the sleeping worker) extends past it, and the socket is
        // force-closed rather than answered.
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shutdown must not hang on a stuck request"
        );
        slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut chunk = [0u8; 4096];
        loop {
            match slow.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    assert!(
                        !String::from_utf8_lossy(&chunk[..n]).starts_with("HTTP/1.1 200"),
                        "a force-closed connection must not receive the response"
                    );
                }
            }
        }
    }
}
