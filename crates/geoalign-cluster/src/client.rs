//! A minimal blocking HTTP/1.1 client for coordinator→shard and
//! standby→primary hops: pooled keep-alive connections per backend,
//! connect/read timeouts, bounded retries with linear backoff, and
//! strictly bounded response parsing. `std`-only, like everything else
//! in the workspace.
//!
//! Timeouts are deliberately *not* retried: a shard hop that timed
//! out maps to `504 Gateway Timeout` at the coordinator, and retrying
//! it would stack another full timeout onto an already-blown budget.
//! Connection failures (refused, reset, a stale pooled socket) are
//! retried — those are cheap to detect and usually transient.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// Cap on a response head (status line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Cap on a response body; shard responses are JSON or WAL segment
/// chunks, both well under this.
const MAX_BODY_BYTES: usize = 256 << 20;

/// Client knobs, shared by every backend of one coordinator/standby.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Socket read deadline per request (the shard-hop timeout).
    pub read_timeout: Duration,
    /// Additional attempts after a connection-level failure.
    pub retries: u32,
    /// Sleep between retries, multiplied by the attempt number.
    pub backoff: Duration,
    /// Idle keep-alive sockets retained per backend.
    pub pool_capacity: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(50),
            pool_capacity: 4,
        }
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The read deadline expired — the coordinator maps this to `504`.
    Timeout {
        /// The backend that stalled.
        addr: String,
    },
    /// Connecting, writing, or reading failed (after retries).
    Io {
        /// The backend involved.
        addr: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The peer spoke something that is not bounded HTTP/1.1.
    Protocol {
        /// The backend involved.
        addr: String,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout { addr } => write!(f, "request to {addr} timed out"),
            ClientError::Io { addr, source } => write!(f, "I/O error talking to {addr}: {source}"),
            ClientError::Protocol { addr, detail } => {
                write!(f, "protocol error from {addr}: {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether this failure was the read deadline (the `504` case).
    pub fn is_timeout(&self) -> bool {
        matches!(self, ClientError::Timeout { .. })
    }
}

/// A parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with `name` (case-insensitive lookup, names stored
    /// lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, for JSON responses.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One upstream address plus its keep-alive connection pool.
#[derive(Debug)]
pub struct Backend {
    addr: String,
    config: ClientConfig,
    pool: Mutex<Vec<TcpStream>>,
    /// Connection-level retries performed (for the cluster metrics).
    retries: std::sync::atomic::AtomicU64,
}

impl Backend {
    /// A backend for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Backend {
        Backend {
            addr: addr.into(),
            config,
            pool: Mutex::new(Vec::new()),
            retries: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The backend's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Connection-level retries performed so far.
    pub fn retries_performed(&self) -> u64 {
        self.retries.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < self.config.pool_capacity {
            pool.push(stream);
        }
    }

    fn connect(&self) -> Result<TcpStream, ClientError> {
        let mut last = None;
        let addrs =
            std::net::ToSocketAddrs::to_socket_addrs(&self.addr).map_err(|e| ClientError::Io {
                addr: self.addr.clone(),
                source: e,
            })?;
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io {
            addr: self.addr.clone(),
            source: last
                .unwrap_or_else(|| std::io::Error::new(ErrorKind::NotFound, "no addresses")),
        })
    }

    /// Issues one request. `headers` ride verbatim after the standard
    /// ones; `body` may be empty (GETs). Pooled sockets are tried first;
    /// a stale pooled socket is discarded and replaced without counting
    /// as a retry. Connection failures retry up to
    /// [`ClientConfig::retries`] times with linear backoff; a read
    /// timeout fails immediately as [`ClientError::Timeout`].
    pub fn request(
        &self,
        method: &str,
        path_and_query: &str,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        // A pooled socket may have been closed by the peer's idle timer:
        // one silent replacement attempt, then the fresh-socket path.
        if let Some(stream) = self.checkout() {
            match self.attempt(stream, method, path_and_query, headers, body, true) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_timeout() => return Err(e),
                Err(_) => {}
            }
        }
        let mut attempt = 0;
        loop {
            let result = self
                .connect()
                .and_then(|s| self.attempt(s, method, path_and_query, headers, body, false));
            match result {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_timeout() => return Err(e),
                Err(e) => {
                    if attempt >= self.config.retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.retries
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    std::thread::sleep(self.config.backoff * attempt);
                }
            }
        }
    }

    /// One write+read over one socket. `pooled` marks a reused socket
    /// (its failures are silent; the caller falls through to a fresh
    /// connection).
    fn attempt(
        &self,
        mut stream: TcpStream,
        method: &str,
        path_and_query: &str,
        headers: &[(String, String)],
        body: &[u8],
        _pooled: bool,
    ) -> Result<ClientResponse, ClientError> {
        let io_err = |source| ClientError::Io {
            addr: self.addr.clone(),
            source,
        };
        stream
            .set_read_timeout(Some(self.config.read_timeout))
            .map_err(io_err)?;
        stream
            .set_write_timeout(Some(self.config.read_timeout))
            .map_err(io_err)?;

        let mut head = format!(
            "{method} {path_and_query} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        if !body.is_empty() {
            head.push_str("Content-Type: application/json\r\n");
        }
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes()).map_err(io_err)?;
        stream.write_all(body).map_err(io_err)?;

        let (resp, keep_alive) = self.read_response(&mut stream)?;
        if keep_alive {
            self.checkin(stream);
        }
        Ok(resp)
    }

    /// Reads one bounded response: head to `\r\n\r\n` (≤64 KiB), then
    /// exactly `Content-Length` body bytes (≤256 MiB).
    fn read_response(&self, stream: &mut TcpStream) -> Result<(ClientResponse, bool), ClientError> {
        let map_read_err = |e: std::io::Error| {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                ClientError::Timeout {
                    addr: self.addr.clone(),
                }
            } else {
                ClientError::Io {
                    addr: self.addr.clone(),
                    source: e,
                }
            }
        };
        let protocol = |detail: &str| ClientError::Protocol {
            addr: self.addr.clone(),
            detail: detail.to_owned(),
        };

        let mut buf = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(at) = find_head_end(&buf) {
                break at;
            }
            if buf.len() > MAX_HEAD_BYTES {
                return Err(protocol("response head exceeds 64 KiB"));
            }
            let n = stream.read(&mut chunk).map_err(map_read_err)?;
            if n == 0 {
                return Err(protocol("connection closed mid-head"));
            }
            buf.extend_from_slice(&chunk[..n]);
        };

        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| protocol("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or_else(|| protocol("empty head"))?;
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| protocol("malformed status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| protocol("malformed header line"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| protocol("missing Content-Length"))?;
        if content_length > MAX_BODY_BYTES {
            return Err(protocol("response body exceeds the size cap"));
        }
        let keep_alive = !headers
            .iter()
            .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"));

        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            let n = stream.read(&mut chunk).map_err(map_read_err)?;
            if n == 0 {
                return Err(protocol("connection closed mid-body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);
        Ok((
            ClientResponse {
                status,
                headers,
                body,
            },
            keep_alive,
        ))
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoalign_serve::{Server, ServerConfig};

    fn test_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            retries: 1,
            backoff: Duration::from_millis(10),
            pool_capacity: 2,
        }
    }

    #[test]
    fn requests_roundtrip_and_reuse_the_pooled_connection() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let backend = Backend::new(server.addr().to_string(), test_config());
        let r = backend.request("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("\"status\":\"ok\""));
        assert!(r.header("x-trace-id").is_some());
        // Keep-alive: the socket went back to the pool and serves the
        // next request without a reconnect.
        assert_eq!(backend.pool.lock().unwrap().len(), 1);
        let r = backend
            .request("POST", "/systems", &[], br#"{"name":"zip","units":["z1"]}"#)
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(backend.retries_performed(), 0);
        server.shutdown();
    }

    #[test]
    fn stale_pooled_sockets_are_replaced_silently() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let backend = Backend::new(server.addr().to_string(), test_config());
        backend.request("GET", "/healthz", &[], b"").unwrap();
        // Poison the pooled socket by shutting its peer down and
        // rebinding a fresh server on a new port is overkill — instead
        // drop a dead pre-connected socket into the pool.
        {
            let dead = TcpStream::connect(server.addr()).unwrap();
            dead.shutdown(std::net::Shutdown::Both).unwrap();
            backend.pool.lock().unwrap().push(dead);
        }
        let r = backend.request("GET", "/healthz", &[], b"").unwrap();
        assert_eq!(r.status, 200);
        server.shutdown();
    }

    #[test]
    fn refused_connections_error_after_bounded_retries() {
        // Bind-then-drop: the port is (almost certainly) refusing.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let backend = Backend::new(addr, test_config());
        let err = backend.request("GET", "/healthz", &[], b"").unwrap_err();
        assert!(!err.is_timeout(), "{err}");
        assert_eq!(backend.retries_performed(), 1);
    }

    #[test]
    fn a_stalled_backend_times_out_without_retrying() {
        // A listener that accepts but never answers.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let backend = Backend::new(
            addr,
            ClientConfig {
                read_timeout: Duration::from_millis(100),
                ..test_config()
            },
        );
        let t0 = std::time::Instant::now();
        let err = backend.request("GET", "/healthz", &[], b"").unwrap_err();
        assert!(err.is_timeout(), "{err}");
        assert!(
            t0.elapsed() < Duration::from_millis(900),
            "timeouts must not retry: {:?}",
            t0.elapsed()
        );
        drop(listener);
    }
}
