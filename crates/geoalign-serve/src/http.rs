//! A hand-rolled HTTP/1.1 subset on `std::io` — request parsing and
//! response writing for the crosswalk service. Connections are
//! persistent: the server loops [`read_request`] over one buffered
//! reader, honoring `Connection: close` and the HTTP/1.0 default.
//! Bodies are sized by `Content-Length`, no chunked encoding, no TLS.
//! Deliberately minimal: the service's clients are programs, not
//! browsers.
//!
//! Every read is bounded. The request line plus headers share a byte
//! budget ([`MAX_HEAD_BYTES`], answered with 431 when exceeded), bodies
//! are capped at [`MAX_BODY_BYTES`] (413), and a per-request deadline
//! turns a stalled read into 408 instead of a parked worker.

use std::io::{BufRead, ErrorKind, Write};
use std::time::{Duration, Instant};

/// Upper bound on accepted request bodies (16 MiB) — a guard against
/// unbounded allocation from a hostile or broken client.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Upper bound on the request line plus all headers together (64 KiB).
/// A client streaming bytes with no newline hits this and gets a 431
/// instead of growing a server-side buffer without limit.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// Limits applied while reading one request.
#[derive(Debug, Clone)]
pub struct ReadLimits {
    /// Byte budget shared by the request line and every header line.
    pub max_head_bytes: usize,
    /// Wall-clock budget for the whole head, measured from the first
    /// byte. Enforced between socket reads, so its granularity is the
    /// socket read timeout.
    pub head_timeout: Option<Duration>,
}

impl Default for ReadLimits {
    fn default() -> Self {
        ReadLimits {
            max_head_bytes: MAX_HEAD_BYTES,
            head_timeout: None,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (`/crosswalk`).
    pub path: String,
    /// Raw query string, without the `?`; empty when absent.
    pub query: String,
    /// Protocol version as sent (`HTTP/1.1` or `HTTP/1.0`).
    pub version: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::bad_request("request body is not valid UTF-8"))
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an
    /// explicit `Connection: close` / `Connection: keep-alive` token
    /// overrides either default.
    pub fn keep_alive(&self) -> bool {
        if let Some(value) = self.header("connection") {
            let has = |token: &str| {
                value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case(token))
            };
            if has("close") {
                return false;
            }
            if has("keep-alive") {
                return true;
            }
        }
        self.version != "HTTP/1.0"
    }
}

/// A request-level protocol failure, carrying the status to answer with.
#[derive(Debug, Clone)]
pub struct HttpError {
    /// HTTP status code to respond with.
    pub status: u16,
    /// Human-readable message (sent in the JSON error body).
    pub message: String,
}

impl HttpError {
    /// A 400.
    pub fn bad_request(message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }

    /// A 408 — the client stalled mid-request past the read deadline.
    pub fn timeout(message: impl Into<String>) -> Self {
        HttpError {
            status: 408,
            message: message.into(),
        }
    }

    /// A 431 — the request line + headers exceeded the head byte budget.
    pub fn head_too_large() -> Self {
        HttpError {
            status: 431,
            message: "request line and headers exceed the head byte limit".into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HTTP {}: {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// Whether an I/O error is a socket read timeout (both kinds appear,
/// depending on platform).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Which part of a request the [`RequestParser`] is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParsePhase {
    /// Waiting for (or mid-way through) the request line.
    RequestLine,
    /// Request line parsed; consuming header lines up to the blank line.
    Headers,
    /// Head complete; consuming `Content-Length` body bytes.
    Body,
}

/// An incremental HTTP/1.1 request parser: bytes go in as they arrive
/// (from a non-blocking socket or a buffered reader), a [`Request`]
/// comes out once complete. One parser instance lives per connection
/// and resets itself after each parsed request, so pipelined bytes
/// carry straight into the next one.
///
/// The byte budgets are identical to the blocking reader's: the request
/// line and all headers share `max_head_bytes` (431 past it, checked
/// without buffering the excess), each head line must be UTF-8 (400),
/// and bodies above [`MAX_BODY_BYTES`] get 413. Errors are terminal and
/// sticky: after an `Err` the parser is poisoned — every later feed
/// returns the same error, so a caller that accidentally re-feeds an
/// errored parser can never conjure a request out of poisoned state.
#[derive(Debug)]
pub struct RequestParser {
    max_head_bytes: usize,
    budget: usize,
    phase: ParsePhase,
    started: bool,
    /// The first error this parser returned; replayed on every feed
    /// after it, making errors terminal even for a buggy caller.
    poison: Option<HttpError>,
    line: Vec<u8>,
    method: String,
    path: String,
    query: String,
    version: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    body: Vec<u8>,
}

impl RequestParser {
    /// A parser enforcing `max_head_bytes` across request line + headers.
    pub fn new(max_head_bytes: usize) -> Self {
        RequestParser {
            max_head_bytes,
            budget: max_head_bytes,
            phase: ParsePhase::RequestLine,
            started: false,
            poison: None,
            line: Vec::new(),
            method: String::new(),
            path: String::new(),
            query: String::new(),
            version: String::new(),
            headers: Vec::new(),
            content_length: 0,
            body: Vec::new(),
        }
    }

    /// Whether any byte of the current request has been consumed. While
    /// `false`, an EOF or a quiet socket is an idle keep-alive
    /// connection ending normally; once `true`, the same events are
    /// protocol errors ([`RequestParser::eof_error`] / 408).
    pub fn started(&self) -> bool {
        self.started
    }

    /// Whether the parser is still reading the request head (request
    /// line or headers) as opposed to the body — decides which stall
    /// deadline applies and which 408 message a timeout gets.
    pub fn in_head(&self) -> bool {
        self.phase != ParsePhase::Body
    }

    /// Consumes bytes from `buf`. Returns how many bytes were consumed
    /// and the completed request, if this chunk finished one. Bytes
    /// beyond a completed request are left unconsumed (the caller keeps
    /// them for the next call — that is how pipelining works); the
    /// parser is already reset for the next request when `Some` returns.
    pub fn feed(&mut self, buf: &[u8]) -> Result<(usize, Option<Request>), HttpError> {
        if let Some(poison) = &self.poison {
            return Err(poison.clone());
        }
        match self.feed_inner(buf) {
            Err(e) => {
                self.poison = Some(e.clone());
                Err(e)
            }
            ok => ok,
        }
    }

    fn feed_inner(&mut self, buf: &[u8]) -> Result<(usize, Option<Request>), HttpError> {
        let mut consumed = 0usize;
        while consumed < buf.len() {
            let rest = &buf[consumed..];
            match self.phase {
                ParsePhase::RequestLine | ParsePhase::Headers => {
                    self.started = true;
                    // Scan at most one byte past the budget: enough to
                    // notice the overflow without buffering the excess.
                    let scan = &rest[..rest.len().min(self.budget.saturating_add(1))];
                    match scan.iter().position(|&b| b == b'\n') {
                        Some(i) => {
                            if i + 1 > self.budget {
                                return Err(HttpError::head_too_large());
                            }
                            self.line.extend_from_slice(&scan[..i]);
                            self.budget -= i + 1;
                            consumed += i + 1;
                            if self.line.last() == Some(&b'\r') {
                                self.line.pop();
                            }
                            let text = String::from_utf8(std::mem::take(&mut self.line)).map_err(
                                |_| HttpError::bad_request("request head is not valid UTF-8"),
                            )?;
                            self.complete_line(text)?;
                        }
                        None => {
                            if scan.len() > self.budget {
                                return Err(HttpError::head_too_large());
                            }
                            self.line.extend_from_slice(scan);
                            self.budget -= scan.len();
                            consumed += scan.len();
                        }
                    }
                }
                ParsePhase::Body => {
                    let need = self.content_length - self.body.len();
                    let take = need.min(rest.len());
                    self.body.extend_from_slice(&rest[..take]);
                    consumed += take;
                }
            }
            if self.phase == ParsePhase::Body && self.body.len() == self.content_length {
                return Ok((consumed, Some(self.take_request())));
            }
        }
        // A zero-length chunk can still complete a request whose head
        // ended exactly at the previous chunk boundary with no body.
        if self.phase == ParsePhase::Body && self.body.len() == self.content_length {
            return Ok((consumed, Some(self.take_request())));
        }
        Ok((consumed, None))
    }

    /// The protocol error a peer EOF amounts to at the current position.
    /// Only meaningful once [`RequestParser::started`] is true — an EOF
    /// before the first byte is a normal keep-alive close, not an error.
    pub fn eof_error(&self) -> HttpError {
        match self.phase {
            _ if !self.line.is_empty() => HttpError::bad_request("connection closed mid-line"),
            ParsePhase::RequestLine | ParsePhase::Headers => {
                HttpError::bad_request("connection closed mid-headers")
            }
            ParsePhase::Body => HttpError::bad_request(format!(
                "short body: connection closed after {} of {} body bytes",
                self.body.len(),
                self.content_length
            )),
        }
    }

    /// One complete head line: the request line, a header, or the blank
    /// separator ending the head.
    fn complete_line(&mut self, text: String) -> Result<(), HttpError> {
        match self.phase {
            ParsePhase::RequestLine => {
                let mut parts = text.split_whitespace();
                let (Some(method), Some(target), Some(version)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(HttpError::bad_request(format!(
                        "malformed request line '{text}'"
                    )));
                };
                // A fourth token is smuggling-adjacent junk, not
                // whitespace noise.
                if parts.next().is_some() {
                    return Err(HttpError::bad_request(format!(
                        "trailing tokens after HTTP version in '{text}'"
                    )));
                }
                if !version.starts_with("HTTP/1.") {
                    return Err(HttpError {
                        status: 505,
                        message: format!("unsupported {version}"),
                    });
                }
                self.method = method.to_ascii_uppercase();
                match target.split_once('?') {
                    Some((p, q)) => {
                        self.path = p.to_owned();
                        self.query = q.to_owned();
                    }
                    None => {
                        self.path = target.to_owned();
                        self.query = String::new();
                    }
                }
                self.version = version.to_owned();
                self.phase = ParsePhase::Headers;
                Ok(())
            }
            ParsePhase::Headers if text.is_empty() => {
                // End of head. Duplicate Content-Length headers that
                // agree are tolerated; conflicting ones are the classic
                // request-smuggling vector.
                let mut content_length: Option<usize> = None;
                for (_, value) in self.headers.iter().filter(|(k, _)| k == "content-length") {
                    let n: usize = value
                        .parse()
                        .map_err(|_| HttpError::bad_request("unparsable Content-Length"))?;
                    match content_length {
                        Some(prev) if prev != n => {
                            return Err(HttpError::bad_request(
                                "conflicting duplicate Content-Length headers",
                            ));
                        }
                        _ => content_length = Some(n),
                    }
                }
                let content_length = content_length.unwrap_or(0);
                if content_length > MAX_BODY_BYTES {
                    return Err(HttpError {
                        status: 413,
                        message: "request body too large".into(),
                    });
                }
                self.content_length = content_length;
                self.body = Vec::with_capacity(content_length);
                self.phase = ParsePhase::Body;
                Ok(())
            }
            ParsePhase::Headers => {
                let Some((name, value)) = text.split_once(':') else {
                    return Err(HttpError::bad_request(format!("malformed header '{text}'")));
                };
                self.headers
                    .push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
                Ok(())
            }
            ParsePhase::Body => unreachable!("complete_line in body phase"),
        }
    }

    /// Takes the finished request and resets for the next one.
    fn take_request(&mut self) -> Request {
        let request = Request {
            method: std::mem::take(&mut self.method),
            path: std::mem::take(&mut self.path),
            query: std::mem::take(&mut self.query),
            version: std::mem::take(&mut self.version),
            headers: std::mem::take(&mut self.headers),
            body: std::mem::take(&mut self.body),
        };
        self.budget = self.max_head_bytes;
        self.phase = ParsePhase::RequestLine;
        self.started = false;
        self.line.clear();
        self.content_length = 0;
        request
    }
}

/// Reads and parses one request from `reader` with default limits.
/// `Ok(None)` means the client closed (or idled out) before sending
/// anything.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    read_request_limited(reader, &ReadLimits::default())
}

/// [`read_request`] with explicit [`ReadLimits`]. The reader persists
/// across calls on a keep-alive connection, so bytes the client
/// pipelined ahead stay buffered for the next request.
///
/// This is the blocking driver over [`RequestParser`] — the reactor
/// drives the same parser from readiness events, so the two paths
/// cannot drift apart on budgets or error mapping.
pub fn read_request_limited<R: BufRead>(
    reader: &mut R,
    limits: &ReadLimits,
) -> Result<Option<Request>, HttpError> {
    // Idle wait for the first byte: EOF or a read timeout here is a
    // normal end of a keep-alive connection, not a protocol error.
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return Ok(None),
            Err(e) => return Err(HttpError::bad_request(format!("read error: {e}"))),
        }
    }
    let deadline = limits.head_timeout.map(|t| Instant::now() + t);
    let mut parser = RequestParser::new(limits.max_head_bytes);
    loop {
        if parser.in_head() {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(HttpError::timeout("request head read past deadline"));
                }
            }
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return Err(HttpError::timeout(if parser.in_head() {
                    "timed out reading request head"
                } else {
                    "timed out reading request body"
                }));
            }
            Err(e) => return Err(HttpError::bad_request(format!("read error: {e}"))),
        };
        if buf.is_empty() {
            return Err(parser.eof_error());
        }
        let (consumed, done) = parser.feed(buf)?;
        reader.consume(consumed);
        if let Some(request) = done {
            return Ok(Some(request));
        }
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `X-Trace-Id`), written verbatim after
    /// the standard ones.
    pub headers: Vec<(String, String)>,
    /// Whether to advertise `Connection: close` (and close afterwards)
    /// instead of the keep-alive default.
    pub connection_close: bool,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 with a JSON body.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            headers: Vec::new(),
            connection_close: false,
            body: body.into(),
        }
    }

    /// A 200 with a plain-text body of the given `Content-Type` (used by
    /// the Prometheus exposition of `/metrics`).
    pub fn text(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type,
            headers: Vec::new(),
            connection_close: false,
            body: body.into(),
        }
    }

    /// An error response with a `{"error": ...}` JSON body.
    pub fn error(status: u16, message: &str) -> Self {
        let body = crate::json::Json::object([("error", crate::json::Json::from(message))]);
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            connection_close: false,
            body: body.to_string().into_bytes(),
        }
    }

    /// Appends an extra response header.
    pub fn set_header(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.headers.push((name.into(), value.into()));
    }

    /// The response's wire bytes, head then body, in one buffer. The body
    /// is copied once, into room reserved for exactly it after the head,
    /// so a large reply is never copied again by a regrowing buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let connection = if self.connection_close {
            "close"
        } else {
            "keep-alive"
        };
        let mut head = String::with_capacity(128);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            connection
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.reserve_exact(self.body.len());
        bytes.extend_from_slice(&self.body);
        bytes
    }

    /// Serializes the response onto `stream` as a single write, so a
    /// keep-alive socket never has a partial response stuck behind
    /// Nagle's algorithm waiting on a delayed ACK.
    pub fn write_to<S: Write>(&self, stream: &mut S) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

impl From<HttpError> for Response {
    fn from(e: HttpError) -> Self {
        let mut resp = Response::error(e.status, &e.message);
        // A protocol failure leaves the stream position unknown; the
        // only safe follow-up is closing the connection.
        resp.connection_close = true;
        resp
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_bodies::BodyGen;
    use proptest::prelude::*;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut &raw[..])
    }

    #[test]
    fn parses_post_with_body() {
        let raw =
            b"POST /crosswalk?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/crosswalk");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.body_text().unwrap(), "abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn empty_stream_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn sequential_requests_parse_from_one_reader() {
        let mut reader: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\nPOST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /metrics HTTP/1.1\r\n\r\n";
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(second.path, "/x");
        assert_eq!(second.body, b"hi");
        let third = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(third.path, "/metrics");
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse(b"BROKEN\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nContent-Length: zep\r\n\r\n").is_err());
        // Body shorter than Content-Length.
        assert!(parse(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc").is_err());
    }

    #[test]
    fn parser_errors_are_sticky() {
        let mut parser = RequestParser::new(MAX_HEAD_BYTES);
        let first = parser.feed(b"BROKEN\r\n").unwrap_err();
        assert_eq!(first.status, 400);
        // Re-feeding a poisoned parser — even perfectly valid bytes —
        // must replay the original error, never yield a request.
        let again = parser.feed(b"GET / HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(again.status, first.status);
        assert_eq!(again.message, first.message);
    }

    #[test]
    fn rejects_trailing_request_line_tokens() {
        let e = parse(b"GET / HTTP/1.1 smuggled\r\n\r\n").unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("trailing tokens"), "{e}");
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd";
        let e = parse(raw).unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.message.contains("Content-Length"), "{e}");
        // Agreeing duplicates are tolerated (first one wins, they match).
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse(raw).unwrap().unwrap().body, b"abc");
    }

    #[test]
    fn oversized_head_is_431_with_bounded_memory() {
        // A request line that never ends: rejected once the head budget
        // is spent, long before the 10 MiB "line" would be buffered.
        let mut raw = b"GET /".to_vec();
        raw.resize(raw.len() + (10 << 20), b'a');
        let limits = ReadLimits::default();
        let e = read_request_limited(&mut &raw[..], &limits).unwrap_err();
        assert_eq!(e.status, 431);

        // Unbounded header section: same verdict.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..10_000 {
            raw.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let e = read_request_limited(&mut &raw[..], &limits).unwrap_err();
        assert_eq!(e.status, 431);
    }

    #[test]
    fn head_within_budget_still_parses() {
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        let limits = ReadLimits {
            max_head_bytes: raw.len(),
            head_timeout: None,
        };
        assert!(read_request_limited(&mut &raw[..], &limits)
            .unwrap()
            .is_some());
        let tight = ReadLimits {
            max_head_bytes: 10,
            head_timeout: None,
        };
        assert_eq!(
            read_request_limited(&mut &raw[..], &tight)
                .unwrap_err()
                .status,
            431
        );
    }

    #[test]
    fn keep_alive_defaults_follow_the_version() {
        let req = |version: &str, conn: Option<&str>| Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            version: version.into(),
            headers: conn
                .map(|v| vec![("connection".to_owned(), v.to_owned())])
                .unwrap_or_default(),
            body: Vec::new(),
        };
        assert!(req("HTTP/1.1", None).keep_alive());
        assert!(!req("HTTP/1.0", None).keep_alive());
        assert!(!req("HTTP/1.1", Some("close")).keep_alive());
        assert!(!req("HTTP/1.1", Some("Close")).keep_alive());
        assert!(req("HTTP/1.0", Some("keep-alive")).keep_alive());
        assert!(!req("HTTP/1.1", Some("keep-alive, close")).keep_alive());
    }

    #[test]
    fn response_serializes() {
        let mut out = Vec::new();
        Response::json(br#"{"ok":true}"#.to_vec())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        Response::error(404, "no such route")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains(r#"{"error":"no such route"}"#));

        // A large reply lands in one buffer that holds exactly head and
        // body, byte for byte what `write_to` sends.
        let mut resp = Response::json(vec![b'7'; 300_000]);
        resp.set_header("X-Trace-Id", "t1");
        let bytes = resp.to_bytes();
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                    Content-Length: 300000\r\nConnection: keep-alive\r\n\
                    X-Trace-Id: t1\r\n\r\n";
        assert_eq!(&bytes[..head.len()], head.as_bytes());
        assert_eq!(bytes[head.len()..], resp.body[..]);
        assert_eq!(bytes.capacity(), bytes.len());
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        assert_eq!(out, bytes);
    }

    #[test]
    fn connection_close_is_advertised_when_set() {
        let mut resp = Response::json(br#"{}"#.to_vec());
        resp.connection_close = true;
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
        // Error conversions close by default — the stream position after
        // a parse failure is unknown.
        let resp = Response::from(HttpError::head_too_large());
        assert_eq!(resp.status, 431);
        assert!(resp.connection_close);
    }

    #[test]
    fn new_reason_phrases_cover_the_hardening_statuses() {
        for (status, phrase) in [
            (408, "Request Timeout"),
            (429, "Too Many Requests"),
            (431, "Request Header Fields Too Large"),
            (503, "Service Unavailable"),
            (504, "Gateway Timeout"),
        ] {
            assert_eq!(reason_phrase(status), phrase);
        }
    }

    #[test]
    fn extra_headers_are_written_before_the_body() {
        let mut resp = Response::json(br#"{}"#.to_vec());
        resp.set_header("X-Trace-Id", "abc123");
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nX-Trace-Id: abc123\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    /// A request stream: a request line and headers of every kind the
    /// parser tells apart, a body of the declared length, sometimes a
    /// pipelined second request, truncation or an overwritten byte.
    fn request_bytes(gen: &mut BodyGen) -> Vec<u8> {
        let eol = gen.pick(&["\r\n", "\n"]);
        let mut out = String::new();
        out.push_str(gen.pick(&[
            "POST /crosswalk HTTP/1.1",
            "GET /metrics?format=prometheus HTTP/1.0",
            "get  /x   HTTP/1.1",
            "GET / HTTP/2",
            "GET / HTTP/1.1 extra",
            "GARBAGE",
            "",
        ]));
        out.push_str(eol);
        let body = gen.pick(&["", "{}", "{\"source\":\"zip\"}", "é世😀"]);
        for _ in 0..gen.below(4) {
            let header = match gen.pick(&["len", "len", "other", "bad", "conflict", "huge", "junk"])
            {
                "len" => format!("Content-Length: {}", body.len()),
                "other" => "X-Trace-Id: abc".to_owned(),
                "bad" => "Content-Length: ten".to_owned(),
                "conflict" => format!("content-length: {}", body.len() + 1),
                "huge" => format!("Content-Length: {}", MAX_BODY_BYTES + 1),
                _ => "no colon here".to_owned(),
            };
            out.push_str(&header);
            out.push_str(eol);
        }
        out.push_str(eol);
        out.push_str(body);
        if gen.below(3) == 0 {
            out.push_str("GET /healthz HTTP/1.1\r\n\r\n");
        }
        let mut bytes = out.into_bytes();
        match gen.below(6) {
            0 => bytes.truncate(gen.below(bytes.len() + 1)),
            1 if !bytes.is_empty() => {
                let at = gen.below(bytes.len());
                bytes[at] = [b'\n', b'\r', b':', b' ', 0xff, b'x'][gen.below(6)];
            }
            _ => {}
        }
        bytes
    }

    /// What feeding `chunks` in order yields: the first request or error,
    /// the bytes consumed up to it, and the EOF error at the end if none.
    fn feed_all<'a>(max_head: usize, chunks: impl IntoIterator<Item = &'a [u8]>) -> String {
        let mut parser = RequestParser::new(max_head);
        let mut consumed = 0;
        for chunk in chunks {
            match parser.feed(chunk) {
                Err(e) => return format!("error {} {}", e.status, e.message),
                Ok((n, Some(req))) => return format!("request {req:?} after {}", consumed + n),
                Ok((n, None)) => {
                    assert_eq!(
                        n,
                        chunk.len(),
                        "an unfinished request takes the whole chunk"
                    );
                    consumed += n;
                }
            }
        }
        let eof = parser.eof_error();
        format!(
            "pending {} {} after {consumed}",
            parser.started(),
            eof.message
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        #[test]
        fn chunked_feeds_parse_like_one_shot(seed in 0u64..u64::MAX) {
            let mut gen = BodyGen::new(seed);
            let bytes = request_bytes(&mut gen);
            let max_head = [MAX_HEAD_BYTES, 48, 16][gen.below(3)];
            let mut cuts: Vec<usize> = (0..gen.below(8))
                .map(|_| gen.below(bytes.len() + 1))
                .collect();
            cuts.push(0);
            cuts.push(bytes.len());
            cuts.sort_unstable();
            // Repeated cuts make empty chunks, which must be harmless.
            let chunks = cuts.windows(2).map(|w| &bytes[w[0]..w[1]]);
            let one_shot = feed_all(max_head, [&bytes[..]]);
            let chunked = feed_all(max_head, chunks);
            prop_assert!(one_shot == chunked, "{:?}\none shot: {one_shot}\n chunked: {chunked}", String::from_utf8_lossy(&bytes));
        }
    }
}
