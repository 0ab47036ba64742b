//! Per-connection state machine of the readiness reactor.
//!
//! Each accepted socket is one [`Connection`]: a non-blocking
//! `TcpStream`, an incremental [`RequestParser`], and an explicit state
//! (`Idle → ReadingHead → ReadingBody → Executing → Writing → Idle`,
//! with `Draining` as the lingering-close tail). The reactor owns the
//! event loop; this module owns what one readiness event, deadline
//! expiry, or finished response means for one connection — every method
//! returns a [`Directive`] telling the reactor what to do next.
//!
//! The state transitions encode, bit-for-bit, the HTTP semantics the
//! blocking front end had (DESIGN.md §10):
//!
//! - **Idle** expiry closes silently — an idle peer is not an error, so
//!   no 408 and no counter (`an_idle_connection_is_reaped_silently`).
//! - **ReadingHead**'s deadline is fixed at the first byte of the
//!   request and never extended by trickled progress — the slow-loris
//!   answer is 408 within one idle-timeout of the head starting.
//! - **ReadingBody**'s deadline resets on every read with progress,
//!   mirroring the per-read socket timeout of the blocking path.
//! - **Executing** has no deadline and no socket interest: the request
//!   is on a worker, pipelined bytes wait in the kernel buffer.
//! - **Writing** flushes the single serialized response buffer; normal
//!   closes (`Connection: close`, request cap, drain) drop the socket
//!   plainly, while protocol errors go through **Draining** — the
//!   half-close + bounded drain that lets the error response reach a
//!   peer with unread bytes still queued (no RST before the 4xx).

use crate::http::{HttpError, Request, RequestParser, Response, MAX_HEAD_BYTES};
use crate::metrics::Metrics;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Byte cap on the lingering-close drain (matches the blocking
/// front end's `lingering_close`).
const DRAIN_BUDGET_BYTES: usize = 1 << 20;
/// Wall-clock cap on the lingering-close drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// What the connection is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Between requests on a keep-alive connection: waiting for the
    /// first byte of the next request. Expiry closes silently.
    Idle {
        /// When the idle timeout reaps this connection.
        deadline: Instant,
    },
    /// Reading the request line + headers. The deadline is fixed when
    /// the first byte arrives; expiry answers 408.
    ReadingHead {
        /// The head-stall deadline (never extended).
        deadline: Instant,
    },
    /// Reading `Content-Length` body bytes; the deadline resets on each
    /// read with progress. Expiry answers 408.
    ReadingBody {
        /// The body-stall deadline.
        deadline: Instant,
    },
    /// The parsed request is on a worker; no socket interest.
    Executing,
    /// Flushing the serialized response; expiry (peer not reading)
    /// closes abruptly, like a write timeout did.
    Writing {
        /// The write-stall deadline.
        deadline: Instant,
    },
    /// Lingering close after a protocol error: write side shut, unread
    /// input drained (bounded) so the error response isn't lost to RST.
    Draining {
        /// Hard stop for the drain.
        deadline: Instant,
        /// Bytes of unread input still tolerated.
        budget: usize,
    },
}

/// What to do once the pending response buffer is flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterWrite {
    /// Back to `Idle` (or straight into the next pipelined request).
    KeepAlive,
    /// Plain close: `Connection: close`, request cap, or drain.
    Close,
    /// Lingering close: protocol-error responses.
    Linger,
}

/// The reactor's marching orders after a connection event.
#[derive(Debug)]
pub(crate) enum Directive {
    /// Nothing to hand off; re-arm interest per [`Connection::interest`].
    Continue,
    /// A complete request to dispatch to the worker pool. The `bool` is
    /// whether the response must close the connection (client asked,
    /// request cap reached, or the server is draining).
    Dispatch(Request, bool),
    /// Deregister and drop the connection now.
    Close,
}

/// Socket readiness the connection currently needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interest {
    /// No events (state `Executing`).
    None,
    /// Readable.
    Read,
    /// Writable.
    Write,
}

/// Everything a connection needs from its server to make decisions.
pub(crate) struct ConnContext<'a> {
    /// Idle / stall timeout (the `--idle-timeout` knob).
    pub idle_timeout: Duration,
    /// Requests served before the connection is closed.
    pub max_requests: usize,
    /// Whether the server is draining for shutdown: finished responses
    /// close instead of going back to `Idle`.
    pub draining: bool,
    /// Serve metrics (keep-alive reuse, parse-error statuses).
    pub metrics: &'a Metrics,
}

/// One live connection owned by the reactor's slab.
#[derive(Debug)]
pub(crate) struct Connection {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    /// Bytes read past the end of the last parsed request (pipelining).
    inbuf: Vec<u8>,
    /// Serialized response waiting to be flushed.
    out: Vec<u8>,
    written: usize,
    after_write: AfterWrite,
    /// Requests completed on this connection.
    served: usize,
    /// Generation stamp: completions carry it so a slab slot reused
    /// after a force-close can't receive a stale response.
    gen: u64,
    /// State transitions, recorded into the metrics histogram at close.
    transitions: u64,
}

impl Connection {
    /// Wraps an admitted (already non-blocking) socket, starting `Idle`.
    pub fn new(stream: TcpStream, gen: u64, now: Instant, idle_timeout: Duration) -> Self {
        Connection {
            stream,
            parser: RequestParser::new(MAX_HEAD_BYTES),
            state: ConnState::Idle {
                deadline: now + idle_timeout,
            },
            inbuf: Vec::new(),
            out: Vec::new(),
            written: 0,
            after_write: AfterWrite::KeepAlive,
            served: 0,
            gen: 0,
            transitions: 0,
        }
        .with_gen(gen)
    }

    fn with_gen(mut self, gen: u64) -> Self {
        self.gen = gen;
        self
    }

    /// This connection's generation stamp.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// The socket's file descriptor, for poller registration.
    pub fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// Transitions made so far (recorded at close).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The readiness this connection's state wants from the poller.
    pub fn interest(&self) -> Interest {
        match self.state {
            ConnState::Idle { .. }
            | ConnState::ReadingHead { .. }
            | ConnState::ReadingBody { .. }
            | ConnState::Draining { .. } => Interest::Read,
            ConnState::Executing => Interest::None,
            ConnState::Writing { .. } => Interest::Write,
        }
    }

    /// The instant at which [`Connection::on_deadline`] must run, if any.
    pub fn deadline(&self) -> Option<Instant> {
        match self.state {
            ConnState::Idle { deadline }
            | ConnState::ReadingHead { deadline }
            | ConnState::ReadingBody { deadline }
            | ConnState::Writing { deadline }
            | ConnState::Draining { deadline, .. } => Some(deadline),
            ConnState::Executing => None,
        }
    }

    /// Whether the connection is parked between requests (drain closes
    /// these immediately — no request is in flight).
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ConnState::Idle { .. })
    }

    fn set_state(&mut self, next: ConnState) {
        if std::mem::discriminant(&self.state) != std::mem::discriminant(&next) {
            self.transitions += 1;
        }
        self.state = next;
    }

    /// The socket is readable: pull bytes, feed the parser, transition.
    pub fn on_readable(&mut self, ctx: &ConnContext<'_>) -> Directive {
        if matches!(self.state, ConnState::Draining { .. }) {
            return self.drain_readable();
        }
        if !matches!(
            self.state,
            ConnState::Idle { .. } | ConnState::ReadingHead { .. } | ConnState::ReadingBody { .. }
        ) {
            // Spurious readiness (e.g. an event already queued when the
            // state moved on): ignore, the state's interest stands.
            return Directive::Continue;
        }
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    // Peer EOF. Before the first byte of a request this
                    // is a normal keep-alive close; mid-request it is a
                    // protocol error that still deserves its response.
                    if !self.parser.started() {
                        return Directive::Close;
                    }
                    return self.fail(self.parser.eof_error(), ctx);
                }
                Ok(n) => match self.feed(&scratch[..n], ctx) {
                    Directive::Continue => match self.state {
                        // A parse error mid-chunk flips the state to
                        // Draining (the 4xx is already flushed): the
                        // rest of the input is discard, not requests.
                        ConnState::Draining { .. } => return self.drain_readable(),
                        ConnState::Idle { .. }
                        | ConnState::ReadingHead { .. }
                        | ConnState::ReadingBody { .. } => continue,
                        // Any other state ends the read loop: a parse
                        // error whose 4xx hit WouldBlock parks in
                        // Writing, and reading on would feed the
                        // already-errored parser and clobber the
                        // half-written response. Interest re-arms per
                        // the new state.
                        ConnState::Executing | ConnState::Writing { .. } => {
                            return Directive::Continue
                        }
                    },
                    other => return other,
                },
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Directive::Continue,
                Err(e) => {
                    if !self.parser.started() {
                        return Directive::Close;
                    }
                    return self.fail(HttpError::bad_request(format!("read error: {e}")), ctx);
                }
            }
        }
    }

    /// Feeds bytes (buffered leftovers first) into the parser and
    /// applies the resulting transition.
    fn feed(&mut self, bytes: &[u8], ctx: &ConnContext<'_>) -> Directive {
        let input: Vec<u8> = if self.inbuf.is_empty() {
            bytes.to_vec()
        } else {
            let mut v = std::mem::take(&mut self.inbuf);
            v.extend_from_slice(bytes);
            v
        };
        match self.parser.feed(&input) {
            Err(e) => self.fail(e, ctx),
            Ok((consumed, maybe_request)) => {
                self.inbuf = input[consumed..].to_vec();
                match maybe_request {
                    Some(request) => self.on_request(request, ctx),
                    None => {
                        self.note_read_progress(ctx);
                        Directive::Continue
                    }
                }
            }
        }
    }

    /// Byte progress without a complete request: pick the right reading
    /// state and deadline.
    fn note_read_progress(&mut self, ctx: &ConnContext<'_>) {
        let now = Instant::now();
        if !self.parser.started() {
            // Nothing of the next request yet (e.g. just finished a
            // response): park idle.
            if !matches!(self.state, ConnState::Idle { .. }) {
                self.set_state(ConnState::Idle {
                    deadline: now + ctx.idle_timeout,
                });
            }
        } else if self.parser.in_head() {
            // The head deadline is fixed at the first byte: trickling
            // one byte per interval must not push it out.
            if !matches!(self.state, ConnState::ReadingHead { .. }) {
                self.set_state(ConnState::ReadingHead {
                    deadline: now + ctx.idle_timeout,
                });
            }
        } else {
            // Body reads refresh the deadline on progress, like the
            // per-read socket timeout they replace.
            self.set_state(ConnState::ReadingBody {
                deadline: now + ctx.idle_timeout,
            });
        }
    }

    /// A complete request: count it, decide the close bit, hand it up.
    fn on_request(&mut self, request: Request, ctx: &ConnContext<'_>) -> Directive {
        if self.served > 0 {
            ctx.metrics.keepalive_reuse.inc();
        }
        self.served += 1;
        let close = !request.keep_alive() || self.served >= ctx.max_requests || ctx.draining;
        self.set_state(ConnState::Executing);
        Directive::Dispatch(request, close)
    }

    /// A protocol failure: record it, queue the error response, and
    /// linger-close. No access-log line and no SLO sample — only the
    /// status counters — exactly like the blocking path.
    fn fail(&mut self, error: HttpError, ctx: &ConnContext<'_>) -> Directive {
        if matches!(
            self.state,
            ConnState::Writing { .. } | ConnState::Draining { .. }
        ) {
            // A response is already queued or on the wire; a second
            // failure must never reset the write buffer under it.
            return Directive::Continue;
        }
        let response = Response::from(error);
        ctx.metrics.record_request(response.status, Duration::ZERO);
        self.start_write(response.to_bytes(), AfterWrite::Linger, ctx)
    }

    /// A response is ready (from a worker completion or an inline
    /// error): try to flush it in one write, falling back to `Writing`
    /// state if the socket is full.
    pub fn start_write(
        &mut self,
        bytes: Vec<u8>,
        after: AfterWrite,
        ctx: &ConnContext<'_>,
    ) -> Directive {
        self.out = bytes;
        self.written = 0;
        self.after_write = after;
        self.set_state(ConnState::Writing {
            deadline: Instant::now() + ctx.idle_timeout,
        });
        self.on_writable(ctx)
    }

    /// The socket is writable: flush what's pending.
    pub fn on_writable(&mut self, ctx: &ConnContext<'_>) -> Directive {
        if !matches!(self.state, ConnState::Writing { .. }) {
            return Directive::Continue;
        }
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Directive::Close,
                Ok(n) => {
                    self.written += n;
                    self.set_state(ConnState::Writing {
                        deadline: Instant::now() + ctx.idle_timeout,
                    });
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Directive::Continue,
                Err(_) => return Directive::Close,
            }
        }
        self.out = Vec::new();
        self.written = 0;
        self.response_flushed(ctx)
    }

    /// The whole response is on the wire: close, linger, or go look for
    /// the next request.
    fn response_flushed(&mut self, ctx: &ConnContext<'_>) -> Directive {
        match self.after_write {
            AfterWrite::Close => Directive::Close,
            AfterWrite::Linger => {
                let _ = self.stream.shutdown(std::net::Shutdown::Write);
                self.set_state(ConnState::Draining {
                    deadline: Instant::now() + DRAIN_TIMEOUT,
                    budget: DRAIN_BUDGET_BYTES,
                });
                Directive::Continue
            }
            AfterWrite::KeepAlive => {
                if ctx.draining {
                    // Shutdown arrived while this response was in
                    // flight: the request got its answer, now close.
                    return Directive::Close;
                }
                self.set_state(ConnState::Idle {
                    deadline: Instant::now() + ctx.idle_timeout,
                });
                if self.inbuf.is_empty() {
                    Directive::Continue
                } else {
                    // The client pipelined: bytes past the last request
                    // are already here — parse without waiting for a
                    // readiness event that may never come.
                    self.feed(&[], ctx)
                }
            }
        }
    }

    /// Lingering-close drain: discard unread input until EOF, error,
    /// or the byte budget runs out.
    fn drain_readable(&mut self) -> Directive {
        let ConnState::Draining { deadline, budget } = self.state else {
            return Directive::Continue;
        };
        let mut budget = budget;
        let mut chunk = [0u8; 4096];
        loop {
            if budget == 0 {
                return Directive::Close;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Directive::Close,
                Ok(n) => budget = budget.saturating_sub(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.set_state(ConnState::Draining { deadline, budget });
                    return Directive::Continue;
                }
                Err(_) => return Directive::Close,
            }
        }
    }

    /// The state's deadline has passed. Idle and draining connections
    /// close without a word; a stalled head or body gets its 408; a
    /// peer that stopped reading its response gets cut off.
    pub fn on_deadline(&mut self, ctx: &ConnContext<'_>) -> Directive {
        match self.state {
            ConnState::Idle { .. } | ConnState::Draining { .. } | ConnState::Writing { .. } => {
                Directive::Close
            }
            ConnState::ReadingHead { .. } => {
                self.fail(HttpError::timeout("request head read past deadline"), ctx)
            }
            ConnState::ReadingBody { .. } => {
                self.fail(HttpError::timeout("timed out reading request body"), ctx)
            }
            ConnState::Executing => Directive::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    fn ctx(metrics: &Metrics) -> ConnContext<'_> {
        ConnContext {
            idle_timeout: Duration::from_secs(30),
            max_requests: 1000,
            draining: false,
            metrics,
        }
    }

    #[test]
    fn a_full_request_in_one_chunk_dispatches() {
        let metrics = Metrics::default();
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, 1, Instant::now(), Duration::from_secs(30));
        assert_eq!(conn.interest(), Interest::Read);
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi")
            .unwrap();
        // Give loopback a moment to deliver.
        std::thread::sleep(Duration::from_millis(50));
        match conn.on_readable(&ctx(&metrics)) {
            Directive::Dispatch(req, close) => {
                assert_eq!(req.path, "/x");
                assert_eq!(req.body, b"hi");
                assert!(!close);
            }
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert_eq!(conn.interest(), Interest::None, "executing wants no events");
    }

    #[test]
    fn trickled_head_keeps_one_fixed_deadline() {
        let metrics = Metrics::default();
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, 1, Instant::now(), Duration::from_secs(30));
        client.write_all(b"GET /").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let c = ctx(&metrics);
        assert!(matches!(conn.on_readable(&c), Directive::Continue));
        let first = conn.deadline().unwrap();
        client.write_all(b"healthz HT").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(conn.on_readable(&c), Directive::Continue));
        assert_eq!(
            conn.deadline().unwrap(),
            first,
            "head deadline must not move on trickled progress"
        );
    }

    #[test]
    fn pipelined_second_request_dispatches_after_the_first_response() {
        let metrics = Metrics::default();
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, 1, Instant::now(), Duration::from_secs(30));
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let c = ctx(&metrics);
        let Directive::Dispatch(req, _) = conn.on_readable(&c) else {
            panic!("first request should dispatch")
        };
        assert_eq!(req.path, "/a");
        // Response done → the pipelined /b must surface without a new
        // readiness event.
        let mut bytes = Vec::new();
        Response::json(b"{}".to_vec()).write_to(&mut bytes).unwrap();
        let Directive::Dispatch(req, _) = conn.start_write(bytes, AfterWrite::KeepAlive, &c) else {
            panic!("pipelined request should dispatch straight away")
        };
        assert_eq!(req.path, "/b");
        assert_eq!(metrics.keepalive_reuse.get(), 1);
    }

    #[test]
    fn a_parse_error_behind_a_full_send_buffer_stops_the_read_loop() {
        let metrics = Metrics::default();
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, 1, Instant::now(), Duration::from_secs(30));
        let c = ctx(&metrics);
        // A malformed request line with plenty of trailing bytes: the
        // read loop must stop at the error instead of feeding the
        // poisoned parser (which would clobber the pending response).
        let mut bad = b"BROKEN\r\n\r\n".to_vec();
        bad.resize(32 * 1024, b'x');
        client.write_all(&bad).unwrap();
        // Fill the server→client direction so the 4xx cannot flush and
        // the connection parks in Writing instead of Draining. The
        // kernel keeps moving send-buffer bytes into the client's
        // receive window for a while, so "full" only counts once a
        // write still blocks after a pause.
        let junk = [0u8; 64 * 1024];
        loop {
            match conn.stream.write(&junk) {
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(30));
                    match conn.stream.write(&junk) {
                        Ok(_) => continue,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) => panic!("filling the send buffer: {e}"),
                    }
                }
                Err(e) => panic!("filling the send buffer: {e}"),
            }
        }
        assert!(matches!(conn.on_readable(&c), Directive::Continue));
        assert_eq!(
            conn.interest(),
            Interest::Write,
            "the 4xx must stay parked in Writing"
        );
        assert_eq!(
            metrics.requests_failed.get(),
            1,
            "exactly one error response may be recorded"
        );
    }

    #[test]
    fn eof_before_any_byte_is_a_silent_close() {
        let metrics = Metrics::default();
        let (client, server) = pair();
        let mut conn = Connection::new(server, 1, Instant::now(), Duration::from_secs(30));
        drop(client);
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(conn.on_readable(&ctx(&metrics)), Directive::Close));
        assert_eq!(metrics.requests_total.get(), 0, "no request was recorded");
    }

    #[test]
    fn deadline_in_head_answers_408_and_lingers() {
        let metrics = Metrics::default();
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, 1, Instant::now(), Duration::from_secs(30));
        client.write_all(b"GET /stall").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let c = ctx(&metrics);
        assert!(matches!(conn.on_readable(&c), Directive::Continue));
        assert!(matches!(conn.on_deadline(&c), Directive::Continue));
        // The 408 was flushed inline and the state moved to Draining.
        assert_eq!(metrics.timeouts.get(), 1);
        assert_eq!(conn.interest(), Interest::Read);
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reply = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match client.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
            }
        }
        let text = String::from_utf8(reply).unwrap();
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn idle_deadline_closes_without_a_response() {
        let metrics = Metrics::default();
        let (client, server) = pair();
        let mut conn = Connection::new(server, 1, Instant::now(), Duration::from_secs(30));
        let c = ctx(&metrics);
        assert!(matches!(conn.on_deadline(&c), Directive::Close));
        assert_eq!(metrics.timeouts.get(), 0);
        drop(client);
    }

    #[test]
    fn transitions_count_state_changes_not_refreshes() {
        let metrics = Metrics::default();
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, 1, Instant::now(), Duration::from_secs(30));
        let c = ctx(&metrics);
        client.write_all(b"GET /").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.on_readable(&c); // Idle → ReadingHead
        client.write_all(b"x HTT").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.on_readable(&c); // stays ReadingHead
        assert_eq!(conn.transitions(), 1);
    }
}
