//! A blocking HTTP/1.1 keep-alive client for one closed-loop caller.
//!
//! The server closes a keep-alive connection after a fixed number of
//! requests and says so with `Connection: close`; the client then drops
//! the socket and opens a new one on its next request. The connect time
//! falls inside that request's latency, and every reconnect is counted.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body as text (empty if not UTF-8).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One persistent connection to `addr`, reopened on demand.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    opened: u64,
}

impl Client {
    /// A client for `addr`; nothing is connected until the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            opened: 0,
        }
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.opened.saturating_sub(1)
    }

    /// Sends one request and reads the whole response. Any transport
    /// error drops the connection, so the next request starts afresh.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            self.conn = Some(BufReader::with_capacity(64 << 10, stream));
            self.opened += 1;
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;

        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
        let mut length = None;
        let mut close = false;
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        Ok(Reply { status, body })
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
