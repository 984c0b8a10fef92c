//! A minimal blocking HTTP client over `std::net::TcpStream`.
//!
//! Shared by the load generator, the shard router, the integration
//! tests and the CI smoke job so none of them need an external HTTP
//! tool. [`request`] speaks the one-request-per-connection subset;
//! [`HttpConnection`] holds a keep-alive connection open,
//! reconnect-on-close left to the caller. Both frame responses through
//! the incremental [`ResponseParser`].

use crate::http::{status_reason, ResponseParser};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on response bodies the client will buffer.
const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;

/// Socket deadlines for one request.
///
/// The zero-value of `std::net` timeouts is "block forever", which
/// turned every stalled or half-dead server into a hung client. These
/// defaults are deliberately finite; [`ClientTimeouts::unlimited`]
/// restores the old behaviour for debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// TCP connect deadline.
    pub connect: Duration,
    /// Per-`read` deadline while receiving the response.
    pub read: Duration,
    /// Per-`write` deadline while sending the request.
    pub write: Duration,
}

impl Default for ClientTimeouts {
    fn default() -> Self {
        Self {
            connect: Duration::from_secs(10),
            read: Duration::from_secs(120),
            write: Duration::from_secs(30),
        }
    }
}

impl ClientTimeouts {
    /// No deadlines at all: every socket operation may block forever.
    pub fn unlimited() -> Self {
        Self { connect: Duration::ZERO, read: Duration::ZERO, write: Duration::ZERO }
    }
}

/// Maps a transport error to [`io::ErrorKind::TimedOut`] when it is a
/// socket deadline expiring, annotated with which phase stalled.
///
/// Linux reports an expired `SO_RCVTIMEO` as `WouldBlock`; other
/// platforms use `TimedOut`. Callers should only ever see the latter.
fn timeout_error(phase: &str, e: io::Error) -> io::Error {
    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
        io::Error::new(io::ErrorKind::TimedOut, format!("{phase} timed out: {e}"))
    } else {
        e
    }
}

/// Sends a whole request in one write. Written piecewise (as `write!`
/// on a socket does), the later segments wait on Nagle's algorithm for
/// the peer's delayed ACK, stalling every keep-alive request ~40 ms.
fn send(
    stream: &mut TcpStream,
    host: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    keep_alive: bool,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    stream.write_all(request.as_bytes()).map_err(|e| timeout_error("request write", e))?;
    stream.flush().map_err(|e| timeout_error("request write", e))
}

/// Reads off `stream` until `parser` frames one whole response.
fn read_response(stream: &mut TcpStream, parser: &mut ResponseParser) -> io::Result<HttpResponse> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(parsed) = parser.next_response()? {
            return Ok(HttpResponse {
                status: parsed.status,
                headers: parsed.headers,
                body: parsed.body,
            });
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before a full response",
                ))
            }
            Ok(n) => parser.feed(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(timeout_error("response read", e)),
        }
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The first value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == want).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Reports non-UTF-8 bodies.
    pub fn body_text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("body is not UTF-8: {e}"))
    }

    /// `true` when the server announced it will close the connection
    /// after this response (keep-alive cap reached, or shutdown).
    pub fn closes_connection(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Performs one request against `addr` and reads the full response,
/// using the default [`ClientTimeouts`].
///
/// # Errors
///
/// Propagates connection and transport failures, reports malformed
/// responses as [`io::ErrorKind::InvalidData`], and expired socket
/// deadlines as [`io::ErrorKind::TimedOut`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    request_with(addr, method, path, body, ClientTimeouts::default())
}

/// [`request`] with explicit socket deadlines.
///
/// # Errors
///
/// As [`request`].
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeouts: ClientTimeouts,
) -> io::Result<HttpResponse> {
    let mut stream = connect(addr, timeouts)?;
    send(&mut stream, addr, method, path, body, false)?;
    read_response(&mut stream, &mut ResponseParser::new(MAX_RESPONSE_BODY))
}

/// Reads the CRLF-terminated status line.
fn read_status_line<R: io::BufRead>(reader: &mut R) -> io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    if line.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "empty response"));
    }
    Ok(line)
}

/// Resolves `addr` and connects within the configured deadline.
fn connect(addr: &str, timeouts: ClientTimeouts) -> io::Result<TcpStream> {
    let stream = if timeouts.connect.is_zero() {
        TcpStream::connect(addr)?
    } else {
        let resolved = std::net::ToSocketAddrs::to_socket_addrs(addr)?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("no address for {addr:?}"))
        })?;
        TcpStream::connect_timeout(&resolved, timeouts.connect)
            .map_err(|e| timeout_error("connect", e))?
    };
    let optional = |d: Duration| if d.is_zero() { None } else { Some(d) };
    stream.set_read_timeout(optional(timeouts.read))?;
    stream.set_write_timeout(optional(timeouts.write))?;
    Ok(stream)
}

/// A persistent keep-alive connection: one TCP stream carrying many
/// sequential requests, each response framed by its `Content-Length`
/// through [`ResponseParser`].
///
/// The server may close the connection after its per-connection request
/// cap (the last response carries `Connection: close`) or an idle
/// timeout; the next [`HttpConnection::request`] then fails with
/// [`io::ErrorKind::UnexpectedEof`] / a transport error and the caller
/// reconnects. Check [`HttpResponse::closes_connection`] to reconnect
/// proactively.
#[derive(Debug)]
pub struct HttpConnection {
    addr: String,
    stream: TcpStream,
    parser: ResponseParser,
}

impl HttpConnection {
    /// Connects to `addr` with the given socket deadlines.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_to(addr: impl Into<String>, timeouts: ClientTimeouts) -> io::Result<Self> {
        let addr = addr.into();
        let stream = connect(&addr, timeouts)?;
        Ok(Self { addr, stream, parser: ResponseParser::new(MAX_RESPONSE_BODY) })
    }

    /// Performs one request on the persistent connection and reads its
    /// response.
    ///
    /// # Errors
    ///
    /// Transport failures (including the server having closed the
    /// connection between requests, surfaced as
    /// [`io::ErrorKind::UnexpectedEof`]); malformed responses as
    /// [`io::ErrorKind::InvalidData`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        send(&mut self.stream, &self.addr, method, path, body, true)?;
        read_response(&mut self.stream, &mut self.parser)
    }

    /// `true` when part of a response has arrived and not yet been
    /// framed: after a failed [`HttpConnection::request`], `false` means
    /// no byte of the answer came back.
    pub(crate) fn mid_response(&self) -> bool {
        self.parser.mid_response()
    }
}

/// A convenience wrapper bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeouts: ClientTimeouts,
}

impl Client {
    /// A client for `addr` (`host:port`) with default timeouts.
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), timeouts: ClientTimeouts::default() }
    }

    /// The same client with explicit socket deadlines.
    pub fn with_timeouts(mut self, timeouts: ClientTimeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The socket deadlines this client applies.
    pub fn timeouts(&self) -> ClientTimeouts {
        self.timeouts
    }

    /// Submits an attack job body to `POST /v1/attacks`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn submit(&self, job_json: &str) -> io::Result<HttpResponse> {
        request_with(&self.addr, "POST", "/v1/attacks", Some(job_json), self.timeouts)
    }

    /// Fetches `GET /v1/attacks/{id}`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn status(&self, id: &str) -> io::Result<HttpResponse> {
        request_with(&self.addr, "GET", &format!("/v1/attacks/{id}"), None, self.timeouts)
    }

    /// Fetches the stored result CSV via `GET /v1/attacks/{id}/csv`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn csv(&self, id: &str) -> io::Result<HttpResponse> {
        request_with(&self.addr, "GET", &format!("/v1/attacks/{id}/csv"), None, self.timeouts)
    }

    /// Fetches `GET /healthz`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn healthz(&self) -> io::Result<HttpResponse> {
        request_with(&self.addr, "GET", "/healthz", None, self.timeouts)
    }

    /// Fetches `GET /metrics`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn metrics(&self) -> io::Result<HttpResponse> {
        request_with(&self.addr, "GET", "/metrics", None, self.timeouts)
    }

    /// Follows `GET /v1/attacks/{id}/progress` until the stream ends,
    /// invoking `on_line` for every JSONL record as it arrives and
    /// returning the final status code. The read deadline applies per
    /// read, so a job that keeps producing generations can stream far
    /// longer than one `timeouts.read`.
    ///
    /// # Errors
    ///
    /// Transport failures, malformed chunked framing as
    /// [`io::ErrorKind::InvalidData`].
    pub fn progress(&self, id: &str, mut on_line: impl FnMut(&str)) -> io::Result<u16> {
        let mut stream = connect(&self.addr, self.timeouts)?;
        let path = format!("/v1/attacks/{id}/progress");
        send(&mut stream, &self.addr, "GET", &path, None, false)?;
        let mut reader = BufReader::new(stream);
        let status_line =
            read_status_line(&mut reader).map_err(|e| timeout_error("response read", e))?;
        let code = status_line.split(' ').nth(1).unwrap_or("");
        let status: u16 = code.parse().map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status code {code:?}: {e}"))
        })?;
        // Headers: read until the blank line, note the framing.
        let mut chunked = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|e| timeout_error("response read", e))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if line.to_ascii_lowercase().replace(' ', "") == "transfer-encoding:chunked" {
                chunked = true;
            }
        }
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if !chunked {
            // An error response (404 on an unknown job) is an ordinary
            // Connection: close body; deliver it as one line.
            let mut text = String::new();
            reader.read_to_string(&mut text).map_err(|e| timeout_error("response read", e))?;
            for line in text.lines().filter(|l| !l.is_empty()) {
                on_line(line);
            }
            return Ok(status);
        }
        // Decode chunks as they arrive so the callback observes the
        // stream live, carrying any partial line across chunks.
        let mut carry = String::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).map_err(|e| timeout_error("response read", e))?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|e| invalid(format!("bad chunk size {:?}: {e}", size_line.trim())))?;
            let mut payload = vec![0u8; size + 2]; // payload + trailing CRLF
            reader.read_exact(&mut payload).map_err(|e| timeout_error("response read", e))?;
            if size == 0 {
                break;
            }
            payload.truncate(size);
            let chunk = std::str::from_utf8(&payload)
                .map_err(|e| invalid(format!("non-UTF-8 progress chunk: {e}")))?;
            carry.push_str(chunk);
            while let Some(nl) = carry.find('\n') {
                let line: String = carry.drain(..=nl).collect();
                let line = line.trim_end();
                if !line.is_empty() {
                    on_line(line);
                }
            }
        }
        if !carry.trim_end().is_empty() {
            on_line(carry.trim_end());
        }
        Ok(status)
    }

    /// Polls `GET /v1/attacks/{id}` until the job leaves `queued` /
    /// `running`, waiting `interval` between polls up to `deadline`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::TimedOut`] when the deadline expires, plus any
    /// transport failure.
    pub fn wait(
        &self,
        id: &str,
        interval: Duration,
        deadline: Duration,
    ) -> io::Result<HttpResponse> {
        let start = std::time::Instant::now();
        loop {
            let response = self.status(id)?;
            let text = response.body_text().unwrap_or("");
            if response.status != 200
                || !(text.contains("\"queued\"") || text.contains("\"running\""))
            {
                return Ok(response);
            }
            if start.elapsed() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} still pending after {deadline:?}"),
                ));
            }
            std::thread::sleep(interval);
        }
    }
}

/// A descriptive string for a reason phrase lookup, used by loadgen's
/// summary output.
pub fn describe_status(code: u16) -> String {
    format!("{code} {}", status_reason(code))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn read_timeout_surfaces_as_timed_out_instead_of_hanging() {
        // A server that accepts the connection and then says nothing.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mute = std::thread::spawn(move || {
            // Hold the accepted socket open until the client gives up.
            let (stream, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let timeouts = ClientTimeouts { read: Duration::from_millis(100), ..Default::default() };
        let started = std::time::Instant::now();
        let err = request_with(&addr, "GET", "/healthz", None, timeouts)
            .expect_err("a mute server must not produce a response");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("response read"), "{err}");
        // The old behaviour was an unbounded block; prove the deadline
        // actually bounded the wait.
        assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
        mute.join().expect("mute server");
    }

    #[test]
    fn client_timeouts_are_configurable_and_carried() {
        let custom = ClientTimeouts {
            connect: Duration::from_secs(1),
            read: Duration::from_secs(2),
            write: Duration::from_secs(3),
        };
        let client = Client::new("127.0.0.1:1").with_timeouts(custom);
        assert_eq!(client.timeouts(), custom);
        assert_eq!(ClientTimeouts::unlimited().read, Duration::ZERO);
    }
}
