//! The connection front-end: one thread, thousands of connections.
//!
//! Both the attack server and the shard router serve through this one
//! readiness loop over [`bea_reactor::Poller`]: the listener and every
//! connection are non-blocking and registered with epoll; the loop
//! sleeps until the kernel reports readiness, drains whatever arrived
//! through the incremental [`RequestParser`], hands complete requests
//! to the [`Service`] behind it (the server's `Shared` or the router)
//! and flushes responses as sockets accept them. Parsing, routing,
//! admission control and job execution are the service's — the reactor
//! changes how bytes move, never what they mean. Serving is Linux-only:
//! elsewhere `Poller::new` reports `Unsupported` and nothing starts.
//!
//! Connection lifecycle: connections are **persistent**. A request
//! whose semantics allow keep-alive (HTTP/1.1 without
//! `Connection: close`, or HTTP/1.0 opting in) gets its response and
//! the connection re-arms for the next request; pipelined bursts are
//! answered in arrival order. The connection closes when the client
//! asks (`Connection: close` — any requests still buffered *behind*
//! that request go unanswered, per RFC 9112 §9.6), when the
//! per-connection request cap is reached (the final response
//! advertises `Connection: close`), when a parse error answers `400`,
//! or when the idle sweep finds it silent past the configured timeout.
//!
//! A progress request turns the connection into a **stream**: the
//! chunked response head is buffered immediately and the per-tick pump
//! appends one chunk per telemetry line as the job's
//! [`ProgressFeed`](crate::progress::ProgressFeed) grows, ending with
//! the terminating chunk when the feed finishes. Streams are terminal
//! on the connection (`Connection: close`), and a streaming connection
//! is exempt from the idle sweep while the job is merely quiet — it is
//! only dropped when the *client* stops reading (pending output stuck
//! past the idle timeout) or closes.
//!
//! A **tunnel** (the router's progress streams) is terminal too: the
//! connection leaves the loop and a relay thread writes its unflushed
//! output, then copies the upstream socket's bytes to the client until
//! either side ends.

use crate::http::{chunked_head, encode_chunk, final_chunk, Request, RequestParser, Response};
use crate::progress::ProgressFeed;
use crate::server::error_response;
use bea_reactor::{Event, Interest, Poller, Token};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a routed request turned into.
pub(crate) enum Routed {
    /// A complete response to serialise and (possibly) keep going.
    Plain(Response),
    /// Stream this feed as chunked JSONL; terminal on the connection.
    Progress(Arc<ProgressFeed>),
    /// Relay this upstream socket's bytes to the client verbatim (the
    /// request has already been written upstream); terminal on the
    /// connection.
    Tunnel(TcpStream),
}

impl From<Response> for Routed {
    fn from(response: Response) -> Self {
        Routed::Plain(response)
    }
}

/// The service a reactor serves: the attack server or the shard router.
pub(crate) trait Service {
    /// Answers one request, naming the endpoint it hit.
    fn route(&mut self, request: &Request) -> (&'static str, Routed);

    /// Books one answered request. `method` and `path` are `"?"` when the
    /// request did not parse (`endpoint` is then `"malformed"`).
    fn record(
        &self,
        endpoint: &'static str,
        method: &str,
        path: &str,
        status: u16,
        elapsed: Duration,
    );

    /// `true` once the service asked to stop; the loop then ends.
    fn stop_requested(&self) -> bool;
}

/// The listener's registration token; connections start at 1.
const LISTENER: Token = 0;

/// How long the loop sleeps when nothing is ready (also the idle-sweep
/// and stream-pump cadence).
const TICK: Duration = Duration::from_millis(500);

/// Per-read buffer size.
const READ_CHUNK: usize = 16 * 1024;

/// An in-flight progress stream on a connection.
struct ProgressStream {
    feed: Arc<ProgressFeed>,
    /// Lines of the feed already framed into `out`.
    cursor: usize,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Pending response bytes (everything not yet accepted by the
    /// socket).
    out: Vec<u8>,
    /// Bytes of `out` already written.
    written: usize,
    /// No further requests will be answered; close once `out` (and any
    /// active stream) drains.
    closing: bool,
    /// The active progress stream, if this connection became one.
    progress: Option<ProgressStream>,
    /// The upstream socket this connection is about to be relayed from.
    tunnel: Option<TcpStream>,
    /// Requests this connection may still have answered (keep-alive
    /// cap).
    requests_left: usize,
    last_activity: Instant,
    /// The interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn pending_out(&self) -> bool {
        self.written < self.out.len()
    }

    /// The interest this connection wants: writable while output is
    /// pending; readable otherwise — persistent connections await the
    /// next request, streams watch for the client hanging up.
    fn wanted_interest(&self) -> Interest {
        if self.pending_out() {
            Interest::WRITABLE
        } else {
            Interest::READABLE
        }
    }

    /// Whether the connection still has work: not retired until every
    /// buffered byte is flushed and any stream has ended.
    fn live(&self) -> bool {
        self.progress.is_some() || !self.closing || self.pending_out()
    }
}

/// Serves `service` on `listener` from a new thread until the service
/// asks to stop. Connections silent for `idle_timeout` are dropped, and
/// each answers at most `conn_requests_max` requests (at least one).
///
/// # Errors
///
/// Propagates the failure to make the listener non-blocking.
pub(crate) fn spawn<S: Service + Send + 'static>(
    listener: TcpListener,
    poller: Poller,
    service: S,
    idle_timeout: Duration,
    conn_requests_max: usize,
) -> io::Result<JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let conn_requests_max = conn_requests_max.max(1);
    Ok(std::thread::spawn(move || run(listener, poller, service, idle_timeout, conn_requests_max)))
}

/// Runs the reactor until the service asks to stop.
fn run<S: Service>(
    listener: TcpListener,
    mut poller: Poller,
    mut service: S,
    idle_timeout: Duration,
    conn_requests_max: usize,
) {
    if let Err(e) = poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE) {
        // Registration failing means no connection will ever be seen;
        // surface it and bail rather than spin silently.
        eprintln!("reactor: registering the listener failed: {e}");
        return;
    }
    let mut conns: HashMap<Token, Conn> = HashMap::new();
    let mut next_token: Token = LISTENER + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut last_sweep = Instant::now();

    loop {
        if service.stop_requested() {
            break;
        }
        if poller.wait(&mut events, Some(TICK)).is_err() {
            break;
        }
        let batch = std::mem::take(&mut events);
        for event in &batch {
            if event.token == LISTENER {
                accept_ready(&listener, &poller, &mut conns, &mut next_token, conn_requests_max);
                continue;
            }
            let Some(mut conn) = conns.remove(&event.token) else { continue };
            let keep = handle_event(&mut conn, event, &mut service);
            if let Some(upstream) = conn.tunnel.take() {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                relay(conn, upstream);
            } else if keep {
                settle(&poller, event.token, &mut conn);
                conns.insert(event.token, conn);
            } else {
                retire(&poller, &conn);
            }
        }
        events = batch;
        pump_streams(&poller, &mut conns);
        if last_sweep.elapsed() >= TICK {
            last_sweep = Instant::now();
            conns.retain(|_, conn| {
                // Streams are exempt while the job is quiet but the
                // client keeps reading; a stream whose output sits
                // unaccepted past the timeout has lost its reader.
                let idle = conn.last_activity.elapsed() >= idle_timeout;
                let live =
                    if conn.progress.is_some() { !(idle && conn.pending_out()) } else { !idle };
                if !live {
                    retire(&poller, conn);
                }
                live
            });
        }
    }
    // Best-effort final drain so responses generated just before the
    // stop (e.g. the `POST /v1/shutdown` acknowledgement) reach their
    // clients, and open streams end with a clean terminating chunk.
    for conn in conns.values_mut() {
        if conn.progress.take().is_some() {
            conn.out.extend_from_slice(final_chunk());
        }
        let _ = flush(conn);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// Accepts every pending connection (level-triggered: drain until
/// `WouldBlock`).
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<Token, Conn>,
    next_token: &mut Token,
    conn_requests_max: usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                if poller.register(stream.as_raw_fd(), token, Interest::READABLE).is_err() {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        parser: RequestParser::new(bea_core::job::MAX_JOB_BODY_BYTES),
                        out: Vec::new(),
                        written: 0,
                        closing: false,
                        progress: None,
                        tunnel: None,
                        requests_left: conn_requests_max,
                        last_activity: Instant::now(),
                        interest: Interest::READABLE,
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Processes one readiness event. Returns `false` when the connection
/// is finished (or broken) and should be retired.
fn handle_event<S: Service>(conn: &mut Conn, event: &Event, service: &mut S) -> bool {
    conn.last_activity = Instant::now();
    if event.readable {
        match drain_reads(conn, service) {
            Ok(open) => {
                if !open {
                    // EOF. A streaming client that went away takes its
                    // stream with it; a plain connection still gets any
                    // already-buffered responses delivered below.
                    if conn.progress.is_some() {
                        return false;
                    }
                    conn.closing = true;
                    if !conn.pending_out() {
                        return false;
                    }
                }
            }
            Err(_) => return false,
        }
    }
    if (event.writable || conn.pending_out()) && flush(conn).is_err() {
        return false;
    }
    if event.closed {
        // Error/hang-up: deliver anything already buffered, then drop.
        let _ = flush(conn);
        return false;
    }
    conn.live()
}

/// Reads until `WouldBlock` or EOF, feeding the parser and answering
/// every complete request (unless the connection already stopped
/// answering: closing, or turned into a stream). Returns `Ok(false)`
/// on EOF.
///
/// # Errors
///
/// Transport failures; the caller retires the connection.
fn drain_reads<S: Service>(conn: &mut Conn, service: &mut S) -> io::Result<bool> {
    let mut buf = [0u8; READ_CHUNK];
    let mut open = true;
    loop {
        match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                open = false;
                break;
            }
            Ok(n) => conn.parser.feed(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    answer_parsed(conn, service);
    Ok(open)
}

/// Answers every complete buffered request in arrival order, honouring
/// keep-alive semantics: stops answering once the connection is
/// closing (a `Connection: close` request mid-pipeline leaves the rest
/// unanswered, and streams and tunnels close it).
fn answer_parsed<S: Service>(conn: &mut Conn, service: &mut S) {
    while !conn.closing {
        match conn.parser.next_request() {
            Ok(Some(request)) => respond(conn, &request, service),
            Ok(None) => break,
            Err(e) => {
                let started = Instant::now();
                let response = error_response(400, &e.to_string());
                let _ = response.write_to(&mut conn.out);
                service.record("malformed", "?", "?", 400, started.elapsed());
                conn.closing = true;
                break;
            }
        }
    }
}

/// Routes one request and buffers its response, updating the
/// connection's keep-alive state.
fn respond<S: Service>(conn: &mut Conn, request: &Request, service: &mut S) {
    let started = Instant::now();
    conn.requests_left -= 1;
    let keep_alive = request.wants_keep_alive() && conn.requests_left > 0;
    let (endpoint, routed) = service.route(request);
    let status = match routed {
        Routed::Plain(response) => {
            let _ = response.write_to_with(&mut conn.out, keep_alive);
            if !keep_alive {
                conn.closing = true;
            }
            response.status
        }
        Routed::Progress(feed) => {
            // The stream is terminal on this connection whatever the
            // request's keep-alive preference said.
            conn.out.extend_from_slice(&chunked_head(200, "application/jsonl"));
            conn.progress = Some(ProgressStream { feed, cursor: 0 });
            conn.closing = true;
            200
        }
        Routed::Tunnel(upstream) => {
            // The shard's answer decides the status; the relay sends it.
            conn.tunnel = Some(upstream);
            conn.closing = true;
            200
        }
    };
    service.record(endpoint, &request.method, &request.path, status, started.elapsed());
}

/// Advances every active progress stream: frames newly available feed
/// lines as chunks, flushes, retires connections whose stream ended
/// (or whose socket broke).
fn pump_streams(poller: &Poller, conns: &mut HashMap<Token, Conn>) {
    let mut finished: Vec<Token> = Vec::new();
    for (&token, conn) in conns.iter_mut() {
        let Some(stream) = &mut conn.progress else { continue };
        let (lines, feed_done) = stream.feed.poll(stream.cursor);
        if !lines.is_empty() {
            stream.cursor += lines.len();
            for line in &lines {
                let mut payload = line.clone().into_bytes();
                payload.push(b'\n');
                conn.out.extend_from_slice(&encode_chunk(&payload));
            }
            conn.last_activity = Instant::now();
        }
        if feed_done {
            conn.out.extend_from_slice(final_chunk());
            conn.progress = None;
        }
        if flush(conn).is_err() || !conn.live() {
            finished.push(token);
        } else {
            settle(poller, token, conn);
        }
    }
    for token in finished {
        if let Some(conn) = conns.remove(&token) {
            retire(poller, &conn);
        }
    }
}

/// Writes pending output until the socket stops accepting.
///
/// # Errors
///
/// Transport failures; the caller retires the connection.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.pending_out() {
        match (&conn.stream).write(&conn.out[conn.written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if !conn.pending_out() && conn.written > 0 {
        conn.out.clear();
        conn.written = 0;
    }
    Ok(())
}

/// Re-registers the connection's interest when it changed.
fn settle(poller: &Poller, token: Token, conn: &mut Conn) {
    let wanted = conn.wanted_interest();
    if wanted != conn.interest {
        conn.interest = wanted;
        let _ = poller.modify(conn.stream.as_raw_fd(), token, wanted);
    }
}

/// Hands a deregistered connection to a relay thread: its unflushed
/// output goes first, then the upstream bytes until either side ends.
fn relay(conn: Conn, upstream: TcpStream) {
    std::thread::spawn(move || {
        let mut client = conn.stream;
        if client.set_nonblocking(false).is_err()
            || client.set_write_timeout(Some(Duration::from_secs(30))).is_err()
            || client.write_all(&conn.out[conn.written..]).is_err()
        {
            return;
        }
        crate::router::tunnel(upstream, &mut client);
    });
}

/// Deregisters and shuts a finished connection down.
fn retire(poller: &Poller, conn: &Conn) {
    let _ = poller.deregister(conn.stream.as_raw_fd());
    let _ = conn.stream.shutdown(Shutdown::Both);
}
