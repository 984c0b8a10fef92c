//! The multi-process shard router: one front door, `N` worker servers.
//!
//! A single server process is bounded by its worker pool and its
//! allocator; the router scales the service across processes the same
//! way `Campaign` shards cells across threads. The parent process
//! (`serve_cli --shards N`) spawns `N` child servers — each with its
//! own reactor, queue and `jobs.jsonl` under a per-shard store
//! directory — and runs this router in front of them:
//!
//! ```text
//!                      ┌────────────┐
//!   clients ──────────▶│   router   │   (cell-hash / id routing)
//!                      └─┬───┬───┬──┘
//!                        │   │   │
//!              ┌─────────┘   │   └─────────┐
//!        ┌─────▼────┐  ┌─────▼────┐  ┌─────▼────┐
//!        │ shard 0  │  │ shard 1  │  │ shard 2  │   (own reactor +
//!        │ :auto    │  │ :auto    │  │ :auto    │    queue + jobs.jsonl)
//!        └──────────┘  └──────────┘  └──────────┘
//! ```
//!
//! **Submission routing is deterministic**: a job goes to shard
//! `fnv1a(cell identity) % N`, so the same cell always lands on the
//! same shard (and its store directory), no matter the submission
//! order or which jobs raced in between. **Id routing** exploits the
//! shards' strided id spaces — shard `k` issues ids `k+1, k+1+N, ...`
//! — so `(id - 1) % N` names the owning shard of any `job-<id>`
//! without a lookup table. Status polls and CSV fetches are proxied;
//! progress streams tunnel straight through; `/metrics` merges the
//! shards' Prometheus samples by summing; `/healthz` aggregates and
//! lists the shard pids. A dead shard answers `503` + `Retry-After`
//! until the supervisor respawns it (the restarted shard replays its own
//! `jobs.jsonl`, so accepted jobs survive a `kill -9`).
//!
//! The router is a [`Service`] on one reactor thread, like a shard's
//! front-end. Its hops are blocking and use one kept-alive
//! [`HttpConnection`] per shard, so a stalled shard delays every router
//! client for up to one hop deadline. Progress tunnels are the
//! exception: each gets its own upstream socket and relay thread.

use crate::client::{ClientTimeouts, HttpConnection, HttpResponse};
use crate::http::{Request, Response};
use crate::reactor::{Routed, Service};
use crate::server::{error_response, parse_job_id, stopping, Endpoint};
use bea_core::campaign::CellSpec;
use bea_core::grid::fnv1a;
use bea_core::telemetry::JsonObject;
use bea_core::AttackJob;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One shard's live endpoint, as the supervisor last reported it.
#[derive(Debug, Clone, Default)]
struct ShardSlot {
    /// `host:port` of the running shard, `None` while it is down.
    addr: Option<String>,
    /// OS pid of the shard process (exposed via `/healthz` so tooling —
    /// and the crash-isolation test — can find a shard to kill).
    pid: Option<u32>,
}

/// The mutable shard directory shared between the router's reactor
/// thread and the supervisor that (re)spawns shard processes.
#[derive(Debug, Default)]
pub struct ShardSet {
    slots: Mutex<Vec<ShardSlot>>,
}

impl ShardSet {
    /// A directory of `n` shards, all initially down.
    pub fn new(n: usize) -> Self {
        Self { slots: Mutex::new(vec![ShardSlot::default(); n.max(1)]) }
    }

    /// The shard count (fixed for the router's lifetime).
    pub fn len(&self) -> usize {
        self.slots.lock().expect("shard set lock").len()
    }

    /// `true` when the set holds no shards (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records shard `k` as up at `addr` with process id `pid`, or down
    /// when `addr` is `None`.
    pub fn set(&self, shard: usize, addr: Option<String>, pid: Option<u32>) {
        let mut slots = self.slots.lock().expect("shard set lock");
        if let Some(slot) = slots.get_mut(shard) {
            slot.addr = addr;
            slot.pid = pid;
        }
    }

    /// The address of shard `k`, when it is up.
    pub fn addr(&self, shard: usize) -> Option<String> {
        self.slots.lock().expect("shard set lock").get(shard).and_then(|s| s.addr.clone())
    }

    /// Every shard's `(addr, pid)`.
    fn snapshot(&self) -> Vec<(Option<String>, Option<u32>)> {
        self.slots.lock().expect("shard set lock").iter().map(|s| (s.addr.clone(), s.pid)).collect()
    }
}

/// The shard owning a cell: a deterministic hash of the cell identity,
/// mirroring how `Campaign` shards cells across threads. Every
/// submission of the same cell lands on the same shard regardless of
/// arrival order.
pub fn shard_for_cell(spec: &CellSpec, shards: usize) -> usize {
    let key = format!("{}|{}|{}", spec.group, spec.model_seed, spec.image_index);
    (fnv1a(key.as_bytes()) % shards.max(1) as u64) as usize
}

/// The shard owning `job-<id>` under strided id issuance (shard `k` of
/// `N` issues `k+1, k+1+N, ...`).
pub fn shard_for_id(id: u64, shards: usize) -> usize {
    ((id.saturating_sub(1)) % shards.max(1) as u64) as usize
}

/// The running router front door.
pub struct Router {
    shards: Arc<ShardSet>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor_handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router").field("addr", &self.addr).field("shards", &self.shards).finish()
    }
}

impl Router {
    /// Binds `bind_addr` and starts routing to `shards`. Client
    /// connections silent for `idle_timeout` are dropped, and each
    /// answers at most `conn_requests_max` requests.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] off Linux (the reactor needs
    /// epoll); propagates bind failures.
    pub fn start(
        bind_addr: &str,
        shards: Arc<ShardSet>,
        idle_timeout: Duration,
        conn_requests_max: usize,
    ) -> io::Result<Router> {
        let poller = bea_reactor::Poller::new()?;
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Routing {
            pool: (0..shards.len()).map(|_| None).collect(),
            shards: Arc::clone(&shards),
            stop: Arc::clone(&stop),
        };
        let reactor_handle =
            crate::reactor::spawn(listener, poller, service, idle_timeout, conn_requests_max)?;
        Ok(Router { shards, addr, stop, reactor_handle: Some(reactor_handle) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a client requested `POST /v1/shutdown`; the
    /// supervisor polls this, then shuts the shards down.
    pub fn shutdown_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the reactor thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the reactor so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.reactor_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Deadlines for one proxied hop: generous reads (a CSV of a big cell
/// takes a moment to assemble), snappy connects (the shard is local).
fn hop_timeouts() -> ClientTimeouts {
    ClientTimeouts {
        connect: Duration::from_secs(5),
        read: Duration::from_secs(120),
        write: Duration::from_secs(30),
    }
}

/// The router's side of the reactor: the shard directory plus one
/// kept-alive connection per shard, tagged with the address it reached.
struct Routing {
    shards: Arc<ShardSet>,
    pool: Vec<Option<(String, HttpConnection)>>,
    stop: Arc<AtomicBool>,
}

/// Local composition for the aggregate endpoints, a proxied hop for
/// per-job traffic.
impl Service for Routing {
    fn route(&mut self, request: &Request) -> (&'static str, Routed) {
        let (label, endpoint) = Endpoint::of(request);
        let routed = match endpoint {
            Endpoint::Healthz => self.healthz().into(),
            Endpoint::Metrics => self.merged_metrics().into(),
            Endpoint::Transfer => self.merged_transfer().into(),
            Endpoint::Submit => match request.body_text().and_then(AttackJob::from_json) {
                Ok(job) => self.proxy(request, shard_for_cell(&job.cell_spec(), self.shards.len())),
                Err(e) => error_response(400, &e),
            }
            .into(),
            Endpoint::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                for shard in 0..self.shards.len() {
                    let _ = self.hop(shard, "POST", "/v1/shutdown", None);
                }
                stopping().into()
            }
            Endpoint::Status(id) | Endpoint::Csv(id) => self.route_by_id(request, id, false),
            Endpoint::Progress(id) => self.route_by_id(request, id, true),
            Endpoint::MethodNotAllowed => error_response(405, "method not allowed").into(),
            Endpoint::NotFound => error_response(404, "no such endpoint").into(),
        };
        (label, routed)
    }

    fn record(&self, _: &'static str, _: &str, _: &str, _: u16, _: Duration) {}

    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

impl Routing {
    /// Routes a per-job request to the shard owning its id.
    fn route_by_id(&mut self, request: &Request, id_text: &str, streaming: bool) -> Routed {
        let Some(id) = parse_job_id(id_text) else {
            return error_response(404, &format!("malformed job id {id_text:?}")).into();
        };
        let shard = shard_for_id(id, self.shards.len());
        if streaming {
            match open_tunnel(request, &self.shards, shard) {
                Ok(upstream) => Routed::Tunnel(upstream),
                Err(response) => response.into(),
            }
        } else {
            self.proxy(request, shard).into()
        }
    }

    /// Sends one request to `shard` over its pooled connection; `None`
    /// when the shard is down or the hop failed.
    ///
    /// The connection is dropped when the shard's address changed (a
    /// respawn), when a response says `Connection: close`, and after any
    /// error. A transport error before any response byte (typically the
    /// shard having closed the idle connection) reconnects once and
    /// resends; a timeout does not, so a stalled shard costs one hop
    /// deadline.
    fn hop(
        &mut self,
        shard: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Option<HttpResponse> {
        let addr = self.shards.addr(shard)?;
        let slot = &mut self.pool[shard];
        for attempt in 0..2 {
            if slot.as_ref().is_some_and(|(reached, _)| *reached != addr) {
                *slot = None;
            }
            if slot.is_none() {
                *slot =
                    Some((addr.clone(), HttpConnection::connect_to(&*addr, hop_timeouts()).ok()?));
            }
            let (_, conn) = slot.as_mut().expect("connected above");
            match conn.request(method, path, body) {
                Ok(response) => {
                    if response.closes_connection() {
                        *slot = None;
                    }
                    return Some(response);
                }
                Err(e) => {
                    let resend =
                        attempt == 0 && e.kind() != io::ErrorKind::TimedOut && !conn.mid_response();
                    *slot = None;
                    if !resend {
                        break;
                    }
                }
            }
        }
        None
    }

    /// Proxies one request to `shard` and adapts the reply. Transport
    /// failure reads as the shard being down mid-restart.
    fn proxy(&mut self, request: &Request, shard: usize) -> Response {
        let body = std::str::from_utf8(&request.body).ok();
        match self.hop(shard, &request.method, &request.path, body) {
            Some(upstream) => adapt(upstream),
            None => shard_down(shard),
        }
    }

    /// Aggregated liveness: overall status (`ok` only when every shard
    /// answers), per-shard state and pids.
    fn healthz(&mut self) -> Response {
        let mut entries = Vec::new();
        let mut all_up = true;
        for (shard, (addr, pid)) in self.shards.snapshot().into_iter().enumerate() {
            let up = self.hop(shard, "GET", "/healthz", None).is_some_and(|r| r.status == 200);
            all_up &= up;
            let mut entry = JsonObject::new()
                .integer("shard", shard as u64)
                .string("status", if up { "ok" } else { "down" });
            if let Some(pid) = pid {
                entry = entry.integer("pid", u64::from(pid));
            }
            if let Some(addr) = &addr {
                entry = entry.string("addr", addr);
            }
            entries.push(entry.finish());
        }
        let body = JsonObject::new()
            .string("status", if all_up { "ok" } else { "degraded" })
            .integer("shards", self.shards.len() as u64)
            .raw("shard_status", &format!("[{}]", entries.join(",")))
            .finish();
        Response::json(200, &body)
    }

    /// The bodies of `GET path` from every shard that answers.
    fn gather(&mut self, path: &str) -> Vec<String> {
        (0..self.shards.len())
            .filter_map(|shard| self.hop(shard, "GET", path, None))
            .map(|response| response.body_text().unwrap_or("").to_string())
            .collect()
    }

    /// Merges the shards' Prometheus text: samples with the same
    /// `name{labels}` key sum; comment lines and sample order follow the
    /// first answering shard, with keys only later shards expose appended.
    fn merged_metrics(&mut self) -> Response {
        let texts = self.gather("/metrics");
        if texts.is_empty() {
            return shard_down(0);
        }
        Response::new(200)
            .with_body("text/plain; version=0.0.4", merge_prometheus(&texts).into_bytes())
    }

    /// Merges the shards' `/transfer` summaries by concatenating their
    /// matrix arrays (each shard's store holds its own cells).
    fn merged_transfer(&mut self) -> Response {
        let texts = self.gather("/transfer");
        if texts.is_empty() {
            return shard_down(0);
        }
        let mut matrices: Vec<String> = Vec::new();
        for text in &texts {
            if let Ok(parsed) = bea_core::telemetry::parse_json(text) {
                if let Some(list) = parsed.get("transfer").map(|v| v.render()) {
                    // Strip the brackets and keep the comma-joined entries.
                    let inner = list.trim().trim_start_matches('[').trim_end_matches(']').trim();
                    if !inner.is_empty() {
                        matrices.push(inner.to_string());
                    }
                }
            }
        }
        let joined = matrices.join(",");
        let count = if joined.is_empty() { 0 } else { joined.split("},{").count() as u64 };
        let body = JsonObject::new()
            .integer("matrices", count)
            .raw("transfer", &format!("[{joined}]"))
            .finish();
        Response::json(200, &body)
    }
}

/// The `503` a request aimed at a down shard receives; `Retry-After`
/// covers the supervisor's respawn latency.
fn shard_down(shard: usize) -> Response {
    error_response(503, &format!("shard {shard} is restarting, retry shortly"))
        .with_header("Retry-After", "1")
}

/// Rebuilds a proxied [`HttpResponse`] as a [`Response`] the router can
/// serialise with its own connection framing.
fn adapt(upstream: HttpResponse) -> Response {
    let content_type = upstream.header("content-type").unwrap_or("application/json").to_string();
    let retry = upstream.header("retry-after").map(str::to_string);
    let mut response = Response::new(upstream.status).with_body(&content_type, upstream.body);
    if let Some(retry) = retry {
        response = response.with_header("Retry-After", &retry);
    }
    response
}

/// Opens the upstream leg of a progress tunnel: connects to the shard,
/// forwards the request with `Connection: close`, hands the socket
/// back for raw relaying.
fn open_tunnel(
    request: &Request,
    shards: &Arc<ShardSet>,
    shard: usize,
) -> Result<TcpStream, Response> {
    let Some(addr) = shards.addr(shard) else { return Err(shard_down(shard)) };
    let mut upstream = TcpStream::connect(&addr).map_err(|_| shard_down(shard))?;
    let _ = upstream.set_write_timeout(Some(Duration::from_secs(30)));
    // One buffer, one write, so the request is not split into segments.
    let head = format!(
        "{} {} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n",
        request.method, request.path
    );
    upstream.write_all(head.as_bytes()).map_err(|_| shard_down(shard))?;
    upstream.flush().map_err(|_| shard_down(shard))?;
    Ok(upstream)
}

/// Relays bytes upstream → client until either side ends.
pub(crate) fn tunnel(mut upstream: TcpStream, client: &mut TcpStream) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match upstream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if client.write_all(&buf[..n]).is_err() || client.flush().is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// The text-merge behind `GET /metrics`, separable for tests.
pub fn merge_prometheus(texts: &[String]) -> String {
    let mut totals: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut order: Vec<String> = Vec::new();
    // Comment lines (# HELP / # TYPE) keyed by the sample line that
    // follows them in the first text carrying it.
    let mut out = String::new();
    for text in texts {
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            let key = key.to_string();
            if !totals.contains_key(&key) {
                order.push(key.clone());
            }
            *totals.entry(key).or_insert(0.0) += value;
        }
    }
    // Emit in first-seen order, re-attaching the first text's comments
    // before the first sample that shares their metric name.
    let mut emitted_comments: std::collections::HashSet<String> = std::collections::HashSet::new();
    for key in &order {
        let name = key.split('{').next().unwrap_or(key).to_string();
        if emitted_comments.insert(name.clone()) {
            for line in texts[0].lines().filter(|l| l.starts_with('#')) {
                if line.split_whitespace().nth(2) == Some(name.as_str()) {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        let value = totals[key];
        if (value.fract()).abs() < f64::EPSILON {
            out.push_str(&format!("{key} {}\n", value as i64));
        } else {
            out.push_str(&format!("{key} {value}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_routing_is_deterministic_and_spread() {
        let specs: Vec<CellSpec> =
            (0..16u64).map(|i| CellSpec::new("yolo", 1 + (i % 4), (i % 8) as usize)).collect();
        let first: Vec<usize> = specs.iter().map(|s| shard_for_cell(s, 4)).collect();
        let second: Vec<usize> = specs.iter().map(|s| shard_for_cell(s, 4)).collect();
        assert_eq!(first, second, "routing must be a pure function of cell identity");
        assert!(first.iter().all(|&s| s < 4));
        let distinct: std::collections::HashSet<usize> = first.iter().copied().collect();
        assert!(distinct.len() > 1, "16 cells should not all land on one shard: {first:?}");
        assert!(specs.iter().all(|s| shard_for_cell(s, 1) == 0));
    }

    #[test]
    fn id_routing_matches_strided_issuance() {
        // Shard k of 4 issues k+1, k+5, k+9, ...
        for shard in 0..4u64 {
            for step in 0..8u64 {
                let id = shard + 1 + step * 4;
                assert_eq!(shard_for_id(id, 4), shard as usize, "id {id}");
            }
        }
        assert_eq!(shard_for_id(7, 1), 0);
    }

    #[test]
    fn prometheus_merge_sums_samples_and_keeps_structure() {
        let a = "# HELP jobs_total Jobs.\n# TYPE jobs_total counter\njobs_total 3\nqueue_depth 1\n"
            .to_string();
        let b = "# HELP jobs_total Jobs.\n# TYPE jobs_total counter\njobs_total 4\nqueue_depth 2\nonly_b 9\n"
            .to_string();
        let merged = merge_prometheus(&[a, b]);
        assert!(merged.contains("jobs_total 7\n"), "{merged}");
        assert!(merged.contains("queue_depth 3\n"), "{merged}");
        assert!(merged.contains("only_b 9\n"), "{merged}");
        assert!(merged.contains("# HELP jobs_total Jobs.\n"), "{merged}");
        let first_sample = merged.lines().position(|l| l == "jobs_total 7").unwrap();
        let comment = merged.lines().position(|l| l.starts_with("# HELP jobs_total")).unwrap();
        assert!(comment < first_sample, "comments precede their samples:\n{merged}");
    }

    #[test]
    fn shard_set_tracks_liveness() {
        let set = ShardSet::new(2);
        assert_eq!(set.len(), 2);
        assert!(set.addr(0).is_none());
        set.set(0, Some("127.0.0.1:1".to_string()), Some(42));
        assert_eq!(set.addr(0).as_deref(), Some("127.0.0.1:1"));
        set.set(0, None, None);
        assert!(set.addr(0).is_none(), "a dead shard loses its address");
        assert!(!set.is_empty());
    }
}
