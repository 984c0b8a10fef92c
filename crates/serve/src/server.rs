//! The attack server: routing, bounded job queue, worker pool,
//! persistence and graceful shutdown. Connections are served by the
//! [`reactor`](crate::reactor).
//!
//! Three contracts hold everything together:
//!
//! 1. **Determinism.** A worker runs each job as a one-cell
//!    [`Campaign`] with `jobs: 1`, so the persisted cell CSV is
//!    byte-identical to a direct campaign run of the same cell with the
//!    same base seed and GA budget (the seed derives from the cell
//!    identity via `derive_cell_seed`, never from arrival order).
//! 2. **No accepted job is lost.** `POST /v1/attacks` registers the job
//!    and appends it to `jobs.jsonl` *before* answering `202`; a full
//!    queue answers `429` without logging anything. On restart the log
//!    replays: jobs whose cell CSV exists report `done`, the rest
//!    re-enqueue.
//! 3. **Backpressure, not buffering.** The queue is bounded; admission
//!    control is explicit (`429` + `Retry-After`) instead of unbounded
//!    memory growth.

use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::progress::ProgressFeed;
use crate::reactor::{Routed, Service};
use crate::tenant::{TenantGovernor, TenantPolicy};
use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore};
use bea_core::telemetry::{self, JsonObject};
use bea_core::transfer::read_matrix_csv;
use bea_core::{AttackJob, FairQueue, JobStatus, PushError};
use bea_detect::{CacheStats, Detector, ModelZoo};
use bea_scene::SyntheticKitti;
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Server configuration.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bound of the job queue; submissions beyond it get `429`.
    pub queue_capacity: usize,
    /// Directory of the [`CampaignStore`] results persist into (also
    /// holds `jobs.jsonl` and `requests.jsonl`).
    pub store_dir: PathBuf,
    /// The dataset `image_index` submissions resolve against.
    pub dataset: SyntheticKitti,
    /// How long [`Server::shutdown`] waits for in-flight jobs.
    pub drain_deadline: Duration,
    /// Append one JSONL record per request to `requests.jsonl`.
    pub request_log: bool,
    /// Kernel worker threads each job runs with (`0` = all cores). The
    /// server overrides every job's `AttackConfig::threads` with this
    /// value so the submitted JSON cannot change the host's thread
    /// policy. Defaults to 1: the worker pool already runs jobs in
    /// parallel, and results are identical at any thread count.
    pub kernel_threads: usize,
    /// Per-tenant admission policy (rate limit and in-system quota).
    pub tenant_policy: TenantPolicy,
    /// How many `done` records the startup compaction of `jobs.jsonl`
    /// retains (newest first); pending records are always kept.
    pub done_retention: usize,
    /// Connections silent for this long are dropped.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (keep-alive bound; the final response advertises
    /// `Connection: close`). `0` means one request per connection.
    pub conn_requests_max: usize,
    /// First job id this server issues (`job-<id_start>` and up).
    pub id_start: u64,
    /// Increment between issued job ids. A shard router gives shard `k`
    /// of `N` `id_start: k + 1, id_stride: N`, so ids are globally
    /// unique and `(id - 1) % N` recovers the owning shard.
    pub id_stride: u64,
}

impl ServerConfig {
    /// A loopback configuration persisting into `store_dir`, with the
    /// full evaluation dataset, 2 workers and a 64-job queue.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            store_dir: store_dir.into(),
            dataset: SyntheticKitti::evaluation_set(),
            drain_deadline: Duration::from_secs(60),
            request_log: true,
            kernel_threads: 1,
            tenant_policy: TenantPolicy::default(),
            done_retention: 64,
            idle_timeout: Duration::from_secs(30),
            conn_requests_max: 1000,
            id_start: 1,
            id_stride: 1,
        }
    }
}

/// What [`Server::shutdown`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// In-flight jobs that finished during the drain window.
    pub drained: usize,
    /// Queued jobs that never started; they stay in `jobs.jsonl` and
    /// re-enqueue on the next start.
    pub requeued: usize,
    /// `true` when the drain deadline expired with jobs still running.
    pub deadline_expired: bool,
}

/// One queued unit of work.
#[derive(Debug, Clone)]
struct QueuedJob {
    id: u64,
    job: AttackJob,
}

/// Registry entry of a submitted job.
#[derive(Debug, Clone)]
struct JobEntry {
    job: AttackJob,
    status: JobStatus,
    /// Per-generation progress stream of this job (replayable).
    progress: Arc<ProgressFeed>,
}

/// State shared between the reactor and the workers.
struct Shared {
    queue: FairQueue<QueuedJob>,
    governor: TenantGovernor,
    registry: Mutex<BTreeMap<u64, JobEntry>>,
    next_id: AtomicU64,
    accepting: AtomicBool,
    stop_requested: AtomicBool,
    in_flight: Mutex<usize>,
    idle: Condvar,
    metrics: Metrics,
    cache_totals: Mutex<CacheStats>,
    store: CampaignStore,
    zoo: ModelZoo,
    dataset: SyntheticKitti,
    job_log: Mutex<()>,
    job_log_path: PathBuf,
    request_log_path: Option<PathBuf>,
    request_log: Mutex<()>,
    kernel_threads: usize,
    id_stride: u64,
}

impl Shared {
    fn append_line(&self, path: &PathBuf, line: &str) -> io::Result<()> {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        // One write: a crash cannot leave the record without its newline.
        file.write_all(format!("{line}\n").as_bytes())
    }

    /// Appends one accepted job to the job log (the restart-survival
    /// record).
    fn log_job(&self, id: u64, job: &AttackJob) -> io::Result<()> {
        let line = JsonObject::new()
            .string("type", "job")
            .integer("id", id)
            .raw("job", &job.to_json())
            .finish();
        let _guard = self.job_log.lock().expect("job log lock");
        self.append_line(&self.job_log_path, &line)
    }

    /// Appends one request record to `requests.jsonl`.
    fn log_request(&self, method: &str, path: &str, status: u16, elapsed: Duration) {
        let Some(log_path) = &self.request_log_path else { return };
        let unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let line = JsonObject::new()
            .string("type", "request")
            .integer("unix_ms", unix_ms)
            .string("method", method)
            .string("path", path)
            .integer("status", u64::from(status))
            .float("duration_s", elapsed.as_secs_f64())
            .finish();
        let _guard = self.request_log.lock().expect("request log lock");
        let _ = self.append_line(log_path, &line);
    }

    fn set_status(&self, id: u64, status: JobStatus) {
        if let Some(entry) = self.registry.lock().expect("registry lock").get_mut(&id) {
            entry.status = status;
        }
    }

    /// Marks a popped job running and returns its progress feed; `None`
    /// when the job has no registry entry, because its submission failed
    /// after the push (the job log append) and was answered `500`.
    fn begin(&self, id: u64) -> Option<Arc<ProgressFeed>> {
        let mut registry = self.registry.lock().expect("registry lock");
        let entry = registry.get_mut(&id)?;
        entry.status = JobStatus::Running;
        Some(Arc::clone(&entry.progress))
    }
}

impl Service for Arc<Shared> {
    fn route(&mut self, request: &Request) -> (&'static str, Routed) {
        let (label, endpoint) = Endpoint::of(request);
        let routed = match endpoint {
            Endpoint::Healthz => healthz(self).into(),
            Endpoint::Metrics => metrics(self).into(),
            Endpoint::Transfer => transfer_summary(self).into(),
            Endpoint::Submit => submit(request, self).into(),
            Endpoint::Shutdown => {
                self.accepting.store(false, Ordering::SeqCst);
                self.stop_requested.store(true, Ordering::SeqCst);
                stopping().into()
            }
            Endpoint::Status(id) => job_status(id, self).into(),
            Endpoint::Csv(id) => job_csv(id, self).into(),
            Endpoint::Progress(id) => job_progress(id, self),
            Endpoint::MethodNotAllowed => error_response(405, "method not allowed").into(),
            Endpoint::NotFound => error_response(404, "no such endpoint").into(),
        };
        (label, routed)
    }

    fn record(
        &self,
        endpoint: &'static str,
        method: &str,
        path: &str,
        status: u16,
        elapsed: Duration,
    ) {
        self.metrics.record_request(endpoint, status, elapsed);
        self.log_request(method, path, status, elapsed);
    }

    fn stop_requested(&self) -> bool {
        self.stop_requested.load(Ordering::SeqCst)
    }
}

/// The running server. Dropping it without calling [`Server::shutdown`]
/// leaves worker threads detached; call shutdown for an orderly stop.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    drain_deadline: Duration,
    reactor_handle: Option<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.worker_handles.len())
            .finish()
    }
}

impl Server {
    /// Binds, recovers persisted jobs and starts accepting.
    ///
    /// Recovery replays `jobs.jsonl`: a job whose cell CSV already
    /// exists in the store reports `done`; every other logged job —
    /// including jobs that were mid-flight when the previous process
    /// died — re-enqueues and runs again (re-running a deterministic
    /// job is idempotent).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] off Linux (the reactor needs
    /// epoll); propagates bind and store I/O failures, and reports a
    /// corrupt job log as [`io::ErrorKind::InvalidData`].
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let poller = bea_reactor::Poller::new()?;
        let store = CampaignStore::open(&config.store_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: FairQueue::new(config.queue_capacity),
            governor: TenantGovernor::new(config.tenant_policy),
            registry: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(config.id_start.max(1)),
            accepting: AtomicBool::new(true),
            stop_requested: AtomicBool::new(false),
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
            metrics: Metrics::default(),
            cache_totals: Mutex::new(CacheStats::default()),
            job_log_path: config.store_dir.join("jobs.jsonl"),
            request_log_path: config.request_log.then(|| config.store_dir.join("requests.jsonl")),
            store,
            zoo: ModelZoo::with_defaults(),
            dataset: config.dataset,
            job_log: Mutex::new(()),
            request_log: Mutex::new(()),
            kernel_threads: config.kernel_threads,
            id_stride: config.id_stride.max(1),
        });

        // Workers start before recovery so replayed jobs beyond the
        // queue bound can drain while the rest push.
        let worker_handles: Vec<_> = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        recover_jobs(&shared, config.done_retention)?;

        let reactor_handle = crate::reactor::spawn(
            listener,
            poller,
            Arc::clone(&shared),
            config.idle_timeout,
            config.conn_requests_max,
        )?;
        Ok(Server {
            shared,
            addr,
            drain_deadline: config.drain_deadline,
            reactor_handle: Some(reactor_handle),
            worker_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store results persist into.
    pub fn store(&self) -> &CampaignStore {
        &self.shared.store
    }

    /// `true` once a client requested `POST /v1/shutdown`; the embedding
    /// process polls this and calls [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.stop_requested.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains in-flight jobs until the configured
    /// deadline, recovers the unstarted queue (it stays persisted in
    /// `jobs.jsonl` for the next start) and joins the threads.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.stop_requested.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Wake the reactor so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);

        let started = Instant::now();
        let busy_at_close = *self.shared.in_flight.lock().expect("in-flight lock");
        let mut in_flight = self.shared.in_flight.lock().expect("in-flight lock");
        while *in_flight > 0 && started.elapsed() < self.drain_deadline {
            let remaining = self.drain_deadline.saturating_sub(started.elapsed());
            let (guard, _) =
                self.shared.idle.wait_timeout(in_flight, remaining).expect("in-flight lock");
            in_flight = guard;
        }
        let still_running = *in_flight;
        drop(in_flight);

        if let Some(handle) = self.reactor_handle.take() {
            let _ = handle.join();
        }
        if still_running == 0 {
            // Joining also covers the instant between a worker popping a
            // job and it registering as in-flight: the worker finishes
            // (and persists) that job before the join returns.
            for handle in self.worker_handles.drain(..) {
                let _ = handle.join();
            }
        }
        // Workers past the deadline stay detached; the job log replays
        // their jobs on the next start. Draining after the joins means a
        // popped job is never double-counted as requeued.
        let requeued = self.shared.queue.drain_remaining();
        ShutdownReport {
            drained: busy_at_close.saturating_sub(still_running),
            requeued: requeued.len(),
            deadline_expired: still_running > 0,
        }
    }
}

/// Replays `jobs.jsonl` into the registry and queue, compacting the
/// log on the way.
///
/// Without compaction the append-only log grows by one record per
/// accepted job forever. On startup, records whose cells are already
/// persisted (the job is `done`) are dropped from the log — except the
/// newest `done_retention`, which are kept so recently finished jobs
/// still report `done` after a restart. Pending records are always
/// kept; replay behaviour for them is unchanged.
///
/// A final line without its newline that does not decode is the torn
/// append of a crash: it is dropped with a warning and the file is cut
/// back to the last complete line, so the next append starts a fresh
/// line. Any other undecodable line refuses the whole log.
fn recover_jobs(shared: &Arc<Shared>, done_retention: usize) -> io::Result<()> {
    let bytes = match std::fs::read(&shared.job_log_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
    let text = std::str::from_utf8(&bytes[..complete])
        .map_err(|e| invalid_data(format!("corrupt job log: {e}")))?;
    let mut decoded = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(decode_job_record)
        .collect::<io::Result<Vec<_>>>()?;
    match std::str::from_utf8(&bytes[complete..]).map(decode_job_record) {
        Ok(Ok(record)) => {
            // A whole record that only lost its newline: terminate it.
            shared.append_line(&shared.job_log_path, "")?;
            decoded.push(record);
        }
        _ if bytes[complete..].iter().all(u8::is_ascii_whitespace) => {}
        _ => {
            eprintln!(
                "warning: dropping the torn final record of {} ({} bytes)",
                shared.job_log_path.display(),
                bytes.len() - complete
            );
            std::fs::OpenOptions::new()
                .write(true)
                .open(&shared.job_log_path)?
                .set_len(complete as u64)?;
        }
    }
    let max_id = decoded.iter().map(|(id, _)| *id).max().unwrap_or(0);
    let records: Vec<(u64, AttackJob, bool)> = decoded
        .into_iter()
        .map(|(id, job)| {
            let done = shared.store.cell_path(&job.cell_spec()).exists();
            (id, job, done)
        })
        .collect();
    compact_job_log(shared, &records, done_retention)?;

    for (id, job, done) in records {
        let status = if done { JobStatus::Done } else { JobStatus::Queued };
        let progress = Arc::new(ProgressFeed::new());
        if done {
            // The generations ran in a previous process; the stream
            // replays straight to its terminal record.
            progress.finish(Some(progress_end_line(&JobStatus::Done)));
        }
        shared
            .registry
            .lock()
            .expect("registry lock")
            .insert(id, JobEntry { job: job.clone(), status, progress });
        if !done {
            // Recovered jobs re-occupy their tenant's quota (they were
            // rate-limited at original admission, so no token is spent)
            // and then block until the running workers make room;
            // recovery re-admits everything the previous process
            // accepted.
            shared.governor.occupy(&job.tenant);
            let tenant = job.tenant.clone();
            let mut item = QueuedJob { id, job };
            loop {
                match shared.queue.try_push(&tenant, item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(PushError::Closed(_)) => return Ok(()),
                }
            }
        }
    }
    // Advance past every replayed id by one stride: replayed ids share
    // this shard's congruence class, so the next issued id stays in it.
    let next = shared.next_id.load(Ordering::SeqCst).max(max_id + shared.id_stride);
    shared.next_id.store(next, Ordering::SeqCst);
    Ok(())
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Decodes one `jobs.jsonl` record into its id and job.
fn decode_job_record(line: &str) -> io::Result<(u64, AttackJob)> {
    let record = bea_core::telemetry::parse_json(line)
        .map_err(|e| invalid_data(format!("corrupt job log line: {e}")))?;
    let id = record
        .get("id")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| invalid_data("job log record missing id".to_string()))?;
    let job_field =
        record.get("job").ok_or_else(|| invalid_data("job log record missing job".to_string()))?;
    let job = AttackJob::from_json(&job_field.render())
        .map_err(|e| invalid_data(format!("corrupt logged job {id}: {e}")))?;
    Ok((id, job))
}

/// The terminal record closing a progress stream.
fn progress_end_line(status: &JobStatus) -> String {
    let body = JsonObject::new().string("type", "progress_end").string("status", status.name());
    match status {
        JobStatus::Failed(message) => body.string("error", message).finish(),
        _ => body.finish(),
    }
}

/// Rewrites `jobs.jsonl` keeping every pending record plus the newest
/// `done_retention` done records, preserving record order. A no-op
/// when nothing would be dropped. The rewrite goes through a temp file
/// and rename so a crash mid-compaction leaves the old log intact.
fn compact_job_log(
    shared: &Arc<Shared>,
    records: &[(u64, AttackJob, bool)],
    done_retention: usize,
) -> io::Result<()> {
    let done_total = records.iter().filter(|(_, _, done)| *done).count();
    if done_total <= done_retention {
        return Ok(());
    }
    let mut drop_budget = done_total - done_retention;
    let mut kept = String::new();
    for (id, job, done) in records {
        // Records drop oldest-first: the budget consumes leading done
        // records, keeping the `done_retention` newest.
        if *done && drop_budget > 0 {
            drop_budget -= 1;
            continue;
        }
        let line = JsonObject::new()
            .string("type", "job")
            .integer("id", *id)
            .raw("job", &job.to_json())
            .finish();
        kept.push_str(&line);
        kept.push('\n');
    }
    let tmp_path = shared.job_log_path.with_extension("jsonl.tmp");
    let _guard = shared.job_log.lock().expect("job log lock");
    std::fs::write(&tmp_path, kept)?;
    std::fs::rename(&tmp_path, &shared.job_log_path)
}

/// A JSON error body.
pub(crate) fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, &JsonObject::new().string("error", message).finish())
}

/// The answer to `POST /v1/shutdown`.
pub(crate) fn stopping() -> Response {
    Response::json(200, &JsonObject::new().string("status", "stopping").finish())
}

/// The endpoint a request addresses. The server and the router serve
/// the same route table; each resolves an endpoint its own way.
pub(crate) enum Endpoint<'a> {
    Healthz,
    Metrics,
    Transfer,
    Submit,
    Shutdown,
    /// `GET /v1/attacks/{id}`, with the id text.
    Status(&'a str),
    /// `GET /v1/attacks/{id}/csv`.
    Csv(&'a str),
    /// `GET /v1/attacks/{id}/progress`, or its `/jobs/{id}/progress`
    /// alias.
    Progress(&'a str),
    MethodNotAllowed,
    NotFound,
}

impl<'a> Endpoint<'a> {
    /// Resolves a request, with the endpoint's metrics label.
    pub(crate) fn of(request: &'a Request) -> (&'static str, Endpoint<'a>) {
        let path = request.path.split('?').next().unwrap_or("");
        if request.method == "GET" {
            if let Some(rest) = path.strip_prefix("/v1/attacks/") {
                return if let Some(id) = rest.strip_suffix("/csv") {
                    ("GET /v1/attacks/{id}/csv", Endpoint::Csv(id))
                } else if let Some(id) = rest.strip_suffix("/progress") {
                    ("GET /v1/attacks/{id}/progress", Endpoint::Progress(id))
                } else {
                    ("GET /v1/attacks/{id}", Endpoint::Status(rest))
                };
            }
            let alias = path.strip_prefix("/jobs/").and_then(|rest| rest.strip_suffix("/progress"));
            if let Some(id) = alias {
                return ("GET /jobs/{id}/progress", Endpoint::Progress(id));
            }
        }
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => ("GET /healthz", Endpoint::Healthz),
            ("GET", "/metrics") => ("GET /metrics", Endpoint::Metrics),
            ("GET", "/transfer") => ("GET /transfer", Endpoint::Transfer),
            ("POST", "/v1/attacks") => ("POST /v1/attacks", Endpoint::Submit),
            ("POST", "/v1/shutdown") => ("POST /v1/shutdown", Endpoint::Shutdown),
            (_, "/healthz" | "/metrics" | "/transfer" | "/v1/attacks" | "/v1/shutdown") => {
                ("method-not-allowed", Endpoint::MethodNotAllowed)
            }
            _ => ("not-found", Endpoint::NotFound),
        }
    }
}

/// Resolves a progress stream: the job's feed when it exists, a `404`
/// otherwise. Queued jobs stream too — the feed simply stays silent
/// until the job starts producing generations.
fn job_progress(id_text: &str, shared: &Shared) -> Routed {
    let Some(id) = parse_job_id(id_text) else {
        return error_response(404, &format!("malformed job id {id_text:?}")).into();
    };
    let feed =
        shared.registry.lock().expect("registry lock").get(&id).map(|e| Arc::clone(&e.progress));
    match feed {
        Some(feed) => Routed::Progress(feed),
        None => error_response(404, &format!("unknown job job-{id}")).into(),
    }
}

fn healthz(shared: &Shared) -> Response {
    let body = JsonObject::new()
        .string("status", "ok")
        .boolean("accepting", shared.accepting.load(Ordering::SeqCst))
        .integer("queue_depth", shared.queue.len() as u64)
        .integer("in_flight", *shared.in_flight.lock().expect("in-flight lock") as u64)
        .finish();
    Response::json(200, &body)
}

fn metrics(shared: &Shared) -> Response {
    let cache = *shared.cache_totals.lock().expect("cache totals lock");
    let text = shared.metrics.render(
        shared.queue.len(),
        shared.queue.capacity(),
        *shared.in_flight.lock().expect("in-flight lock"),
        &cache,
    );
    Response::new(200).with_body("text/plain; version=0.0.4", text.into_bytes())
}

/// Summarises every transfer matrix living under the campaign store
/// (`<store>/transfer` and its immediate subdirectories): per-matrix
/// cell counts and per-target-group mean transferred degradation over
/// the off-diagonal cells.
fn transfer_summary(shared: &Shared) -> Response {
    let base = shared.store.root().join("transfer");
    let mut candidates: Vec<(String, PathBuf)> = vec![("transfer".to_string(), base.clone())];
    if let Ok(entries) = std::fs::read_dir(&base) {
        let mut children: Vec<PathBuf> =
            entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
        children.sort();
        for child in children {
            let name = child.file_name().map(|n| n.to_string_lossy().into_owned());
            if let Some(name) = name {
                candidates.push((format!("transfer/{name}"), child));
            }
        }
    }
    let mut rendered = Vec::new();
    for (name, dir) in candidates {
        let file = match std::fs::File::open(dir.join("matrix.csv")) {
            Ok(file) => file,
            Err(_) => continue, // not a finished matrix directory
        };
        let rows = match read_matrix_csv(BufReader::new(file)) {
            Ok(rows) => rows,
            Err(e) => {
                return error_response(
                    500,
                    &format!("corrupt transfer matrix {}: {e}", dir.join("matrix.csv").display()),
                )
            }
        };
        let mut by_group: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for row in &rows {
            if row.spec.is_diagonal() {
                continue;
            }
            let slot = by_group.entry(&row.spec.target_group).or_insert((0, 0.0));
            slot.0 += 1;
            slot.1 += row.metrics.degradation;
        }
        let targets: Vec<String> = by_group
            .iter()
            .map(|(group, (count, sum))| {
                format!(
                    "{{\"group\":\"{}\",\"off_diagonal_cells\":{count},\"mean_degradation\":{}}}",
                    telemetry::escape(group),
                    telemetry::number(sum / (*count).max(1) as f64),
                )
            })
            .collect();
        rendered.push(
            JsonObject::new()
                .string("name", &name)
                .integer("cells", rows.len() as u64)
                .raw("targets", &format!("[{}]", targets.join(",")))
                .finish(),
        );
    }
    let body = JsonObject::new()
        .integer("matrices", rendered.len() as u64)
        .raw("transfer", &format!("[{}]", rendered.join(",")))
        .finish();
    Response::json(200, &body)
}

fn submit(request: &Request, shared: &Shared) -> Response {
    if !shared.accepting.load(Ordering::SeqCst) {
        return error_response(503, "server is shutting down");
    }
    let body = match request.body_text() {
        Ok(body) => body,
        Err(e) => return error_response(400, &e),
    };
    let job = match AttackJob::from_json(body) {
        Ok(job) => job,
        Err(e) => return error_response(400, &e),
    };
    // Reject images that cannot materialise at admission time, not at
    // run time — the submitter is still around to hear about it.
    if let Err(e) = job.materialize_image(&shared.dataset) {
        return error_response(400, &e);
    }
    // Tenant admission (rate limit, then quota) runs before the queue:
    // a rate-limited tenant is refused even when the queue has room.
    if let Err(refusal) = shared.governor.try_admit(&job.tenant, Instant::now()) {
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        return error_response(429, &refusal.message())
            .with_header("Retry-After", &refusal.retry_after_secs().to_string());
    }
    let id = shared.next_id.fetch_add(shared.id_stride, Ordering::SeqCst);
    // The registry lock spans push, log and registration: a worker that
    // pops the job at once waits in `begin` until the job is either
    // registered or, when the log append fails, known never to be.
    let mut registry = shared.registry.lock().expect("registry lock");
    match shared.queue.try_push(&job.tenant, QueuedJob { id, job: job.clone() }) {
        Ok(()) => {
            // Log after a successful push so rejected jobs never replay.
            if let Err(e) = shared.log_job(id, &job) {
                shared.governor.release(&job.tenant);
                return error_response(500, &format!("job log write failed: {e}"));
            }
            let progress = Arc::new(ProgressFeed::new());
            registry.insert(id, JobEntry { job, status: JobStatus::Queued, progress });
            shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
            let body = JsonObject::new()
                .string("id", &format!("job-{id}"))
                .string("status", "queued")
                .string("result", &format!("/v1/attacks/job-{id}"))
                .finish();
            Response::json(202, &body)
        }
        Err(PushError::Full(_)) => {
            shared.governor.release(&job.tenant);
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            error_response(429, "queue full, retry later").with_header("Retry-After", "1")
        }
        Err(PushError::Closed(_)) => {
            shared.governor.release(&job.tenant);
            error_response(503, "server is shutting down")
        }
    }
}

/// Parses `job-N` into `N`.
pub(crate) fn parse_job_id(text: &str) -> Option<u64> {
    text.strip_prefix("job-")?.parse().ok()
}

fn job_status(id_text: &str, shared: &Shared) -> Response {
    let Some(id) = parse_job_id(id_text) else {
        return error_response(404, &format!("malformed job id {id_text:?}"));
    };
    let entry = shared.registry.lock().expect("registry lock").get(&id).cloned();
    let Some(entry) = entry else {
        return error_response(404, &format!("unknown job job-{id}"));
    };
    let mut body =
        JsonObject::new().string("id", &format!("job-{id}")).string("status", entry.status.name());
    body = match &entry.status {
        JobStatus::Failed(message) => body.string("error", message),
        JobStatus::Done => body.string("csv", &format!("/v1/attacks/job-{id}/csv")),
        _ => body,
    };
    Response::json(200, &body.raw("job", &entry.job.to_json()).finish())
}

fn job_csv(id_text: &str, shared: &Shared) -> Response {
    let Some(id) = parse_job_id(id_text) else {
        return error_response(404, &format!("malformed job id {id_text:?}"));
    };
    let entry = shared.registry.lock().expect("registry lock").get(&id).cloned();
    let Some(entry) = entry else {
        return error_response(404, &format!("unknown job job-{id}"));
    };
    if entry.status != JobStatus::Done {
        return error_response(
            409,
            &format!("job-{id} is {}, results exist once it is done", entry.status.name()),
        );
    }
    match std::fs::read(shared.store.cell_path(&entry.job.cell_spec())) {
        Ok(bytes) => Response::new(200).with_body("text/csv", bytes),
        Err(e) => error_response(500, &format!("stored cell unreadable: {e}")),
    }
}

/// One worker: pop a job, run it with panics contained (a panicking
/// attack fails its own job), persist, account.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(queued) = shared.queue.pop() {
        // An unregistered job was answered 500 and its tenant released
        // by `submit`: it leaves the queue without running.
        let Some(feed) = shared.begin(queued.id) else { continue };
        *shared.in_flight.lock().expect("in-flight lock") += 1;
        let job = &queued.job;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let zoo = shared.zoo.clone().with_kernel_policy(job.kernel_policy);
            let detector = if job.use_cache {
                zoo.cached_model(job.arch, job.model_seed)
            } else {
                zoo.model(job.arch, job.model_seed)
            };
            run_job(shared, job, detector, &feed)
        }))
        .unwrap_or_else(|panic| Err(panic_message(panic)));
        finish_job(shared, &queued, &feed, outcome);
        *shared.in_flight.lock().expect("in-flight lock") -= 1;
        shared.idle.notify_all();
    }
}

/// Renders a caught panic payload into a failure message.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "attack panicked".to_string());
    format!("panic: {message}")
}

/// Books one finished job: cache counters, metrics, status, tenant
/// release, terminal progress record.
fn finish_job(
    shared: &Shared,
    queued: &QueuedJob,
    feed: &ProgressFeed,
    outcome: Result<Option<CacheStats>, String>,
) {
    let status = match outcome {
        Ok(cache) => {
            if let Some(cache) = cache {
                shared.cache_totals.lock().expect("cache totals lock").merge(&cache);
            }
            shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
            JobStatus::Done
        }
        Err(message) => {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            JobStatus::Failed(message)
        }
    };
    feed.finish(Some(progress_end_line(&status)));
    shared.set_status(queued.id, status);
    shared.governor.release(&queued.job.tenant);
}

/// Runs one job as a single-cell campaign on `detector` and persists its
/// rows.
///
/// The campaign runs in memory (`jobs: 1`, telemetry off) and the cell
/// is saved through the same [`CampaignStore::save_cell`] writer a
/// direct campaign uses — that is what makes the served CSV
/// byte-identical to a batch run of the same cell.
///
/// Per-generation telemetry records stream into `feed` as the GA runs;
/// observation never touches campaign state, so the persisted rows are
/// unaffected.
fn run_job(
    shared: &Shared,
    job: &AttackJob,
    detector: Box<dyn Detector>,
    feed: &ProgressFeed,
) -> Result<Option<CacheStats>, String> {
    let image = job.materialize_image(&shared.dataset)?;
    let spec = job.cell_spec();
    // The thread knob is the server operator's, never the submitter's:
    // override whatever the job's config defaulted to. Thread count is a
    // pure speed knob, so the persisted CSV stays byte-identical.
    let mut attack = job.attack_config();
    attack.threads = shared.kernel_threads;
    let campaign = Campaign::new(CampaignConfig {
        attack,
        base_seed: job.base_seed,
        jobs: 1,
        telemetry: false,
    });
    // `detector_for` is `Fn` but this campaign visits exactly one cell,
    // so the detector is moved out of a slot on first (only) call.
    let slot = Mutex::new(Some(detector));
    let result = campaign.run_observed(
        std::slice::from_ref(&spec),
        |_cell| {
            slot.lock()
                .expect("detector slot lock")
                .take()
                .expect("single-cell campaign requested a second detector")
        },
        |_cell| image.clone(),
        &|_cell, line| feed.push(line.to_string()),
    );
    let cell = &result.cells[0];
    shared
        .store
        .save_cell(&spec, &cell.rows)
        .map_err(|e| format!("persisting cell failed: {e}"))?;
    Ok(cell.outcome.as_ref().and_then(|o| o.cache_stats()))
}
