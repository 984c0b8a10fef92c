//! The open-loop `serve-sharded` workload: the attack server is a black
//! box (`serve_cli --reactor --shards 2`), timed over HTTP from a seeded
//! arrival schedule at two fixed rates, with `/healthz` and `/metrics`
//! scraped for the server-side layers.

use crate::cells::{
    arch_of, campaign_layers, eval_threads, zoo_detector, CellClock, Probe, Replay,
};
use crate::grid::{cache_layers, Rng};
use crate::report::{
    harrell_davis, latency, mean, median, peak_rss_mb, percentile, Metric, Outcome,
};
use crate::trace::{allocations, Recorder};
use crate::Args;
use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore};
use bea_core::job::{AttackJob, ImageSpec};
use bea_core::telemetry::{parse_json, JsonValue};
use bea_detect::{Architecture, ModelZoo};
use bea_scene::SyntheticKitti;
use bea_serve::client::{ClientTimeouts, HttpConnection, HttpResponse};
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Arrival rate of the `low` phase, jobs per second: about 40% of the
/// capacity of `serve_cli --reactor --shards 2 --workers 1` for the job
/// mix of [`schedule`], measured at 3.0 jobs/s on a 2-core host by
/// submitting 40 such jobs at once and timing the last one's `done`.
pub const RATE_LOW: f64 = 1.2;
/// Arrival rate of the `high` phase: about 80% of that capacity.
pub const RATE_HIGH: f64 = 2.4;
/// Latency limit on scheduled send→done for goodput, in milliseconds.
pub const LIMIT_MS: f64 = 5000.0;
/// Shards × workers per shard: no more than the host's cores.
const SHARDS: usize = 2;
const WORKERS: usize = 1;
/// Load-generator threads (a sender and a poller), each with one
/// connection open at a time: no more than the host's cores.
const CONNECTIONS: usize = 2;
/// Gap between two status polls.
const POLL_GAP: Duration = Duration::from_millis(5);
/// Gap between `/metrics` scrapes in the traced pass.
const SCRAPE_GAP: Duration = Duration::from_millis(250);
/// How long jobs may take to finish after the last scheduled send.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Per-layer serve metrics that the grid workloads do not exercise.
pub fn absent_layers(why: &str) -> Vec<Metric> {
    [
        ("serve.admit_p50_ms", "ms"),
        ("serve.admit_tail_ms", "ms"),
        ("serve.queue_depth_max", "count"),
        ("serve.in_flight_mean", "count"),
        ("serve.jobs_failed", "count"),
        ("serve.jobs_rejected", "count"),
        ("serve.arena_high_water_bytes", "bytes"),
        ("router.hop_ms", "ms"),
        ("router.shard_restarts", "count"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.poll_interval_ms", "ms"),
        ("loadgen.connections", "count"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric::absent(name, unit, why))
    .collect()
}

// ---------------------------------------------------------------------
// HTTP: the server crate's keep-alive client, reconnecting when closed.

struct Conn {
    addr: String,
    open: Option<HttpConnection>,
    /// Connections opened so far, reconnects included.
    opened: usize,
}

impl Conn {
    fn new(addr: &str) -> Self {
        Self { addr: addr.to_string(), open: None, opened: 0 }
    }

    /// Sends one request over the kept-alive connection, opening a new
    /// one first when the server closed the last. A GET that fails on a
    /// kept-alive connection is retried once on a fresh one; a POST is
    /// not, as the server may have admitted it.
    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        let attempts = if method == "GET" { 2 } else { 1 };
        let mut last = None;
        for _ in 0..attempts {
            if self.open.is_none() {
                self.open =
                    Some(HttpConnection::connect_to(&*self.addr, ClientTimeouts::default())?);
                self.opened += 1;
            }
            let conn = self.open.as_mut().expect("connected above");
            match conn.request(method, path, Some(body)) {
                Ok(response) => {
                    if response.closes_connection() {
                        self.open = None;
                    }
                    return Ok(response);
                }
                Err(e) => {
                    self.open = None;
                    last = Some(e);
                }
            }
        }
        Err(last.expect("at least one attempt"))
    }

    fn get_json(&mut self, path: &str) -> io::Result<JsonValue> {
        let response = self.request("GET", path, "")?;
        if response.status != 200 {
            return Err(io::Error::other(format!("GET {path}: status {}", response.status)));
        }
        parse_json(&String::from_utf8_lossy(&response.body)).map_err(io::Error::other)
    }
}

// ---------------------------------------------------------------------
// The server process.

struct Server {
    child: Child,
    addr: String,
    relay: Option<std::thread::JoinHandle<()>>,
    shard_pids: Vec<String>,
    shard_addrs: Vec<String>,
}

/// Shard `(pid, addr)` pairs from a `/healthz` body; `None` unless every
/// shard reports `ok`.
fn shards_of(health: &JsonValue) -> Option<Vec<(String, String)>> {
    if health.get("status")?.as_str()? != "ok" {
        return None;
    }
    let JsonValue::Array(entries) = health.get("shard_status")? else { return None };
    entries
        .iter()
        .map(|e| Some((e.get("pid")?.as_u64()?.to_string(), e.get("addr")?.as_str()?.to_string())))
        .collect()
}

impl Server {
    /// Spawns the router (which spawns its shards) and waits until
    /// `/healthz` reports every shard up.
    fn boot(bin: &Path, store: &Path) -> io::Result<Self> {
        let _ = std::fs::remove_dir_all(store);
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--reactor"])
            .args(["--shards", &SHARDS.to_string(), "--workers", &WORKERS.to_string()])
            .args(["--queue", "512", "--drain-secs", "10"])
            // glibc gives new threads their own malloc arenas (up to 8 per
            // core). Each job's evaluation threads come and go, and which
            // arenas they landed in made a shard's peak RSS vary by a fifth
            // between runs of one seed; two arenas make it repeatable.
            .env("MALLOC_ARENA_MAX", "2")
            .arg("--out")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Keep draining the server's stdout so it never blocks on a full pipe.
        let relay = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("bea-serve listening on http://") {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
            }
        });
        let mut server = Self {
            child,
            addr: String::new(),
            relay: Some(relay),
            shard_pids: Vec::new(),
            shard_addrs: Vec::new(),
        };
        server.addr = rx.recv_timeout(Duration::from_secs(60)).map_err(|_| {
            io::Error::new(io::ErrorKind::TimedOut, "server never announced its address")
        })?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut conn = Conn::new(&server.addr);
        loop {
            if let Some(shards) = conn.get_json("/healthz").ok().as_ref().and_then(shards_of) {
                (server.shard_pids, server.shard_addrs) = shards.into_iter().unzip();
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "server never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Calibration: every shard runs one small job of each architecture
    /// on each path (cache on and off) to `done`, sent straight to it, so
    /// that no timed job pays for a shard's cold start (the first DETR job
    /// on a shard took half as long again as the rest). Their cells
    /// (model seed 0) are never scheduled.
    fn warm_up(&self) -> io::Result<()> {
        let mut pending = Vec::new();
        for (k, shard) in self.shard_addrs.iter().enumerate() {
            let mut conn = Conn::new(shard);
            for arch in [Architecture::Detr, Architecture::Yolo] {
                for use_cache in [false, true] {
                    let job = AttackJob {
                        arch,
                        model_seed: 0,
                        image: ImageSpec::Dataset { index: 2 * k + usize::from(use_cache) },
                        population: 8,
                        generations: 1,
                        use_cache,
                        ..AttackJob::default()
                    };
                    let response = conn.request("POST", "/v1/attacks", &job.to_json())?;
                    let status = response.status;
                    let id = parse_json(&String::from_utf8_lossy(&response.body))
                        .ok()
                        .and_then(|v| v.get("id").and_then(|i| i.as_str().map(str::to_string)))
                        .filter(|_| status == 202)
                        .ok_or_else(|| {
                            io::Error::other(format!("warm-up job refused: {status}"))
                        })?;
                    pending.push((k, id));
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut conns: Vec<Conn> = self.shard_addrs.iter().map(|a| Conn::new(a)).collect();
        for (k, id) in pending {
            loop {
                let status = conns[k].get_json(&format!("/v1/attacks/{id}"))?;
                match status.get("status").and_then(|s| s.as_str()) {
                    Some("done") => break,
                    Some("failed") => return Err(io::Error::other(format!("warm-up {id} failed"))),
                    _ if Instant::now() > deadline => return Err(io::ErrorKind::TimedOut.into()),
                    _ => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        }
        Ok(())
    }

    fn pids(&self) -> Vec<String> {
        std::iter::once(self.child.id().to_string())
            .chain(self.shard_pids.iter().cloned())
            .collect()
    }

    /// Asks for a graceful shutdown and waits for every process to end;
    /// a server that does not stop within the deadline is killed and
    /// reported.
    fn shutdown(mut self) -> io::Result<()> {
        let _ = Conn::new(&self.addr).request("POST", "/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(40);
        let mut exited = false;
        while !exited && Instant::now() < deadline {
            exited = self.child.try_wait()?.is_some();
            std::thread::sleep(Duration::from_millis(20));
        }
        self.stop();
        if exited {
            Ok(())
        } else {
            Err(io::Error::new(io::ErrorKind::TimedOut, "server did not stop within 40 s"))
        }
    }

    /// Kills whatever is still running: the router, then any shard it
    /// left behind, and waits until all have ended.
    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in self.shard_pids.iter().filter(|p| alive(p)) {
            let _ = Command::new("kill").args(["-9", pid]).status();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shard_pids.iter().any(|p| alive(p)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(relay) = self.relay.take() {
            let _ = relay.join();
        }
    }
}

/// Whether `pid` is a running (not zombie) `serve_cli` process; checking
/// the name keeps a recycled pid from being mistaken for a shard.
fn alive(pid: &str) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { return false };
    let state = stat.rsplit(')').next().and_then(|rest| rest.split_whitespace().next());
    stat.contains("(serve_cli)") && state != Some("Z")
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.relay.is_some() {
            self.stop();
        }
    }
}

// ---------------------------------------------------------------------
// The schedule.

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Low,
    High,
}

#[derive(Debug, Clone)]
struct Planned {
    at_s: f64,
    phase: Phase,
    job: AttackJob,
}

/// Population of every served job: `AttackJob::default()` and the
/// README's example submission.
pub const JOB_POPULATION: usize = 24;
/// Generations of every served job: that default's 20 cut tenfold, so
/// that the low phase of a 24 s run holds nineteen jobs. At 20
/// generations a DETR job takes about 3.7 s on a 2-core host and the
/// phase would hold four. Even at 2 the attack's evaluations, not the per-job overhead,
/// take nearly all of a job's time: capacity scales as 1/(generations+1).
pub const JOB_GENERATIONS: usize = 2;

/// Two phases, `low` for `low_s` seconds then `high` for `high_s`.
/// Arrivals are evenly spaced. With a seeded jitter of ±30% of the gap, whether two
/// low-rate jobs overlapped on the two cores came down to the jitter, and
/// the low-rate latencies moved by a sixth between seeds.
///
/// The job mix of a phase is a fixed multiset dealt in a seeded order, so
/// seeds vary the order, cells, GA seeds and tenants but not the amount
/// of work: DETR and YOLO in equal shares, as the paper's grid attacks
/// both architectures alike (25 model seeds × 16 images × 2); the cache
/// on for half the jobs of each architecture, so the cached and the
/// full-forward serving paths weigh the same; [`JOB_POPULATION`] ×
/// [`JOB_GENERATIONS`]; two tenants. Every job attacks a distinct
/// (arch, model, image) cell, so each served CSV has exactly one
/// producer.
fn schedule(
    rng: &mut Rng,
    (low_s, high_s): (f64, f64),
    used: &mut std::collections::HashSet<(bool, u64, usize)>,
) -> Vec<Planned> {
    let images = SyntheticKitti::evaluation_set().len();
    let mut jobs = Vec::new();
    let phases = [(Phase::Low, RATE_LOW, 0.0, low_s), (Phase::High, RATE_HIGH, low_s, high_s)];
    for (phase, rate, offset, phase_s) in phases {
        let count = (rate * phase_s).round().max(1.0) as usize;
        let mut kinds: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let gap = phase_s / count as f64;
        for (k, kind) in kinds.into_iter().enumerate() {
            let at_s = offset + gap * (k as f64 + 0.5);
            let detr = kind % 2 == 0;
            let (model_seed, image) = loop {
                let cell = (detr, 1 + rng.below(25), rng.below(images as u64) as usize);
                if used.insert(cell) {
                    break (cell.1, cell.2);
                }
            };
            let job = AttackJob {
                arch: if detr { Architecture::Detr } else { Architecture::Yolo },
                model_seed,
                image: ImageSpec::Dataset { index: image },
                population: JOB_POPULATION,
                generations: JOB_GENERATIONS,
                base_seed: rng.next() >> 32,
                use_cache: kind / 2 % 2 == 0,
                tenant: if rng.below(2) == 0 { "tenant-a" } else { "tenant-b" }.to_string(),
                ..AttackJob::default()
            };
            jobs.push(Planned { at_s, phase, job });
        }
    }
    jobs
}

// ---------------------------------------------------------------------
// The load generator.

#[derive(Debug, Clone, Default)]
struct Tracked {
    sent_s: Option<f64>,
    admitted_s: Option<f64>,
    done_s: Option<f64>,
    id: Option<String>,
    error: Option<String>,
    poll_gaps: Vec<f64>,
}

#[derive(Default)]
struct Scrape {
    queue_depth: Vec<f64>,
    in_flight: Vec<f64>,
    pid_sets: Vec<Vec<String>>,
}

fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter(|(key, _)| *key == name || key.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v.trim().parse::<f64>().unwrap_or(0.0))
        .reduce(|a, b| a + b)
}

/// Sleeps until `at` seconds after `t0`, in slices of at most 5 ms.
fn sleep_until(t0: Instant, at: f64) {
    let left = at - t0.elapsed().as_secs_f64();
    if left > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(left.min(0.005)));
    }
}

/// The sender: submits every job through the router at its scheduled
/// time over one keep-alive connection, hands each admitted job to the
/// poller, and (traced) scrapes `/metrics` and `/healthz` between sends.
fn send_all(
    addr: &str,
    plan: &[Planned],
    t0: Instant,
    admitted: mpsc::Sender<(usize, String)>,
    scrape: Option<&std::sync::Mutex<Scrape>>,
) -> (Vec<Tracked>, usize) {
    let mut conn = Conn::new(addr);
    let mut tracked = vec![Tracked::default(); plan.len()];
    let mut next_scrape = 0.0;
    let now = || t0.elapsed().as_secs_f64();
    for (index, planned) in plan.iter().enumerate() {
        while now() < planned.at_s {
            if let Some(scrape) = scrape.filter(|_| now() >= next_scrape) {
                next_scrape = now() + SCRAPE_GAP.as_secs_f64();
                if let Some(r) =
                    conn.request("GET", "/metrics", "").ok().filter(|r| r.status == 200)
                {
                    let text = String::from_utf8_lossy(&r.body);
                    let mut s = scrape.lock().expect("scrape lock poisoned");
                    s.queue_depth.extend(metric_value(&text, "bea_serve_queue_depth"));
                    s.in_flight.extend(metric_value(&text, "bea_serve_in_flight"));
                }
                if let Some(shards) = conn.get_json("/healthz").ok().as_ref().and_then(shards_of) {
                    let pids = shards.into_iter().map(|(pid, _)| pid).collect();
                    scrape.lock().expect("scrape lock poisoned").pid_sets.push(pids);
                }
            }
            sleep_until(t0, planned.at_s);
        }
        let state = &mut tracked[index];
        state.sent_s = Some(now());
        match conn.request("POST", "/v1/attacks", &planned.job.to_json()) {
            Ok(r) if r.status == 202 => {
                state.admitted_s = Some(now());
                let id = parse_json(&String::from_utf8_lossy(&r.body))
                    .ok()
                    .and_then(|v| v.get("id").and_then(|i| i.as_str().map(str::to_string)));
                match id {
                    Some(id) => {
                        state.id = Some(id.clone());
                        let _ = admitted.send((index, id));
                    }
                    None => state.error = Some("202 without a job id".into()),
                }
            }
            Ok(r) => {
                state.error = Some(format!(
                    "submit refused: {} {}",
                    r.status,
                    String::from_utf8_lossy(&r.body)
                ))
            }
            Err(e) => state.error = Some(format!("submit failed: {e}")),
        }
    }
    (tracked, conn.opened)
}

/// What the poller learnt about one job.
#[derive(Default)]
struct Polled {
    done_s: Option<f64>,
    error: Option<String>,
    poll_gaps: Vec<f64>,
}

/// The poller: polls every admitted job round-robin until it is done.
/// Status GETs go straight to the owning shard (ids are strided, so job
/// `n` lives on shard `(n - 1) % shards`), so a done time is the shard's
/// and not the router's; the router's hop is reported separately as
/// `router.hop_ms`. One connection is open at a time; switching shards
/// reconnects.
fn poll_all(
    shards: &[String],
    admitted: mpsc::Receiver<(usize, String)>,
    t0: Instant,
    give_up: f64,
) -> (Vec<(usize, Polled)>, usize) {
    let now = || t0.elapsed().as_secs_f64();
    let mut inflight: std::collections::VecDeque<(usize, String, Option<f64>)> =
        std::collections::VecDeque::new();
    let mut results = Vec::new();
    let mut gaps: std::collections::HashMap<usize, Vec<f64>> = std::collections::HashMap::new();
    let mut conn: Option<(usize, Conn)> = None;
    let mut opened = 0;
    let mut sender_done = false;
    loop {
        loop {
            match admitted.try_recv() {
                Ok((index, id)) => inflight.push_back((index, id, None)),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sender_done = true;
                    break;
                }
            }
        }
        let Some((index, id, last)) = inflight.pop_front() else {
            if sender_done {
                break;
            }
            std::thread::sleep(POLL_GAP);
            continue;
        };
        let t = now();
        if t > give_up {
            for (index, _, _) in std::iter::once((index, id, last)).chain(inflight.drain(..)) {
                let error = Some("timed out waiting for done".to_string());
                results.push((index, Polled { error, ..Polled::default() }));
            }
            break;
        }
        if let Some(last) = last {
            gaps.entry(index).or_default().push((t - last) * 1e3);
        }
        let n: usize = id.trim_start_matches("job-").parse().unwrap_or(1);
        let owner = (n.max(1) - 1) % shards.len();
        if conn.as_ref().is_none_or(|(k, _)| *k != owner) {
            if let Some((_, old)) = conn.take() {
                opened += old.opened;
            }
            conn = Some((owner, Conn::new(&shards[owner])));
        }
        let (_, c) = conn.as_mut().expect("connected above");
        let mut polled = Polled::default();
        match c.get_json(&format!("/v1/attacks/{id}")) {
            Ok(v) => match v.get("status").and_then(|s| s.as_str()) {
                Some("done") => polled.done_s = Some(now()),
                Some("failed") => {
                    let why = v.get("error").map(|e| e.render()).unwrap_or_default();
                    polled.error = Some(format!("job {id} failed: {why}"));
                }
                _ => {
                    inflight.push_back((index, id, Some(t)));
                    sleep_until(t0, t + POLL_GAP.as_secs_f64());
                    continue;
                }
            },
            Err(e) => polled.error = Some(format!("polling {id} failed: {e}")),
        }
        polled.poll_gaps = gaps.remove(&index).unwrap_or_default();
        results.push((index, polled));
    }
    opened += conn.map_or(0, |(_, c)| c.opened);
    (results, opened)
}

/// What one pass over a schedule observed.
struct Observed {
    plan: Vec<Planned>,
    tracked: Vec<Tracked>,
    connections: usize,
    scrape: Scrape,
    t0_us: f64,
    csv: Vec<Option<Vec<u8>>>,
}

fn run_schedule(server: &Server, plan: Vec<Planned>, traced: Option<&Recorder>) -> Observed {
    let scrape = std::sync::Mutex::new(Scrape::default());
    let last_send = plan.iter().map(|p| p.at_s).fold(0.0, f64::max);
    let give_up = last_send + DRAIN_LIMIT.as_secs_f64();
    let t0 = Instant::now();
    let (sent, polled) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let scrape = traced.is_some().then_some(&scrape);
        let (server, plan) = (&server, &plan);
        let sender = scope.spawn(move || send_all(&server.addr, plan, t0, tx, scrape));
        let poller = scope.spawn(move || poll_all(&server.shard_addrs, rx, t0, give_up));
        (sender.join(), poller.join())
    });
    let panicked = || Some("load-generator thread panicked".to_string());
    let (mut tracked, mut connections) = sent.unwrap_or_else(|_| {
        (vec![Tracked { error: panicked(), ..Tracked::default() }; plan.len()], 0)
    });
    match polled {
        Ok((results, opened)) => {
            connections += opened;
            for (index, p) in results {
                let state = &mut tracked[index];
                state.done_s = p.done_s;
                state.error = state.error.take().or(p.error);
                state.poll_gaps = p.poll_gaps;
            }
        }
        Err(_) => tracked.iter_mut().for_each(|s| s.error = s.error.take().or_else(panicked)),
    }
    for state in tracked.iter_mut().filter(|s| s.id.is_some() && s.done_s.is_none()) {
        state.error.get_or_insert_with(|| "never seen done".to_string());
    }
    // Fetch every served CSV after the timed window.
    let mut conn = Conn::new(&server.addr);
    let csv = tracked
        .iter()
        .map(|s| match (&s.id, s.done_s) {
            (Some(id), Some(_)) => {
                let csv = conn.request("GET", &format!("/v1/attacks/{id}/csv"), "");
                csv.ok().filter(|r| r.status == 200).map(|r| r.body)
            }
            _ => None,
        })
        .collect();
    let t0_us = traced.map_or(0.0, |r| r.us(t0));
    Observed {
        plan,
        tracked,
        connections,
        scrape: scrape.into_inner().expect("scrape lock"),
        t0_us,
        csv,
    }
}

/// Records one span per job, with its late / admit / wait children.
fn job_spans(rec: &Recorder, parent: u64, obs: &Observed) {
    use crate::trace::Span;
    let at = |s: f64| obs.t0_us + s * 1e6;
    let mut spans = Vec::new();
    for (i, (p, s)) in obs.plan.iter().zip(&obs.tracked).enumerate() {
        let (Some(sent), Some(admitted), Some(done)) = (s.sent_s, s.admitted_s, s.done_s) else {
            continue;
        };
        let job = rec.id();
        let group = i as u64 + 1;
        let span = |id, parent, name, a: f64, b: f64| Span {
            id,
            parent,
            name,
            group,
            start_us: at(a),
            end_us: at(b),
            items: 1,
        };
        spans.push(span(job, parent, "job", p.at_s.min(sent), done));
        spans.push(span(rec.id(), job, "job.late", p.at_s.min(sent), sent));
        spans.push(span(rec.id(), job, "job.admit", sent, admitted));
        spans.push(span(rec.id(), job, "job.wait", admitted, done));
    }
    for span in spans {
        rec.push(span);
    }
}

// ---------------------------------------------------------------------
// Correctness: every served CSV against a direct campaign run.

/// Re-runs every done job as a direct one-cell campaign and compares its
/// CSV bytes with the served ones. Returns the layer figures when traced.
fn recheck(
    obs: &Observed,
    scratch: &Path,
    probe: Option<&Probe>,
    outcome: &mut Outcome,
) -> Recheck {
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::evaluation_set();
    let store_dir = scratch.join("direct");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = CampaignStore::open(&store_dir).expect("direct store opens inside the checkout");
    let clock = CellClock::default();
    let rec = probe.map(|p| p.rec.as_ref());
    let root = rec.map_or(0, |r| r.id());
    let started = Instant::now();
    let allocs_before = allocations();
    let mut out = Recheck::default();
    for ((planned, state), served) in obs.plan.iter().zip(&obs.tracked).zip(&obs.csv) {
        let Some(served) = served else { continue };
        let job = &planned.job;
        let spec = job.cell_spec();
        let image = match job.materialize_image(&dataset) {
            Ok(image) => image,
            Err(e) => {
                outcome.fail(format!("{}: {e}", state.id.clone().unwrap_or_default()));
                continue;
            }
        };
        let campaign = Campaign::new(CampaignConfig {
            attack: job.attack_config(),
            base_seed: job.base_seed,
            jobs: 1,
            telemetry: false,
        });
        let t = Instant::now();
        let result = campaign.run_observed(
            std::slice::from_ref(&spec),
            |cell| {
                let start = Instant::now();
                let id = rec.map_or(0, |r| r.id());
                clock.start(cell, id, start);
                let inner = zoo_detector(&zoo, job.arch, cell.model_seed, job.use_cache);
                match probe {
                    Some(p) => p.wrap(inner, "cell", (id, root), start),
                    None => inner,
                }
            },
            |_| image.clone(),
            &|cell, line| clock.observe(cell, line, rec),
        );
        out.wall_ms += t.elapsed().as_secs_f64() * 1e3;
        let cell = &result.cells[0];
        let direct =
            store.save_cell(&spec, &cell.rows).and_then(|_| std::fs::read(store.cell_path(&spec)));
        match direct {
            Ok(bytes) if bytes == *served => {}
            Ok(_) => outcome.fail(format!(
                "{}: served CSV differs from a direct campaign run of {}/s{}/i{}",
                state.id.clone().unwrap_or_default(),
                spec.group,
                spec.model_seed,
                spec.image_index
            )),
            Err(e) => outcome.fail(format!("direct run store: {e}")),
        }
        if let Some(o) = &cell.outcome {
            out.evaluations += o.evaluations() as u64;
            *out.evals_by_arch.entry(job.arch.name()).or_default() += o.evaluations() as u64;
            out.cache.merge(&o.cache_stats().unwrap_or_default());
        }
        out.cells.push((cell.clone(), clock.id(&spec).unwrap_or(0), image));
    }
    out.allocations = allocations() - allocs_before;
    if let Some(r) = rec {
        r.record_with_id(root, 0, "recheck", 0, started, Instant::now(), out.cells.len() as u64);
        r.reparent("detect.batch", "generation");
        r.reparent("detect.masked_batch", "generation");
        r.reparent("detect.single", "generation");
    }
    out.generations = clock.generations();
    out
}

#[derive(Default)]
struct Recheck {
    evaluations: u64,
    evals_by_arch: std::collections::BTreeMap<&'static str, u64>,
    cache: bea_detect::CacheStats,
    cells: Vec<(bea_core::campaign::CellResult, u64, bea_image::Image)>,
    generations: Vec<crate::cells::Generation>,
    allocations: u64,
    wall_ms: f64,
}

// ---------------------------------------------------------------------

/// Latency figures of one phase: from the scheduled send to `done`.
fn phase_latencies(obs: &Observed, phase: Phase) -> (Vec<f64>, usize, usize, f64) {
    let mut latencies = Vec::new();
    let (mut good, mut total) = (0, 0);
    let (mut first, mut last) = (f64::INFINITY, 0.0f64);
    for (p, s) in obs.plan.iter().zip(&obs.tracked).filter(|(p, _)| p.phase == phase) {
        total += 1;
        first = first.min(p.at_s);
        if let (Some(done), None) = (s.done_s, &s.error) {
            let ms = (done - p.at_s) * 1e3;
            latencies.push(ms);
            last = last.max(done);
            if ms <= LIMIT_MS {
                good += 1;
            }
        }
    }
    (latencies, good, total, (last - first).max(1e-9))
}

/// Latencies of every job of both phases.
fn all_latencies(obs: &Observed) -> Vec<f64> {
    let mut all = phase_latencies(obs, Phase::Low).0;
    all.extend(phase_latencies(obs, Phase::High).0);
    all
}

pub fn run(args: &Args, tiny: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let scratch = args.out.join(format!("serve-s{}-t{}", args.seed, u8::from(args.trace)));

    // Set-up: boot to a healthy /healthz plus the warm-up jobs, several
    // times; the last server is the one measured.
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for k in 0..crate::SETUPS {
        if let Some(previous) = server.take() {
            if let Err(e) = previous.shutdown() {
                outcome.incident(format!("server shutdown failed: {e}"));
            }
        }
        let start = Instant::now();
        let booted = Server::boot(&args.serve_bin, &scratch.join(format!("store-{k}")))
            .and_then(|s| s.warm_up().map(|_| s));
        match booted {
            Ok(booted) => {
                setup_s.push(start.elapsed().as_secs_f64());
                server = Some(booted);
            }
            Err(e) => {
                outcome.incident(format!("server boot failed: {e}"));
                return outcome;
            }
        }
    }
    let server = server.expect("booted above");

    // Two thirds of the run at the low rate, where both gated latencies
    // are taken: with half, the low phase held 14 jobs, and their tail
    // spread by up to 30% of its median over ten seeds.
    let phases = if tiny { (1.0, 1.0) } else { (args.seconds * 2.0 / 3.0, args.seconds / 3.0) };
    let mut rng = Rng::new(args.seed);
    let mut used = std::collections::HashSet::new();
    let plan = schedule(&mut rng, phases, &mut used);
    let traced_plan = args.trace.then(|| schedule(&mut rng, phases, &mut used));
    outcome.inputs = plan
        .iter()
        .take(4)
        .map(|p| format!("{:.3}:{}", p.at_s, p.job.to_json()))
        .collect::<Vec<_>>()
        .join(" ");

    let untraced = run_schedule(&server, plan, None);
    // Peak memory of the untraced pass, before the traced pass can raise it.
    let rss_by_process: Vec<f64> =
        server.pids().iter().filter_map(|pid| peak_rss_mb(pid)).collect();
    let rss: f64 = rss_by_process.iter().sum();
    let probe = args.trace.then(Probe::new);
    let traced = traced_plan.map(|p| {
        let rec = &probe.as_ref().expect("traced").rec;
        let pass = rec.id();
        let obs = run_schedule(&server, p, Some(rec));
        let end = obs.tracked.iter().filter_map(|s| s.done_s.or(s.sent_s)).fold(0.0, f64::max);
        rec.push(crate::trace::Span {
            id: pass,
            parent: 0,
            name: "pass",
            group: 0,
            start_us: obs.t0_us,
            end_us: obs.t0_us + end * 1e6,
            items: obs.plan.len() as u64,
        });
        job_spans(rec, pass, &obs);
        obs
    });

    // After the load: liveness, restarts, memory, router hop, counters.
    let mut conn = Conn::new(&server.addr);
    let shards_after = conn.get_json("/healthz").ok().as_ref().and_then(shards_of);
    let mut pid_sets: Vec<Vec<String>> = vec![server.shard_pids.clone()];
    if let Some(t) = &traced {
        pid_sets.extend(t.scrape.pid_sets.iter().cloned());
    }
    match &shards_after {
        Some(shards) => pid_sets.push(shards.iter().map(|(pid, _)| pid.clone()).collect()),
        None => outcome.incident("server unhealthy after the load".into()),
    }
    let restarts = pid_sets
        .windows(2)
        .map(|w| w[0].iter().zip(&w[1]).filter(|(a, b)| a != b).count())
        .sum::<usize>();
    for _ in 0..restarts {
        outcome.incident("a shard restarted during the run (its /healthz pid changed)".into());
    }
    let mut hops = Vec::new();
    let mut final_metrics = String::new();
    if let (Some(t), Some(shards)) = (&traced, &shards_after) {
        if let Some(id) = t.tracked.iter().find(|s| s.done_s.is_some()).and_then(|s| s.id.clone()) {
            let n: u64 = id.trim_start_matches("job-").parse().unwrap_or(1);
            let owner = &shards[((n.max(1) - 1) % shards.len() as u64) as usize].1;
            let mut direct = Conn::new(owner);
            let path = format!("/v1/attacks/{id}");
            for _ in 0..40 {
                let a = Instant::now();
                let via_router = conn.request("GET", &path, "").is_ok();
                let b = Instant::now();
                let straight = direct.request("GET", &path, "").is_ok();
                let c = Instant::now();
                if via_router && straight {
                    hops.push((b - a).as_secs_f64() * 1e3 - (c - b).as_secs_f64() * 1e3);
                }
            }
        }
        if let Some(r) = conn.request("GET", "/metrics", "").ok().filter(|r| r.status == 200) {
            final_metrics = String::from_utf8_lossy(&r.body).into_owned();
        }
    }
    drop(conn);
    if let Err(e) = server.shutdown() {
        outcome.incident(format!("server shutdown failed: {e}"));
    }

    // Accounting and correctness, outside every timed window.
    for obs in std::iter::once(&untraced).chain(traced.as_ref()) {
        outcome.attempted += obs.plan.len() as u64;
        for (s, csv) in obs.tracked.iter().zip(&obs.csv) {
            if let Some(e) = &s.error {
                outcome.fail(e.clone());
            } else if csv.is_none() {
                outcome.fail(format!(
                    "{}: done but its CSV could not be fetched",
                    s.id.clone().unwrap_or_default()
                ));
            }
        }
    }
    let checked = recheck(&untraced, &scratch, None, &mut outcome);
    let checked_traced =
        traced.as_ref().map(|t| recheck(t, &scratch, probe.as_ref(), &mut outcome));

    let (low, _, _, _) = phase_latencies(&untraced, Phase::Low);
    let (high, good, high_total, window_s) = phase_latencies(&untraced, Phase::High);
    let goodput = good as f64 / window_s;
    let (low_p50, low_tail, low_q) = latency(&low);
    let (high_p50, high_tail, high_q) = latency(&high);
    let low_p80 = harrell_davis(&low, 0.8);
    let limit = format!("limit {LIMIT_MS} ms");
    outcome.end_to_end = vec![
        Metric::new(
            "setup_s",
            median(&setup_s),
            "s",
            setup_s.len(),
            &format!("boot to a healthy /healthz and warm-up jobs; median of {setup_s:.3?}"),
        ),
        Metric::new(
            "throughput_per_s",
            goodput,
            "1/s",
            high_total,
            &format!("goodput_jobs_per_s at high ({RATE_HIGH}/s), {limit}"),
        ),
        // Both gated latencies are taken at the low rate: at 80% load each
        // job's wait depends on which shard the one before it hashed to,
        // and any quantile over the high phase moved by a quarter between
        // seeds. The mix has two latency clusters (DETR, YOLO) in fixed
        // shares: the mean weighs both, where the median of 19 jobs falls
        // in the gap between them and jumps. With 19 jobs no percentile
        // has ten samples beyond it, so the tail is a Harrell-Davis p80,
        // which weighs the upper order statistics instead of picking one;
        // a p90 leaned on the slowest job or two, and one stalled job
        // moved it by a third.
        Metric::new(
            "latency_mean_ms",
            mean(&low),
            "ms",
            low.len(),
            &format!("job_mean_ms.low: {RATE_LOW}/s, scheduled send to done"),
        ),
        Metric::new("latency_tail_ms", low_p80, "ms", low.len(), "job_p80_ms.low (Harrell-Davis)"),
        Metric::new(
            "peak_rss_mb",
            rss,
            "MB",
            rss_by_process.len(),
            &format!("VmHWM summed over router and shards {rss_by_process:.1?}"),
        ),
    ];
    outcome.jobs = untraced
        .plan
        .iter()
        .zip(&untraced.tracked)
        .map(|(p, s)| {
            let ms = |t: Option<f64>| t.map_or(-1.0, |t| (t - p.at_s) * 1e3);
            bea_core::telemetry::JsonObject::new()
                .string("id", s.id.as_deref().unwrap_or(""))
                .string("phase", if p.phase == Phase::Low { "low" } else { "high" })
                .float("at_ms", p.at_s * 1e3)
                .raw("job", &p.job.to_json())
                .float("sent_ms", ms(s.sent_s))
                .float("admitted_ms", ms(s.admitted_s))
                .float("done_ms", ms(s.done_s))
                .string("error", s.error.as_deref().unwrap_or(""))
                .finish()
        })
        .collect();
    outcome.detail = vec![
        Metric::new("job_mean_ms.low", mean(&low), "ms", low.len(), "scheduled send to done"),
        Metric::new("job_mean_ms.high", mean(&high), "ms", high.len(), "scheduled send to done"),
        Metric::new(
            "job_p50_ms.low",
            low_p50,
            "ms",
            low.len(),
            &format!("{RATE_LOW}/s, scheduled send to done (Harrell-Davis)"),
        ),
        Metric::new("job_tail_ms.low", low_tail, "ms", low.len(), &format!("p{low_q:.1}")),
        Metric::new("job_p80_ms.low", low_p80, "ms", low.len(), "Harrell-Davis"),
        Metric::new(
            "job_p50_ms.high",
            high_p50,
            "ms",
            high.len(),
            &format!("{RATE_HIGH}/s, scheduled send to done"),
        ),
        Metric::new("job_tail_ms.high", high_tail, "ms", high.len(), &format!("p{high_q:.1}")),
        Metric::new(
            "goodput_jobs_per_s",
            goodput,
            "1/s",
            high_total,
            &format!("jobs done within the limit per second of the high window; {limit}"),
        ),
    ];

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    outcome.config("nproc", nproc);
    outcome.config("shards", SHARDS);
    outcome.config("workers_per_shard", WORKERS);
    outcome.config("batch", 1);
    outcome.config("kernel_threads", 1);
    outcome.config("eval_threads", eval_threads(WORKERS));
    outcome.config("kernel_policy", bea_tensor::KernelPolicy::default().name());
    outcome.config("rate_low_per_s", RATE_LOW);
    outcome.config("rate_high_per_s", RATE_HIGH);
    outcome.config("latency_limit_ms", LIMIT_MS);
    outcome.config("low_s", phases.0);
    outcome.config("high_s", phases.1);
    outcome.config("loadgen_connections", CONNECTIONS);

    if let (Some(t), Some(check), Some(probe)) = (traced, checked_traced, probe) {
        outcome.layers =
            serve_layers(&untraced, &t, &checked, &check, &probe, &hops, &final_metrics, restarts);
        outcome.spans = probe.rec.spans();
    }
    outcome
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    untraced: &Observed,
    traced: &Observed,
    checked: &Recheck,
    check: &Recheck,
    probe: &Probe,
    hops: &[f64],
    metrics: &str,
    restarts: usize,
) -> Vec<Metric> {
    let spans = probe.rec.spans();
    let mut layers = campaign_layers(
        &spans,
        &check.generations,
        check.evaluations,
        (1, eval_threads(1)),
        check.wall_ms,
    );
    layers.extend(cache_layers(true, &check.cache));
    let evals = checked.evaluations.max(1) as f64;
    let (mut flop, mut images) = (0.0, 0u64);
    for (arch, n) in &check.evals_by_arch {
        flop += crate::grid::gflop_per_forward(arch_of(arch), 192, 64) * *n as f64;
        images += n;
    }
    let per_eval = flop / images.max(1) as f64;
    let busy_s: f64 = spans
        .iter()
        .filter(|s| s.name == "detect.batch" || s.name == "detect.masked_batch")
        .map(|s| s.ms() / 1e3)
        .sum();
    layers.extend([
        Metric::new(
            "tensor.allocs_per_eval",
            checked.allocations as f64 / evals,
            "count",
            checked.evaluations as usize,
            "allocator calls per evaluation, untraced direct re-run of served cells",
        ),
        Metric::new(
            "tensor.scratch_high_water_bytes",
            bea_tensor::scratch::stats().high_water_bytes as f64,
            "bytes",
            1,
            "scratch::stats().high_water_bytes of the direct re-run",
        ),
        Metric::new(
            "tensor.gflop_per_eval",
            per_eval,
            "GFLOP",
            images as usize,
            "computed from layer shapes, mean over the job mix",
        ),
        Metric::new(
            "tensor.gflops_achieved",
            flop / busy_s,
            "GFLOP/s",
            images as usize,
            "computed: full-forward GFLOP / evaluation-call busy time",
        ),
    ]);
    let config = bea_core::attack::AttackConfig::default();
    let mut replay = Replay::default();
    let replay_start = Instant::now();
    let replay_id = probe.rec.id();
    for (cell, id, image) in check.cells.iter().take(4) {
        if let Some(o) = &cell.outcome {
            replay.cell(probe, replay_id, *id, image, o, config.epsilon, config.norm);
        }
    }
    probe.rec.record_with_id(replay_id, 0, "replay", 0, replay_start, Instant::now(), 0);
    layers.extend(replay.metrics());
    layers.extend(crate::grid::transfer_absent());

    let admits: Vec<f64> =
        traced.tracked.iter().filter_map(|s| Some((s.admitted_s? - s.sent_s?) * 1e3)).collect();
    let (admit_p50, admit_tail, admit_q) = latency(&admits);
    let late: Vec<f64> = traced
        .plan
        .iter()
        .zip(&traced.tracked)
        .filter_map(|(p, s)| Some((s.sent_s? - p.at_s).max(0.0) * 1e3))
        .collect();
    let gaps: Vec<f64> = traced.tracked.iter().flat_map(|s| s.poll_gaps.iter().copied()).collect();
    let counter = |name| metric_value(metrics, name).unwrap_or(0.0);
    let since_boot = "since the serving boot, both passes (from /metrics)";
    let overhead = median(&all_latencies(traced)) / median(&all_latencies(untraced)) - 1.0;
    layers.extend([
        Metric::new("serve.admit_p50_ms", admit_p50, "ms", admits.len(), "POST sent to 202"),
        Metric::new(
            "serve.admit_tail_ms",
            admit_tail,
            "ms",
            admits.len(),
            &format!("p{admit_q:.1}"),
        ),
        Metric::new(
            "serve.queue_depth_max",
            traced.scrape.queue_depth.iter().copied().fold(0.0, f64::max),
            "count",
            traced.scrape.queue_depth.len(),
            "max of scraped bea_serve_queue_depth (summed over shards)",
        ),
        Metric::new(
            "serve.in_flight_mean",
            mean(&traced.scrape.in_flight),
            "count",
            traced.scrape.in_flight.len(),
            "mean of scraped bea_serve_in_flight",
        ),
        Metric::new(
            "serve.jobs_failed",
            counter("bea_serve_jobs_failed_total"),
            "count",
            1,
            since_boot,
        ),
        Metric::new(
            "serve.jobs_rejected",
            counter("bea_serve_jobs_rejected_total"),
            "count",
            1,
            since_boot,
        ),
        Metric::new(
            "serve.arena_high_water_bytes",
            counter("bea_serve_arena_high_water_bytes"),
            "bytes",
            1,
            "router sum of the shards' arena high-water gauges",
        ),
        Metric::new(
            "router.hop_ms",
            median(hops),
            "ms",
            hops.len(),
            "status GET via router minus direct to the shard; median",
        ),
        Metric::new("router.shard_restarts", restarts as f64, "count", 1, "/healthz pid changes"),
        Metric::new(
            "loadgen.late_p99_ms",
            percentile(&late, 99.0),
            "ms",
            late.len(),
            "send time minus scheduled time",
        ),
        Metric::new(
            "loadgen.poll_interval_ms",
            mean(&gaps),
            "ms",
            gaps.len(),
            "mean gap between polls of one job",
        ),
        Metric::new(
            "loadgen.connections",
            traced.connections as f64,
            "count",
            CONNECTIONS,
            "connections opened by the load generator (reconnects included)",
        ),
        Metric::new(
            "trace.overhead_share",
            overhead,
            "ratio",
            traced.plan.len(),
            "traced / untraced job p50 over both phases, minus 1",
        ),
    ]);
    layers
}
