//! Boots the attack server — single-process, or a multi-process shard
//! router.
//!
//! ```text
//! cargo run --release -p bea-bench --bin serve_cli -- \
//!     --addr 127.0.0.1:7878 --workers 4 --queue 64 \
//!     --out target/experiments/serve
//! ```
//!
//! Serves until `POST /v1/shutdown` (or SIGKILL — accepted jobs survive
//! either through the store's job log). `--smoke` swaps in the 4-image
//! smoke dataset for fast local and CI runs.
//!
//! With `--shards N` (N ≥ 2) this process becomes a supervisor: it
//! spawns `N` copies of itself as worker shards — each with its own
//! reactor, queue and `jobs.jsonl` under `<out>/shard-<k>` — and runs
//! the routing front door on `--addr`. Submissions route by a
//! deterministic hash of the job's cell identity; ids are strided
//! (shard `k` issues `k+1, k+1+N, ...`) so `GET /v1/attacks/job-<id>`
//! finds its owner without a lookup. A crashed shard is respawned and
//! replays its own job log, so accepted jobs survive `kill -9`.

use bea_bench::args::{self, ArgParser};
use bea_scene::SyntheticKitti;
use bea_serve::{Router, Server, ServerConfig, ShardSet, TenantPolicy};
use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone)]
struct Options {
    addr: String,
    workers: usize,
    queue: usize,
    out: PathBuf,
    smoke: bool,
    drain_secs: u64,
    threads: usize,
    tenant_rate: f64,
    tenant_burst: f64,
    tenant_quota: usize,
    shards: usize,
    idle_secs: u64,
    conn_requests: usize,
    id_start: u64,
    id_stride: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:7878".to_string(),
        workers: 2,
        queue: 64,
        out: PathBuf::from("target/experiments/serve"),
        smoke: false,
        drain_secs: 60,
        threads: 1,
        tenant_rate: 0.0,
        tenant_burst: 1.0,
        tenant_quota: 0,
        shards: 1,
        idle_secs: 30,
        conn_requests: 1000,
        id_start: 1,
        id_stride: 1,
    };
    let mut args = ArgParser::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--addr" => options.addr = args.value(&flag)?,
            "--workers" => options.workers = args.parse(&flag)?,
            "--queue" => options.queue = args.parse(&flag)?,
            "--out" => options.out = PathBuf::from(args.value(&flag)?),
            "--smoke" => options.smoke = true,
            "--drain-secs" => options.drain_secs = args.parse(&flag)?,
            "--threads" => options.threads = args.parse(&flag)?,
            // Every connection is served by the epoll reactor; the flag
            // stays accepted so existing scripts keep working.
            "--reactor" => {}
            "--tenant-rate" => options.tenant_rate = args.parse(&flag)?,
            "--tenant-burst" => options.tenant_burst = args.parse(&flag)?,
            "--tenant-quota" => options.tenant_quota = args.parse(&flag)?,
            "--shards" => options.shards = args.parse(&flag)?,
            "--idle-secs" => options.idle_secs = args.parse(&flag)?,
            "--conn-requests" => options.conn_requests = args.parse(&flag)?,
            "--id-start" => options.id_start = args.parse(&flag)?,
            "--id-stride" => options.id_stride = args.parse(&flag)?,
            "--help" | "-h" => {
                return Err("usage: serve_cli [--addr HOST:PORT] [--workers N] [--queue N] \
                            [--out DIR] [--smoke] [--drain-secs N] [--threads N] [--reactor] \
                            [--tenant-rate R] [--tenant-burst B] [--tenant-quota N] \
                            [--shards N] [--idle-secs N] [--conn-requests N]\n\
                            --smoke serves the 4-image smoke dataset (fast jobs for CI)\n\
                            --threads sets kernel worker threads per job (default 1: the worker\n\
                            pool already runs jobs in parallel; 0 = all cores); served CSVs are\n\
                            identical at any thread count\n\
                            --reactor is accepted and ignored: one epoll thread always serves\n\
                            every connection (serving is Linux-only)\n\
                            --tenant-rate/--tenant-burst set the per-tenant token bucket\n\
                            (submissions/s and burst size; rate 0 = unlimited) and\n\
                            --tenant-quota caps each tenant's queued+running jobs (0 = unlimited)\n\
                            --shards N (N >= 2) runs N worker processes behind a routing front\n\
                            door: submissions shard by cell-identity hash, each shard persists\n\
                            under <out>/shard-<k>, crashed shards respawn and replay their log\n\
                            --idle-secs drops connections silent for that long (default 30)\n\
                            --conn-requests caps requests served per keep-alive connection\n\
                            (default 1000)\n\
                            --id-start/--id-stride set the job-id sequence (used internally by\n\
                            the shard supervisor; defaults 1/1)\n\
                            POST /v1/attacks submits a job; GET /v1/attacks/{id}/progress streams\n\
                            per-generation telemetry; GET /metrics exposes Prometheus text;\n\
                            POST /v1/shutdown drains in-flight work and exits"
                    .into())
            }
            other => return Err(args::unknown_flag(other)),
        }
    }
    if options.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if options.id_stride == 0 {
        return Err("--id-stride must be at least 1".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if options.shards >= 2 {
        return run_router(&options);
    }
    run_single(&options)
}

/// The single-process mode: one [`Server`] on `--addr`.
fn run_single(options: &Options) -> ExitCode {
    let config = ServerConfig {
        addr: options.addr.clone(),
        workers: options.workers,
        queue_capacity: options.queue,
        store_dir: options.out.clone(),
        dataset: if options.smoke {
            SyntheticKitti::smoke_set()
        } else {
            SyntheticKitti::evaluation_set()
        },
        drain_deadline: Duration::from_secs(options.drain_secs),
        request_log: true,
        kernel_threads: options.threads,
        tenant_policy: TenantPolicy {
            rate: options.tenant_rate,
            burst: options.tenant_burst,
            quota: options.tenant_quota,
        },
        done_retention: 64,
        idle_timeout: Duration::from_secs(options.idle_secs.max(1)),
        conn_requests_max: options.conn_requests,
        id_start: options.id_start,
        id_stride: options.id_stride,
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("server failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("bea-serve listening on http://{}", server.addr());
    println!("store: {}", options.out.display());
    println!("endpoints: POST /v1/attacks, GET /v1/attacks/{{id}}[/csv|/progress], GET /healthz, GET /metrics, POST /v1/shutdown");

    // Serve until a client asks us to stop.
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("shutdown requested, draining...");
    let report = server.shutdown();
    println!(
        "drained {} in-flight job(s), requeued {} for the next start{}",
        report.drained,
        report.requeued,
        if report.deadline_expired { " (drain deadline expired)" } else { "" }
    );
    ExitCode::SUCCESS
}

/// One supervised shard process.
struct Shard {
    child: Child,
    addr: String,
}

/// Spawns shard `k`: this executable again, bound to an ephemeral port,
/// persisting under `<out>/shard-<k>`, issuing ids `k+1, k+1+N, ...`.
/// Blocks until the child prints its listening address.
fn spawn_shard(options: &Options, shard: usize) -> io::Result<Shard> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg(options.workers.to_string())
        .arg("--queue")
        .arg(options.queue.to_string())
        .arg("--out")
        .arg(options.out.join(format!("shard-{shard}")))
        .arg("--drain-secs")
        .arg(options.drain_secs.to_string())
        .arg("--threads")
        .arg(options.threads.to_string())
        .arg("--tenant-rate")
        .arg(options.tenant_rate.to_string())
        .arg("--tenant-burst")
        .arg(options.tenant_burst.to_string())
        .arg("--tenant-quota")
        .arg(options.tenant_quota.to_string())
        .arg("--idle-secs")
        .arg(options.idle_secs.to_string())
        .arg("--conn-requests")
        .arg(options.conn_requests.to_string())
        .arg("--id-start")
        .arg((shard as u64 + 1).to_string())
        .arg("--id-stride")
        .arg((options.shards as u64).to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if options.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("shard {shard} exited before announcing its address"),
            ));
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or("").to_string();
            if !addr.is_empty() {
                println!("[shard {shard}] {}", line.trim_end());
                break addr;
            }
        }
    };
    // Keep relaying the shard's output so its logs stay visible.
    std::thread::spawn(move || {
        for line in reader.lines().map_while(Result::ok) {
            println!("[shard {shard}] {line}");
        }
    });
    Ok(Shard { child, addr })
}

/// The supervisor mode: `N` shard processes behind one [`Router`].
fn run_router(options: &Options) -> ExitCode {
    let shard_set = Arc::new(ShardSet::new(options.shards));
    let mut shards: Vec<Shard> = Vec::with_capacity(options.shards);
    for k in 0..options.shards {
        match spawn_shard(options, k) {
            Ok(shard) => {
                shard_set.set(k, Some(shard.addr.clone()), Some(shard.child.id()));
                shards.push(shard);
            }
            Err(e) => {
                eprintln!("spawning shard {k} failed: {e}");
                for mut shard in shards {
                    let _ = shard.child.kill();
                }
                return ExitCode::FAILURE;
            }
        }
    }
    let router = match Router::start(
        &options.addr,
        Arc::clone(&shard_set),
        Duration::from_secs(options.idle_secs.max(1)),
        options.conn_requests,
    ) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("router failed to start: {e}");
            for shard in &mut shards {
                let _ = shard.child.kill();
            }
            return ExitCode::FAILURE;
        }
    };
    println!("bea-serve listening on http://{} (router, {} shards)", router.addr(), options.shards);
    println!("store: {} (per-shard subdirectories)", options.out.display());
    println!("endpoints: POST /v1/attacks, GET /v1/attacks/{{id}}[/csv|/progress], GET /healthz, GET /metrics, POST /v1/shutdown");

    // Supervise: respawn crashed shards until shutdown is requested. A
    // respawned shard replays its own jobs.jsonl, so every job it had
    // accepted before dying re-enqueues and runs.
    while !router.shutdown_requested() {
        for (k, shard) in shards.iter_mut().enumerate() {
            match shard.child.try_wait() {
                Ok(Some(status)) => {
                    if router.shutdown_requested() {
                        // The broadcast already stopped it; draining,
                        // not crashing. Don't resurrect it.
                        continue;
                    }
                    eprintln!("shard {k} died ({status}); respawning");
                    shard_set.set(k, None, None);
                    match spawn_shard(options, k) {
                        Ok(fresh) => {
                            shard_set.set(k, Some(fresh.addr.clone()), Some(fresh.child.id()));
                            *shard = fresh;
                        }
                        Err(e) => eprintln!("respawning shard {k} failed: {e}; retrying"),
                    }
                }
                Ok(None) => {}
                Err(e) => eprintln!("waiting on shard {k} failed: {e}"),
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    println!("shutdown requested, stopping shards...");
    router.shutdown();
    // The router already broadcast /v1/shutdown; give each shard its
    // drain window, then make sure it is gone.
    let deadline = Instant::now() + Duration::from_secs(options.drain_secs + 10);
    for (k, shard) in shards.iter_mut().enumerate() {
        loop {
            match shard.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                _ => {
                    eprintln!("shard {k} did not drain in time; killing");
                    let _ = shard.child.kill();
                    let _ = shard.child.wait();
                    break;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
