//! End-to-end shard-router tests driving the real `serve_cli` binary.
//!
//! Sharding must not change results — the per-cell CSVs a `--shards 4`
//! cluster serves are byte-identical to a `--shards 1` server's — and a
//! `kill -9` of one shard must not lose accepted jobs: the supervisor
//! respawns the shard, the replayed job log re-runs its pending work,
//! and every submission still reaches `done`. The router relays
//! progress streams byte for byte, and its pooled shard connections
//! survive the shards closing them when idle.

use bea_serve::{client, Client};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bea_shard_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

struct ServeProc {
    child: Child,
    addr: String,
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `serve_cli` with the given extra flags and waits for its
/// "listening on http://ADDR" announcement.
fn spawn_serve(out: &std::path::Path, extra: &[&str]) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve_cli"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--smoke")
        .arg("--workers")
        .arg("1")
        .arg("--queue")
        .arg("32")
        .arg("--drain-secs")
        .arg("60")
        .arg("--out")
        .arg(out)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("serve_cli spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read serve_cli stdout");
        assert!(n > 0, "serve_cli exited before announcing its address");
        // The supervisor relays shard announcements prefixed "[shard k]";
        // only the un-prefixed line is the front door's own address.
        if let Some(rest) = line.strip_prefix("bea-serve listening on http://") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    ServeProc { child, addr }
}

/// Asks the process to drain and waits for it to exit.
fn shutdown(proc: &mut ServeProc) {
    let posted = client::request(&proc.addr, "POST", "/v1/shutdown", None);
    assert_eq!(posted.expect("shutdown POST").status, 200);
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        match proc.child.try_wait().expect("try_wait") {
            Some(_) => break,
            None if Instant::now() > deadline => {
                let _ = proc.child.kill();
                panic!("serve_cli did not drain within the deadline");
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// The job set both tests submit: eight distinct cells.
fn job_bodies() -> Vec<String> {
    let mut bodies = Vec::new();
    for model_seed in 1..=2u64 {
        for image_index in 0..4usize {
            bodies.push(format!(
                "{{\"arch\":\"yolo\",\"model_seed\":{model_seed},\
                 \"image_index\":{image_index},\"pop\":4,\"gens\":1,\"seed\":5}}"
            ));
        }
    }
    bodies
}

fn submitted_id(response: &bea_serve::HttpResponse) -> String {
    assert_eq!(response.status, 202, "{:?}", response.body_text());
    bea_core::telemetry::parse_json(response.body_text().unwrap())
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(String::from)))
        .expect("202 body carries an id")
}

/// Polls a job to `done`, tolerating transient 503s while a shard is
/// down and being respawned.
fn wait_done(client: &Client, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        match client.status(id) {
            Ok(response) if response.status == 200 => {
                let body = response.body_text().unwrap_or("");
                if body.contains("\"status\":\"done\"") {
                    return;
                }
                assert!(!body.contains("\"status\":\"failed\""), "job {id} failed: {body}");
            }
            Ok(response) => assert!(
                response.status == 503 || response.status == 404,
                "job {id}: unexpected status {}",
                response.status
            ),
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Fetches a done job's CSV, tolerating transient 503s.
fn fetch_csv(client: &Client, id: &str) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match client.csv(id) {
            Ok(response) if response.status == 200 => return response.body,
            Ok(response) => assert_eq!(response.status, 503, "csv for {id}"),
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "csv for {id} never arrived");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Runs the job set against one `serve_cli` configuration and returns
/// each job body's served CSV bytes.
fn run_cluster(tag: &str, extra: &[&str]) -> BTreeMap<String, Vec<u8>> {
    let out = scratch(tag);
    let mut proc = spawn_serve(&out, extra);
    let client = Client::new(proc.addr.clone());
    let ids: Vec<(String, String)> = job_bodies()
        .into_iter()
        .map(|body| {
            let id = submitted_id(&client.submit(&body).expect("submit"));
            (body, id)
        })
        .collect();
    for (_, id) in &ids {
        wait_done(&client, id);
    }
    let csvs = ids.iter().map(|(body, id)| (body.clone(), fetch_csv(&client, id))).collect();
    shutdown(&mut proc);
    let _ = std::fs::remove_dir_all(&out);
    csvs
}

#[test]
fn sharded_cluster_serves_byte_identical_csvs() {
    let solo = run_cluster("solo", &[]);
    let sharded = run_cluster("four", &["--shards", "4"]);
    assert_eq!(solo.len(), sharded.len());
    for (body, bytes) in &solo {
        let via_shards = sharded.get(body).expect("every job served under sharding");
        assert!(!bytes.is_empty(), "empty CSV for {body}");
        assert_eq!(
            via_shards, bytes,
            "cell CSV diverged between --shards 1 and --shards 4 for {body}"
        );
    }
}

#[test]
fn killing_one_shard_loses_no_accepted_jobs() {
    let out = scratch("crash");
    let mut proc = spawn_serve(&out, &["--shards", "4"]);
    let client = Client::new(proc.addr.clone());

    let healthz = client.healthz().expect("healthz");
    assert_eq!(healthz.status, 200);
    let health = bea_core::telemetry::parse_json(healthz.body_text().unwrap()).expect("json");
    assert_eq!(health.get("shards").and_then(|v| v.as_u64()), Some(4));

    let ids: Vec<String> = job_bodies()
        .into_iter()
        .map(|body| submitted_id(&client.submit(&body).expect("submit")))
        .collect();

    // Kill the shard that owns the first accepted job, while its work
    // is still queued or running.
    let victim_id: u64 = ids[0]
        .strip_prefix("job-")
        .expect("job ids carry the job- prefix")
        .parse()
        .expect("numeric id suffix");
    let victim_shard = bea_serve::router::shard_for_id(victim_id, 4);
    let pid = shard_status(&client, victim_shard)
        .get("pid")
        .and_then(|v| v.as_u64())
        .expect("healthz exposes shard pids");
    let killed = Command::new("kill").args(["-9", &pid.to_string()]).status().expect("kill runs");
    assert!(killed.success(), "kill -9 {pid} failed");

    // Every accepted job — including the killed shard's — still
    // finishes: the supervisor respawns the shard and its replayed job
    // log re-runs the pending work.
    for id in &ids {
        wait_done(&client, id);
    }
    for id in &ids {
        assert!(!fetch_csv(&client, id).is_empty(), "job {id} served no CSV");
    }

    // The merged metrics still answer and count all eight accepted
    // jobs. (Counters reset on the respawned shard are allowed to
    // undercount its share, so only the floor is asserted.)
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_text().unwrap();
    assert!(text.contains("bea_serve_jobs_accepted_total"), "{text}");

    shutdown(&mut proc);
    let _ = std::fs::remove_dir_all(&out);
}

/// The `/healthz` entry of shard `shard`.
fn shard_status(client: &Client, shard: usize) -> bea_core::telemetry::JsonValue {
    let healthz = client.healthz().expect("healthz");
    let health = bea_core::telemetry::parse_json(healthz.body_text().unwrap()).expect("json");
    let Some(bea_core::telemetry::JsonValue::Array(entries)) = health.get("shard_status") else {
        panic!("shard_status is not an array");
    };
    entries
        .iter()
        .find(|entry| entry.get("shard").and_then(|v| v.as_u64()) == Some(shard as u64))
        .cloned()
        .expect("healthz lists every shard")
}

/// Follows a progress stream to its end: the status and every line.
fn progress_of(client: &Client, id: &str) -> (u16, Vec<String>) {
    let mut lines = Vec::new();
    let status = client.progress(id, |line| lines.push(line.to_string())).expect("progress");
    (status, lines)
}

#[test]
fn progress_through_the_router_matches_the_owning_shard() {
    let out = scratch("progress");
    let mut proc = spawn_serve(&out, &["--shards", "2"]);
    let client = Client::new(proc.addr.clone());
    let id = submitted_id(&client.submit(&job_bodies()[0]).expect("submit"));
    wait_done(&client, &id);

    let number: u64 = id.strip_prefix("job-").and_then(|n| n.parse().ok()).expect("job-N id");
    let owner = shard_status(&client, bea_serve::router::shard_for_id(number, 2));
    let owner_addr = owner.get("addr").and_then(|v| v.as_str()).expect("shard address");
    let via_router = progress_of(&client, &id);
    assert_eq!(via_router.0, 200);
    assert!(
        via_router.1.iter().any(|line| line.contains("\"type\":\"generation\"")),
        "{:?}",
        via_router.1
    );
    assert_eq!(via_router, progress_of(&Client::new(owner_addr), &id));

    // An unknown id is the owning shard's 404, relayed.
    let (status, lines) = progress_of(&client, "job-999");
    assert_eq!(status, 404, "{lines:?}");
    assert!(lines.iter().any(|line| line.contains("unknown job job-999")), "{lines:?}");
    assert_eq!(client.status("job-999").expect("status").status, 404);

    shutdown(&mut proc);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn router_reconnects_after_a_shard_closes_its_idle_connection() {
    let out = scratch("idle");
    let mut proc = spawn_serve(&out, &["--shards", "2", "--idle-secs", "1"]);
    let client = Client::new(proc.addr.clone());
    // Two cells owned by one shard, so the second submission goes out
    // on the connection the first one pooled.
    let bodies = job_bodies();
    let shard_of = |body: &String| {
        let job = bea_core::AttackJob::from_json(body).expect("job parses");
        bea_serve::router::shard_for_cell(&job.cell_spec(), 2)
    };
    let second = bodies[1..]
        .iter()
        .find(|body| shard_of(body) == shard_of(&bodies[0]))
        .expect("two of eight cells share a shard");

    let first_id = submitted_id(&client.submit(&bodies[0]).expect("first submit"));
    // The shard drops the pooled connection after a second of silence.
    std::thread::sleep(Duration::from_secs(2));
    let second_id = submitted_id(&client.submit(second).expect("second submit"));
    wait_done(&client, &first_id);
    wait_done(&client, &second_id);

    shutdown(&mut proc);
    let _ = std::fs::remove_dir_all(&out);
}
