//! Loopback integration tests for the serving layer: determinism
//! against direct campaign runs, backpressure, shutdown/restart
//! recovery and job-log faults.

use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore, CellSpec};
use bea_core::AttackJob;
use bea_detect::{Architecture, ModelZoo};
use bea_scene::SyntheticKitti;
use bea_serve::{Client, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bea_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A fast server configuration: smoke dataset, tiny drain deadline
/// headroom, request logging on.
fn test_config(store_dir: PathBuf, workers: usize, queue_capacity: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity,
        dataset: SyntheticKitti::smoke_set(),
        drain_deadline: Duration::from_secs(120),
        ..ServerConfig::new(store_dir)
    }
}

/// A small but real job: YOLO seed 1 on smoke image 0, pop 8 / gens 2.
fn toy_job_json() -> String {
    "{\"arch\":\"yolo\",\"model_seed\":1,\"image_index\":0,\
     \"pop\":8,\"gens\":2,\"seed\":5}"
        .to_string()
}

/// Extracts the `"id":"job-N"` value from a 202 body.
fn job_id(body: &str) -> String {
    let value = bea_core::telemetry::parse_json(body).expect("valid 202 body");
    value.get("id").and_then(|v| v.as_str()).expect("202 body carries an id").to_string()
}

const POLL: Duration = Duration::from_millis(50);
const DEADLINE: Duration = Duration::from_secs(120);

#[test]
fn served_csv_is_byte_identical_to_direct_campaign_run() {
    let store_dir = scratch("identity");
    let server = Server::start(test_config(store_dir.clone(), 1, 8)).expect("server starts");
    let client = Client::new(server.addr().to_string());

    // Liveness and metrics respond before any job runs.
    let health = client.healthz().expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body_text().unwrap().contains("\"status\":\"ok\""));
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body_text().unwrap().contains("bea_serve_queue_depth"));

    // Submit the job and wait for completion.
    let accepted = client.submit(&toy_job_json()).expect("submit");
    assert_eq!(accepted.status, 202, "{:?}", accepted.body_text());
    let id = job_id(accepted.body_text().unwrap());
    let finished = client.wait(&id, POLL, DEADLINE).expect("job finishes");
    assert_eq!(finished.status, 200);
    assert!(
        finished.body_text().unwrap().contains("\"status\":\"done\""),
        "job did not finish cleanly: {:?}",
        finished.body_text()
    );
    let served = client.csv(&id).expect("csv");
    assert_eq!(served.status, 200);
    assert!(!served.body.is_empty());

    // The same cell, run directly as a batch campaign with the same
    // base seed and GA budget, must persist byte-identical CSV.
    let direct_dir = scratch("identity_direct");
    let direct_store = CampaignStore::open(&direct_dir).expect("store opens");
    let job = AttackJob::from_json(&toy_job_json()).expect("job parses");
    let campaign = Campaign::new(CampaignConfig {
        attack: job.attack_config(),
        base_seed: job.base_seed,
        jobs: 1,
        telemetry: false,
    });
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::smoke_set();
    let spec = job.cell_spec();
    assert_eq!(spec, CellSpec::new("YOLO", 1, 0));
    campaign
        .run_with_store(
            std::slice::from_ref(&spec),
            |cell| zoo.model(Architecture::Yolo, cell.model_seed),
            |cell| dataset.image(cell.image_index),
            &direct_store,
        )
        .expect("direct run");
    let direct_bytes = std::fs::read(direct_store.cell_path(&spec)).expect("direct cell CSV");
    assert_eq!(
        served.body, direct_bytes,
        "served CSV must be byte-identical to the direct campaign cell"
    );

    // Error paths: unknown job, premature CSV id, bad bodies, bad routes.
    assert_eq!(client.status("job-999").unwrap().status, 404);
    assert_eq!(client.status("nonsense").unwrap().status, 404);
    assert_eq!(client.submit("{\"arch\":\"vgg\"}").unwrap().status, 400);
    assert_eq!(client.submit("not json").unwrap().status, 400);
    let oob = "{\"arch\":\"yolo\",\"image_index\":9999}";
    assert_eq!(client.submit(oob).unwrap().status, 400, "unmaterialisable image rejected early");
    for path in ["/nope", "/jobs/progress", "/jobs//progress", "/v1/attacks/"] {
        let response = bea_serve::client::request(client.addr(), "GET", path, None).unwrap();
        assert_eq!(response.status, 404, "{path}");
    }
    assert_eq!(
        bea_serve::client::request(client.addr(), "DELETE", "/healthz", None).unwrap().status,
        405
    );

    // Metrics reflect the completed job and the request traffic.
    let metrics = client.metrics().expect("metrics");
    let text = metrics.body_text().unwrap();
    assert!(text.contains("bea_serve_jobs_accepted_total 1"), "{text}");
    assert!(text.contains("bea_serve_jobs_completed_total 1"), "{text}");
    assert!(text.contains("bea_serve_jobs_failed_total 0"), "{text}");
    assert!(text.contains("endpoint=\"POST /v1/attacks\",status=\"202\""), "{text}");
    assert!(text.contains("bea_serve_cache_hits_total"), "{text}");

    // The request log recorded the traffic as valid JSONL.
    let report = server.shutdown();
    assert!(!report.deadline_expired);
    let log = std::fs::read_to_string(store_dir.join("requests.jsonl")).expect("request log");
    assert!(log.lines().count() >= 5, "expected several request records:\n{log}");
    for line in log.lines() {
        bea_core::telemetry::validate_json(line).expect("request log lines are valid JSON");
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&direct_dir);
}

#[test]
fn backpressure_rejects_with_429_and_loses_no_accepted_job() {
    let store_dir = scratch("backpressure");
    let server = Server::start(test_config(store_dir.clone(), 1, 1)).expect("server starts");
    let client = Client::new(server.addr().to_string());

    // One worker, queue bound 1: keep submitting until the queue refuses.
    // The job is heavy enough (pop 8 × 4 generations on a 96×48 image)
    // that submissions outpace the single worker.
    let body = |fill: usize| {
        format!(
            "{{\"arch\":\"yolo\",\"pop\":8,\"gens\":4,\"seed\":9,\
             \"image\":{{\"width\":96,\"height\":48,\"fill\":[{fill},0,0]}}}}"
        )
    };
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for k in 0..50 {
        let response = client.submit(&body(k % 200)).expect("submit");
        match response.status {
            202 => accepted.push(job_id(response.body_text().unwrap())),
            429 => {
                assert_eq!(response.header("retry-after"), Some("1"), "429 carries Retry-After");
                rejected += 1;
                if rejected >= 3 {
                    break;
                }
            }
            other => panic!("unexpected status {other}: {:?}", response.body_text()),
        }
    }
    assert!(rejected >= 3, "the bounded queue must push back");
    assert!(!accepted.is_empty(), "some jobs must be accepted");

    // Every accepted job completes and serves its CSV; none are lost.
    for id in &accepted {
        let finished = client.wait(id, POLL, DEADLINE).expect("accepted job finishes");
        assert!(
            finished.body_text().unwrap().contains("\"status\":\"done\""),
            "accepted job {id} lost: {:?}",
            finished.body_text()
        );
        assert_eq!(client.csv(id).unwrap().status, 200);
    }
    let metrics = client.metrics().unwrap();
    let text = metrics.body_text().unwrap().to_string();
    assert!(text.contains(&format!("bea_serve_jobs_accepted_total {}", accepted.len())), "{text}");
    assert!(text.contains(&format!("bea_serve_jobs_rejected_total {rejected}")), "{text}");

    // Only accepted jobs were logged for replay.
    let log = std::fs::read_to_string(store_dir.join("jobs.jsonl")).expect("job log");
    assert_eq!(log.lines().count(), accepted.len(), "429s must never enter the job log");

    let report = server.shutdown();
    assert!(!report.deadline_expired);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn shutdown_drains_in_flight_and_restart_recovers_the_queue() {
    let store_dir = scratch("restart");
    let server = Server::start(test_config(store_dir.clone(), 1, 4)).expect("server starts");
    let client = Client::new(server.addr().to_string());

    // Three jobs against one worker: the later ones are still queued
    // when shutdown begins. Distinct model seeds give each job its own
    // cell, so persisted cells count finished jobs exactly.
    let body = |model_seed: usize| {
        format!(
            "{{\"arch\":\"detr\",\"model_seed\":{model_seed},\"pop\":4,\"gens\":1,\"seed\":3,\
             \"image\":{{\"width\":32,\"height\":16,\"fill\":[0,200,0]}}}}"
        )
    };
    let mut ids = Vec::new();
    for model_seed in [1, 2, 3] {
        let response = client.submit(&body(model_seed)).expect("submit");
        assert_eq!(response.status, 202, "{:?}", response.body_text());
        ids.push(job_id(response.body_text().unwrap()));
    }
    // POST /v1/shutdown flips the stop flag an embedding binary polls.
    let stop = bea_serve::client::request(client.addr(), "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(stop.status, 200);
    assert!(server.shutdown_requested());
    let addr = server.addr().to_string();
    let report = server.shutdown();
    assert!(!report.deadline_expired, "drain must finish inside the deadline");
    // Every accepted job either persisted its cell (finished before or
    // during the drain) or went back to the queue for the next start.
    let persisted = done_count(&store_dir);
    assert_eq!(
        persisted + report.requeued,
        ids.len(),
        "every accepted job is persisted or requeued: {report:?}, {persisted} persisted"
    );
    assert!(report.drained <= persisted, "{report:?}, {persisted} persisted");
    // The old address refuses connections once the server is down.
    assert!(bea_serve::client::request(&addr, "GET", "/healthz", None).is_err());

    // Restart over the same store: finished jobs report done from disk,
    // the rest replay from jobs.jsonl and finish now.
    let server = Server::start(test_config(store_dir.clone(), 1, 4)).expect("server restarts");
    let client = Client::new(server.addr().to_string());
    for id in &ids {
        let finished = client.wait(id, POLL, DEADLINE).expect("job finishes after restart");
        assert!(
            finished.body_text().unwrap().contains("\"status\":\"done\""),
            "job {id} lost across restart: {:?}",
            finished.body_text()
        );
        assert_eq!(client.csv(id).unwrap().status, 200, "results served from the store");
    }
    // Fresh submissions after restart get fresh ids.
    let response = client.submit(&body(40)).expect("submit after restart");
    assert_eq!(response.status, 202);
    let new_id = job_id(response.body_text().unwrap());
    assert!(!ids.contains(&new_id), "restart must not reuse job ids");
    client.wait(&new_id, POLL, DEADLINE).expect("new job finishes");

    let report = server.shutdown();
    assert!(!report.deadline_expired);
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// How many cell CSVs the store holds (one per finished job here, since
/// every submitted job targets a distinct cell).
fn done_count(store_dir: &std::path::Path) -> usize {
    std::fs::read_dir(store_dir.join("cells")).map(|dir| dir.count()).unwrap_or(0)
}

#[test]
fn transfer_endpoint_summarises_matrices_under_the_store() {
    use bea_core::transfer::{
        normalize_degradation, round6, write_matrix_csv, DistortionBudget, TargetPath, TargetSpec,
        TransferCellSpec, TransferMetrics, TransferRow,
    };
    use bea_image::FilterMask;

    let store_dir = scratch("transfer_summary");
    let server = Server::start(test_config(store_dir.clone(), 1, 8)).expect("server starts");
    let client = Client::new(server.addr().to_string());

    // Empty store: the endpoint answers with zero matrices, not an error.
    let empty = bea_serve::client::request(client.addr(), "GET", "/transfer", None).unwrap();
    assert_eq!(empty.status, 200);
    assert!(empty.body_text().unwrap().contains("\"matrices\":0"), "{:?}", empty.body_text());

    // Drop a two-cell matrix (one diagonal, one off-diagonal DETR cell)
    // where transfer_cli would put it.
    let mut mask = FilterMask::zeros(4, 2);
    mask.set(0, 0, 0, 40);
    let row = |target: &TargetSpec, fitness: f64| {
        let budget = DistortionBudget::of(&mask);
        let degradation = round6(1.0 - fitness);
        TransferRow {
            spec: TransferCellSpec::new(CellSpec::new("YOLO", 1, 0), target),
            metrics: TransferMetrics {
                source_fitness: round6(0.25),
                target_fitness: round6(fitness),
                delta: round6(fitness - 0.25),
                degradation,
                vanished: 1,
                appeared: 0,
                deformed: 0,
                budget,
                normalized: normalize_degradation(degradation, &budget),
            },
        }
    };
    let rows = vec![
        row(&TargetSpec::new("YOLO", 1, TargetPath::Plain), 0.25),
        row(&TargetSpec::new("DETR", 1, TargetPath::Plain), 0.6),
    ];
    let dir = store_dir.join("transfer");
    std::fs::create_dir_all(&dir).expect("transfer dir");
    let file = std::fs::File::create(dir.join("matrix.csv")).expect("create matrix");
    write_matrix_csv(&rows, std::io::BufWriter::new(file)).expect("write matrix");

    let summary = bea_serve::client::request(client.addr(), "GET", "/transfer", None).unwrap();
    assert_eq!(summary.status, 200);
    let body = summary.body_text().unwrap();
    assert!(body.contains("\"matrices\":1"), "{body}");
    assert!(body.contains("\"name\":\"transfer\""), "{body}");
    assert!(body.contains("\"cells\":2"), "{body}");
    // The diagonal YOLO cell is excluded; only the DETR column remains,
    // with mean degradation 1 - 0.6 = 0.4.
    assert!(body.contains("\"group\":\"DETR\""), "{body}");
    assert!(!body.contains("\"group\":\"YOLO\""), "{body}");
    assert!(body.contains("\"mean_degradation\":0.4"), "{body}");

    // Wrong method on the route is a 405, like every other endpoint.
    let wrong = bea_serve::client::request(client.addr(), "DELETE", "/transfer", None).unwrap();
    assert_eq!(wrong.status, 405);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Polls `/healthz` until nothing is queued or running.
fn wait_idle(client: &Client) {
    let deadline = std::time::Instant::now() + DEADLINE;
    loop {
        let health = client.healthz().expect("healthz");
        let value = bea_core::telemetry::parse_json(health.body_text().unwrap()).expect("json");
        let gauge = |name: &str| value.get(name).and_then(|v| v.as_u64());
        if gauge("queue_depth") == Some(0) && gauge("in_flight") == Some(0) {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "server never went idle: {value:?}");
        std::thread::sleep(POLL);
    }
}

#[test]
fn a_job_whose_log_append_fails_never_runs() {
    let store_dir = scratch("log_append_fails");
    let server = Server::start(test_config(store_dir.clone(), 1, 8)).expect("server starts");
    let client = Client::new(server.addr().to_string());
    // A directory in the job log's place makes every append fail.
    std::fs::create_dir_all(store_dir.join("jobs.jsonl")).expect("job log directory");

    let refused = client.submit(&toy_job_json()).expect("submit");
    assert_eq!(refused.status, 500, "{:?}", refused.body_text());
    wait_idle(&client);
    let metrics = client.metrics().expect("metrics");
    let text = metrics.body_text().unwrap();
    assert!(text.contains("bea_serve_jobs_accepted_total 0"), "{text}");
    assert!(text.contains("bea_serve_jobs_completed_total 0"), "{text}");

    // Shutdown joins the worker, so a job it had popped would have
    // persisted its cell by now.
    let spec = AttackJob::from_json(&toy_job_json()).expect("job parses").cell_spec();
    let cell = server.store().cell_path(&spec);
    server.shutdown();
    assert!(!cell.exists(), "a job answered 500 ran and persisted {}", cell.display());
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A tiny YOLO job on its own cell (`model_seed` picks the cell).
fn cell_job(model_seed: u64) -> String {
    format!(
        "{{\"arch\":\"yolo\",\"model_seed\":{model_seed},\"image_index\":0,\
         \"pop\":4,\"gens\":1,\"seed\":5}}"
    )
}

/// Asserts every job reports `done` on `server`.
fn assert_done(server: &Server, ids: &[&str]) {
    let client = Client::new(server.addr().to_string());
    for id in ids {
        let finished = client.wait(id, POLL, DEADLINE).expect("job finishes");
        let body = finished.body_text().unwrap();
        assert!(body.contains("\"status\":\"done\""), "job {id}: {body}");
    }
}

#[test]
fn a_torn_final_job_log_record_is_dropped_and_the_log_keeps_appending() {
    let store_dir = scratch("torn_tail");
    let log_path = store_dir.join("jobs.jsonl");
    let server = Server::start(test_config(store_dir.clone(), 1, 4)).expect("server starts");
    let client = Client::new(server.addr().to_string());
    let first = job_id(client.submit(&cell_job(1)).expect("submit").body_text().unwrap());
    assert_done(&server, &[&first]);
    server.shutdown();

    // A crash mid-append leaves a partial record without its newline.
    let intact = std::fs::read(&log_path).expect("job log");
    let mut torn = intact.clone();
    torn.extend_from_slice(b"{\"type\":\"job\",\"id\":2,\"job\":{\"arch\":\"de");
    std::fs::write(&log_path, &torn).expect("tear the log");

    let server = Server::start(test_config(store_dir.clone(), 1, 4))
        .expect("a torn final record does not stop the server");
    assert_eq!(std::fs::read(&log_path).unwrap(), intact, "cut back to the last complete line");
    assert_done(&server, &[&first]);
    let client = Client::new(server.addr().to_string());
    let second = job_id(client.submit(&cell_job(2)).expect("submit").body_text().unwrap());
    assert_done(&server, &[&second]);
    server.shutdown();

    // The append after the cut is a line of its own: the log restarts.
    let log = std::fs::read_to_string(&log_path).expect("job log");
    assert_eq!(log.lines().count(), 2, "{log}");
    assert!(log.ends_with('\n'), "{log}");
    let server =
        Server::start(test_config(store_dir.clone(), 1, 4)).expect("restart after an append");
    assert_done(&server, &[&first, &second]);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn a_corrupt_job_log_record_before_further_lines_refuses_to_start() {
    let store_dir = scratch("corrupt_middle");
    std::fs::create_dir_all(&store_dir).expect("store dir");
    let job = AttackJob::from_json(&cell_job(1)).expect("job parses");
    let log = format!(
        "{{\"type\":\"job\",\"id\":1,\"jo\n{{\"type\":\"job\",\"id\":2,\"job\":{}}}\n",
        job.to_json()
    );
    std::fs::write(store_dir.join("jobs.jsonl"), &log).expect("write log");
    let err = Server::start(test_config(store_dir.clone(), 1, 4))
        .expect_err("corruption before further records must refuse to start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(std::fs::read_to_string(store_dir.join("jobs.jsonl")).unwrap(), log);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn a_whole_final_job_log_record_without_its_newline_is_kept_and_terminated() {
    let store_dir = scratch("unterminated");
    std::fs::create_dir_all(&store_dir).expect("store dir");
    let job = AttackJob::from_json(&cell_job(1)).expect("job parses");
    let record = format!("{{\"type\":\"job\",\"id\":1,\"job\":{}}}", job.to_json());
    std::fs::write(store_dir.join("jobs.jsonl"), &record).expect("write log");
    let server = Server::start(test_config(store_dir.clone(), 1, 4)).expect("server starts");
    assert_done(&server, &["job-1"]);
    server.shutdown();
    let log = std::fs::read_to_string(store_dir.join("jobs.jsonl")).expect("job log");
    assert_eq!(log, format!("{record}\n"));
    let _ = std::fs::remove_dir_all(&store_dir);
}
