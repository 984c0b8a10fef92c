//! Integration tests for the event-driven front-end, concurrent
//! workers, tenant admission control and job-log compaction.
//!
//! The determinism anchor from `server_roundtrip` carries over
//! unchanged: whatever the transport (reactor vs. thread-per-connection)
//! and however many workers run jobs side by side, the CSV a job serves
//! must be byte-identical to a direct `Campaign` run of the same cell.

use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore};
use bea_core::AttackJob;
use bea_detect::{Architecture, ModelZoo};
use bea_scene::SyntheticKitti;
use bea_serve::{Client, Server, ServerConfig, TenantPolicy};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bea_reactor_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A reactor-mode configuration over the smoke dataset.
fn reactor_config(store_dir: PathBuf, workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: 32,
        dataset: SyntheticKitti::smoke_set(),
        drain_deadline: Duration::from_secs(120),
        ..ServerConfig::new(store_dir)
    }
}

fn job_id(body: &str) -> String {
    let value = bea_core::telemetry::parse_json(body).expect("valid 202 body");
    value.get("id").and_then(|v| v.as_str()).expect("202 body carries an id").to_string()
}

const POLL: Duration = Duration::from_millis(50);
const DEADLINE: Duration = Duration::from_secs(120);

#[test]
fn reactor_two_workers_serve_byte_identical_csv() {
    let store_dir = scratch("two_workers");
    // Two workers over four queued jobs: two run side by side while the
    // rest wait, so both workers take jobs from the queue.
    let server = Server::start(reactor_config(store_dir.clone(), 2)).expect("server starts");
    let client = Client::new(server.addr().to_string());

    // Four jobs on one model with distinct images — each is its own
    // campaign cell.
    let body = |image: usize| {
        format!(
            "{{\"arch\":\"yolo\",\"model_seed\":1,\"image_index\":{image},\
             \"pop\":8,\"gens\":2,\"seed\":5,\"tenant\":\"team-a\"}}"
        )
    };
    let mut ids = Vec::new();
    for image in 0..4 {
        let accepted = client.submit(&body(image)).expect("submit");
        assert_eq!(accepted.status, 202, "{:?}", accepted.body_text());
        ids.push(job_id(accepted.body_text().unwrap()));
    }
    for id in &ids {
        let finished = client.wait(id, POLL, DEADLINE).expect("job finishes");
        assert!(
            finished.body_text().unwrap().contains("\"status\":\"done\""),
            "job {id} did not finish: {:?}",
            finished.body_text()
        );
    }

    // Byte-identity against a direct campaign over the same four cells
    // (the jobs share attack config and base seed, so one grid covers
    // them all).
    let direct_dir = scratch("two_workers_direct");
    let direct_store = CampaignStore::open(&direct_dir).expect("store opens");
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::smoke_set();
    let lead = AttackJob::from_json(&body(0)).expect("job parses");
    let specs: Vec<_> =
        (0..4).map(|image| AttackJob::from_json(&body(image)).unwrap().cell_spec()).collect();
    let campaign = Campaign::new(CampaignConfig {
        attack: lead.attack_config(),
        base_seed: lead.base_seed,
        jobs: 1,
        telemetry: false,
    });
    campaign
        .run_with_store(
            &specs,
            |cell| zoo.model(Architecture::Yolo, cell.model_seed),
            |cell| dataset.image(cell.image_index),
            &direct_store,
        )
        .expect("direct run");
    for (image, (id, spec)) in ids.iter().zip(&specs).enumerate() {
        let served = client.csv(id).expect("csv");
        assert_eq!(served.status, 200);
        let direct_bytes = std::fs::read(direct_store.cell_path(spec)).expect("direct cell");
        assert_eq!(
            served.body, direct_bytes,
            "cell for image {image} diverged between serving and a direct run"
        );
    }

    let report = server.shutdown();
    assert!(!report.deadline_expired);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&direct_dir);
}

#[test]
fn tenants_are_rate_limited_and_quota_bounded_independently() {
    let store_dir = scratch("tenants");
    let mut config = reactor_config(store_dir.clone(), 1);
    // One token, refilled at one token per 2s, and at most one job in
    // the system per tenant.
    config.tenant_policy = TenantPolicy { rate: 0.5, burst: 1.0, quota: 1 };
    let server = Server::start(config).expect("server starts");
    let client = Client::new(server.addr().to_string());

    let body = |tenant: &str| {
        format!(
            "{{\"arch\":\"yolo\",\"pop\":8,\"gens\":2,\"seed\":7,\"tenant\":\"{tenant}\",\
             \"image\":{{\"width\":64,\"height\":32,\"fill\":[40,0,0]}}}}"
        )
    };
    let accepted = client.submit(&body("team-a")).expect("submit");
    assert_eq!(accepted.status, 202, "{:?}", accepted.body_text());
    let id = job_id(accepted.body_text().unwrap());

    // Same tenant, first job still in the system: the quota (checked
    // before the bucket) refuses with a poll hint of one second.
    let refused = client.submit(&body("team-a")).expect("submit");
    assert_eq!(refused.status, 429, "{:?}", refused.body_text());
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert!(refused.body_text().unwrap().contains("quota"), "{:?}", refused.body_text());

    // A different tenant has its own bucket and quota slot. Distinct
    // fill keeps its cell distinct from team-a's.
    let other = client
        .submit(&body("team-b").replace("[40,0,0]", "[0,40,0]"))
        .expect("submit other tenant");
    assert_eq!(other.status, 202, "{:?}", other.body_text());
    let other_id = job_id(other.body_text().unwrap());

    // Invalid tenant names are rejected before touching the queue.
    assert_eq!(client.submit(&body("Team A")).unwrap().status, 400);
    assert_eq!(client.submit(&body(&"t".repeat(33))).unwrap().status, 400);

    // Once team-a's job finishes its quota slot frees; the bucket
    // refills at 0.5 tokens/s, so within a few seconds a resubmission
    // is admitted again.
    client.wait(&id, POLL, DEADLINE).expect("team-a job finishes");
    client.wait(&other_id, POLL, DEADLINE).expect("team-b job finishes");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let readmitted = loop {
        let response = client.submit(&body("team-a")).expect("resubmit");
        if response.status == 202 {
            break response;
        }
        // Quota is free (both jobs finished), so any refusal here is the
        // token bucket with its computed retry hint.
        assert_eq!(response.status, 429);
        assert!(response.body_text().unwrap().contains("rate limit"), "{:?}", response.body_text());
        let retry: u64 = response.header("retry-after").expect("Retry-After").parse().unwrap();
        assert!(retry >= 1, "{retry}");
        assert!(std::time::Instant::now() < deadline, "bucket never refilled");
        std::thread::sleep(Duration::from_millis(250));
    };
    let readmitted_id = job_id(readmitted.body_text().unwrap());
    client.wait(&readmitted_id, POLL, DEADLINE).expect("readmitted job finishes");

    let report = server.shutdown();
    assert!(!report.deadline_expired);
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn job_log_compacts_on_restart_without_changing_replay() {
    let store_dir = scratch("compaction");
    let tiny = |model_seed: usize| {
        format!(
            "{{\"arch\":\"detr\",\"model_seed\":{model_seed},\"pop\":4,\"gens\":1,\"seed\":3,\
             \"image\":{{\"width\":32,\"height\":16,\"fill\":[0,200,0]}}}}"
        )
    };
    let log_lines = || {
        std::fs::read_to_string(store_dir.join("jobs.jsonl"))
            .map(|log| log.lines().filter(|l| !l.trim().is_empty()).count())
            .unwrap_or(0)
    };

    // Phase 1: run three jobs to completion; the append-only log holds
    // one record per accepted job.
    let mut config = reactor_config(store_dir.clone(), 1);
    config.done_retention = 64;
    let server = Server::start(config).expect("server starts");
    let client = Client::new(server.addr().to_string());
    let mut ids = Vec::new();
    for model_seed in [1, 2, 3] {
        let accepted = client.submit(&tiny(model_seed)).expect("submit");
        assert_eq!(accepted.status, 202, "{:?}", accepted.body_text());
        ids.push(job_id(accepted.body_text().unwrap()));
    }
    for id in &ids {
        let finished = client.wait(id, POLL, DEADLINE).expect("job finishes");
        assert!(finished.body_text().unwrap().contains("\"status\":\"done\""));
    }
    server.shutdown();
    assert_eq!(log_lines(), 3, "one record per accepted job before compaction");

    // Phase 2: restart with retention 1. Startup compaction drops all
    // but the newest done record; the retained job still reports done.
    let mut config = reactor_config(store_dir.clone(), 1);
    config.done_retention = 1;
    let server = Server::start(config).expect("server restarts");
    let client = Client::new(server.addr().to_string());
    assert_eq!(log_lines(), 1, "compaction keeps only the newest done record");
    let kept = ids.last().unwrap();
    let status = client.status(kept).expect("status");
    assert_eq!(status.status, 200);
    assert!(status.body_text().unwrap().contains("\"status\":\"done\""), "retained job is done");
    assert_eq!(client.csv(kept).unwrap().status, 200);
    // Submit one more job and stop immediately: it lands in the log and
    // may still be pending when the drain starts.
    let accepted = client.submit(&tiny(4)).expect("submit");
    assert_eq!(accepted.status, 202);
    let late_id = job_id(accepted.body_text().unwrap());
    assert!(!ids.contains(&late_id), "compaction must not reset id allocation");
    server.shutdown();

    // Phase 3: restart again. Replay of non-done records is unchanged
    // by compaction: the late job finishes (now or already) and serves
    // its CSV.
    let mut config = reactor_config(store_dir.clone(), 1);
    config.done_retention = 1;
    let server = Server::start(config).expect("server restarts again");
    let client = Client::new(server.addr().to_string());
    let finished = client.wait(&late_id, POLL, DEADLINE).expect("late job finishes");
    assert!(
        finished.body_text().unwrap().contains("\"status\":\"done\""),
        "job lost across compacting restarts: {:?}",
        finished.body_text()
    );
    assert_eq!(client.csv(&late_id).unwrap().status, 200);
    assert!(log_lines() <= 2, "the log stays bounded across restarts");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}
