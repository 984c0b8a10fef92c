//! Keep-alive, pipelining and progress-streaming tests against the
//! event-driven front-end.
//!
//! The keep-alive contract: a client may pipeline any number of
//! requests on one connection, under any byte chunking, and the
//! response sequence must be exactly what the same requests produce
//! serially on fresh connections. `Connection: close` (or the
//! per-connection request cap) truncates the conversation after the
//! in-flight response, per RFC 9112 §9.6. Progress streams ride the
//! same connections as chunked bodies and replay deterministically.

use bea_scene::SyntheticKitti;
use bea_serve::http::ResponseParser;
use bea_serve::{Client, Server, ServerConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bea_keepalive_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn reactor_config(store_dir: PathBuf) -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_capacity: 32,
        dataset: SyntheticKitti::smoke_set(),
        drain_deadline: Duration::from_secs(120),
        ..ServerConfig::new(store_dir)
    }
}

/// One server shared by every proptest case: booting a server per case
/// would dominate the test, and the idempotent request pool below never
/// mutates its state. Leaked on purpose — the process end reaps it.
fn shared_server_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let server =
            Server::start(reactor_config(scratch("shared"))).expect("shared server starts");
        let addr = server.addr().to_string();
        std::mem::forget(server);
        addr
    })
}

/// The request pool the properties draw from: state-independent
/// requests whose responses never change across calls (no `/metrics`,
/// whose counters move; no successful submissions).
const POOL: &[(&str, &str, &str)] = &[
    ("GET", "/healthz", ""),
    ("GET", "/does-not-exist", ""),
    ("GET", "/v1/attacks/999999", ""),
    ("GET", "/v1/attacks/999999/csv", ""),
    ("GET", "/v1/attacks/not-a-number/progress", ""),
    ("PUT", "/healthz", ""),
    ("POST", "/v1/attacks", "{}"),
    ("POST", "/v1/attacks", "not json at all"),
];

/// Renders one pool request. `close` appends `Connection: close`.
fn render(index: usize, close: bool) -> Vec<u8> {
    let (method, path, body) = POOL[index % POOL.len()];
    let mut text = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    if !body.is_empty() || method == "POST" {
        text.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    if close {
        text.push_str("Connection: close\r\n");
    }
    text.push_str("\r\n");
    text.push_str(body);
    text.into_bytes()
}

/// Writes `stream_bytes` to one connection in chunks whose sizes are
/// drawn from `rng` in `[1, max_chunk]` (1 = byte at a time), then
/// reads until `expected` responses have parsed or the peer closes.
/// Returns the `(status, body)` sequence.
fn pipelined_roundtrip(
    addr: &str,
    stream_bytes: &[u8],
    rng: &mut TestRng,
    max_chunk: usize,
    expected: usize,
) -> Vec<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut at = 0;
    while at < stream_bytes.len() {
        let take = (1 + rng.below(max_chunk as u64) as usize).min(stream_bytes.len() - at);
        stream.write_all(&stream_bytes[at..at + take]).expect("pipelined write");
        at += take;
    }
    let mut parser = ResponseParser::new(1024 * 1024);
    let mut responses = Vec::new();
    let mut buf = [0u8; 4096];
    while responses.len() < expected {
        while let Some(response) = parser.next_response().expect("well-formed response") {
            responses.push((response.status, response.body));
        }
        if responses.len() >= expected {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => parser.feed(&buf[..n]),
            Err(e) => panic!("read failed after {} responses: {e}", responses.len()),
        }
    }
    responses
}

/// The serial baseline: each request on its own fresh connection with
/// `Connection: close`, read to EOF.
fn serial_roundtrip(addr: &str, indices: &[usize]) -> Vec<(u16, Vec<u8>)> {
    indices
        .iter()
        .map(|&index| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
            stream.write_all(&render(index, true)).expect("write");
            let mut bytes = Vec::new();
            stream.read_to_end(&mut bytes).expect("read to EOF");
            let mut parser = ResponseParser::new(1024 * 1024);
            parser.feed(&bytes);
            let response = parser
                .next_response()
                .expect("well-formed response")
                .expect("one full response before EOF");
            (response.status, response.body)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any pipelined burst, under any chunking down to one byte per
    /// write, answers with exactly the response sequence the same
    /// requests produce serially on fresh connections.
    #[test]
    fn pipelined_keepalive_matches_serial_one_shot(
        (count, max_chunk, seed) in (1usize..=6, 1usize..=24, 0u64..=u64::MAX)
    ) {
        let addr = shared_server_addr();
        let mut rng = TestRng::from_seed(seed);
        let indices: Vec<usize> =
            (0..count).map(|_| rng.below(POOL.len() as u64) as usize).collect();
        let mut stream_bytes = Vec::new();
        for (k, &index) in indices.iter().enumerate() {
            // The last request closes so the server ends the
            // conversation once everything is answered.
            stream_bytes.extend_from_slice(&render(index, k + 1 == indices.len()));
        }
        let pipelined = pipelined_roundtrip(addr, &stream_bytes, &mut rng, max_chunk, count);
        let serial = serial_roundtrip(addr, &indices);
        prop_assert_eq!(pipelined.len(), count, "a pipelined response went missing");
        prop_assert_eq!(pipelined, serial);
    }
}

/// A `Connection: close` in the middle of a pipelined burst answers
/// everything up to and including the closing request, then ends the
/// connection — later pipelined requests are never answered.
#[test]
fn mid_pipeline_connection_close_truncates_the_conversation() {
    let addr = shared_server_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut burst = Vec::new();
    burst.extend_from_slice(&render(0, false)); // GET /healthz, keep-alive
    burst.extend_from_slice(&render(1, true)); // GET /does-not-exist, close
    burst.extend_from_slice(&render(0, false)); // never answered
    stream.write_all(&burst).expect("pipelined write");

    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("server closes after the marked request");
    let mut parser = ResponseParser::new(1024 * 1024);
    parser.feed(&bytes);
    let first = parser.next_response().expect("parse").expect("first response");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = parser.next_response().expect("parse").expect("second response");
    assert_eq!(second.status, 404);
    assert_eq!(second.header("connection"), Some("close"));
    assert!(
        parser.next_response().expect("no trailing garbage").is_none(),
        "the request after Connection: close must go unanswered"
    );
}

/// An HTTP/1.0 request without `Connection: keep-alive` closes after
/// one response.
#[test]
fn http10_defaults_to_close() {
    let addr = shared_server_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream.write_all(b"GET /healthz HTTP/1.0\r\nHost: test\r\n\r\n").expect("write");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read to EOF");
    let mut parser = ResponseParser::new(1024 * 1024);
    parser.feed(&bytes);
    let response = parser.next_response().expect("parse").expect("one response");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
}

/// The per-connection request cap retires a connection after its quota:
/// the capped response carries `Connection: close` and later pipelined
/// requests go unanswered.
#[test]
fn per_connection_request_cap_closes_at_the_cap() {
    let store_dir = scratch("cap");
    let mut config = reactor_config(store_dir.clone());
    config.conn_requests_max = 2;
    let server = Server::start(config).expect("server starts");
    let addr = server.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut burst = Vec::new();
    for _ in 0..3 {
        burst.extend_from_slice(&render(0, false)); // all keep-alive
    }
    stream.write_all(&burst).expect("pipelined write");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("server closes at the cap");
    let mut parser = ResponseParser::new(1024 * 1024);
    parser.feed(&bytes);
    let first = parser.next_response().expect("parse").expect("first response");
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = parser.next_response().expect("parse").expect("second response");
    assert_eq!(second.header("connection"), Some("close"), "the cap marks the final response");
    assert!(parser.next_response().expect("parse").is_none(), "the third request is unanswered");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Progress streams deliver one record per generation plus a terminal
/// `progress_end`, replay identically once the job is done, and the
/// `/jobs/<id>/progress` alias serves the same chunked stream.
#[test]
fn progress_streams_per_generation_telemetry_and_replays() {
    let store_dir = scratch("progress");
    let server = Server::start(reactor_config(store_dir.clone())).expect("server starts");
    let client = Client::new(server.addr().to_string());

    let body = "{\"arch\":\"yolo\",\"pop\":8,\"gens\":3,\"seed\":11,\
                \"image\":{\"width\":64,\"height\":32,\"fill\":[10,20,30]}}";
    let accepted = client.submit(body).expect("submit");
    assert_eq!(accepted.status, 202, "{:?}", accepted.body_text());
    let id = bea_core::telemetry::parse_json(accepted.body_text().unwrap())
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(String::from)))
        .expect("202 body carries an id");

    // First stream: may attach while the job still runs (live tail) or
    // after it finished (replay) — the delivered lines are the same.
    let mut live = Vec::new();
    let status = client.progress(&id, |line| live.push(line.to_string())).expect("progress");
    assert_eq!(status, 200);
    let (end, generations) = live.split_last().expect("at least the terminal record");
    assert!(
        end.contains("\"type\":\"progress_end\"") && end.contains("\"status\":\"done\""),
        "terminal record: {end}"
    );
    assert!(!generations.is_empty(), "at least one generation record");
    for line in generations {
        let record = bea_core::telemetry::parse_json(line).expect("generation record is JSON");
        assert_eq!(record.get("type").and_then(|v| v.as_str()), Some("generation"));
        assert!(record.get("generation").is_some(), "{line}");
    }

    // Second stream after completion: a full replay, byte-for-byte.
    let mut replay = Vec::new();
    let status = client.progress(&id, |line| replay.push(line.to_string())).expect("replay");
    assert_eq!(status, 200);
    assert_eq!(live, replay, "progress replay diverged from the live stream");

    // The alias path serves the same stream as a chunked response.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream
        .write_all(format!("GET /jobs/{id}/progress HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("write");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("stream is terminal on the connection");
    let head = String::from_utf8_lossy(&bytes);
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(head.to_ascii_lowercase().contains("transfer-encoding: chunked"), "{head}");
    assert!(bytes.ends_with(b"0\r\n\r\n"), "the zero chunk terminates the stream");

    // Unknown and malformed ids answer 404 without streaming.
    assert_eq!(client.progress("999999", |_| {}).expect("unknown id"), 404);

    let report = server.shutdown();
    assert!(!report.deadline_expired);
    let _ = std::fs::remove_dir_all(&store_dir);
}
