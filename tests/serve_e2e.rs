//! End-to-end tests for the serving subsystem: a real server on an ephemeral
//! port, concurrent HTTP clients, checkpoint round trips, and the CLI binary
//! under SIGTERM.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use bikecap::model::{BikeCap, BikeCapConfig};
use bikecap::serve::http::client_request;
use bikecap::serve::{BatchConfig, Json, ModelRegistry, ServeConfig, Server, DEFAULT_MODEL};

fn tiny_config() -> BikeCapConfig {
    BikeCapConfig::new(4, 4)
        .history(4)
        .horizon(2)
        .pyramid_size(2)
        .capsule_dim(2)
        .out_capsule_dim(2)
        .decoder_channels(2)
}

/// A deterministic but request-specific input window payload.
fn predict_body(variant: usize) -> String {
    let len = 4 * 4 * 4 * 4;
    let data: Vec<f32> = (0..len)
        .map(|i| ((i * 31 + variant * 97) % 101) as f32 / 101.0)
        .collect();
    Json::obj([(
        "input",
        Json::obj([
            ("shape", Json::from_usizes(&[4, 4, 4, 4])),
            ("data", Json::from_f32s(&data)),
        ]),
    )])
    .to_string()
}

fn data_of(body: &str) -> Vec<f64> {
    Json::parse(body)
        .unwrap()
        .get("data")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect()
}

/// A checkpoint path in a directory of its own: `bikecap serve` sweeps
/// every `*.tmp` file out of its checkpoint's directory at startup, which
/// must not delete another test's in-flight save.
fn checkpoint_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bikecap-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("model.ckpt")
}

/// Starts a server whose default model comes from a saved checkpoint —
/// exercising the save → load → serve round trip on every test.
fn start_server(tag: &str, batch: BatchConfig) -> (Server, std::path::PathBuf) {
    let ckpt = checkpoint_path(tag);
    BikeCap::seeded(tiny_config(), 9)
        .save_checkpoint(&ckpt)
        .unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .load_checkpoint(DEFAULT_MODEL, tiny_config(), &ckpt)
        .unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        batch,
        ..ServeConfig::default()
    };
    (Server::start(config, registry).unwrap(), ckpt)
}

#[test]
fn batched_responses_match_single_requests_bit_for_bit() {
    let (server, ckpt) = start_server(
        "batch",
        BatchConfig {
            max_batch: 8,
            // A generous window so all concurrent requests share one forward
            // pass.
            max_wait: Duration::from_millis(250),
            workers: 1,
            ..BatchConfig::default()
        },
    );
    let addr = server.local_addr();

    // Fire 6 distinct requests at the same instant.
    let barrier = Arc::new(Barrier::new(6));
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                client_request(
                    addr,
                    "POST",
                    "/predict",
                    Some(&predict_body(i)),
                    Duration::from_secs(30),
                )
                .unwrap()
            })
        })
        .collect();
    let batched: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Re-ask for each input one at a time: same bytes must come back.
    let mut max_batch_size = 0;
    for (i, (status, body)) in batched.iter().enumerate() {
        assert_eq!(*status, 200, "request {i}: {body}");
        let doc = Json::parse(body).unwrap();
        max_batch_size =
            max_batch_size.max(doc.get("batch_size").and_then(Json::as_usize).unwrap());
        let (solo_status, solo_body) = client_request(
            addr,
            "POST",
            "/predict",
            Some(&predict_body(i)),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(solo_status, 200, "{solo_body}");
        assert_eq!(
            data_of(body),
            data_of(&solo_body),
            "request {i}: batched output must equal the single-request output bit for bit"
        );
    }
    assert!(
        max_batch_size >= 2,
        "concurrent requests should have shared a forward pass (max batch {max_batch_size})"
    );

    // Metrics agree with what just happened.
    let (status, prom) = client_request(addr, "GET", "/metrics", None, Duration::from_secs(5))
        .unwrap();
    assert_eq!(status, 200);
    assert!(prom.contains("bikecap_requests_total 12"), "{prom}");
    assert!(
        prom.contains("# TYPE bikecap_stage_duration_us histogram"),
        "{prom}"
    );
    let (status, body) = client_request(addr, "GET", "/metrics.json", None, Duration::from_secs(5))
        .unwrap();
    assert_eq!(status, 200);
    let m = Json::parse(&body).unwrap();
    assert_eq!(m.get("requests_total").and_then(Json::as_usize), Some(12));
    assert_eq!(m.get("responses_ok").and_then(Json::as_usize), Some(12));
    assert_eq!(m.get("queue_depth").and_then(Json::as_usize), Some(0));
    assert!(m.get("latency_p50_us").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(m.get("latency_p99_us").and_then(Json::as_f64).unwrap() > 0.0);
    let hist = m.get("batch_size_histogram").and_then(Json::as_arr).unwrap();
    let multi: usize = hist
        .iter()
        .filter(|b| b.get("le").and_then(Json::as_usize).is_none_or(|le| le >= 2))
        .map(|b| b.get("count").and_then(Json::as_usize).unwrap())
        .sum();
    assert!(multi >= 1, "histogram should record a multi-request batch");

    server.shutdown();
    std::fs::remove_dir_all(ckpt.parent().unwrap()).ok();
}

#[test]
fn saturated_queue_answers_503_and_accepted_requests_still_complete() {
    let (server, ckpt) = start_server(
        "overload",
        BatchConfig {
            queue_cap: 2,
            max_batch: 1,
            max_wait: Duration::ZERO,
            workers: 1,
            // Hold the single worker long enough that the bounded queue
            // demonstrably fills while the clients fire.
            worker_delay: Duration::from_millis(600),
            ..BatchConfig::default()
        },
    );
    let addr = server.local_addr();

    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                client_request(
                    addr,
                    "POST",
                    "/predict",
                    Some(&predict_body(i)),
                    Duration::from_secs(30),
                )
                .unwrap()
            })
        })
        .collect();
    let results: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let ok = results.iter().filter(|(s, _)| *s == 200).count();
    let shed = results.iter().filter(|(s, _)| *s == 503).count();
    assert_eq!(ok + shed, clients, "only 200 or 503 expected: {results:?}");
    assert!(ok >= 1, "accepted requests must still be answered");
    assert!(shed >= 1, "a saturated bounded queue must shed load with 503");
    for (status, body) in &results {
        if *status == 503 {
            let doc = Json::parse(body).unwrap();
            assert!(doc.get("error").is_some(), "503 carries an error body");
        }
    }

    let metrics = server.metrics();
    use std::sync::atomic::Ordering;
    assert_eq!(
        metrics.rejected_total.load(Ordering::Relaxed) as usize,
        shed
    );
    assert_eq!(metrics.responses_ok.load(Ordering::Relaxed) as usize, ok);
    server.shutdown();
    std::fs::remove_dir_all(ckpt.parent().unwrap()).ok();
}

#[test]
fn shutdown_waits_for_accepted_work() {
    let (server, ckpt) = start_server(
        "drain",
        BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
            workers: 1,
            worker_delay: Duration::from_millis(100),
            ..BatchConfig::default()
        },
    );
    let addr = server.local_addr();
    // A request in flight while shutdown begins still gets its answer.
    let client = std::thread::spawn(move || {
        client_request(
            addr,
            "POST",
            "/predict",
            Some(&predict_body(0)),
            Duration::from_secs(30),
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    let (status, body) = client.join().unwrap();
    assert_eq!(status, 200, "in-flight request must be drained, got {body}");
    std::fs::remove_dir_all(ckpt.parent().unwrap()).ok();
}

/// Boots the real `bikecap` binary with `serve --checkpoint`, speaks HTTP to
/// it, then delivers SIGTERM and expects a graceful (exit 0) drain.
#[cfg(unix)]
#[test]
fn cli_serve_answers_http_and_drains_on_sigterm() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let ckpt = checkpoint_path("cli");
    // The same artifact `bikecap train --save` produces: default architecture
    // knobs, so `serve` can rebuild the config from the metadata header.
    BikeCap::seeded(BikeCapConfig::new(4, 4).history(4).horizon(2), 4)
        .save_checkpoint(&ckpt)
        .unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_bikecap"))
        .args([
            "serve",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr: std::net::SocketAddr = line
        .split("http://")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {line:?}"))
        .parse()
        .unwrap();

    let (status, body) = client_request(
        addr,
        "POST",
        "/predict",
        Some(&predict_body(3)),
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) =
        client_request(addr, "GET", "/healthz", None, Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    let exit = child.wait().unwrap();
    assert!(exit.success(), "SIGTERM should drain and exit 0, got {exit}");
    std::fs::remove_dir_all(ckpt.parent().unwrap()).ok();
}
