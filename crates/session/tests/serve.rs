//! Offline integration test of `ovlsim serve`: an ephemeral loopback
//! port, concurrent batched sweep requests over raw `TcpStream`s,
//! byte-identical responses, and the compile-once guarantee observed
//! through `/status`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use ovlsim_session::{Server, Session};

/// One `Connection: close` round-trip, returning `(status, body)`.
fn request(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1
        .to_string();
    (status, body)
}

#[test]
fn concurrent_batched_sweeps_compile_once_and_shut_down_cleanly() {
    let session = Arc::new(Session::with_threads(2));
    let server = Server::bind(0, Arc::clone(&session), "test-1.2.3").expect("bind ephemeral");
    let port = server.port().expect("port");
    let running = std::thread::spawn(move || server.run());

    // A batch of two sweeps over the *same* generated trace (original as
    // both sides), so every program the whole test needs shares one cache
    // key: `compiles` must end at exactly 1.
    let one = r#"{"original":{"app":"sweep3d","class":"S","ranks":4,"iterations":2},
                  "overlapped":{"app":"sweep3d","class":"S","ranks":4,"iterations":2},
                  "bandwidths":[1e8,1e9,1e10]}"#;
    let batch = format!("[{one},{one}]");

    // Four concurrent connections, each carrying the two-element batch.
    let bodies: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| s.spawn(|| request(port, "POST", "/sweep", &batch)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, body) in &bodies {
        assert_eq!(*status, 200, "sweep failed: {body}");
        assert_eq!(
            body, &bodies[0].1,
            "concurrent identical sweeps must answer byte-identically"
        );
    }
    let body = &bodies[0].1;
    assert!(body.starts_with("[{\"points\":["), "batched array: {body}");
    assert_eq!(
        body.matches("\"points\"").count(),
        2,
        "two batch elements: {body}"
    );
    assert_eq!(
        body.matches("\"speedup\":1").count(),
        6,
        "same trace on both sides: {body}"
    );

    // /status: the injected version string verbatim, and compiles == 1
    // even though 4 connections × 2 batch elements × 3 bandwidths ran.
    let (status, status_body) = request(port, "GET", "/status", "");
    assert_eq!(status, 200);
    assert!(
        status_body.contains("\"version\":\"test-1.2.3\""),
        "status: {status_body}"
    );
    assert!(
        status_body.contains("\"compiles\":1"),
        "expected exactly one compile: {status_body}"
    );
    assert_eq!(session.stats().compiles(), 1);

    // Errors come back as 400 with a single JSON error object.
    let (status, err_body) = request(port, "POST", "/sweep", "{\"original\":{}}");
    assert_eq!(status, 400);
    assert!(err_body.starts_with("{\"error\":\""), "error: {err_body}");
    // A generated source too large to trace is refused before tracing.
    let huge = r#"{"source":{"app":"nas-bt","ranks":100000000}}"#;
    let (status, err_body) = request(port, "POST", "/replay", huge);
    assert_eq!(status, 400);
    assert!(
        err_body.starts_with("{\"error\":\"") && err_body.contains("at most 4096"),
        "error: {err_body}"
    );
    // So is a campaign whose tuner budget is too large to search.
    let spec =
        "campaign t\\napps sweep3d\\nbandwidths list 1e8\\ntune on\\ntune budget 100000000\\n";
    let (status, err_body) = request(
        port,
        "POST",
        "/campaign",
        &format!("{{\"spec\":\"{spec}\"}}"),
    );
    assert_eq!(status, 400);
    assert!(
        err_body.starts_with("{\"error\":\"")
            && err_body.contains("tune budget 100000000 is above the limit of 4096 evaluations"),
        "error: {err_body}"
    );
    let (status, _) = request(port, "POST", "/no-such-route", "{}");
    assert_eq!(status, 404);

    // Shutdown: acknowledged, then the accept loop drains and joins.
    let (status, down_body) = request(port, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(down_body, "{\"ok\":true}");
    running.join().expect("server thread").expect("clean run");
    assert!(
        TcpStream::connect(("127.0.0.1", port)).is_err(),
        "listener should be closed after shutdown"
    );
}

#[test]
fn replay_responses_are_deterministic_across_requests() {
    let session = Arc::new(Session::with_threads(1));
    let server = Server::bind(0, session, "v").expect("bind");
    let port = server.port().expect("port");
    let running = std::thread::spawn(move || server.run());

    let replay = r#"{"source":{"app":"nas-cg","class":"S","ranks":4,"iterations":1},
                     "bandwidth":5e8,"latency_us":5,"engine":"compiled"}"#;
    let (s1, first) = request(port, "POST", "/replay", replay);
    let (s2, second) = request(port, "POST", "/replay", replay);
    assert_eq!((s1, s2), (200, 200), "{first} / {second}");
    assert_eq!(first, second, "cache-hit response must be byte-identical");
    assert!(first.contains("\"total_ps\":"), "{first}");
    assert!(first.contains("\"rank_finish_ps\":["), "{first}");

    let (status, _) = request(port, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    running.join().expect("server thread").expect("clean run");
}
