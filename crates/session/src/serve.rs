//! `ovlsim serve`: a loopback HTTP/JSON front-end over a shared
//! [`Session`].
//!
//! The server binds `127.0.0.1` only, handles one request per connection
//! (`Connection: close`), and answers:
//!
//! | route            | method | body                              |
//! |------------------|--------|-----------------------------------|
//! | `/status`        | GET    | —                                 |
//! | `/replay`        | POST   | replay request object or array    |
//! | `/sweep`         | POST   | sweep request object or array     |
//! | `/analyze`       | POST   | analyze request object or array   |
//! | `/campaign`      | POST   | campaign request object or array  |
//! | `/shutdown`      | POST   | —                                 |
//!
//! Every POST route is *batched*: an array body runs each element through
//! the same session and returns an array of responses, so N sweeps over
//! one trace compile it once. `/campaign` responses are byte-identical to
//! the report files `ovlsim campaign run` writes, and `/analyze`
//! responses to the `.analysis.json` files `ovlsim analyze` writes.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ovlsim_apps::ProblemClass;
use ovlsim_core::Bandwidth;
use ovlsim_lab::{parse_mode, Engine};

use crate::http::{read_request, write_response, ReadError, Request, ServeLimits};
use crate::json::{escape, Json};
use crate::request::{
    AnalyzeRequest, CampaignRequest, PerturbSpec, PlatformSpec, ReplayRequest, SweepRequest,
    TraceSource,
};
use crate::{Session, SessionError};

/// A running (or ready-to-run) serve instance.
pub struct Server {
    listener: TcpListener,
    session: Arc<Session>,
    version: String,
    shutdown: Arc<AtomicBool>,
    limits: ServeLimits,
}

impl Server {
    /// Binds the server to `127.0.0.1:port` (`port == 0` picks an
    /// ephemeral port; read it back with [`Server::port`]).
    ///
    /// # Errors
    ///
    /// Surfaces bind failures as [`SessionError::Io`].
    pub fn bind(port: u16, session: Arc<Session>, version: &str) -> Result<Server, SessionError> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| SessionError::Io(format!("bind 127.0.0.1:{port}: {e}")))?;
        Ok(Server {
            listener,
            session,
            version: version.to_string(),
            shutdown: Arc::new(AtomicBool::new(false)),
            limits: ServeLimits::default(),
        })
    }

    /// Overrides the per-connection read/write timeouts and body cap
    /// (defaults: 10 s / 10 s / 64 MiB).
    #[must_use]
    pub fn with_limits(mut self, limits: ServeLimits) -> Server {
        self.limits = limits;
        self
    }

    /// The port the server is bound to.
    ///
    /// # Errors
    ///
    /// Surfaces local-address lookup failures as [`SessionError::Io`].
    pub fn port(&self) -> Result<u16, SessionError> {
        Ok(self
            .listener
            .local_addr()
            .map_err(|e| SessionError::Io(e.to_string()))?
            .port())
    }

    /// Accepts connections until a `POST /shutdown` arrives, then joins
    /// every worker and returns.
    ///
    /// # Errors
    ///
    /// Surfaces accept failures as [`SessionError::Io`].
    pub fn run(self) -> Result<(), SessionError> {
        let mut workers = Vec::new();
        loop {
            let (stream, _) = self
                .listener
                .accept()
                .map_err(|e| SessionError::Io(format!("accept: {e}")))?;
            if self.shutdown.load(Ordering::SeqCst) {
                // This connection is the shutdown handler's wake-up poke.
                drop(stream);
                break;
            }
            let session = Arc::clone(&self.session);
            let version = self.version.clone();
            let shutdown = Arc::clone(&self.shutdown);
            let port = self.port()?;
            let limits = self.limits;
            workers.push(std::thread::spawn(move || {
                handle_connection(stream, &session, &version, &shutdown, port, limits);
            }));
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

fn handle_connection(
    mut stream: TcpStream,
    session: &Session,
    version: &str,
    shutdown: &AtomicBool,
    port: u16,
    limits: ServeLimits,
) {
    // Timeouts bound how long this worker can be pinned by one peer;
    // every limit violation still gets a typed JSON answer before the
    // close, so clients can tell "too slow" from "malformed".
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let req = match read_request(&mut stream, limits.max_body) {
        Ok(req) => req,
        Err(ReadError::Closed) => return,
        Err(ReadError::Bad(msg)) => {
            let _ = write_response(&mut stream, 400, "Bad Request", &error_body(&msg));
            return;
        }
        Err(ReadError::TooLarge(msg)) => {
            let _ = write_response(&mut stream, 413, "Payload Too Large", &error_body(&msg));
            // Discard what the peer already sent before closing: slamming
            // the socket shut with unread bytes pending raises a TCP RST
            // that can destroy the 413 before the client reads it.
            drain_excess(&mut stream);
            return;
        }
        Err(ReadError::TimedOut) => {
            let _ = write_response(
                &mut stream,
                408,
                "Request Timeout",
                &error_body("request not received within the read timeout"),
            );
            return;
        }
        Err(ReadError::Io) => return,
    };
    let is_shutdown = req.method == "POST" && req.path == "/shutdown";
    let (status, reason, body) = guarded(|| route(&req, session, version));
    let _ = write_response(&mut stream, status, reason, &body);
    drop(stream);
    if is_shutdown && status == 200 {
        shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop awake; it sees the flag and exits.
        let _ = TcpStream::connect(("127.0.0.1", port));
    }
}

/// Swallow up to 64 KiB of an over-limit request body so the rejection
/// response survives the close (a close with unread bytes pending sends
/// RST, not FIN). Bounded in both bytes and time: a peer that keeps
/// sending past the budget still gets cut off.
fn drain_excess(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(250)));
    let mut scratch = [0u8; 8192];
    let mut budget: usize = 64 * 1024;
    while budget > 0 {
        match std::io::Read::read(stream, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

fn error_body(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}", escape(msg))
}

/// Runs `answer`, turning a panic into a typed 500 so the peer gets a JSON
/// error and the server keeps serving. The session stays usable: the
/// store's locks recover from poisoning, and a build that panicked leaves
/// its slot empty for the next requester.
fn guarded(answer: impl FnOnce() -> (u16, &'static str, String)) -> (u16, &'static str, String) {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(answer)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("unknown panic");
        (
            500,
            "Internal Server Error",
            error_body(&format!("internal error: {msg}")),
        )
    })
}

fn route(req: &Request, session: &Session, version: &str) -> (u16, &'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/status") => {
            let disk = session.disk_stats().map_or_else(String::new, |d| {
                format!(
                    ",\"disk\":{{\"loads\":{},\"stores\":{},\"quarantined\":{}}}",
                    d.loads, d.stores, d.quarantined
                )
            });
            (
                200,
                "OK",
                format!(
                    "{{\"service\":\"ovlsim\",\"version\":\"{}\",\"cache\":{}{disk}}}",
                    escape(version),
                    session.stats().to_json()
                ),
            )
        }
        ("POST", "/shutdown") => (200, "OK", "{\"ok\":true}".to_string()),
        ("POST", "/replay") => batched(&req.body, |j| {
            session.replay(&parse_replay(j)?).map(|r| r.to_json())
        }),
        ("POST", "/sweep") => batched(&req.body, |j| {
            session.sweep(&parse_sweep(j)?).map(|r| r.to_json())
        }),
        ("POST", "/analyze") => batched(&req.body, |j| {
            session
                .analyze(&parse_analyze(j)?)
                .map(|(attr, _)| attr.to_json())
        }),
        ("POST", "/campaign") => batched(&req.body, |j| {
            session.campaign(&parse_campaign(j)?).map(|r| r.to_json())
        }),
        ("GET" | "POST", _) => (404, "Not Found", error_body("no such route")),
        _ => (405, "Method Not Allowed", error_body("unsupported method")),
    }
}

/// Runs `one` on the body (array body → each element, array response).
/// Any element failing fails the whole request with 400, so callers never
/// have to disambiguate per-element errors inside a 200.
fn batched(
    body: &str,
    one: impl Fn(&Json) -> Result<String, SessionError>,
) -> (u16, &'static str, String) {
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, "Bad Request", error_body(&format!("body: {e}"))),
    };
    let result = match &parsed {
        Json::Arr(items) => items
            .iter()
            .map(&one)
            .collect::<Result<Vec<_>, _>>()
            .map(|bodies| format!("[{}]", bodies.join(","))),
        other => one(other),
    };
    match result {
        Ok(body) => (200, "OK", body),
        Err(e) => (400, "Bad Request", error_body(&e.to_string())),
    }
}

fn bad(msg: impl Into<String>) -> SessionError {
    SessionError::BadRequest(msg.into())
}

fn parse_source(j: &Json) -> Result<TraceSource, SessionError> {
    let j = j.get("source").ok_or_else(|| bad("missing `source`"))?;
    if let Some(dim) = j.get("dim") {
        let dim = dim.as_str().ok_or_else(|| bad("`dim` must be a string"))?;
        return Ok(TraceSource::Text {
            dim: dim.to_string(),
        });
    }
    if let Some(hex) = j.get("ovlb_hex") {
        let hex = hex
            .as_str()
            .ok_or_else(|| bad("`ovlb_hex` must be a string"))?;
        return TraceSource::binary_from_hex(hex);
    }
    let app = j
        .get("app")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("source needs `dim`, `ovlb_hex` or `app`"))?;
    let class = match j.get("class") {
        None => ProblemClass::S,
        Some(c) => c
            .as_str()
            .and_then(|s| s.parse::<ProblemClass>().ok())
            .ok_or_else(|| bad("`class` must be S, W, A or B"))?,
    };
    let ranks = opt_usize(j, "ranks")?;
    let iterations = opt_usize(j, "iterations")?;
    let mode = match j.get("mode") {
        None => None,
        Some(m) => {
            let label = m.as_str().ok_or_else(|| bad("`mode` must be a string"))?;
            if label == "original" {
                None
            } else {
                Some(parse_mode(label).ok_or_else(|| bad(format!("unknown mode `{label}`")))?)
            }
        }
    };
    Ok(TraceSource::Generated {
        app: app.to_string(),
        class,
        ranks,
        iterations,
        mode,
    })
}

fn opt_usize(j: &Json, key: &str) -> Result<Option<usize>, SessionError> {
    match j.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn parse_platform(j: &Json) -> Result<PlatformSpec, SessionError> {
    let bandwidth = match j.get("bandwidth") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| bad("`bandwidth` must be a number"))?,
        ),
    };
    let latency_us = match j.get("latency_us") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad("`latency_us` must be a non-negative integer"))?,
        ),
    };
    Ok(PlatformSpec {
        bandwidth,
        latency_us,
    })
}

fn parse_perturb(j: &Json) -> Result<PerturbSpec, SessionError> {
    let Some(p) = j.get("perturb") else {
        return Ok(PerturbSpec::default());
    };
    let seed = match p.get("seed") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| bad("`seed` must be an integer"))?),
    };
    let noise = match p.get("noise") {
        None => None,
        Some(v) => Some(v.as_f64().ok_or_else(|| bad("`noise` must be a number"))?),
    };
    let stragglers = match p.get("stragglers") {
        None => None,
        Some(s) => {
            let slowdown = s
                .get("slowdown")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("stragglers need a numeric `slowdown`"))?;
            let ranks = s
                .get("ranks")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("stragglers need a `ranks` array"))?
                .iter()
                .map(|r| {
                    r.as_u64()
                        .filter(|&n| n <= u64::from(u32::MAX))
                        .map(|n| n as u32)
                        .ok_or_else(|| bad("straggler ranks must be integers"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Some((slowdown, ranks))
        }
    };
    let faults = match p.get("faults") {
        None => None,
        Some(f) => {
            let period = f
                .get("period_us")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("faults need an integer `period_us`"))?;
            let down = f
                .get("downtime_us")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("faults need an integer `downtime_us`"))?;
            Some((period, down))
        }
    };
    Ok(PerturbSpec {
        seed,
        noise,
        stragglers,
        faults,
    })
}

fn parse_replay(j: &Json) -> Result<ReplayRequest, SessionError> {
    let engine = match j.get("engine") {
        None => Engine::Compiled,
        Some(e) => e
            .as_str()
            .and_then(Engine::parse)
            .ok_or_else(|| bad("`engine` must be compiled or naive"))?,
    };
    Ok(ReplayRequest {
        source: parse_source(j)?,
        platform: parse_platform(j)?,
        perturb: parse_perturb(j)?,
        engine,
    })
}

fn parse_sweep(j: &Json) -> Result<SweepRequest, SessionError> {
    let original = j
        .get("original")
        .ok_or_else(|| bad("missing `original` source"))
        .map(|s| Json::Obj(vec![("source".to_string(), s.clone())]))
        .and_then(|wrapped| parse_source(&wrapped))?;
    let overlapped = j
        .get("overlapped")
        .ok_or_else(|| bad("missing `overlapped` source"))
        .map(|s| Json::Obj(vec![("source".to_string(), s.clone())]))
        .and_then(|wrapped| parse_source(&wrapped))?;
    let bandwidths = j
        .get("bandwidths")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing `bandwidths` array"))?
        .iter()
        .map(|b| {
            b.as_f64()
                .ok_or_else(|| bad("bandwidths must be numbers"))
                .and_then(|bps| Bandwidth::from_bytes_per_sec(bps).map_err(|e| bad(e.to_string())))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if bandwidths.is_empty() {
        return Err(bad("`bandwidths` must not be empty"));
    }
    let latency_us = match j.get("latency_us") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad("`latency_us` must be a non-negative integer"))?,
        ),
    };
    Ok(SweepRequest {
        original,
        overlapped,
        bandwidths,
        latency_us,
    })
}

fn parse_analyze(j: &Json) -> Result<AnalyzeRequest, SessionError> {
    Ok(AnalyzeRequest {
        source: parse_source(j)?,
        platform: parse_platform(j)?,
        perturb: parse_perturb(j)?,
    })
}

fn parse_campaign(j: &Json) -> Result<CampaignRequest, SessionError> {
    let spec = j
        .get("spec")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing `spec` string"))?;
    Ok(CampaignRequest {
        spec: spec.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_generated_replay_request() {
        let j = Json::parse(
            r#"{"source":{"app":"sweep3d","class":"S","ranks":4,"mode":"real"},
                "bandwidth":1e9,"latency_us":3,"engine":"naive",
                "perturb":{"seed":7,"noise":0.05}}"#,
        )
        .unwrap();
        let req = parse_replay(&j).unwrap();
        assert_eq!(req.engine, Engine::Naive);
        assert_eq!(req.platform.bandwidth, Some(1e9));
        assert_eq!(req.platform.latency_us, Some(3));
        assert_eq!(req.perturb.seed, Some(7));
        match req.source {
            TraceSource::Generated {
                app, ranks, mode, ..
            } => {
                assert_eq!(app, "sweep3d");
                assert_eq!(ranks, Some(4));
                assert!(mode.is_some());
            }
            TraceSource::Text { .. } | TraceSource::Binary { .. } => panic!("wrong source kind"),
        }
    }

    #[test]
    fn rejects_requests_missing_required_fields() {
        for body in [
            r#"{}"#,
            r#"{"source":{"class":"S"}}"#,
            r#"{"source":{"app":"sweep3d","class":"Q"}}"#,
            r#"{"source":{"app":"sweep3d","mode":"bogus"}}"#,
        ] {
            let j = Json::parse(body).unwrap();
            assert!(parse_replay(&j).is_err(), "accepted {body}");
        }
        let j = Json::parse(r#"{"original":{"app":"a"},"overlapped":{"app":"a"}}"#).unwrap();
        let e = parse_sweep(&j).unwrap_err();
        assert!(e.to_string().contains("bandwidths"));
    }

    #[test]
    fn unknown_engine_names_are_a_400() {
        let session = Session::with_threads(1);
        for name in ["fastforward", "prepared"] {
            let req = Request {
                method: "POST".to_string(),
                path: "/replay".to_string(),
                body: format!(r#"{{"source":{{"app":"sweep3d","class":"S"}},"engine":"{name}"}}"#),
            };
            let (status, _, body) = route(&req, &session, "1.2.3");
            assert_eq!(status, 400, "{name}");
            assert!(body.contains("compiled or naive"), "{body}");
        }
    }

    #[test]
    fn a_panicking_answer_is_a_typed_500() {
        let (status, reason, body) = guarded(|| panic!("boom at {}", 7));
        assert_eq!((status, reason), (500, "Internal Server Error"));
        assert_eq!(body, r#"{"error":"internal error: boom at 7"}"#);
        let (status, _, body) = guarded(|| std::panic::panic_any(3u8));
        assert_eq!(status, 500);
        assert_eq!(body, r#"{"error":"internal error: unknown panic"}"#);
        let fine = guarded(|| (200, "OK", "{}".to_string()));
        assert_eq!(fine, (200, "OK", "{}".to_string()));
    }

    #[test]
    fn batched_arrays_fan_out_and_fail_atomically() {
        let ok = batched("[1,2,3]", |j| Ok(format!("{}", j.as_f64().unwrap() * 2.0)));
        assert_eq!(ok, (200, "OK", "[2,4,6]".to_string()));
        let bad_el = batched("[1,2]", |j| {
            if j.as_f64() == Some(2.0) {
                Err(bad("nope"))
            } else {
                Ok("1".to_string())
            }
        });
        assert_eq!(bad_el.0, 400);
        assert!(bad_el.2.contains("nope"));
        let bad_json = batched("{", |_| Ok(String::new()));
        assert_eq!(bad_json.0, 400);
    }

    #[test]
    fn status_and_unknown_routes() {
        let session = Session::with_threads(1);
        let req = Request {
            method: "GET".to_string(),
            path: "/status".to_string(),
            body: String::new(),
        };
        let (status, _, body) = route(&req, &session, "1.2.3");
        assert_eq!(status, 200);
        assert!(body.contains("\"service\":\"ovlsim\""));
        assert!(body.contains("\"version\":\"1.2.3\""));
        assert!(body.contains("\"compiles\":0"));

        let missing = Request {
            method: "POST".to_string(),
            path: "/nope".to_string(),
            body: String::new(),
        };
        assert_eq!(route(&missing, &session, "1.2.3").0, 404);
        let put = Request {
            method: "PUT".to_string(),
            path: "/status".to_string(),
            body: String::new(),
        };
        assert_eq!(route(&put, &session, "1.2.3").0, 405);
    }
}
