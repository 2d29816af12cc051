//! The `serve` request mix in process: each request of the corpus goes
//! through the same session calls `ovlsim serve` makes for it, with every
//! layer call timed from outside. Answers must equal the server's bytes.

use std::sync::Arc;

use ovlsim_apps::ProblemClass;
use ovlsim_core::{Bandwidth, TraceSet};
use ovlsim_lab::{
    parse_mode, sweep_compiled_threaded, ArtifactPipeline, Attribution, Engine, EngineInput,
};
use ovlsim_session::{Json, PlatformSpec, ReplayResponse, Session, SweepResponse, TraceSource};

use crate::pipeline::Traced;
use crate::spans::Recorder;

fn field<'j>(j: &'j Json, key: &str) -> Result<&'j Json, String> {
    j.get(key).ok_or_else(|| format!("request lacks `{key}`"))
}

fn text<'j>(j: &'j Json, key: &str) -> Result<&'j str, String> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

/// The trace a request source names, resolved the way `Session::trace`
/// resolves it.
fn source(p: &Traced<'_>, src: &Json) -> Result<Arc<TraceSet>, String> {
    let rec = p.rec;
    if let Some(dim) = src.get("dim").and_then(Json::as_str) {
        let source = TraceSource::Text {
            dim: dim.to_string(),
        };
        return rec
            .span(
                "dimemas.parse",
                || p.session.trace(&source),
                |_| dim.len() as u64,
            )
            .map_err(|e| e.to_string());
    }
    if let Some(hex) = src.get("ovlb_hex").and_then(Json::as_str) {
        return rec
            .span(
                "core.codec.decode",
                || p.session.trace(&TraceSource::binary_from_hex(hex)?),
                |_| hex.len() as u64 / 2,
            )
            .map_err(|e| e.to_string());
    }
    let app = text(src, "app")?;
    let class: ProblemClass = text(src, "class")?
        .parse()
        .map_err(|_| "bad class".to_string())?;
    let count = |key| src.get(key).and_then(Json::as_u64).map(|n| n as usize);
    let overrides = ovlsim_apps::registry::AppOverrides {
        ranks: count("ranks"),
        iterations: count("iterations"),
    };
    let mode = match text(src, "mode")? {
        "original" => None,
        label => Some(parse_mode(label).ok_or_else(|| format!("bad mode `{label}`"))?),
    };
    if let Some(trace) = p.load_variant(app, class, overrides, mode) {
        return Ok(trace);
    }
    let bundle = p.bundle(app, class, overrides).map_err(|e| e.to_string())?;
    p.variant(&bundle, mode).map_err(|e| e.to_string())
}

fn platform(body: &Json) -> Result<ovlsim_core::Platform, String> {
    PlatformSpec {
        bandwidth: body.get("bandwidth").and_then(Json::as_f64),
        latency_us: body.get("latency_us").and_then(Json::as_u64),
    }
    .build()
    .map_err(|e| e.to_string())
}

/// Renders an answer inside a `lab.report` span.
fn render(rec: &Recorder, f: impl FnOnce() -> String) -> String {
    rec.span("lab.report", f, |s| s.len() as u64)
}

/// Answers one request of `route` with the bytes the server would send.
pub fn answer(p: &Traced<'_>, route: &str, body: &Json, threads: usize) -> Result<String, String> {
    let rec = p.rec;
    match route {
        "/replay" => {
            let trace = source(p, field(body, "source")?)?;
            let platform = platform(body)?;
            let records = trace.total_records() as u64;
            let input = EngineInput::build(p, Arc::clone(&trace), &[Engine::Compiled], false)
                .map_err(|e| e.to_string())?;
            let result = rec
                .span(
                    "dimemas.replay",
                    || input.replay(Engine::Compiled, &platform),
                    |_| records,
                )
                .map_err(|e| e.to_string())?;
            Ok(render(rec, || {
                ReplayResponse {
                    trace: trace.name().to_string(),
                    total: result.total_time(),
                    comm_fraction: result.comm_fraction(),
                    rank_finish: result.rank_finish().to_vec(),
                }
                .to_json()
            }))
        }
        "/analyze" => {
            let trace = source(p, field(body, "source")?)?;
            let platform = platform(body)?;
            let index = p.index(&trace).map_err(|e| e.to_string())?;
            let (attr, _) = rec
                .span(
                    "lab.attribution",
                    || Attribution::analyze_with_recorder(&platform, &trace, &index),
                    |_| trace.total_records() as u64,
                )
                .map_err(|e| e.to_string())?;
            Ok(render(rec, || attr.to_json()))
        }
        "/sweep" => {
            let orig = source(p, field(body, "original")?)?;
            let ovl = source(p, field(body, "overlapped")?)?;
            let base = PlatformSpec {
                bandwidth: None,
                latency_us: body.get("latency_us").and_then(Json::as_u64),
            }
            .build()
            .map_err(|e| e.to_string())?;
            let bandwidths = field(body, "bandwidths")?
                .as_array()
                .ok_or("`bandwidths` is not an array")?
                .iter()
                .map(|b| {
                    Bandwidth::from_bytes_per_sec(b.as_f64().ok_or("bad bandwidth")?)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, String>>()?;
            let compiled = |t: &Arc<TraceSet>| {
                p.index(t)
                    .and_then(|index| p.compiled(t, &index))
                    .map_err(|e| e.to_string())
            };
            let (orig_prog, ovl_prog) = (compiled(&orig)?, compiled(&ovl)?);
            let records = (orig.total_records() + ovl.total_records()) as u64;
            let points = rec
                .span(
                    "lab.sweep",
                    || sweep_compiled_threaded(&orig_prog, &ovl_prog, &base, &bandwidths, threads),
                    |_| records * bandwidths.len() as u64,
                )
                .map_err(|e| e.to_string())?;
            Ok(render(rec, || SweepResponse { points }.to_json()))
        }
        other => Err(format!("route `{other}` is not in the mix")),
    }
}

/// A fresh session over a fresh cache directory, as `ovlsim serve
/// --cache-dir` opens it.
pub fn session(cache_dir: &str) -> Result<Session, String> {
    Session::new()
        .and_then(|s| s.with_cache_dir(cache_dir))
        .map_err(|e| e.to_string())
}
