//! `perfbench-harness`: the in-process half of the ovlsim benchmark.
//!
//! ```text
//! perfbench-harness setup <spec>
//!     time the campaign runner's artifact build phase of <spec> on a
//!     fresh session
//! perfbench-harness campaign <spec> <traced 0|1> <report-out> <spans-out>
//!     one cold campaign pass, then its replay phase; writes the report
//!     (and the spans if traced)
//! perfbench-harness serve <corpus> <cache-dir> <traced 0|1> <answers-out> <spans-out> <clients>
//!     the warm-up lines of <corpus>, then the rest over <clients> workers;
//!     writes the answers as a JSON array of strings (and the spans if
//!     traced)
//! ```
//!
//! Each command prints one JSON object on stdout. Worker counts follow
//! `OVLSIM_THREADS`, as in the `ovlsim` binary.

mod campaign;
mod pipeline;
mod serve;
mod spans;

use std::fs;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ovlsim_lab::{configured_threads, run_campaign_with, CampaignSpec};
use ovlsim_session::{Json, Session};

use pipeline::Traced;
use spans::Recorder;

fn write(path: &str, content: &str) -> Result<(), String> {
    fs::write(path, content).map_err(|e| format!("write {path}: {e}"))
}

fn load_spec(path: &str) -> Result<CampaignSpec, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    CampaignSpec::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn flag(v: &str) -> Result<bool, String> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("traced flag must be 0 or 1, not `{v}`")),
    }
}

fn session_json(session: &Session) -> String {
    let disk = session.disk_stats().map_or_else(
        || "null".to_string(),
        |d| {
            format!(
                "{{\"loads\":{},\"stores\":{},\"quarantined\":{}}}",
                d.loads, d.stores, d.quarantined
            )
        },
    );
    format!("\"cache\":{},\"disk\":{disk}", session.stats().to_json())
}

fn cmd_setup(spec: &str) -> Result<String, String> {
    let spec = campaign::build_only(&load_spec(spec)?);
    let threads = configured_threads().map_err(|e| e.to_string())?;
    let rec = Recorder::new(false);
    let start = Instant::now();
    let session = Session::new().map_err(|e| e.to_string())?;
    let p = Traced {
        session: &session,
        rec: &rec,
    };
    std::hint::black_box(run_campaign_with(&p, &spec, threads).map_err(|e| e.to_string())?);
    Ok(format!("{{\"setup_s\":{}}}", start.elapsed().as_secs_f64()))
}

fn cmd_campaign(
    spec: &str,
    traced: &str,
    report_out: &str,
    spans_out: &str,
) -> Result<String, String> {
    let spec = load_spec(spec)?;
    let threads = configured_threads().map_err(|e| e.to_string())?;
    let rec = Recorder::new(flag(traced)?);
    let start = Instant::now();
    let session = Session::new().map_err(|e| e.to_string())?;
    let p = Traced {
        session: &session,
        rec: &rec,
    };
    let report = rec.root("bench.campaign", || campaign::run(&p, &spec, threads))?;
    let wall = start.elapsed().as_secs_f64();
    // Counters of the campaign alone: the replay phase only hits.
    let stats = session_json(&session);
    rec.root("bench.replay", || {
        campaign::replays(&session, &rec, &spec, threads)
    })?;
    write(report_out, &report)?;
    write(spans_out, &spans::to_json(&rec.into_spans()))?;
    Ok(format!(
        "{{\"wall_s\":{wall},\"threads\":{threads},{stats}}}"
    ))
}

fn cmd_serve(
    corpus: &str,
    cache_dir: &str,
    traced: &str,
    answers_out: &str,
    spans_out: &str,
    clients: &str,
) -> Result<String, String> {
    let text = fs::read_to_string(corpus).map_err(|e| format!("read {corpus}: {e}"))?;
    let clients: usize = clients
        .parse()
        .map_err(|_| format!("bad client count `{clients}`"))?;
    let mut warm = Vec::new();
    let mut timed = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let j = Json::parse(line).map_err(|e| format!("{corpus}:{}: {e}", n + 1))?;
        let route = j
            .get("route")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{corpus}:{}: no route", n + 1))?
            .to_string();
        let body = j
            .get("body")
            .cloned()
            .ok_or_else(|| format!("{corpus}:{}: no body", n + 1))?;
        if j.get("warm").and_then(Json::as_bool) == Some(true) {
            warm.push((route, body));
        } else {
            timed.push((route, body));
        }
    }
    let threads = configured_threads().map_err(|e| e.to_string())?;
    let rec = Recorder::new(flag(traced)?);
    let session = serve::session(cache_dir)?;
    let p = Traced {
        session: &session,
        rec: &rec,
    };
    let one = |(route, body): &(String, Json)| {
        rec.span(
            "session.request",
            || serve::answer(&p, route, body, threads),
            |a| a.as_ref().map_or(0, |s| s.len() as u64),
        )
    };
    let start = Instant::now();
    let warm_answers: Vec<_> = rec.root("bench.warmup", || warm.iter().map(one).collect());
    let warm_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    // Closed-loop workers over one shared cursor, like the HTTP clients.
    let next = AtomicUsize::new(0);
    let answers = rec.root("bench.pass", || {
        campaign::par_map(&vec![(); clients], clients, |_| {
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= timed.len() {
                    break mine;
                }
                mine.push((i, one(&timed[i])));
            }
        })
    });
    let wall = start.elapsed().as_secs_f64();
    let mut answers: Vec<_> = answers.into_iter().flatten().collect();
    answers.sort_by_key(|(i, _)| *i);
    let mut quoted = Vec::new();
    for a in warm_answers
        .into_iter()
        .chain(answers.into_iter().map(|(_, a)| a))
    {
        quoted.push(format!("\"{}\"", ovlsim_session::json::escape(&a?)));
    }
    let stats = session_json(&session);
    write(answers_out, &format!("[{}]", quoted.join(",\n")))?;
    write(spans_out, &spans::to_json(&rec.into_spans()))?;
    Ok(format!(
        "{{\"wall_s\":{wall},\"warm_s\":{warm_s},\"threads\":{threads},{stats}}}"
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args[..] {
        ["setup", spec] => cmd_setup(spec),
        ["campaign", spec, traced, report, spans] => cmd_campaign(spec, traced, report, spans),
        ["serve", corpus, cache, traced, answers, spans, clients] => {
            cmd_serve(corpus, cache, traced, answers, spans, clients)
        }
        _ => Err("usage: see the module documentation of perfbench-harness".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}
