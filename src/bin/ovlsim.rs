//! `ovlsim` — the environment's single command-line entry point.
//!
//! ```text
//! ovlsim campaign run <spec.campaign> [--out <dir>] [--csv]
//!                                          expand + replay the grid, write
//!                                          <dir>/<name>.report.json (and
//!                                          .csv), print a summary table
//! ovlsim campaign list <spec.campaign>     print the expanded grid points
//! ovlsim campaign diff <golden> <actual>   exit 1 (with per-line diffs)
//!                                          if the reports drifted
//!
//! ovlsim trace gen <app> <out-prefix> [class] [ranks] [iters]
//!                                          write <prefix>.original.dim,
//!                                          <prefix>.ovl-real.dim and
//!                                          <prefix>.ovl-linear.dim
//! ovlsim trace stats <file>                validate + per-rank summary
//! ovlsim trace validate <file>             exit 1 if structurally invalid
//! ovlsim trace replay <file> [bw] [lat]    replay (bytes/s, us) + Gantt
//! ovlsim trace convert <in> <out>          re-encode between the text
//!                                          format (`.dim`) and the
//!                                          checksummed binary format
//!                                          (`.ovlb`), either direction
//! ```
//!
//! Trace-consuming subcommands dispatch on the file extension: `.ovlb`
//! files decode through the verified binary codec (any corruption is a
//! typed error), everything else parses as the text format. A file whose
//! *contents* are binary but whose extension is not `.ovlb` is rejected
//! with a pointer to `trace convert` rather than a parse-noise error.
//!
//! ```text
//!
//! ovlsim analyze <file.dim> [bw] [lat] [--out <dir>] [--csv] [--prv]
//!                                          time attribution + critical
//!                                          path: write
//!                                          <dir>/<name>.analysis.json
//!                                          (and .csv, and a Paraver
//!                                          cause timeline), print the
//!                                          per-channel gain ranking
//!
//! ovlsim serve [--port <n>]                loopback HTTP/JSON API over one
//!                                          shared session (see
//!                                          `ovlsim_session::serve`);
//!                                          --port 0 (the default) picks an
//!                                          ephemeral port
//! ovlsim --version                         print the version and exit
//! ```
//!
//! `campaign run`, `analyze` and `serve` accept `--cache-dir <dir>`: a
//! persistent, integrity-checked artifact cache of `.ovlb` files. Traces
//! and compiled replay programs are written through on build and served
//! back on any later invocation pointed at the same directory, so a warm
//! restart rebuilds nothing; corrupt entries are quarantined and rebuilt
//! transparently.
//!
//! `campaign run`, `trace replay` and `analyze` additionally accept
//! deterministic perturbation flags (see `ovlsim_core::PerturbationModel`):
//!
//! ```text
//! --seed <n>                 perturbation seed (campaign: overrides the
//!                            spec's `noise seed`)
//! --noise <level>            OS-noise level (campaign: replaces the
//!                            spec's `noise level` axis)
//! --stragglers <slow>:<r0>,<r1>,...   straggler ranks at a slowdown
//! --faults <period-us>:<down-us>      transient link outages
//! ```
//!
//! Campaign specs are the declarative replacement for one-off experiment
//! binaries; see `ovlsim_lab::campaign` for the grammar and
//! `examples/campaigns/` for the committed corpus.
//!
//! Every replaying subcommand runs through one `ovlsim_session::Session`,
//! so all intermediate artifacts (traces, indexes, compiled replay
//! programs) are content-addressed and built at most once per invocation.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ovlsim::apps::registry;
use ovlsim::apps::ProblemClass;
use ovlsim::core::codec;
use ovlsim::core::{format_bytes, format_time, validate_trace_set, Platform, Rank, Time, TraceSet};
use ovlsim::dimemas::{emit_trace_set, parse_trace_set, SimError};
use ovlsim::lab::campaign::{diff_reports, CampaignSpec, Engine};
use ovlsim::lab::{
    run_tune, run_tune_baseline, ArtifactPipeline, Attribution, DirectPipeline, EngineInput,
    LabError, TuneOptions,
};
use ovlsim::paraver::{render_gantt, to_cause_pcf, to_cause_prv, to_row, GanttOptions, Timeline};
use ovlsim::session::{PerturbSpec, PlatformSpec, Server, Session, SessionError, TraceSource};
use ovlsim::tracer::TracingSession;

/// The one version string: `--version` prints it and `serve` reports it
/// from `/status`, so the two can never disagree.
const VERSION: &str = env!("CARGO_PKG_VERSION");

/// `println!` that survives a closed stdout: see [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Set once stdout's reader has hung up; later writes are dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout. A reader that hung up early (EPIPE, as in
/// `ovlsim campaign list ... | head -1`) has seen all it wants: the
/// command finishes its work without printing more and exits as it
/// would have, instead of panicking. Any other write failure is a
/// one-line error with exit 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ovlsim campaign run <spec.campaign> [--out <dir>] [--csv] [--cache-dir <dir>] [--force-engine <engine>]\n  \
         ovlsim campaign list <spec.campaign>\n  \
         ovlsim campaign diff <golden.json> <actual.json>\n  \
         ovlsim trace gen <app> <out-prefix> [class] [ranks] [iterations]\n  \
         ovlsim trace stats <file.dim|file.ovlb>\n  \
         ovlsim trace validate <file.dim|file.ovlb>\n  \
         ovlsim trace replay <file.dim|file.ovlb> [bytes-per-sec] [latency-us] [--engine <engine>]\n  \
         ovlsim trace convert <in.dim|in.ovlb> <out.dim|out.ovlb>\n  \
         ovlsim analyze <file.dim|file.ovlb> [bytes-per-sec] [latency-us] [--out <dir>] [--csv] [--prv] [--cache-dir <dir>]\n  \
         ovlsim tune <app|file.dim|file.ovlb> [bytes-per-sec] [latency-us] [--budget <n>] [--seed <n>] [--out <dir>] [--csv] [--cache-dir <dir>]\n  \
         ovlsim serve [--port <n>] [--cache-dir <dir>]\n  \
         ovlsim --version\n\
         perturbation flags (campaign run, trace replay, analyze):\n  \
         --seed <n>  --noise <level>  --stragglers <slow>:<r0>,<r1>,...  \
         --faults <period-us>:<down-us>\n\
         engines: compiled (default), naive"
    );
    ExitCode::from(2)
}

/// Builds the one session an invocation shares across its work,
/// optionally backed by a persistent `--cache-dir`.
fn open_session(cache_dir: Option<&Path>) -> Result<Session, String> {
    let session = Session::new().map_err(|e| e.to_string())?;
    match cache_dir {
        Some(dir) => session.with_cache_dir(dir).map_err(|e| e.to_string()),
        None => Ok(session),
    }
}

/// A rejected platform or perturbation setting, printed as its bare
/// domain message.
fn bad_setting(e: SessionError) -> String {
    match e {
        SessionError::BadRequest(msg) => msg,
        other => other.to_string(),
    }
}

fn parse_stragglers(v: &str) -> Result<(f64, Vec<u32>), String> {
    let bad = || format!("bad --stragglers `{v}`: want <slowdown>:<rank>,<rank>,...");
    let (slow, ranks) = v.split_once(':').ok_or_else(bad)?;
    let slowdown: f64 = slow.parse().map_err(|_| bad())?;
    let ranks: Vec<u32> = ranks
        .split(',')
        .map(|r| r.parse::<u32>().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    if ranks.is_empty() {
        return Err(bad());
    }
    Ok((slowdown, ranks))
}

fn parse_faults(v: &str) -> Result<(u64, u64), String> {
    let bad = || format!("bad --faults `{v}`: want <period-us>:<downtime-us>");
    let (period, down) = v.split_once(':').ok_or_else(bad)?;
    Ok((
        period.parse().map_err(|_| bad())?,
        down.parse().map_err(|_| bad())?,
    ))
}

/// `<dir>/<stem>.<suffix>` for an output file named after data (a
/// campaign, trace or app name). A stem that is empty, `.` or `..`, or
/// that holds a path separator, could name a file outside `dir` and is
/// refused.
fn out_path(dir: &Path, stem: &str, suffix: &str) -> Result<PathBuf, String> {
    if matches!(stem, "" | "." | "..") || stem.contains(['/', '\\']) {
        return Err(format!(
            "output name `{stem}` is not a plain file name; refusing to write outside {}",
            dir.display()
        ));
    }
    Ok(dir.join(format!("{stem}.{suffix}")))
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

// ---------------------------------------------------------------- campaign

fn load_spec(path: &str) -> Result<CampaignSpec, String> {
    CampaignSpec::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn cmd_campaign_run(
    spec_path: &str,
    out_dir: &Path,
    csv: bool,
    perturb: &PerturbSpec,
    cache_dir: Option<&Path>,
    force_engine: Option<Engine>,
) -> Result<(), String> {
    let mut spec = load_spec(spec_path)?;
    let json_path = out_path(out_dir, &spec.name, "report.json")?;
    let csv_path = out_path(out_dir, &spec.name, "report.csv")?;
    spec.force_engine = force_engine;
    // Domain-check the flag values through the model builders before
    // splicing them into the spec's perturbation axes.
    perturb.model().map_err(bad_setting)?;
    if let Some(seed) = perturb.seed {
        spec.noise_seed = seed;
    }
    if let Some(level) = perturb.noise {
        spec.noise_levels = vec![level];
    }
    if let Some(stragglers) = &perturb.stragglers {
        spec.stragglers = Some(stragglers.clone());
    }
    if let Some((period, down)) = perturb.faults {
        spec.faults = Some((Time::from_us(period), Time::from_us(down)));
    }
    let session = open_session(cache_dir)?;
    let report = session
        .run_campaign(&spec)
        .map_err(|e| format!("{spec_path}: {e}"))?;
    fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    fs::write(&json_path, report.to_json())
        .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    outln!(
        "campaign {}: {} points -> {}",
        report.campaign,
        report.rows.len(),
        json_path.display()
    );
    if csv {
        fs::write(&csv_path, report.to_csv())
            .map_err(|e| format!("write {}: {e}", csv_path.display()))?;
        outln!("              csv -> {}", csv_path.display());
    }
    // The persistent-cache summary is a stable stdout hook for scripts
    // (the CI corruption smoke asserts on these counters).
    if let Some(d) = session.disk_stats() {
        outln!(
            "cache: {} loads, {} stores, {} quarantined",
            d.loads,
            d.stores,
            d.quarantined
        );
    }
    // Per app×class×mode summary: the peak speedup over the platform grid
    // (the number every figure in the paper reports per scenario).
    outln!(
        "\n{:<10} {:>5} {:<20} {:>10}",
        "app",
        "class",
        "mode",
        "peak"
    );
    let mut seen: Vec<(String, String, String)> = Vec::new();
    for row in &report.rows {
        let key = (row.app.clone(), row.class.to_string(), row.mode.clone());
        if seen.contains(&key) {
            continue;
        }
        let peak = report
            .rows
            .iter()
            .filter(|r| r.app == key.0 && r.class.to_string() == key.1 && r.mode == key.2)
            .map(|r| r.speedup())
            .fold(f64::NEG_INFINITY, f64::max);
        outln!(
            "{:<10} {:>5} {:<20} {:>+9.1}%",
            key.0,
            key.1,
            key.2,
            (peak - 1.0) * 100.0
        );
        seen.push(key);
    }
    // Perturbed campaigns additionally answer the robustness question:
    // how much of the clean overlap gain survives at each noise level?
    if report.perturbed {
        outln!("\n{:<12} {:>10}", "noise", "retention");
        for (level, retention) in report.retention_by_level() {
            match retention {
                Some(r) => outln!("{level:<12} {:>9.1}%", r * 100.0),
                // No scenario at this level has a positive clean-gain
                // baseline — there is nothing to retain.
                None => outln!("{level:<12} {:>10}", "n/a"),
            }
        }
    }
    Ok(())
}

fn cmd_campaign_list(spec_path: &str) -> Result<(), String> {
    let spec = load_spec(spec_path)?;
    let points = spec.expand();
    outln!(
        "campaign {}: {} apps x {} classes x {} modes x {} engines x {} packings x {} noise levels x {} bandwidths = {} points",
        spec.name,
        spec.apps.len(),
        spec.classes.len(),
        spec.modes.len(),
        spec.engines.len(),
        spec.ranks_per_node.len(),
        spec.noise_levels.len(),
        spec.bandwidths.len(),
        points.len()
    );
    for p in &points {
        let noise = if spec.perturbed() {
            format!(" noise={}", p.noise_level)
        } else {
            String::new()
        };
        outln!(
            "  {} class={} {} engine={} rpn={}{noise} bw={}",
            p.app,
            p.class,
            p.mode,
            p.engine,
            p.ranks_per_node,
            format_bytes(p.bandwidth.bytes_per_sec() as u64)
        );
    }
    Ok(())
}

fn cmd_campaign_diff(golden_path: &str, actual_path: &str) -> Result<(), String> {
    let golden = read(golden_path)?;
    let actual = read(actual_path)?;
    let diffs = diff_reports(&golden, &actual);
    if diffs.is_empty() {
        outln!("reports identical ({golden_path} vs {actual_path})");
        return Ok(());
    }
    const SHOWN: usize = 20;
    for d in diffs.iter().take(SHOWN) {
        eprintln!(
            "line {}:\n  golden: {}\n  actual: {}",
            d.line, d.expected, d.actual
        );
    }
    if diffs.len() > SHOWN {
        eprintln!("... and {} more differing lines", diffs.len() - SHOWN);
    }
    Err(format!(
        "{} differing lines between {golden_path} and {actual_path}",
        diffs.len()
    ))
}

// ------------------------------------------------------------------- trace

/// Classifies a trace file by extension (and contents) into the session's
/// source vocabulary: `.ovlb` files are binary artifacts, everything else
/// is the text format. Binary *contents* under a non-`.ovlb` name are
/// rejected with a pointer to `trace convert` instead of drowning the
/// user in line-1 parse noise.
fn load_source(path: &str) -> Result<TraceSource, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if Path::new(path).extension().and_then(|e| e.to_str()) == Some(codec::EXTENSION) {
        return Ok(TraceSource::Binary { bytes });
    }
    if let Some(kind) = codec::sniff(&bytes) {
        return Err(format!(
            "{path}: contents are a binary .ovlb artifact ({kind}) but the extension is not \
             `.{}`; rename it, or convert with `ovlsim trace convert`",
            codec::EXTENSION
        ));
    }
    let dim = String::from_utf8(bytes)
        .map_err(|_| format!("{path}: not UTF-8 text and not an .ovlb artifact"))?;
    Ok(TraceSource::Text { dim })
}

fn load_trace(path: &str) -> Result<TraceSet, String> {
    match load_source(path)? {
        TraceSource::Text { dim } => parse_trace_set(&dim).map_err(|e| format!("{path}: {e}")),
        TraceSource::Binary { bytes } => {
            codec::decode_trace_set(&bytes).map_err(|e| format!("{path}: {e}"))
        }
        // `load_source` only produces file-backed sources.
        _ => unreachable!(),
    }
}

fn parse_class(s: &str) -> Result<ProblemClass, String> {
    s.parse()
        .map_err(|e: ovlsim::apps::UnknownClassError| e.to_string())
}

fn cmd_trace_gen(
    app_name: &str,
    prefix: &str,
    class: Option<&str>,
    ranks: Option<&str>,
    iterations: Option<&str>,
) -> Result<(), String> {
    let class = class.map_or(Ok(ProblemClass::A), parse_class)?;
    let parse_count = |what: &str, v: Option<&str>| -> Result<Option<usize>, String> {
        v.map(|s| {
            s.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad {what} `{s}`: want a positive integer"))
        })
        .transpose()
    };
    let overrides = ovlsim::apps::registry::AppOverrides {
        ranks: parse_count("rank count", ranks)?,
        iterations: parse_count("iteration count", iterations)?,
    };
    let app = registry::build_app(app_name, class, overrides)
        .map_err(|e| format!("unknown or invalid app `{app_name}`: {e}"))?;
    let bundle = TracingSession::new(app.as_ref())
        .run()
        .map_err(|e| e.to_string())?;
    let variants = [
        ("original", bundle.original().clone()),
        ("ovl-real", bundle.overlapped_real()),
        ("ovl-linear", bundle.overlapped_linear()),
    ];
    for (label, trace) in variants {
        let path = format!("{prefix}.{label}.dim");
        fs::write(&path, emit_trace_set(&trace)).map_err(|e| format!("write {path}: {e}"))?;
        outln!("wrote {path} ({} records)", trace.total_records());
    }
    Ok(())
}

/// `trace convert <in> <out>`: round-trips a trace between the text and
/// binary formats, direction chosen by the output extension. Either
/// direction is lossless (the codec round-trip is bit-identical and the
/// text round-trip is value-identical), so `a.dim -> b.ovlb -> c.dim`
/// reproduces `a.dim` byte for byte on canonically-emitted inputs.
fn cmd_trace_convert(input: &str, output: &str) -> Result<(), String> {
    let trace = load_trace(input)?;
    let out_ext = Path::new(output).extension().and_then(|e| e.to_str());
    let bytes = match out_ext {
        Some(e) if e == codec::EXTENSION => codec::encode_trace_set(&trace),
        Some("dim") => emit_trace_set(&trace).into_bytes(),
        _ => {
            return Err(format!(
                "cannot infer output format of `{output}`: use a `.dim` or `.{}` extension",
                codec::EXTENSION
            ))
        }
    };
    fs::write(output, &bytes).map_err(|e| format!("write {output}: {e}"))?;
    outln!(
        "wrote {output} ({} ranks, {} records, {} bytes)",
        trace.rank_count(),
        trace.total_records(),
        bytes.len()
    );
    Ok(())
}

fn cmd_trace_stats(path: &str) -> Result<(), String> {
    let trace = load_trace(path)?;
    let issues = validate_trace_set(&trace);
    outln!("{trace}");
    outln!(
        "total: {} instr, {} p2p",
        trace.total_instr().get(),
        format_bytes(trace.total_p2p_send_bytes())
    );
    for (r, rank_trace) in trace.ranks().iter().enumerate() {
        let sends = rank_trace
            .iter()
            .filter(|rec| {
                matches!(
                    rec,
                    ovlsim::core::Record::Send { .. } | ovlsim::core::Record::ISend { .. }
                )
            })
            .count();
        let collectives = rank_trace.iter().filter(|rec| rec.is_collective()).count();
        outln!(
            "  rank {r}: {} records, {} instr, {} sends ({}), {} collectives",
            rank_trace.len(),
            rank_trace.total_instr().get(),
            sends,
            format_bytes(rank_trace.total_p2p_send_bytes()),
            collectives
        );
    }
    if issues.is_empty() {
        outln!("validation: ok");
        Ok(())
    } else {
        for issue in &issues {
            eprintln!("issue: {issue}");
        }
        Err(format!("{} validation issues", issues.len()))
    }
}

fn cmd_trace_validate(path: &str) -> Result<(), String> {
    let trace = load_trace(path)?;
    let issues = validate_trace_set(&trace);
    if issues.is_empty() {
        outln!("{path}: ok");
        Ok(())
    } else {
        for issue in &issues {
            eprintln!("{path}: {issue}");
        }
        Err(format!("{} issues", issues.len()))
    }
}

/// The platform of `trace replay`, `analyze` and `tune` from their
/// optional `[bytes-per-sec] [latency-us]` arguments, built by the same
/// [`PlatformSpec`] (and so with the same defaults) as a serve request.
fn parse_platform(bw: Option<&str>, lat: Option<&str>) -> Result<Platform, String> {
    let spec = PlatformSpec {
        bandwidth: bw
            .map(str::parse)
            .transpose()
            .map_err(|_| "bad bandwidth")?,
        latency_us: lat.map(str::parse).transpose().map_err(|_| "bad latency")?,
    };
    spec.build().map_err(bad_setting)
}

fn cmd_trace_replay(
    path: &str,
    bw: Option<&str>,
    lat: Option<&str>,
    perturb: &PerturbSpec,
    engine: Option<Engine>,
) -> Result<(), String> {
    let trace = load_trace(path)?;
    let platform = perturb
        .apply(parse_platform(bw, lat)?)
        .map_err(bad_setting)?;
    let (timeline, result) = Timeline::capture(&platform, &trace).map_err(|e| e.to_string())?;
    // `--engine` reruns the replay on the named engine and prints *its*
    // result. The engines are bit-identical by contract, so the output is
    // byte-for-byte the default path's — which is exactly what makes the
    // flag useful: diffing `trace replay --engine X` outputs across
    // engines is a one-line cross-check.
    let result = match engine {
        None => result,
        Some(eng) => {
            let input = EngineInput::build(&DirectPipeline, Arc::new(trace), &[eng], false)
                .map_err(|e| e.to_string())?;
            input.replay(eng, &platform).map_err(|e| e.to_string())?
        }
    };
    outln!("{result}");
    for r in 0..result.rank_finish().len() {
        outln!(
            "  rank {r}: finish {}, compute {}",
            format_time(result.rank_finish()[r]),
            format_time(result.rank_compute()[Rank::new(r as u32).index()])
        );
    }
    outln!(
        "\n{}",
        render_gantt(
            &timeline,
            &GanttOptions {
                width: 72,
                legend: true
            }
        )
    );
    Ok(())
}

// ----------------------------------------------------------------- analyze

#[allow(clippy::too_many_arguments)]
fn cmd_analyze(
    path: &str,
    bw: Option<&str>,
    lat: Option<&str>,
    out_dir: &Path,
    csv: bool,
    prv: bool,
    perturb: &PerturbSpec,
    cache_dir: Option<&Path>,
) -> Result<(), String> {
    let session = open_session(cache_dir)?;
    let trace = session.trace(&load_source(path)?).map_err(|e| match e {
        // Same message shape as `load_trace` for parse/decode failures.
        ovlsim::session::SessionError::TraceParse(pe) => format!("{path}: {pe}"),
        ovlsim::session::SessionError::Decode(de) => format!("{path}: {de}"),
        other => format!("{path}: {other}"),
    })?;
    let platform = perturb
        .apply(parse_platform(bw, lat)?)
        .map_err(bad_setting)?;
    let index = ArtifactPipeline::index(&session, &trace).map_err(|e| match e {
        LabError::Sim(SimError::InvalidTrace { issues }) => {
            for issue in &issues {
                eprintln!("{path}: {issue}");
            }
            format!("{path}: {} validation issues", issues.len())
        }
        other => other.to_string(),
    })?;
    let prog = ArtifactPipeline::compiled(&session, &trace, &index).map_err(|e| e.to_string())?;
    let (attr, recorder) = Attribution::analyze_compiled(&platform, &trace, &index, &prog)
        .map_err(|e| e.to_string())?;

    let write_out = |suffix: &str, content: String| -> Result<PathBuf, String> {
        let p = out_path(out_dir, attr.trace_name(), suffix)?;
        fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        fs::write(&p, content).map_err(|e| format!("write {}: {e}", p.display()))?;
        Ok(p)
    };
    let json_path = write_out("analysis.json", attr.to_json())?;
    outln!(
        "analysis {}: {} ranks, {} channels -> {}",
        attr.trace_name(),
        trace.rank_count(),
        attr.channels().len(),
        json_path.display()
    );
    if csv {
        let p = write_out("analysis.csv", attr.to_csv())?;
        outln!("              csv -> {}", p.display());
    }
    if prv {
        let intervals = (0..trace.rank_count()).flat_map(|r| {
            recorder
                .intervals(r)
                .iter()
                .map(move |iv| (Rank::new(r as u32), iv.start, iv.end, iv.cause))
        });
        let prv_body = to_cause_prv(trace.rank_count(), attr.makespan(), intervals);
        let p = write_out("cause.prv", prv_body)?;
        write_out("cause.pcf", to_cause_pcf())?;
        write_out("cause.row", to_row(trace.rank_count()))?;
        outln!("              paraver cause timeline -> {}", p.display());
    }

    outln!(
        "\nmakespan {}  bound {}  critical path {} segments",
        format_time(attr.makespan()),
        format_time(attr.makespan_bound()),
        attr.critical_path().len()
    );
    outln!(
        "\n{:<6} {:>4} {:>4} {:>12} {:>12} {:>12}",
        "chan",
        "src",
        "dst",
        "wait",
        "critical",
        "gain"
    );
    const SHOWN: usize = 10;
    let ranked = attr.ranked_channels();
    for c in ranked.iter().take(SHOWN) {
        outln!(
            "{:<6} {:>4} {:>4} {:>12} {:>12} {:>12}",
            c.chan,
            c.src.get(),
            c.dst.get(),
            format_time(c.total_wait()),
            format_time(c.critical),
            format_time(c.gain_potential)
        );
    }
    if ranked.len() > SHOWN {
        outln!("... and {} more channels", ranked.len() - SHOWN);
    }
    Ok(())
}

// -------------------------------------------------------------------- tune

/// Runs the attribution-guided overlap auto-tuner on a registered app
/// (traced at class S) or a trace file (baseline-only: raw traces carry no
/// transform metadata to synthesize candidates from). Writes the
/// byte-stable trajectory report next to the usual campaign outputs.
#[allow(clippy::too_many_arguments)]
fn cmd_tune(
    target: &str,
    bw: Option<&str>,
    lat: Option<&str>,
    out_dir: &Path,
    csv: bool,
    seed: Option<u64>,
    budget: Option<usize>,
    cache_dir: Option<&Path>,
) -> Result<(), String> {
    let session = open_session(cache_dir)?;
    let platform = parse_platform(bw, lat)?;
    let opts = TuneOptions {
        budget: budget.unwrap_or(ovlsim::lab::tune::DEFAULT_TUNE_BUDGET),
        seed: seed.unwrap_or(0),
        engine: Engine::Compiled,
    };
    let report = if registry::is_registered(target) {
        let bundle = ArtifactPipeline::bundle(
            &session,
            target,
            ProblemClass::S,
            registry::AppOverrides::default(),
        )
        .map_err(|e| e.to_string())?;
        run_tune(&session, &bundle, &platform, &opts).map_err(|e| e.to_string())?
    } else {
        let trace = session.trace(&load_source(target)?).map_err(|e| match e {
            ovlsim::session::SessionError::TraceParse(pe) => format!("{target}: {pe}"),
            ovlsim::session::SessionError::Decode(de) => format!("{target}: {de}"),
            other => format!("{target}: {other}"),
        })?;
        run_tune_baseline(&session, &trace, &platform, &opts).map_err(|e| e.to_string())?
    };
    let json_path = out_path(out_dir, &report.app, "tune.json")?;
    let csv_path = out_path(out_dir, &report.app, "tune.csv")?;
    fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    fs::write(&json_path, report.to_json())
        .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    outln!(
        "tune {}: {} tunable channels, budget {} -> {}",
        report.app,
        report.channels,
        report.budget,
        json_path.display()
    );
    if csv {
        fs::write(&csv_path, report.to_csv())
            .map_err(|e| format!("write {}: {e}", csv_path.display()))?;
        outln!("              csv -> {}", csv_path.display());
    }
    outln!(
        "\noriginal {}  uniform-linear {}  tuned {}  ({:+.2}% vs linear)",
        format_time(report.original),
        format_time(report.linear),
        format_time(report.best),
        (report.speedup_vs_linear() - 1.0) * 100.0
    );
    if let Some(plan) = &report.best_plan {
        outln!("plan: {}", plan.render());
    }
    // The accepted trajectory: how the incumbent improved step by step.
    for s in report.steps.iter().filter(|s| s.accepted && s.iter > 0) {
        outln!(
            "  [{}] {} -> {}",
            s.iter,
            s.mutation,
            format_time(s.makespan)
        );
    }
    Ok(())
}

// ------------------------------------------------------------------- serve

fn cmd_serve(port: u16, cache_dir: Option<&Path>) -> Result<(), String> {
    let session = Arc::new(open_session(cache_dir)?);
    let server = Server::bind(port, session, VERSION).map_err(|e| e.to_string())?;
    outln!(
        "ovlsim {VERSION} serving on http://127.0.0.1:{} (POST /shutdown to stop)",
        server.port().map_err(|e| e.to_string())?
    );
    server.run().map_err(|e| e.to_string())
}

// -------------------------------------------------------------------- main

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut out_dir = PathBuf::from(".");
    let mut csv = false;
    let mut prv = false;
    let mut flags_given = false;
    let mut port: Option<u16> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut perturb = PerturbSpec::default();
    let mut engine: Option<Engine> = None;
    let mut force_engine: Option<Engine> = None;
    let mut budget: Option<usize> = None;
    // Both engine flags fail the same way: a single typed line on stderr
    // and the usage exit code, so scripts can distinguish "bad engine
    // name" from a failed replay without parsing the usage text.
    let parse_engine = |flag: &str, v: Option<&str>| -> Result<Engine, ExitCode> {
        match v.map(|s| (s, Engine::parse(s))) {
            Some((_, Some(e))) => Ok(e),
            Some((s, None)) => {
                eprintln!("error: unknown engine `{s}` for {flag} (expected compiled or naive)");
                Err(ExitCode::from(2))
            }
            None => Err(usage()),
        }
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--version" => {
                outln!("ovlsim {VERSION}");
                return ExitCode::SUCCESS;
            }
            "--port" => match it.next().and_then(|v| v.parse().ok()) {
                Some(p) => port = Some(p),
                None => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--csv" => {
                csv = true;
                flags_given = true;
            }
            "--prv" => {
                prv = true;
                flags_given = true;
            }
            "--out" => match it.next() {
                Some(dir) => {
                    out_dir = PathBuf::from(dir);
                    flags_given = true;
                }
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(seed) => perturb.seed = Some(seed),
                None => return usage(),
            },
            "--budget" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => budget = Some(n),
                None => return usage(),
            },
            "--noise" => match it.next().and_then(|v| v.parse().ok()) {
                Some(level) => perturb.noise = Some(level),
                None => return usage(),
            },
            "--stragglers" => match it.next().map(parse_stragglers) {
                Some(Ok(stragglers)) => perturb.stragglers = Some(stragglers),
                Some(Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            "--engine" => match parse_engine("--engine", it.next()) {
                Ok(e) => engine = Some(e),
                Err(code) => return code,
            },
            "--force-engine" => match parse_engine("--force-engine", it.next()) {
                Ok(e) => force_engine = Some(e),
                Err(code) => return code,
            },
            "--faults" => match it.next().map(parse_faults) {
                Some(Ok(faults)) => perturb.faults = Some(faults),
                Some(Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
                None => return usage(),
            },
            _ if arg.starts_with("--") => return usage(),
            _ => positional.push(arg),
        }
    }
    // Flags only mean something to `campaign run` and `analyze`; silently
    // swallowing them elsewhere would misplace the user's output. `--prv`
    // is analyze-only, and the perturbation flags belong to the three
    // replaying subcommands.
    let is_tune = positional.first() == Some(&"tune");
    let takes_flags = positional.get(..2) == Some(&["campaign", "run"])
        || positional.first() == Some(&"analyze")
        || is_tune;
    if flags_given && !takes_flags {
        return usage();
    }
    if prv && positional.first() != Some(&"analyze") {
        return usage();
    }
    let takes_perturb =
        (takes_flags && !is_tune) || positional.get(..2) == Some(&["trace", "replay"]);
    if is_tune {
        // `tune` reuses `--seed` as the *search* seed; the platform
        // perturbation flags don't apply to it.
        if perturb.noise.is_some() || perturb.stragglers.is_some() || perturb.faults.is_some() {
            return usage();
        }
    } else if perturb.given() && !takes_perturb {
        return usage();
    }
    // `--budget` is the tuner's evaluation budget and means nothing
    // elsewhere.
    if budget.is_some() && !is_tune {
        return usage();
    }
    // `--engine` selects the replay engine of `trace replay`;
    // `--force-engine` overrides campaign execution. Anywhere else the
    // flags would silently do nothing.
    if engine.is_some() && positional.get(..2) != Some(&["trace", "replay"]) {
        return usage();
    }
    if force_engine.is_some() && positional.get(..2) != Some(&["campaign", "run"]) {
        return usage();
    }
    if port.is_some() && positional.first() != Some(&"serve") {
        return usage();
    }
    // `--cache-dir` belongs to the session-backed subcommands.
    let takes_cache = takes_flags || positional.first() == Some(&"serve");
    if cache_dir.is_some() && !takes_cache {
        return usage();
    }
    let cache = cache_dir.as_deref();
    let result = match positional[..] {
        ["serve"] => cmd_serve(port.unwrap_or(0), cache),
        ["campaign", "run", spec] => {
            cmd_campaign_run(spec, &out_dir, csv, &perturb, cache, force_engine)
        }
        ["campaign", "list", spec] => cmd_campaign_list(spec),
        ["campaign", "diff", golden, actual] => cmd_campaign_diff(golden, actual),
        ["trace", "gen", app, prefix] => cmd_trace_gen(app, prefix, None, None, None),
        ["trace", "gen", app, prefix, class] => cmd_trace_gen(app, prefix, Some(class), None, None),
        ["trace", "gen", app, prefix, class, ranks] => {
            cmd_trace_gen(app, prefix, Some(class), Some(ranks), None)
        }
        ["trace", "gen", app, prefix, class, ranks, iters] => {
            cmd_trace_gen(app, prefix, Some(class), Some(ranks), Some(iters))
        }
        ["trace", "stats", path] => cmd_trace_stats(path),
        ["trace", "validate", path] => cmd_trace_validate(path),
        ["trace", "replay", path] => cmd_trace_replay(path, None, None, &perturb, engine),
        ["trace", "replay", path, bw] => cmd_trace_replay(path, Some(bw), None, &perturb, engine),
        ["trace", "replay", path, bw, lat] => {
            cmd_trace_replay(path, Some(bw), Some(lat), &perturb, engine)
        }
        ["trace", "convert", input, output] => cmd_trace_convert(input, output),
        ["analyze", path] => cmd_analyze(path, None, None, &out_dir, csv, prv, &perturb, cache),
        ["analyze", path, bw] => {
            cmd_analyze(path, Some(bw), None, &out_dir, csv, prv, &perturb, cache)
        }
        ["analyze", path, bw, lat] => cmd_analyze(
            path,
            Some(bw),
            Some(lat),
            &out_dir,
            csv,
            prv,
            &perturb,
            cache,
        ),
        ["tune", target] => cmd_tune(
            target,
            None,
            None,
            &out_dir,
            csv,
            perturb.seed,
            budget,
            cache,
        ),
        ["tune", target, bw] => cmd_tune(
            target,
            Some(bw),
            None,
            &out_dir,
            csv,
            perturb.seed,
            budget,
            cache,
        ),
        ["tune", target, bw, lat] => cmd_tune(
            target,
            Some(bw),
            Some(lat),
            &out_dir,
            csv,
            perturb.seed,
            budget,
            cache,
        ),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
