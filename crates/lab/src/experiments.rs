//! The paper's experiment suite (E1–E8) and two extensions (E9, E10).
//!
//! Each function reproduces one artefact of the paper's evaluation (its
//! doc comment names the figure or claim; the README section "The
//! pipeline" places the suite in the workflow) and returns an
//! [`ExperimentReport`] whose table holds the same rows/series the paper
//! reports. The `exp_*` binaries in `ovlsim-bench` print these reports,
//! and `tests/paper_claims.rs` asserts the paper's findings as bands.

use std::fmt;

use ovlsim_apps::calibration::{reference_platform, target_for};
use ovlsim_core::{format_bandwidth, format_time, Bandwidth, Platform, Time};
use ovlsim_dimemas::Simulator;
use ovlsim_paraver::{render_gantt, GanttOptions, StateProfile, Timeline};
use ovlsim_tracer::{
    Application, ChunkingPolicy, Mechanisms, OverlapMode, PatternSource, TraceBundle,
    TracingSession,
};

use crate::analysis::peak_speedup;
use crate::error::LabError;
use crate::iso::bandwidth_relaxation;
use crate::par;
use crate::sweep::{log_bandwidths, sweep_bundle};
use crate::table::Table;

/// A rendered experiment outcome.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (`"E1"` … `"E8"`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// The regenerated table/series.
    pub table: Table,
    /// Free-form notes (qualitative observations, Gantt charts, …).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Renders the full report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {}: {} ==\n\n{}",
            self.id,
            self.title,
            self.table.render()
        );
        for note in &self.notes {
            out.push('\n');
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Shared sweep bounds (bytes/s): 1 MB/s … 100 GB/s.
pub const SWEEP_LO: f64 = 1.0e6;
/// Upper sweep bound (bytes/s).
pub const SWEEP_HI: f64 = 1.0e11;

fn trace_app(app: &dyn Application) -> Result<TraceBundle, LabError> {
    Ok(TracingSession::new(app)
        .policy(ChunkingPolicy::fixed_count(16).with_min_chunk_bytes(512))
        .run()?)
}

fn speedup_at(
    bundle: &TraceBundle,
    base: &Platform,
    mode: OverlapMode,
    bw: Bandwidth,
) -> Result<f64, LabError> {
    let points = sweep_bundle(bundle, base, mode, &[bw])?;
    Ok(points[0].speedup())
}

/// E1 — the environment pipeline (paper Fig. 1): traces one application,
/// synthesizes all four standard variants, replays them, and renders the
/// original and overlapped timelines side by side.
///
/// # Errors
///
/// Propagates tracing and replay errors.
pub fn e1_pipeline(app: &dyn Application) -> Result<ExperimentReport, LabError> {
    let base = reference_platform();
    let bundle = trace_app(app)?;
    let mut table = Table::new(vec!["trace", "records", "makespan", "compute%", "speedup"]);
    let mut notes = Vec::new();

    let (orig_tl, orig_res) = Timeline::capture(&base, bundle.original())?;
    let orig_time = orig_res.total_time();
    let orig_profile = StateProfile::of(&orig_tl);
    table.row(vec![
        "original".into(),
        bundle.original().total_records().to_string(),
        format_time(orig_time),
        format!("{:.1}", orig_profile.efficiency() * 100.0),
        "1.000x".into(),
    ]);

    for mode in [
        OverlapMode::real(),
        OverlapMode::linear(),
        OverlapMode {
            pattern: PatternSource::Real,
            mechanisms: Mechanisms::EARLY_SEND_ONLY,
        },
        OverlapMode {
            pattern: PatternSource::Real,
            mechanisms: Mechanisms::LATE_WAIT_ONLY,
        },
    ] {
        let ts = bundle.overlapped(mode)?;
        let (tl, res) = Timeline::capture(&base, &ts)?;
        let profile = StateProfile::of(&tl);
        table.row(vec![
            mode.label(),
            ts.total_records().to_string(),
            format_time(res.total_time()),
            format!("{:.1}", profile.efficiency() * 100.0),
            format!(
                "{:.3}x",
                orig_time.as_secs_f64() / res.total_time().as_secs_f64()
            ),
        ]);
        if mode == OverlapMode::linear() {
            notes.push(format!(
                "original timeline:\n{}\noverlapped (linear) timeline:\n{}",
                render_gantt(
                    &orig_tl,
                    &GanttOptions {
                        width: 72,
                        legend: false
                    }
                ),
                render_gantt(
                    &tl,
                    &GanttOptions {
                        width: 72,
                        legend: true
                    }
                ),
            ));
        }
    }
    // Score the linear overlap against the theoretical bounds.
    let bounds = crate::bounds::OverlapBounds::of(bundle.original(), &base);
    let linear = bundle.overlapped(OverlapMode::linear())?;
    let ovl_time = Simulator::new(base.clone()).run(&linear)?.total_time();
    if let Some(eff) = bounds.efficiency(orig_time, ovl_time) {
        notes.push(format!(
            "bounds: compute {} / network {} -> makespan floor {}; linear overlap \
             recovered {:.0}% of the overlappable gap",
            format_time(bounds.compute_bound()),
            format_time(bounds.network_bound()),
            format_time(bounds.makespan_bound()),
            eff * 100.0
        ));
    }
    Ok(ExperimentReport {
        id: "E1",
        title: format!("environment pipeline on {} (paper Fig. 1)", app.name()),
        table,
        notes,
    })
}

/// E2 — real measured patterns: "the potential for automatic overlap in
/// the applications is negligible" (§III). Reports each app's peak
/// real-pattern speedup over the whole bandwidth sweep.
///
/// # Errors
///
/// Propagates tracing and replay errors.
pub fn e2_real_patterns(
    apps: &[Box<dyn Application>],
    points: usize,
) -> Result<ExperimentReport, LabError> {
    let base = reference_platform();
    let bws = log_bandwidths(SWEEP_LO, SWEEP_HI, points);
    let mut table = Table::new(vec![
        "app",
        "peak speedup (real)",
        "at bandwidth",
        "peak speedup (linear)",
    ]);
    // Each app traces and sweeps independently: fan the apps out, keep
    // the table rows in input order.
    let rows = par::par_map(apps, |app| -> Result<Vec<String>, LabError> {
        let bundle = trace_app(app.as_ref())?;
        let real = sweep_bundle(&bundle, &base, OverlapMode::real(), &bws)?;
        let linear = sweep_bundle(&bundle, &base, OverlapMode::linear(), &bws)?;
        let real_peak = peak_speedup(&real).expect("nonempty sweep");
        let linear_peak = peak_speedup(&linear).expect("nonempty sweep");
        Ok(vec![
            app.name().to_string(),
            format!("{:+.1}%", real_peak.speedup_percent()),
            format_bandwidth(real_peak.bandwidth),
            format!("{:+.1}%", linear_peak.speedup_percent()),
        ])
    })?;
    for row in rows {
        table.row(row?);
    }
    Ok(ExperimentReport {
        id: "E2",
        title: "real vs ideal patterns: real-pattern overlap is negligible (§III claim 1)".into(),
        table,
        notes: vec![
            "paper: \"Considering the real computation patterns, the potential for \
             automatic overlap in the applications is negligible.\""
                .into(),
        ],
    })
}

/// E3 — ideal-pattern speedups at intermediate bandwidth, against the
/// paper's reported values (BT 30%, CG 10%, POP 10%, Alya 40%, SPECFEM
/// 65%, Sweep3D 160%).
///
/// # Errors
///
/// Propagates tracing and replay errors.
pub fn e3_ideal_speedup(apps: &[Box<dyn Application>]) -> Result<ExperimentReport, LabError> {
    let base = reference_platform();
    let bw = base.bandwidth();
    let mut table = Table::new(vec![
        "app",
        "bandwidth",
        "comm fraction",
        "measured",
        "paper",
    ]);
    let rows = par::par_map(apps, |app| -> Result<Vec<String>, LabError> {
        let bundle = trace_app(app.as_ref())?;
        let points = sweep_bundle(&bundle, &base, OverlapMode::linear(), &[bw])?;
        let p = &points[0];
        let paper = target_for(app.name()).map(|t| t.paper);
        Ok(vec![
            app.name().to_string(),
            format_bandwidth(bw),
            format!("{:.2}", p.comm_fraction),
            format!("{:+.0}%", p.speedup_percent()),
            paper
                .map(|v| format!("{:+.0}%", v * 100.0))
                .unwrap_or_else(|| "-".into()),
        ])
    })?;
    for row in rows {
        table.row(row?);
    }
    Ok(ExperimentReport {
        id: "E3",
        title: "ideal-pattern speedup at the intermediate (realistic) bandwidth (§III claim 2)"
            .into(),
        table,
        notes: vec![
            "all apps measured on the reference platform's realistic bandwidth, where \
             communication delays are comparable to computation; each app's own \
             communication fraction there determines its attainable speedup"
                .into(),
        ],
    })
}

/// E4 — speedup-vs-bandwidth curves (linear pattern): the benefit is
/// concentrated in the intermediate band and vanishes at both extremes.
///
/// # Errors
///
/// Propagates tracing and replay errors.
pub fn e4_speedup_curves(
    apps: &[Box<dyn Application>],
    points: usize,
) -> Result<ExperimentReport, LabError> {
    let base = reference_platform();
    let bws = log_bandwidths(SWEEP_LO, SWEEP_HI, points);
    let mut headers = vec!["bandwidth".to_string()];
    headers.extend(apps.iter().map(|a| a.name().to_string()));
    let mut table = Table::new(headers);
    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut curves = Vec::new();
    let per_app = par::par_map(apps, |app| -> Result<_, LabError> {
        let bundle = trace_app(app.as_ref())?;
        let pts = sweep_bundle(&bundle, &base, OverlapMode::linear(), &bws)?;
        let speedups: Vec<f64> = pts.iter().map(|p| p.speedup()).collect();
        Ok((crate::plot::curve_of(app.name(), &pts), speedups))
    })?;
    for result in per_app {
        let (curve, speedups) = result?;
        curves.push(curve);
        columns.push(speedups);
    }
    for (i, bw) in bws.iter().enumerate() {
        let mut row = vec![format_bandwidth(*bw)];
        for col in &columns {
            row.push(format!("{:.3}x", col[i]));
        }
        table.row(row);
    }
    let figure = crate::plot::render_curves(&bws, &curves, &crate::plot::PlotOptions::default());
    Ok(ExperimentReport {
        id: "E4",
        title: "speedup vs bandwidth, linear patterns (§III claim 2, curve form)".into(),
        table,
        notes: vec![figure],
    })
}

/// E5 — bandwidth relaxation at high bandwidth: the overlapped execution
/// matches the original's performance with "a couple of orders of
/// magnitude" less bandwidth (§III claim 3).
///
/// # Errors
///
/// Propagates tracing, replay and search errors.
pub fn e5_bandwidth_relaxation(
    apps: &[Box<dyn Application>],
    reference: f64,
) -> Result<ExperimentReport, LabError> {
    let base = reference_platform();
    let mut table = Table::new(vec![
        "app",
        "reference BW",
        "original time",
        "iso BW (overlapped)",
        "relaxation",
    ]);
    let rows = par::par_map(apps, |app| -> Result<Vec<String>, LabError> {
        let bundle = trace_app(app.as_ref())?;
        let overlapped = bundle.overlapped(OverlapMode::linear())?;
        let r = bandwidth_relaxation(bundle.original(), &overlapped, &base, reference, 1.0e3)?;
        Ok(vec![
            app.name().to_string(),
            format_bandwidth(r.reference_bandwidth),
            format_time(r.original_time),
            format_bandwidth(r.iso_bandwidth),
            format!(
                "{:.0}x ({:.1} orders)",
                r.relaxation_factor(),
                r.orders_of_magnitude()
            ),
        ])
    })?;
    for row in rows {
        table.row(row?);
    }
    Ok(ExperimentReport {
        id: "E5",
        title: "iso-performance bandwidth relaxation (§III claim 3)".into(),
        table,
        notes: vec![
            "paper: \"for achieving the performance of the original execution on some \
             high bandwidth, the overlapped execution needs bandwidth that is [a] couple \
             of orders of magnitude lower\""
                .into(),
        ],
    })
}

/// E6 — mechanism ablation: early sends only, late waits only, both, and
/// pure chunking, at each app's intermediate bandwidth (§II-B: traces
/// "that enforce only a subset of the overlapping mechanisms").
///
/// # Errors
///
/// Propagates tracing and replay errors.
pub fn e6_mechanisms(apps: &[Box<dyn Application>]) -> Result<ExperimentReport, LabError> {
    let base = reference_platform();
    let bw = base.bandwidth();
    let mut table = Table::new(vec![
        "app",
        "chunked only",
        "early-send only",
        "late-wait only",
        "both",
    ]);
    let rows = par::par_map(apps, |app| -> Result<Vec<String>, LabError> {
        let bundle = trace_app(app.as_ref())?;
        let mut cells = vec![app.name().to_string()];
        for mechanisms in [
            Mechanisms::NONE,
            Mechanisms::EARLY_SEND_ONLY,
            Mechanisms::LATE_WAIT_ONLY,
            Mechanisms::BOTH,
        ] {
            let mode = OverlapMode {
                pattern: PatternSource::Linear,
                mechanisms,
            };
            let s = speedup_at(&bundle, &base, mode, bw)?;
            cells.push(format!("{:+.1}%", (s - 1.0) * 100.0));
        }
        Ok(cells)
    })?;
    for row in rows {
        table.row(row?);
    }
    Ok(ExperimentReport {
        id: "E6",
        title: "overlap mechanism ablation at intermediate bandwidth (§II-B)".into(),
        table,
        notes: Vec::new(),
    })
}

/// E7 — production/consumption pattern CDFs: how much of each message is
/// ready after 25/50/75/100% of the producing burst, real vs linear (the
/// Sancho-assumption check, §II).
///
/// # Errors
///
/// Propagates tracing errors.
pub fn e7_pattern_cdf(apps: &[Box<dyn Application>]) -> Result<ExperimentReport, LabError> {
    let mut table = Table::new(vec![
        "app",
        "q25 ready@",
        "q50 ready@",
        "q75 ready@",
        "q100 ready@",
    ]);
    let rows = par::par_map(apps, |app| -> Result<Option<Vec<String>>, LabError> {
        let bundle = trace_app(app.as_ref())?;
        // Average the readiness CDF over the first-rank sends.
        let meta = bundle
            .metas()
            .iter()
            .find(|m| !m.sends.is_empty())
            .expect("at least one rank sends");
        let mut acc = [0.0f64; 4];
        let mut n = 0;
        for send in &meta.sends {
            if let Some(prof) = &send.production {
                let window_start = ovlsim_core::Instr::ZERO;
                let cdf = prof.readiness_cdf(window_start, send.send_instant, 4);
                for (a, c) in acc.iter_mut().zip(&cdf) {
                    *a += c;
                }
                n += 1;
            }
        }
        if n == 0 {
            return Ok(None);
        }
        let mut row = vec![app.name().to_string()];
        for a in acc {
            row.push(format!("{:.0}%", a / n as f64 * 100.0));
        }
        Ok(Some(row))
    })?;
    for row in rows {
        if let Some(row) = row? {
            table.row(row);
        }
    }
    Ok(ExperimentReport {
        id: "E7",
        title: "measured production patterns: when is each message quartile ready \
                (fraction of the rank's execution; linear would be 25/50/75/100%)"
            .into(),
        table,
        notes: vec![
            "values near 100% for all quartiles = production packed at the end \
             (the legacy pack-loop pattern that defeats automatic overlap)"
                .into(),
        ],
    })
}

/// E8 — platform sensitivity: the environment's "configurable platform"
/// knobs. Ideal-pattern speedup of one app across latencies and bus
/// counts at its intermediate bandwidth.
///
/// # Errors
///
/// Propagates tracing and replay errors.
pub fn e8_platform_sensitivity(app: &dyn Application) -> Result<ExperimentReport, LabError> {
    let bundle = trace_app(app)?;
    let base = reference_platform();
    let bw = base.bandwidth();
    let overlapped = bundle.overlapped(OverlapMode::linear())?;
    let mut table = Table::new(vec![
        "latency",
        "buses",
        "original",
        "overlapped",
        "speedup",
    ]);
    for latency_us in [1u64, 5, 25, 125] {
        for buses in [None, Some(4u32), Some(1)] {
            let mut b = Platform::builder();
            b.latency(Time::from_us(latency_us))
                .bandwidth(bw)
                .buses(buses);
            let platform = b.build();
            let sim = Simulator::new(platform);
            let orig = sim.run(bundle.original())?.total_time();
            let ovl = sim.run(&overlapped)?.total_time();
            table.row(vec![
                format!("{latency_us} us"),
                buses.map(|b| b.to_string()).unwrap_or_else(|| "inf".into()),
                format_time(orig),
                format_time(ovl),
                format!("{:.3}x", orig.as_secs_f64() / ovl.as_secs_f64()),
            ]);
        }
    }
    Ok(ExperimentReport {
        id: "E8",
        title: format!("platform sensitivity on {} (latency × buses)", app.name()),
        table,
        notes: Vec::new(),
    })
}

/// E9 (extension, paper §IV future work) — the chunking trade-off under
/// per-message CPU overhead: speedup vs chunk count for several LogGP-style
/// send/receive overheads. With zero overhead, more chunks monotonically
/// help (up to pattern granularity); with realistic per-message costs an
/// interior optimum appears — the practical limit of automatic overlap.
///
/// # Errors
///
/// Propagates tracing and replay errors.
pub fn e9_chunk_overhead(
    app: &dyn Application,
    chunk_counts: &[usize],
    overheads_us: &[u64],
) -> Result<ExperimentReport, LabError> {
    let base = reference_platform();
    let bw = base.bandwidth();
    let mut headers = vec!["chunks".to_string()];
    headers.extend(overheads_us.iter().map(|o| format!("o={o}us")));
    let mut table = Table::new(headers);
    for &chunks in chunk_counts {
        let bundle = TracingSession::new(app)
            .policy(ChunkingPolicy::fixed_count(chunks).with_min_chunk_bytes(256))
            .run()?;
        let overlapped = bundle.overlapped(OverlapMode::linear())?;
        let mut row = vec![chunks.to_string()];
        for &o in overheads_us {
            let mut b = Platform::builder();
            b.latency(base.latency())
                .bandwidth(bw)
                .send_overhead(Time::from_us(o))
                .recv_overhead(Time::from_us(o));
            let platform = b.build();
            let sim = Simulator::new(platform);
            let orig = sim.run(bundle.original())?.total_time();
            let ovl = sim.run(&overlapped)?.total_time();
            row.push(format!(
                "{:+.1}%",
                (orig.as_secs_f64() / ovl.as_secs_f64() - 1.0) * 100.0
            ));
        }
        table.row(row);
    }
    Ok(ExperimentReport {
        id: "E9",
        title: format!(
            "chunk-count trade-off under per-message overhead on {} (extension)",
            app.name()
        ),
        table,
        notes: vec![
            "extension of the paper's model (\u{a7}IV: \"model more state-of-the-art \
             network and MPI properties\"): each posted/completed message costs the \
             CPU a LogGP-style overhead `o`, bounding useful chunk counts"
                .into(),
        ],
    })
}

/// E10 (extension) — multi-core nodes: ranks sharing a node's NIC contend
/// for its links, while sibling messages use the fast intra-node path.
/// Shows how the overlap benefit changes as the same 16 ranks are packed
/// onto fewer nodes.
///
/// # Errors
///
/// Propagates tracing and replay errors.
pub fn e10_multicore(app: &dyn Application) -> Result<ExperimentReport, LabError> {
    let base = reference_platform();
    let bundle = trace_app(app)?;
    let overlapped = bundle.overlapped(OverlapMode::linear())?;
    let intra_bws: Vec<Bandwidth> = [2.0e9f64, 20.0e9]
        .iter()
        .map(|&b| Bandwidth::from_bytes_per_sec(b))
        .collect::<Result<_, _>>()?;
    let points = crate::sweep::sweep_node_packing(
        bundle.original(),
        &overlapped,
        &base,
        &[1, 2, 4, 8],
        &intra_bws,
    )?;
    let mut table = Table::new(vec![
        "ranks/node",
        "intra BW",
        "original",
        "overlapped",
        "speedup",
        "mean busy buses",
    ]);
    for p in &points {
        table.row(vec![
            p.ranks_per_node.to_string(),
            format_bandwidth(p.intra_bandwidth),
            format_time(p.original),
            format_time(p.overlapped),
            format!("{:.3}x", p.speedup()),
            format!("{:.2}", p.mean_busy_buses),
        ]);
    }
    Ok(ExperimentReport {
        id: "E10",
        title: format!(
            "multi-core nodes on {}: shared NIC contention vs intra-node fast path (extension)",
            app.name()
        ),
        table,
        notes: vec![
            "ranks packed onto fewer nodes share the node's network links but gain a \
             fast shared-memory path for sibling messages; the intra-node bandwidth \
             column shows how sensitive each packing is to the shared-memory speed"
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_apps::{Synthetic, Topology};

    fn quick_apps() -> Vec<Box<dyn Application>> {
        vec![Box::new(
            Synthetic::builder()
                .ranks(4)
                .topology(Topology::Ring)
                .compute_instr(500_000)
                .message_bytes(131_072)
                .iterations(2)
                .build()
                .unwrap(),
        )]
    }

    #[test]
    fn e1_renders_pipeline() {
        let app = Synthetic::builder().ranks(2).iterations(2).build().unwrap();
        let report = e1_pipeline(&app).unwrap();
        let s = report.render();
        assert!(s.contains("E1"));
        assert!(s.contains("original"));
        assert!(s.contains("ovl-linear"));
        assert!(s.contains("legend"), "gantt note missing");
        assert_eq!(report.table.len(), 5);
    }

    #[test]
    fn e2_reports_peaks() {
        let report = e2_real_patterns(&quick_apps(), 5).unwrap();
        assert_eq!(report.table.len(), 1);
        assert!(report.render().contains("synthetic"));
    }

    #[test]
    fn e3_compares_to_paper() {
        let report = e3_ideal_speedup(&quick_apps()).unwrap();
        assert_eq!(report.table.len(), 1);
        // No paper target for "synthetic": dash in the paper column.
        assert!(report.render().contains('-'));
    }

    #[test]
    fn e4_curve_has_requested_points() {
        let report = e4_speedup_curves(&quick_apps(), 5).unwrap();
        assert_eq!(report.table.len(), 5);
    }

    #[test]
    fn e5_relaxation_runs() {
        let report = e5_bandwidth_relaxation(&quick_apps(), 1.0e10).unwrap();
        assert!(report.render().contains("orders"));
    }

    #[test]
    fn e6_has_four_mechanism_columns() {
        let report = e6_mechanisms(&quick_apps()).unwrap();
        assert_eq!(report.table.len(), 1);
    }

    #[test]
    fn e7_cdf_rows() {
        let report = e7_pattern_cdf(&quick_apps()).unwrap();
        assert_eq!(report.table.len(), 1);
    }

    #[test]
    fn e8_sensitivity_grid() {
        let app = Synthetic::builder().ranks(4).iterations(2).build().unwrap();
        let report = e8_platform_sensitivity(&app).unwrap();
        assert_eq!(report.table.len(), 12); // 4 latencies x 3 bus settings
    }

    #[test]
    fn e10_multicore_grid() {
        let app = Synthetic::builder().ranks(4).iterations(2).build().unwrap();
        let report = e10_multicore(&app).unwrap();
        assert_eq!(report.table.len(), 8); // 4 packings x 2 intra bandwidths
        assert!(report.render().contains("intra BW"));
    }
}
