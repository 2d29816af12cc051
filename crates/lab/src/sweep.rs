//! Bandwidth sweeps (the x-axis of every figure in the paper).

use ovlsim_core::{Bandwidth, CompiledTrace, Platform, Time, TraceSet};
use ovlsim_dimemas::{SimError, Simulator};

use crate::error::LabError;
use crate::par;

/// `points` logarithmically spaced bandwidths covering `[lo, hi]` bytes/s
/// inclusive.
///
/// # Panics
///
/// Panics unless `0 < lo <= hi` and `points >= 2` (or `points == 1` with
/// `lo == hi`).
pub fn log_bandwidths(lo: f64, hi: f64, points: usize) -> Vec<Bandwidth> {
    assert!(lo > 0.0 && hi >= lo, "need 0 < lo <= hi");
    assert!(points >= 1, "need at least one point");
    if points == 1 {
        return vec![Bandwidth::from_bytes_per_sec(lo).expect("validated")];
    }
    let llo = lo.ln();
    let lhi = hi.ln();
    (0..points)
        .map(|i| {
            let f = i as f64 / (points - 1) as f64;
            let bps = (llo + f * (lhi - llo)).exp();
            Bandwidth::from_bytes_per_sec(bps).expect("interpolated bandwidth is positive")
        })
        .collect()
}

/// Validates and compiles a trace in one pass over its records
/// ([`CompiledTrace::build`]) — the once-per-trace cost every sweep and
/// bisection pays before fanning its points out over the shared
/// [`CompiledTrace`].
///
/// # Errors
///
/// Returns [`LabError::Sim`] wrapping the trace's validation issues.
pub fn compile_trace(ts: &TraceSet) -> Result<CompiledTrace, LabError> {
    CompiledTrace::build(ts).map_err(|issues| LabError::Sim(SimError::InvalidTrace { issues }))
}

/// One measurement of original vs overlapped at a single bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The bandwidth of this measurement.
    pub bandwidth: Bandwidth,
    /// Makespan of the original (non-overlapped) execution.
    pub original: Time,
    /// Makespan of the overlapped execution.
    pub overlapped: Time,
    /// Fraction of rank-time the original execution spends communicating.
    pub comm_fraction: f64,
}

impl SweepPoint {
    /// Speedup of the overlapped over the original execution
    /// (`original / overlapped`; > 1 means overlap wins), treating a zero
    /// overlapped makespan (degenerate empty trace) as parity.
    pub fn speedup(&self) -> f64 {
        if self.overlapped.is_zero() {
            return 1.0;
        }
        self.original.as_secs_f64() / self.overlapped.as_secs_f64()
    }
}

/// Replays two already-synthesized traces over a bandwidth range.
///
/// The traces are bandwidth-independent (the transform works in the
/// instruction domain), so they are synthesized once by the caller and
/// replayed per point here. Each trace is validated and **compiled** once,
/// in one pass ([`compile_trace`]); every point then executes the shared
/// flat program via [`Simulator::run_compiled`], and the points fan out
/// across threads (each point is an independent `Simulator` over the
/// shared `&CompiledTrace`).
/// Results are byte-identical to the sequential path — and to the
/// uncompiled engines — and come back in bandwidth order regardless of
/// scheduling.
///
/// # Errors
///
/// Propagates validation, compilation and replay errors, and rejects a
/// malformed `OVLSIM_THREADS` ([`LabError::InvalidThreadConfig`]).
pub fn sweep_traces(
    original: &TraceSet,
    overlapped: &TraceSet,
    base: &Platform,
    bandwidths: &[Bandwidth],
) -> Result<Vec<SweepPoint>, LabError> {
    sweep_traces_threaded(
        original,
        overlapped,
        base,
        bandwidths,
        par::configured_threads()?,
    )
}

/// [`sweep_traces`] with an explicit worker cap (exposed for scaling
/// measurements and the sequential-equivalence tests).
#[doc(hidden)]
pub fn sweep_traces_threaded(
    original: &TraceSet,
    overlapped: &TraceSet,
    base: &Platform,
    bandwidths: &[Bandwidth],
    threads: usize,
) -> Result<Vec<SweepPoint>, LabError> {
    // Compile once: every point shares the same flat programs.
    let orig_prog = compile_trace(original)?;
    let ovl_prog = compile_trace(overlapped)?;
    sweep_compiled_threaded(&orig_prog, &ovl_prog, base, bandwidths, threads)
}

/// [`sweep_traces`] over already-compiled programs with an explicit
/// worker cap — the entry point for callers (the session layer) that cache
/// [`CompiledTrace`]s and replay them many times without re-paying
/// validation or compilation.
///
/// # Errors
///
/// Propagates replay errors.
#[doc(hidden)]
pub fn sweep_compiled_threaded(
    orig_prog: &CompiledTrace,
    ovl_prog: &CompiledTrace,
    base: &Platform,
    bandwidths: &[Bandwidth],
    threads: usize,
) -> Result<Vec<SweepPoint>, LabError> {
    let point_at = |bw: Bandwidth| -> Result<SweepPoint, LabError> {
        let sim = Simulator::new(base.with_bandwidth(bw));
        let orig = sim.run_compiled(orig_prog)?;
        let ovl = sim.run_compiled(ovl_prog)?;
        Ok(SweepPoint {
            bandwidth: bw,
            original: orig.total_time(),
            overlapped: ovl.total_time(),
            comm_fraction: orig.comm_fraction(),
        })
    };
    if threads <= 1 {
        // Sequential path: stop at the first failing point.
        return bandwidths.iter().map(|&bw| point_at(bw)).collect();
    }
    // Parallel path: in-flight points drain before the error surfaces —
    // the first error in bandwidth order is reported, independent of
    // which worker hit it.
    par::par_map_with(bandwidths, threads, |&bw| point_at(bw))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_apps::{ProductionShape, Synthetic};
    use ovlsim_tracer::TracingSession;

    #[test]
    fn log_bandwidths_cover_range() {
        let bws = log_bandwidths(1.0e6, 1.0e9, 4);
        assert_eq!(bws.len(), 4);
        assert!((bws[0].bytes_per_sec() - 1.0e6).abs() < 1.0);
        assert!((bws[3].bytes_per_sec() - 1.0e9).abs() / 1.0e9 < 1e-9);
        // Log spacing: successive ratios equal.
        let r1 = bws[1].bytes_per_sec() / bws[0].bytes_per_sec();
        let r2 = bws[2].bytes_per_sec() / bws[1].bytes_per_sec();
        assert!((r1 - r2).abs() / r1 < 1e-9);
    }

    #[test]
    fn single_point_sweep() {
        let bws = log_bandwidths(5.0e6, 5.0e6, 1);
        assert_eq!(bws.len(), 1);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_range_rejected() {
        log_bandwidths(1.0e9, 1.0e6, 4);
    }

    #[test]
    fn sweep_reports_monotone_comm_fraction() {
        // Higher bandwidth => lower communication fraction.
        let app = Synthetic::builder()
            .ranks(4)
            .compute_instr(500_000)
            .message_bytes(262_144)
            .production(ProductionShape::Spread)
            .iterations(2)
            .build()
            .unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        let base = ovlsim_apps::calibration::reference_platform();
        let bws = log_bandwidths(1.0e7, 1.0e10, 5);
        let overlapped = bundle.overlapped_linear();
        let points = sweep_traces(bundle.original(), &overlapped, &base, &bws).unwrap();
        for w in points.windows(2) {
            assert!(
                w[1].comm_fraction <= w[0].comm_fraction + 1e-9,
                "comm fraction should fall with bandwidth"
            );
            assert!(w[1].original <= w[0].original);
        }
        // Speedup sane.
        for p in &points {
            assert!(p.speedup() > 0.5 && p.speedup() < 10.0);
        }
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let app = Synthetic::builder()
            .ranks(4)
            .compute_instr(200_000)
            .message_bytes(65_536)
            .iterations(2)
            .build()
            .unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        let overlapped = bundle.overlapped_linear();
        let base = ovlsim_apps::calibration::reference_platform();
        let bws = log_bandwidths(1.0e6, 1.0e10, 9);
        let seq = sweep_traces_threaded(bundle.original(), &overlapped, &base, &bws, 1).unwrap();
        for threads in [2, 4, 8] {
            let par = sweep_traces_threaded(bundle.original(), &overlapped, &base, &bws, threads)
                .unwrap();
            assert_eq!(seq, par, "sweep diverged at {threads} threads");
        }
    }
}
