//! Iso-performance bandwidth search: the paper's third finding.
//!
//! "In the range of high bandwidths, the overlapped execution will need
//! less bandwidth than the original execution to achieve the same
//! performance. In fact, for achieving the performance of the original
//! execution on some high bandwidth, the overlapped execution needs
//! bandwidth that is [a] couple of orders of magnitude lower."
//!
//! [`bandwidth_relaxation`] quantifies this: given a reference bandwidth,
//! it measures the original execution's makespan there, then bisects for
//! the smallest bandwidth at which the *overlapped* execution is at least
//! as fast. The ratio of the two bandwidths is the relaxation factor.

use ovlsim_core::{Bandwidth, Platform, Time, TraceSet};
use ovlsim_dimemas::Simulator;

use crate::error::LabError;
use crate::sweep::compile_trace;

/// Result of an iso-performance bandwidth search.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxationResult {
    /// The reference (high) bandwidth.
    pub reference_bandwidth: Bandwidth,
    /// Original execution's makespan at the reference bandwidth.
    pub original_time: Time,
    /// Smallest bandwidth at which the overlapped execution matches it.
    pub iso_bandwidth: Bandwidth,
    /// Overlapped execution's makespan at `iso_bandwidth`.
    pub overlapped_time: Time,
}

impl RelaxationResult {
    /// How many times less bandwidth the overlapped execution needs
    /// (`reference / iso`; > 1 means overlap relaxes the network).
    ///
    /// Always finite: a degenerate (zero or subnormal) iso bandwidth is
    /// clamped so the ratio never becomes `inf`/`NaN` — downstream report
    /// code can format the factor unconditionally.
    pub fn relaxation_factor(&self) -> f64 {
        let reference = self.reference_bandwidth.bytes_per_sec();
        let iso = self.iso_bandwidth.bytes_per_sec().max(f64::MIN_POSITIVE);
        (reference / iso).min(f64::MAX)
    }

    /// The relaxation factor in decimal orders of magnitude (finite for
    /// the same reason as [`RelaxationResult::relaxation_factor`]).
    pub fn orders_of_magnitude(&self) -> f64 {
        self.relaxation_factor().max(f64::MIN_POSITIVE).log10()
    }
}

/// Smallest bandwidth in `[lo, reference]` at which replaying `trace`
/// takes at most `target` time. Makespan is monotone non-increasing in
/// bandwidth, so geometric bisection applies.
///
/// # Errors
///
/// Returns [`LabError::SearchFailed`] if the search range is degenerate
/// (the lower bound must satisfy `0 < lo < reference`, both finite — a
/// zero lower bound would let the bisection converge onto a zero iso
/// bandwidth and poison every derived ratio) or if even the reference
/// bandwidth misses the target, and propagates validation
/// ([`LabError::Sim`]) and replay errors.
pub fn min_bandwidth_for(
    trace: &TraceSet,
    base: &Platform,
    target: Time,
    lo: f64,
    reference: f64,
) -> Result<Bandwidth, LabError> {
    if !(lo > 0.0 && lo.is_finite() && reference.is_finite() && reference > lo) {
        return Err(LabError::SearchFailed {
            what: format!("degenerate search range [{lo}, {reference}]: need 0 < lo < reference"),
        });
    }
    // The bisection probes the same trace dozens of times: validate and
    // compile once, then execute the flat program per probe.
    let prog = compile_trace(trace)?;
    let time_at = |bps: f64| -> Result<Time, LabError> {
        let bw = Bandwidth::from_bytes_per_sec(bps)?;
        Ok(Simulator::new(base.with_bandwidth(bw))
            .run_compiled(&prog)?
            .total_time())
    };
    if time_at(reference)? > target {
        return Err(LabError::SearchFailed {
            what: format!(
                "target {target} unreachable even at {}",
                Bandwidth::from_bytes_per_sec(reference)?
            ),
        });
    }
    if time_at(lo)? <= target {
        return Ok(Bandwidth::from_bytes_per_sec(lo)?);
    }
    // Invariant: time(a) > target >= time(b).
    let (mut a, mut b) = (lo, reference);
    while b / a > 1.001 {
        let m = (a * b).sqrt();
        if time_at(m)? <= target {
            b = m;
        } else {
            a = m;
        }
    }
    Ok(Bandwidth::from_bytes_per_sec(b)?)
}

/// Full relaxation measurement: original at `reference` vs overlapped at
/// its iso-performance bandwidth.
///
/// # Errors
///
/// Propagates replay and search errors.
pub fn bandwidth_relaxation(
    original: &TraceSet,
    overlapped: &TraceSet,
    base: &Platform,
    reference: f64,
    search_lo: f64,
) -> Result<RelaxationResult, LabError> {
    let ref_bw = Bandwidth::from_bytes_per_sec(reference)?;
    let original_time = Simulator::new(base.with_bandwidth(ref_bw))
        .run(original)?
        .total_time();
    let iso = min_bandwidth_for(overlapped, base, original_time, search_lo, reference)?;
    let overlapped_time = Simulator::new(base.with_bandwidth(iso))
        .run(overlapped)?
        .total_time();
    Ok(RelaxationResult {
        reference_bandwidth: ref_bw,
        original_time,
        iso_bandwidth: iso,
        overlapped_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_apps::{ProductionShape, Synthetic};
    use ovlsim_tracer::TracingSession;

    fn traces() -> (TraceSet, TraceSet) {
        let app = Synthetic::builder()
            .ranks(4)
            .compute_instr(1_000_000)
            .message_bytes(262_144)
            .production(ProductionShape::Spread)
            .iterations(2)
            .build()
            .unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        (bundle.original().clone(), bundle.overlapped_linear())
    }

    #[test]
    fn min_bandwidth_is_minimal() {
        let (orig, _) = traces();
        let base = ovlsim_apps::calibration::reference_platform();
        let target =
            Simulator::new(base.with_bandwidth(Bandwidth::from_bytes_per_sec(5.0e7).unwrap()))
                .run(&orig)
                .unwrap()
                .total_time();
        let found = min_bandwidth_for(&orig, &base, target, 1.0e5, 1.0e10).unwrap();
        // At the found bandwidth the target is met …
        let t = Simulator::new(base.with_bandwidth(found))
            .run(&orig)
            .unwrap()
            .total_time();
        assert!(t <= target);
        // … and within the bisection tolerance of 5e7 (where it was set).
        assert!(found.bytes_per_sec() <= 5.0e7 * 1.01);
    }

    #[test]
    fn unreachable_target_fails() {
        let (orig, _) = traces();
        let base = ovlsim_apps::calibration::reference_platform();
        let err = min_bandwidth_for(&orig, &base, Time::from_ns(1), 1.0e5, 1.0e10);
        assert!(matches!(err, Err(LabError::SearchFailed { .. })));
    }

    #[test]
    fn degenerate_search_range_is_an_error_not_a_panic() {
        let (orig, _) = traces();
        let base = ovlsim_apps::calibration::reference_platform();
        let target = Time::from_us(1);
        // Zero lower bound (the bug: the bisection would converge onto a
        // zero iso bandwidth), inverted and empty ranges, non-finite ends.
        for (lo, hi) in [
            (0.0, 1.0e10),
            (-1.0, 1.0e10),
            (1.0e10, 1.0e5),
            (1.0e5, 1.0e5),
            (f64::NAN, 1.0e10),
            (1.0e5, f64::INFINITY),
        ] {
            match min_bandwidth_for(&orig, &base, target, lo, hi) {
                Err(LabError::SearchFailed { what }) => {
                    assert!(what.contains("degenerate"), "[{lo}, {hi}] -> {what}");
                }
                other => panic!("expected degenerate-range error for [{lo}, {hi}], got {other:?}"),
            }
        }
    }

    #[test]
    fn relaxation_ratios_stay_finite_for_degenerate_iso_bandwidth() {
        // The smallest Bandwidth the type admits: the naive ratio
        // reference/iso overflows to inf, and log10 of that is inf too.
        // The guarded accessors clamp both into finite values.
        let r = RelaxationResult {
            reference_bandwidth: Bandwidth::from_bytes_per_sec(1.0e300).unwrap(),
            original_time: Time::from_us(10),
            iso_bandwidth: Bandwidth::from_bytes_per_sec(f64::MIN_POSITIVE).unwrap(),
            overlapped_time: Time::from_us(10),
        };
        assert!(r.relaxation_factor().is_finite());
        assert!(r.orders_of_magnitude().is_finite());
        // Sane case unchanged: 1e10 / 1e7 = 1000x = 3 orders.
        let r = RelaxationResult {
            reference_bandwidth: Bandwidth::from_bytes_per_sec(1.0e10).unwrap(),
            original_time: Time::from_us(10),
            iso_bandwidth: Bandwidth::from_bytes_per_sec(1.0e7).unwrap(),
            overlapped_time: Time::from_us(10),
        };
        assert!((r.relaxation_factor() - 1000.0).abs() < 1e-9);
        assert!((r.orders_of_magnitude() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn relaxation_factor_at_high_bandwidth_exceeds_one() {
        let (orig, ovl) = traces();
        let base = ovlsim_apps::calibration::reference_platform();
        let r = bandwidth_relaxation(&orig, &ovl, &base, 1.0e10, 1.0e4).unwrap();
        assert!(
            r.relaxation_factor() >= 1.0,
            "overlap should never need more bandwidth (factor {})",
            r.relaxation_factor()
        );
        assert!(r.overlapped_time <= r.original_time);
        assert_eq!(r.orders_of_magnitude(), r.relaxation_factor().log10());
    }
}
