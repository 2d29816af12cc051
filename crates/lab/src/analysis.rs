//! Speedup analysis: peak extraction.

use crate::sweep::SweepPoint;

/// The sweep point with the highest overlapped-vs-original speedup.
///
/// Returns `None` for an empty sweep.
pub fn peak_speedup(points: &[SweepPoint]) -> Option<&SweepPoint> {
    points.iter().max_by(|a, b| {
        a.speedup()
            .partial_cmp(&b.speedup())
            .expect("speedups are finite")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{log_bandwidths, sweep_bundle};
    use ovlsim_apps::Synthetic;
    use ovlsim_core::{Bandwidth, Time};
    use ovlsim_tracer::{OverlapMode, TraceBundle, TracingSession};

    fn bundle() -> TraceBundle {
        let app = Synthetic::builder()
            .ranks(4)
            .compute_instr(1_000_000)
            .message_bytes(262_144)
            .iterations(2)
            .build()
            .unwrap();
        TracingSession::new(&app).run().unwrap()
    }

    fn mk_point(bw: f64, orig_us: u64, ovl_us: u64, frac: f64) -> SweepPoint {
        SweepPoint {
            bandwidth: Bandwidth::from_bytes_per_sec(bw).unwrap(),
            original: Time::from_us(orig_us),
            overlapped: Time::from_us(ovl_us),
            comm_fraction: frac,
        }
    }

    #[test]
    fn peak_and_nearest_selectors() {
        let pts = vec![
            mk_point(1e6, 100, 90, 0.8),
            mk_point(1e7, 100, 60, 0.5),
            mk_point(1e8, 100, 95, 0.1),
        ];
        assert_eq!(peak_speedup(&pts).unwrap().comm_fraction, 0.5);
        assert!(peak_speedup(&[]).is_none());
    }

    #[test]
    fn sweep_plus_peak_integration() {
        let b = bundle();
        let base = ovlsim_apps::calibration::reference_platform();
        let bws = log_bandwidths(1.0e6, 1.0e10, 9);
        let pts = sweep_bundle(&b, &base, OverlapMode::linear(), &bws).unwrap();
        let peak = peak_speedup(&pts).unwrap();
        // The peak should beat the endpoints (interior maximum).
        assert!(peak.speedup() >= pts.first().unwrap().speedup() - 1e-12);
        assert!(peak.speedup() >= pts.last().unwrap().speedup() - 1e-12);
    }
}
