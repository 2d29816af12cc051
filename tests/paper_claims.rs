//! Quantitative reproduction tests: the paper's three findings, asserted
//! as golden bands on the calibrated default applications.
//!
//! The committed campaign specs print the measured values for the same
//! applications: `examples/campaigns/mechanisms.campaign` at the realistic
//! bandwidth, `paper.campaign` across the bandwidth sweep. These tests
//! assert bands instead.

use ovlsim::prelude::*;
use ovlsim_apps::calibration::{reference_platform, target_for};
use ovlsim_lab::bandwidth_relaxation;

fn bundle_of(app: &dyn Application) -> TraceBundle {
    TracingSession::new(app)
        .policy(ChunkingPolicy::fixed_count(16).with_min_chunk_bytes(512))
        .run()
        .unwrap_or_else(|e| panic!("{} failed to trace: {e}", app.name()))
}

fn speedup(bundle: &TraceBundle, mode: OverlapMode, platform: &Platform) -> f64 {
    let sim = Simulator::new(platform.clone());
    let orig = sim
        .run(bundle.original())
        .unwrap()
        .total_time()
        .as_secs_f64();
    let ovl = sim
        .run(&bundle.overlapped(mode).unwrap())
        .unwrap()
        .total_time()
        .as_secs_f64();
    orig / ovl
}

/// §III claim 2: ideal-pattern speedups at the intermediate (realistic)
/// bandwidth land within each app's calibration band around the paper's
/// reported value.
#[test]
fn claim2_ideal_speedups_match_paper_bands() {
    let platform = reference_platform();
    for app in ovlsim_apps::paper_apps() {
        let target = target_for(app.name()).expect("every paper app has a target");
        let bundle = bundle_of(app.as_ref());
        let measured = speedup(&bundle, OverlapMode::linear(), &platform) - 1.0;
        assert!(
            (measured - target.paper).abs() <= target.tolerance,
            "{}: measured {:+.0}% vs paper {:+.0}% (tolerance ±{:.0} points)",
            app.name(),
            measured * 100.0,
            target.paper * 100.0,
            target.tolerance * 100.0,
        );
    }
}

/// §III claim 1: with real measured patterns the speedup is a small
/// fraction of the ideal-pattern speedup for every application.
#[test]
fn claim1_real_patterns_are_negligible() {
    let platform = reference_platform();
    for app in ovlsim_apps::paper_apps() {
        let bundle = bundle_of(app.as_ref());
        let real = speedup(&bundle, OverlapMode::real(), &platform) - 1.0;
        let linear = speedup(&bundle, OverlapMode::linear(), &platform) - 1.0;
        assert!(
            real <= 0.12,
            "{}: real-pattern speedup {:+.1}% is not negligible",
            app.name(),
            real * 100.0
        );
        assert!(
            linear >= 2.0 * real.max(0.0),
            "{}: linear ({:+.1}%) should dwarf real ({:+.1}%)",
            app.name(),
            linear * 100.0,
            real * 100.0
        );
    }
}

/// §III claim 3: at high bandwidth the overlapped execution needs on the
/// order of 1.5+ orders of magnitude less bandwidth for the original's
/// performance.
#[test]
fn claim3_bandwidth_relaxation_is_orders_of_magnitude() {
    let base = reference_platform();
    for app in ovlsim_apps::paper_apps() {
        let bundle = bundle_of(app.as_ref());
        let overlapped = bundle.overlapped(OverlapMode::linear()).unwrap();
        let r = bandwidth_relaxation(bundle.original(), &overlapped, &base, 1.0e10, 1.0e3)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        assert!(
            r.orders_of_magnitude() >= 1.2,
            "{}: only {:.2} orders of magnitude relaxation",
            app.name(),
            r.orders_of_magnitude()
        );
        assert!(r.overlapped_time <= r.original_time);
    }
}

/// §II-B mechanism subsets: combining both mechanisms is at least as good
/// as either alone, for every app, at the realistic bandwidth.
#[test]
fn mechanisms_compose() {
    use ovlsim::tracer::{Mechanisms, PatternSource};
    let platform = reference_platform();
    for app in ovlsim_apps::paper_apps() {
        let bundle = bundle_of(app.as_ref());
        let at = |mechanisms| {
            speedup(
                &bundle,
                OverlapMode {
                    pattern: PatternSource::Linear,
                    mechanisms,
                },
                &platform,
            )
        };
        let both = at(Mechanisms::BOTH);
        let early = at(Mechanisms::EARLY_SEND_ONLY);
        let late = at(Mechanisms::LATE_WAIT_ONLY);
        let none = at(Mechanisms::NONE);
        assert!(
            both >= early.max(late) - 0.03,
            "{}: both ({both:.3}) < max(early {early:.3}, late {late:.3})",
            app.name()
        );
        assert!(
            none <= both + 0.03,
            "{}: chunking alone ({none:.3}) should not beat full overlap ({both:.3})",
            app.name()
        );
    }
}

/// The overlap benefit vanishes at both bandwidth extremes (the curve of
/// `paper.campaign`'s `linear` rows): at very high bandwidth there is
/// nothing to hide.
#[test]
fn speedup_vanishes_at_high_bandwidth() {
    let base = reference_platform();
    for app in ovlsim_apps::paper_apps() {
        if app.name() == "sweep3d" {
            // The wavefront keeps its pipeline benefit even on an
            // infinitely fast network (fill collapse is latency-free).
            continue;
        }
        let bundle = bundle_of(app.as_ref());
        let fast = base.with_bandwidth(Bandwidth::from_bytes_per_sec(1.0e11).unwrap());
        let s = speedup(&bundle, OverlapMode::linear(), &fast) - 1.0;
        assert!(
            s.abs() < 0.05,
            "{}: speedup {:+.1}% should vanish at 100 GB/s",
            app.name(),
            s * 100.0
        );
    }
}
