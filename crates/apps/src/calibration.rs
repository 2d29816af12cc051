//! Calibration targets and the reference platform.
//!
//! The paper reports ideal-pattern (linear) speedups *"for intermediate
//! bandwidths, where time spent in communication is comparable to time
//! spent in computation"*: NAS-BT 30%, NAS-CG 10%, POP 10%, Alya 40%,
//! SPECFEM 65%, Sweep3D 160%. The application defaults in this crate are
//! calibrated so that, on the [`reference_platform`] at each app's
//! intermediate bandwidth, the linear-mode speedup lands in the same band.
//! The `ovl-linear` rows of `examples/campaigns/mechanisms.campaign` print
//! the measured speedups at 250 MB/s, and `tests/paper_claims.rs` asserts
//! each band.

use ovlsim_core::{Bandwidth, Platform, Time};

/// Paper-reported ideal-pattern speedup at intermediate bandwidth, as a
/// fraction (0.30 = "30%").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupTarget {
    /// Application name (matches `Application::name`).
    pub app: &'static str,
    /// The paper's reported speedup fraction.
    pub paper: f64,
    /// Acceptance band for our reproduction (± around `paper`, absolute).
    pub tolerance: f64,
}

/// The six paper targets (§III).
pub const PAPER_TARGETS: [SpeedupTarget; 6] = [
    SpeedupTarget {
        app: "nas-bt",
        paper: 0.30,
        tolerance: 0.15,
    },
    SpeedupTarget {
        app: "nas-cg",
        paper: 0.10,
        tolerance: 0.08,
    },
    SpeedupTarget {
        app: "pop",
        paper: 0.10,
        tolerance: 0.08,
    },
    SpeedupTarget {
        app: "alya",
        paper: 0.40,
        tolerance: 0.20,
    },
    SpeedupTarget {
        app: "specfem",
        paper: 0.65,
        tolerance: 0.30,
    },
    SpeedupTarget {
        app: "sweep3d",
        paper: 1.60,
        tolerance: 0.80,
    },
];

/// Looks up the paper target for an application name.
pub fn target_for(app: &str) -> Option<SpeedupTarget> {
    PAPER_TARGETS.iter().copied().find(|t| t.app == app)
}

/// The reference platform used by the calibration and the experiment
/// suite: 5 µs latency, unlimited buses, single full-duplex link pair per
/// node, 64 KiB eager threshold — a MareNostrum-era Myrinet-like fabric.
/// Bandwidth is the swept variable; the default here (250 MB/s) is the
/// "realistic" point.
pub fn reference_platform() -> Platform {
    Platform::builder()
        .latency(Time::from_us(5))
        .bandwidth_bytes_per_sec(250.0e6)
        .expect("reference bandwidth is valid")
        .build()
}

/// The reference fabric with `ranks_per_node` ranks packed onto each
/// multicore node: same 5 µs / 250 MB/s inter-node network, but sibling
/// ranks share their node's NIC links while exchanging through shared
/// memory (500 ns, 10 GB/s) — a MareNostrum-style SMP blade. This is the
/// base point of the `ranks_per_node × intra-node bandwidth` sweeps.
///
/// # Panics
///
/// Panics if `ranks_per_node == 0`.
pub fn multicore_platform(ranks_per_node: u32) -> Platform {
    Platform::builder()
        .latency(Time::from_us(5))
        .bandwidth_bytes_per_sec(250.0e6)
        .expect("reference bandwidth is valid")
        .ranks_per_node(ranks_per_node)
        .expect("positive ranks per node")
        .intra_node_latency(Time::from_ns(500))
        .intra_node_bandwidth(
            Bandwidth::from_bytes_per_sec(10.0e9).expect("intra-node bandwidth is valid"),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_cover_all_six_apps() {
        let names: Vec<&str> = PAPER_TARGETS.iter().map(|t| t.app).collect();
        for app in ["nas-bt", "nas-cg", "pop", "alya", "specfem", "sweep3d"] {
            assert!(names.contains(&app), "missing target for {app}");
        }
        assert!(target_for("nas-bt").is_some());
        assert!(target_for("nope").is_none());
    }

    #[test]
    fn reference_platform_parameters() {
        let p = reference_platform();
        assert_eq!(p.latency(), Time::from_us(5));
        assert_eq!(p.buses(), None);
        assert_eq!(p.eager_threshold(), 64 * 1024);
    }

    #[test]
    fn multicore_platform_packs_ranks() {
        let p = multicore_platform(4);
        // Same inter-node fabric as the reference...
        assert_eq!(p.latency(), reference_platform().latency());
        assert_eq!(p.bandwidth(), reference_platform().bandwidth());
        // ...plus the node hierarchy.
        assert_eq!(p.ranks_per_node(), 4);
        assert_eq!(p.intra_node_latency(), Time::from_ns(500));
        assert_eq!(p.intra_node_bandwidth().bytes_per_sec(), 10.0e9);
        assert!(p.topology(16).spans_nodes());
        assert!(!p.topology(4).spans_nodes());
    }
}
