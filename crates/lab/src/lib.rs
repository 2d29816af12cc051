//! The experiment harness of `ovlsim`: bandwidth sweeps, speedup analysis,
//! iso-performance bandwidth search, reporting tables, and the paper's
//! experiment suite (E1–E8).
//!
//! The paper's evaluation asks three questions, each answered by a module
//! here:
//!
//! 1. *How much does automatic overlap help with real vs ideal patterns?*
//!    — [`sweep`](crate::sweep_bundle) + [`peak_speedup`] (E2/E3/E4),
//! 2. *Which half of the mechanism matters?* — mechanism ablation
//!    ([`e6_mechanisms`]),
//! 3. *How much network can overlap save?* — [`bandwidth_relaxation`]
//!    (E5).
//!
//! # Example
//!
//! ```
//! use ovlsim_apps::Synthetic;
//! use ovlsim_lab::{log_bandwidths, sweep_bundle, peak_speedup};
//! use ovlsim_tracer::{OverlapMode, TracingSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = Synthetic::builder().ranks(4).iterations(2).build()?;
//! let bundle = TracingSession::new(&app).run()?;
//! let base = ovlsim_apps::calibration::reference_platform();
//! let points = sweep_bundle(
//!     &bundle,
//!     &base,
//!     OverlapMode::linear(),
//!     &log_bandwidths(1.0e6, 1.0e10, 7),
//! )?;
//! let peak = peak_speedup(&points).expect("nonempty sweep");
//! assert!(peak.speedup() >= 1.0 - 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod attribution;
mod bounds;
pub mod campaign;
mod error;
mod experiments;
mod iso;
mod par;
pub mod pipeline;
mod plot;
mod sweep;
mod table;
pub mod tune;

pub use analysis::peak_speedup;
pub use attribution::{
    AttrInterval, Attribution, AttributionRecorder, ChannelBreakdown, PathStep, RankBreakdown,
};
pub use bounds::OverlapBounds;
pub use campaign::{
    diff_reports, parse_mode, run_campaign_with, CampaignReport, CampaignRow, CampaignSpec, Engine,
    RowAttribution, SpecError,
};
pub use error::LabError;
pub use experiments::{
    e10_multicore, e1_pipeline, e2_real_patterns, e3_ideal_speedup, e4_speedup_curves,
    e5_bandwidth_relaxation, e6_mechanisms, e7_pattern_cdf, e8_platform_sensitivity,
    e9_chunk_overhead, ExperimentReport, SWEEP_HI, SWEEP_LO,
};
pub use iso::{bandwidth_relaxation, min_bandwidth_for, RelaxationResult};
pub use par::configured_threads;
pub use pipeline::{ArtifactPipeline, DirectPipeline, EngineInput};
pub use plot::{curve_of, render_curves, Curve, PlotOptions};
pub use sweep::{
    compile_trace, log_bandwidths, sweep_bundle, sweep_node_packing, sweep_traces,
    NodePackingPoint, SweepPoint,
};
#[doc(hidden)]
pub use sweep::{sweep_compiled_threaded, sweep_node_packing_threaded, sweep_traces_threaded};
pub use table::Table;
#[doc(hidden)]
pub use tune::run_tune_threaded;
pub use tune::{run_tune, run_tune_baseline, TuneOptions, TuneReport, TuneStep};
