//! The experiment harness of `ovlsim`: bandwidth sweeps, the campaign
//! runner, iso-performance bandwidth search, attribution and the overlap
//! auto-tuner.
//!
//! The paper's evaluation asks three questions. Each is answered by a
//! committed campaign spec run through [`run_campaign_with`] (the README
//! section "The pipeline" maps every paper artefact to its spec), or by a
//! function here:
//!
//! 1. *How much does automatic overlap help with real vs ideal patterns?*
//!    — `modes linear real` over a `bandwidths` grid
//!    (`examples/campaigns/paper.campaign`), or [`sweep_traces`] for one
//!    original/overlapped pair,
//! 2. *Which half of the mechanism matters?* — `modes linear-chunked
//!    linear-earlysend linear-latewait linear`
//!    (`examples/campaigns/mechanisms.campaign`),
//! 3. *How much network can overlap save?* — [`bandwidth_relaxation`].
//!
//! # Example
//!
//! ```
//! use ovlsim_apps::Synthetic;
//! use ovlsim_lab::{log_bandwidths, sweep_traces};
//! use ovlsim_tracer::{OverlapMode, TracingSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let app = Synthetic::builder().ranks(4).iterations(2).build()?;
//! let bundle = TracingSession::new(&app).run()?;
//! let base = ovlsim_apps::calibration::reference_platform();
//! let points = sweep_traces(
//!     bundle.original(),
//!     &bundle.overlapped(OverlapMode::linear())?,
//!     &base,
//!     &log_bandwidths(1.0e6, 1.0e10, 7),
//! )?;
//! let peak = points.iter().map(|p| p.speedup()).fold(f64::MIN, f64::max);
//! assert!(peak >= 1.0 - 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
mod bounds;
pub mod campaign;
mod error;
mod iso;
mod par;
pub mod pipeline;
mod sweep;
pub mod tune;

pub use attribution::{
    AttrInterval, Attribution, AttributionRecorder, ChannelBreakdown, PathStep, RankBreakdown,
};
pub use bounds::OverlapBounds;
pub use campaign::{
    diff_reports, parse_mode, run_campaign_with, CampaignReport, CampaignRow, CampaignSpec, Engine,
    RowAttribution, SpecError,
};
pub use error::LabError;
pub use iso::{bandwidth_relaxation, min_bandwidth_for, RelaxationResult};
pub use par::configured_threads;
pub use pipeline::{ArtifactPipeline, DirectPipeline, EngineInput};
pub use sweep::{compile_trace, log_bandwidths, sweep_traces, SweepPoint};
#[doc(hidden)]
pub use sweep::{sweep_compiled_threaded, sweep_traces_threaded};
#[doc(hidden)]
pub use tune::run_tune_threaded;
pub use tune::{run_tune, run_tune_baseline, LoweredPlan, TuneOptions, TuneReport, TuneStep};
