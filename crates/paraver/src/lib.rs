//! Timeline capture and visualization for `ovlsim` — the environment's
//! Paraver stage.
//!
//! "The comparable time-behaviors can be visualized using \[the\] Paraver
//! visualization tool, allowing to profoundly study the effects of
//! automatic overlap." This crate provides:
//!
//! * [`Timeline`] — a replay observer capturing per-rank state intervals,
//!   message arrows and markers,
//! * [`to_prv`]/[`to_pcf`]/[`to_row`] — export to the real Paraver file
//!   format (loadable by the BSC Paraver tool),
//! * [`to_cause_prv`]/[`to_cause_pcf`] — export of cause-tagged
//!   attribution timelines (what each rank's time is *charged to*),
//! * [`render_gantt`] — an ASCII Gantt chart for terminal-side qualitative
//!   comparison,
//! * [`StateProfile`]/[`compare`] — quantitative state breakdowns and
//!   original-vs-overlapped comparison tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cause;
mod gantt;
mod profile;
mod prv;
mod timeline;

pub use cause::{to_cause_pcf, to_cause_prv};
pub use gantt::{render_gantt, state_glyph, GanttOptions};
pub use profile::{compare, StateProfile};
pub use prv::{to_pcf, to_prv, to_row, MARKER_EVENT_TYPE};
pub use timeline::{MarkerEvent, MessageArrow, StateInterval, Timeline};
