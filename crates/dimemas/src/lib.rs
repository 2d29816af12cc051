//! The trace-replay network simulator of `ovlsim` — a from-scratch
//! implementation of the Dimemas machine model used by the paper's
//! environment.
//!
//! "The Dimemas simulator uses the traces obtained from each MPI process
//! and off-line reconstructs the application's time-behavior on a
//! configurable parallel platform." The platform knobs are
//! [`ovlsim_core::Platform`]: latency, bandwidth, finite buses, per-node
//! input/output links, eager/rendezvous threshold and collective cost
//! models.
//!
//! * [`Simulator`] — replays a [`ovlsim_core::TraceSet`], returning a
//!   [`ReplayResult`] with makespan, per-rank times and network statistics.
//!   Every entry point lowers the trace into an
//!   [`ovlsim_core::CompiledTrace`] (or takes one pre-lowered, via
//!   [`Simulator::run_compiled`]) and runs the one production executor:
//!   a calendar event queue, one event per burst, and per-node transport
//!   pumps (a global FIFO pump when the platform has finite buses or
//!   intra-node ports), bit-identical to the seed's naive reference
//!   engine,
//! * [`ReplayObserver`] — timeline hooks consumed by the visualization
//!   layer (`ovlsim-paraver`),
//! * [`emit_trace_set`]/[`parse_trace_set`] — the `.dim`-style text
//!   persistence with a guaranteed round-trip.
//!
//! # Example
//!
//! ```
//! use ovlsim_core::{Instr, MipsRate, Platform, RankTrace, Record, TraceSet, Time};
//! use ovlsim_dimemas::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = TraceSet::new(
//!     "solo",
//!     MipsRate::new(1000)?,
//!     vec![RankTrace::from_records(vec![Record::Burst {
//!         instr: Instr::new(7_000),
//!     }])],
//! );
//! let result = Simulator::new(Platform::default()).run(&trace)?;
//! assert_eq!(result.total_time(), Time::from_us(7));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collective;
mod compiled;
mod error;
mod fastforward;
mod format;
mod naive;
mod network;
mod observer;
mod replay;
mod reqs;

#[doc(hidden)]
pub use naive::{replay_naive, replay_naive_observed};

pub use error::SimError;
pub use format::{emit_trace_set, parse_trace_set, ParseError};
pub use observer::{DepEdge, NullObserver, ProcState, ReplayObserver, WaitCause};
pub use replay::{ReplayResult, Simulator};
