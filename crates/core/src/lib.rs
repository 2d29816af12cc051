//! Core types for `ovlsim`, a simulation environment for studying overlap of
//! communication and computation (reproduction of Subotic, Labarta, Valero,
//! ISPASS 2010).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Time`] — integer picosecond instants/durations (deterministic),
//! * [`Instr`] and [`MipsRate`] — the paper's notion of time inside
//!   computation bursts ("number of instructions scaled by the average MIPS
//!   rate"),
//! * [`Rank`], [`Tag`], [`RequestId`], [`BufferId`] — identifier newtypes,
//! * [`Record`], [`RankTrace`], [`TraceSet`] — Dimemas-style trace records,
//! * [`Platform`] — the configurable target platform (latency, bandwidth,
//!   buses, links, eager/rendezvous, collective cost models),
//! * [`PerturbationModel`] — seeded, deterministic deviations from the
//!   clean machine (OS noise, stragglers, heterogeneous nodes, degraded
//!   links, transient faults), backed by the counter-based [`rng`],
//! * [`codec`] — the versioned, checksummed `.ovlb` binary artifact
//!   format for persisting trace sets and compiled programs.
//!
//! # Example
//!
//! ```
//! use ovlsim_core::{Instr, MipsRate, Platform, Time};
//!
//! # fn main() -> Result<(), ovlsim_core::CoreError> {
//! let mips = MipsRate::new(1000)?; // 1000 MIPS => 1 ns per instruction
//! assert_eq!(mips.instr_to_time(Instr::new(5)), Time::from_ns(5));
//!
//! let platform = Platform::builder()
//!     .latency(Time::from_us(5))
//!     .bandwidth_bytes_per_sec(250e6)?
//!     .build();
//! assert_eq!(platform.latency(), Time::from_us(5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod error;
pub mod hash;
mod ids;
mod index;
mod instr;
mod perturb;
mod platform;
mod program;
mod record;
pub mod rng;
mod time;
mod units;
mod validate;
mod walk;

pub use error::CoreError;
pub use hash::{Digest, StableHasher};
pub use ids::{BufferId, MessageId, Rank, RequestId, Tag};
pub use index::{ChannelId, TraceIndex, NO_CHANNEL};
pub use instr::{Instr, MipsRate};
pub use perturb::PerturbationModel;
pub use platform::{
    CollectiveModel, CollectiveOp, NodeTopology, Platform, PlatformBuilder, StageModel,
};
pub use program::{ChannelEndpoints, CompiledTrace, LoweredRank, RankProgram};
pub use record::{RankTrace, Record, RecordKind, TraceSet};
pub use time::{Bandwidth, Time};
pub use units::{format_bandwidth, format_bytes, format_time};
pub use validate::{validate_trace_set, TraceIssue};
