//! Virtual memory-access instrumentation for `ovlsim` — the environment's
//! substitute for the paper's Valgrind-based tracing machinery.
//!
//! The paper's tool "leverages two key Valgrind functionalities …: wrapping
//! function calls and tracking memory activities (loads and stores)" and
//! "needs additional data structures to keep track of the transfer's state
//! and of the production/consumption progress of every chunk". This crate
//! provides those observations for the synthetic application models:
//!
//! * [`MemTracer`] — a virtual instruction clock plus per-buffer recording
//!   of *last write* (production) and *first read* (consumption) instants,
//!   kept as runs of the access streams that set them rather than one
//!   instant per element,
//! * [`Kernel`]/[`Phase`]/[`BufferAccess`] — a declarative description of a
//!   compute loop and the element order in which it touches communication
//!   buffers,
//! * [`IndexPattern`] — reusable element orders (sequential, reverse,
//!   strided, shuffled, explicit),
//! * [`ProductionProfile`]/[`ConsumptionProfile`] — snapshots of those
//!   instants, exact per element, with chunk-level queries used by the
//!   overlap transform.
//!
//! # Example
//!
//! ```
//! use ovlsim_core::Instr;
//! use ovlsim_memtrace::{AccessKind, IndexPattern, Kernel, MemTracer};
//!
//! let mut mt = MemTracer::new();
//! let buf = mt.register("halo", 1024, 8); // 1024 bytes, 8-byte elements
//!
//! // A kernel that writes the buffer sequentially over 1000 instructions.
//! let kernel = Kernel::builder()
//!     .phase(Instr::new(1000))
//!     .access(buf, AccessKind::Write, IndexPattern::Sequential)
//!     .build();
//! mt.execute(&kernel);
//!
//! let prof = mt.snapshot_production(buf);
//! // The first element completes early, the last at the end of the phase.
//! assert!(prof.element_timestamp(0).unwrap() < prof.element_timestamp(127).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod pattern;
mod profile;
mod recorder;
mod timeline;

pub use kernel::{AccessKind, BufferAccess, Kernel, KernelBuilder, Phase};
pub use pattern::IndexPattern;
pub use profile::{ConsumptionProfile, ProductionProfile};
pub use recorder::{BufferInfo, MemTracer, RecorderError, WriteWatch};
