//! Deterministic discrete-event simulation kernel for `ovlsim`.
//!
//! The replay simulator (`ovlsim-dimemas`) uses two small primitives
//! provided here:
//!
//! * [`EventQueue`] — a time-ordered queue with deterministic FIFO
//!   tie-breaking (the naive reference engine's event store),
//! * [`stats`] — the time-weighted utilization accumulator behind the
//!   replay's bus statistics.
//!
//! # Determinism
//!
//! Every structure in this crate is strictly deterministic: ties in event
//! time are broken by insertion order, and no hashing or wall-clock is
//! involved anywhere.
//!
//! # Example
//!
//! ```
//! use ovlsim_core::Time;
//! use ovlsim_engine::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(Time::from_ns(5), "late");
//! q.schedule(Time::from_ns(1), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Time::from_ns(1), "early"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
pub mod stats;

pub use queue::EventQueue;
