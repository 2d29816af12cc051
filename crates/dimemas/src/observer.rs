//! Observation hooks for timeline capture (Paraver export).

use ovlsim_core::{Rank, Tag, Time};

/// What a rank is doing during a timeline interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcState {
    /// Executing a computation burst.
    Compute,
    /// Blocked in a receive (or a wait dominated by receives).
    WaitRecv,
    /// Blocked in a (rendezvous) send.
    WaitSend,
    /// Blocked completing non-blocking requests.
    WaitRequest,
    /// Inside a collective operation.
    Collective,
}

impl ProcState {
    /// A stable numeric encoding used by the Paraver exporter.
    pub fn code(self) -> u32 {
        match self {
            ProcState::Compute => 1,
            ProcState::WaitRecv => 2,
            ProcState::WaitSend => 3,
            ProcState::WaitRequest => 4,
            ProcState::Collective => 5,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ProcState::Compute => "compute",
            ProcState::WaitRecv => "wait-recv",
            ProcState::WaitSend => "wait-send",
            ProcState::WaitRequest => "wait-request",
            ProcState::Collective => "collective",
        }
    }
}

/// Why a rank's simulated clock advanced during an attributed interval.
///
/// Where [`ProcState`] names *what the rank was doing*, `WaitCause` names
/// *what the time should be charged to*: blocked states carry the dense
/// [`ChannelId`](ovlsim_core::ChannelId) of the transfer that gated the
/// rank, so attribution can be rolled up per channel and per peer, and
/// resource-queue waits are split out as [`WaitCause::Contended`] with the
/// contention domain (intra-node ports vs the bus/NIC fabric).
///
/// The production executor emits attribution (through `run_observed` and
/// `run_compiled_observed`; the naive reference engine does not) and
/// guarantees the **conservation property**: per rank, attributed
/// intervals are disjoint, gapless and tile `[0, finish)` exactly — their
/// durations sum to the rank's finish time bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitCause {
    /// Executing a computation burst.
    Compute,
    /// Per-message sender CPU overhead (LogGP `o`).
    SendOverhead,
    /// Blocked in a blocking receive on channel `chan` (includes the wire
    /// wait and the per-message receiver overhead).
    BlockedRecv {
        /// Dense channel id of the gating transfer.
        chan: u32,
    },
    /// Blocked in a rendezvous send on channel `chan` (handshake plus
    /// wire occupancy).
    BlockedSend {
        /// Dense channel id of the gating transfer.
        chan: u32,
    },
    /// Blocked in `Wait`/`WaitAll`; `chan` is the channel of the
    /// last-completing request (the *last unblocker*), which the whole
    /// interval is charged to.
    BlockedWait {
        /// Dense channel id of the last-unblocking transfer.
        chan: u32,
    },
    /// The transfer gating this rank sat in a transport resource queue
    /// (finite buses/links, or a node's shared-memory ports).
    Contended {
        /// Dense channel id of the queued transfer.
        chan: u32,
        /// True for the intra-node port domain, false for the bus/NIC
        /// fabric.
        intra: bool,
    },
    /// Inside collective number `seq` (per-rank arrival order), from this
    /// rank's arrival (or block) to the collective's completion.
    Collective {
        /// The collective's sequence number on this rank.
        seq: u32,
    },
    /// The transfer gating this rank was held back by a transient link
    /// outage (see
    /// [`PerturbationModel::with_faults`](ovlsim_core::PerturbationModel::with_faults)):
    /// the message was ready to move but its link was down, so it waited
    /// for the outage window to end before entering the transport queue.
    LinkDown {
        /// Dense channel id of the held transfer.
        chan: u32,
    },
}

impl WaitCause {
    /// A stable numeric encoding used by the Paraver cause-timeline
    /// exporter. Blocked states reuse the [`ProcState`] codes; the
    /// attribution-only states extend them.
    pub fn code(self) -> u32 {
        match self {
            WaitCause::Compute => 1,
            WaitCause::BlockedRecv { .. } => 2,
            WaitCause::BlockedSend { .. } => 3,
            WaitCause::BlockedWait { .. } => 4,
            WaitCause::Collective { .. } => 5,
            WaitCause::SendOverhead => 6,
            WaitCause::Contended { intra: false, .. } => 7,
            WaitCause::Contended { intra: true, .. } => 8,
            WaitCause::LinkDown { .. } => 9,
        }
    }

    /// Human-readable label (used by reports and the `.pcf` export).
    pub fn label(self) -> &'static str {
        match self {
            WaitCause::Compute => "compute",
            WaitCause::BlockedRecv { .. } => "blocked-recv",
            WaitCause::BlockedSend { .. } => "blocked-send",
            WaitCause::BlockedWait { .. } => "blocked-wait",
            WaitCause::Collective { .. } => "collective",
            WaitCause::SendOverhead => "send-overhead",
            WaitCause::Contended { intra: false, .. } => "contended-inter",
            WaitCause::Contended { intra: true, .. } => "contended-intra",
            WaitCause::LinkDown { .. } => "link-down",
        }
    }

    /// The dense channel id this cause charges time to, if any.
    pub fn channel(self) -> Option<u32> {
        match self {
            WaitCause::BlockedRecv { chan }
            | WaitCause::BlockedSend { chan }
            | WaitCause::BlockedWait { chan }
            | WaitCause::Contended { chan, .. }
            | WaitCause::LinkDown { chan } => Some(chan),
            _ => None,
        }
    }
}

/// The cross-rank dependency that released a blocked interval: the chain
/// of causes continues on `rank` at time `at` (the peer's clock when it
/// executed the releasing operation — a send post, a matching receive
/// post, or the last arrival of a collective).
///
/// `at` is always within `[0, end]` of the interval the edge is attached
/// to, and always a boundary between two of the peer's attributed
/// intervals (or zero), which is what makes the critical-path back-walk
/// well defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// The releasing rank.
    pub rank: Rank,
    /// The releasing rank's clock when its part of the chain began.
    pub at: Time,
}

/// Receives replay happenings as they are simulated.
///
/// All callbacks are optional (default: no-op). Intervals are closed-open
/// `[start, end)` and are emitted in completion order, which is
/// non-decreasing in `end` but not necessarily in `start`.
pub trait ReplayObserver {
    /// A rank spent `[start, end)` in `state`.
    fn interval(&mut self, rank: Rank, start: Time, end: Time, state: ProcState) {
        let _ = (rank, start, end, state);
    }

    /// Cause-tagged attribution: `[start, end)` on `rank` is charged to
    /// `cause`. For blocked causes, `edge` names the cross-rank
    /// dependency that released the rank (`None` when the interval was
    /// self-paced — e.g. pure wire time of an unmatched eager transfer,
    /// or a message that had already arrived).
    ///
    /// Per rank, attributed intervals are disjoint, gapless and tile
    /// `[0, finish)` exactly (see [`WaitCause`]); zero-length intervals
    /// are never emitted. Only the attribution-capable engines emit this
    /// callback; the naive reference engine does not.
    fn attributed(
        &mut self,
        rank: Rank,
        start: Time,
        end: Time,
        cause: WaitCause,
        edge: Option<DepEdge>,
    ) {
        let _ = (rank, start, end, cause, edge);
    }

    /// A message (or chunk) moved across the wire.
    fn message(
        &mut self,
        from: Rank,
        to: Rank,
        wire_start: Time,
        wire_end: Time,
        bytes: u64,
        tag: Tag,
    ) {
        let _ = (from, to, wire_start, wire_end, bytes, tag);
    }

    /// A visualization marker was executed by `rank` at `at`.
    fn marker(&mut self, rank: Rank, at: Time, code: u32) {
        let _ = (rank, at, code);
    }

    /// A rank finished its trace at `at`.
    fn finished(&mut self, rank: Rank, at: Time) {
        let _ = (rank, at);
    }
}

/// An observer that ignores everything (used by the plain `run`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ReplayObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_codes_distinct() {
        use std::collections::BTreeSet;
        let states = [
            ProcState::Compute,
            ProcState::WaitRecv,
            ProcState::WaitSend,
            ProcState::WaitRequest,
            ProcState::Collective,
        ];
        let codes: BTreeSet<u32> = states.iter().map(|s| s.code()).collect();
        assert_eq!(codes.len(), states.len());
        let labels: BTreeSet<&str> = states.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), states.len());
    }

    #[test]
    fn cause_codes_and_labels_distinct() {
        use std::collections::BTreeSet;
        let causes = [
            WaitCause::Compute,
            WaitCause::SendOverhead,
            WaitCause::BlockedRecv { chan: 0 },
            WaitCause::BlockedSend { chan: 0 },
            WaitCause::BlockedWait { chan: 0 },
            WaitCause::Contended {
                chan: 0,
                intra: false,
            },
            WaitCause::Contended {
                chan: 0,
                intra: true,
            },
            WaitCause::Collective { seq: 0 },
            WaitCause::LinkDown { chan: 0 },
        ];
        let codes: BTreeSet<u32> = causes.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), causes.len());
        let labels: BTreeSet<&str> = causes.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), causes.len());
        // Blocked causes share codes with their ProcState counterparts.
        assert_eq!(
            WaitCause::BlockedRecv { chan: 3 }.code(),
            ProcState::WaitRecv.code()
        );
    }

    #[test]
    fn cause_channel_and_wait_classification() {
        assert_eq!(WaitCause::Compute.channel(), None);
        assert_eq!(WaitCause::SendOverhead.channel(), None);
        assert_eq!(WaitCause::Collective { seq: 1 }.channel(), None);
        assert_eq!(WaitCause::BlockedRecv { chan: 7 }.channel(), Some(7));
        assert_eq!(
            WaitCause::Contended {
                chan: 2,
                intra: true
            }
            .channel(),
            Some(2)
        );
        assert_eq!(WaitCause::LinkDown { chan: 4 }.channel(), Some(4));
    }

    #[test]
    fn null_observer_accepts_everything() {
        let mut o = NullObserver;
        o.interval(
            Rank::new(0),
            Time::ZERO,
            Time::from_ns(1),
            ProcState::Compute,
        );
        o.message(
            Rank::new(0),
            Rank::new(1),
            Time::ZERO,
            Time::from_ns(5),
            10,
            Tag::new(0),
        );
        o.marker(Rank::new(0), Time::ZERO, 3);
        o.attributed(
            Rank::new(0),
            Time::ZERO,
            Time::from_ns(1),
            WaitCause::Compute,
            None,
        );
        o.attributed(
            Rank::new(0),
            Time::from_ns(1),
            Time::from_ns(2),
            WaitCause::BlockedRecv { chan: 0 },
            Some(DepEdge {
                rank: Rank::new(1),
                at: Time::ZERO,
            }),
        );
        o.finished(Rank::new(0), Time::from_ns(9));
    }
}
