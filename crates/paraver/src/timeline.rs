//! Timeline capture: a [`ReplayObserver`] that records everything needed
//! for visualization and profiling.

use ovlsim_core::{Platform, Rank, Tag, Time, TraceSet};
use ovlsim_dimemas::{ProcState, ReplayObserver, ReplayResult, SimError, Simulator};

/// One state interval of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateInterval {
    /// The rank.
    pub rank: Rank,
    /// Interval start (inclusive).
    pub start: Time,
    /// Interval end (exclusive).
    pub end: Time,
    /// What the rank was doing.
    pub state: ProcState,
}

/// One message (or chunk) arrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageArrow {
    /// Sending rank.
    pub from: Rank,
    /// Receiving rank.
    pub to: Rank,
    /// Wire start time.
    pub start: Time,
    /// Wire end time.
    pub end: Time,
    /// Payload bytes.
    pub bytes: u64,
    /// Wire tag.
    pub tag: Tag,
}

/// A user marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerEvent {
    /// The rank that executed the marker.
    pub rank: Rank,
    /// When.
    pub at: Time,
    /// Application-defined code.
    pub code: u32,
}

/// A captured execution timeline.
///
/// Obtain one with [`Timeline::capture`], which replays a trace while
/// recording every state interval, message and marker:
///
/// ```
/// use ovlsim_core::{Instr, MipsRate, Platform, RankTrace, Record, TraceSet};
/// use ovlsim_paraver::Timeline;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = TraceSet::new(
///     "one",
///     MipsRate::new(1000)?,
///     vec![RankTrace::from_records(vec![Record::Burst {
///         instr: Instr::new(500),
///     }])],
/// );
/// let (timeline, result) = Timeline::capture(&Platform::default(), &trace)?;
/// assert_eq!(timeline.intervals(ovlsim_core::Rank::new(0)).len(), 1);
/// assert_eq!(timeline.span(), result.total_time());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    name: String,
    ranks: usize,
    intervals: Vec<Vec<StateInterval>>,
    messages: Vec<MessageArrow>,
    markers: Vec<MarkerEvent>,
    finish: Vec<Time>,
}

impl Timeline {
    /// Creates an empty timeline for `ranks` ranks.
    pub fn new(name: impl Into<String>, ranks: usize) -> Self {
        Timeline {
            name: name.into(),
            ranks,
            intervals: vec![Vec::new(); ranks],
            messages: Vec::new(),
            markers: Vec::new(),
            finish: vec![Time::ZERO; ranks],
        }
    }

    /// Replays `trace` on `platform`, capturing the timeline alongside the
    /// replay result.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the replay.
    pub fn capture(
        platform: &Platform,
        trace: &TraceSet,
    ) -> Result<(Timeline, ReplayResult), SimError> {
        let mut timeline = Timeline::new(trace.name(), trace.rank_count());
        let result = Simulator::new(platform.clone()).run_observed(trace, &mut timeline)?;
        Ok((timeline, result))
    }

    /// The traced execution's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> usize {
        self.ranks
    }

    /// The state intervals of one rank, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn intervals(&self, rank: Rank) -> &[StateInterval] {
        &self.intervals[rank.index()]
    }

    /// All message arrows, in wire-completion order.
    pub fn messages(&self) -> &[MessageArrow] {
        &self.messages
    }

    /// All markers.
    pub fn markers(&self) -> &[MarkerEvent] {
        &self.markers
    }

    /// The overall makespan (max finish time).
    pub fn span(&self) -> Time {
        self.finish.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Total time rank `rank` spent in `state`.
    pub fn time_in_state(&self, rank: Rank, state: ProcState) -> Time {
        self.intervals[rank.index()]
            .iter()
            .filter(|iv| iv.state == state)
            .map(|iv| iv.end - iv.start)
            .sum()
    }
}

impl ReplayObserver for Timeline {
    fn interval(&mut self, rank: Rank, start: Time, end: Time, state: ProcState) {
        if end > start {
            self.intervals[rank.index()].push(StateInterval {
                rank,
                start,
                end,
                state,
            });
        }
    }

    fn message(
        &mut self,
        from: Rank,
        to: Rank,
        wire_start: Time,
        wire_end: Time,
        bytes: u64,
        tag: Tag,
    ) {
        self.messages.push(MessageArrow {
            from,
            to,
            start: wire_start,
            end: wire_end,
            bytes,
            tag,
        });
    }

    fn marker(&mut self, rank: Rank, at: Time, code: u32) {
        self.markers.push(MarkerEvent { rank, at, code });
    }

    fn finished(&mut self, rank: Rank, at: Time) {
        self.finish[rank.index()] = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_core::{Instr, MipsRate, RankTrace, Record};

    fn two_rank_trace() -> TraceSet {
        TraceSet::new(
            "tl",
            MipsRate::new(1000).unwrap(),
            vec![
                RankTrace::from_records(vec![
                    Record::Burst {
                        instr: Instr::new(1000),
                    },
                    Record::Send {
                        to: Rank::new(1),
                        bytes: 1000,
                        tag: Tag::new(0),
                    },
                    Record::Marker { code: 5 },
                ]),
                RankTrace::from_records(vec![Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(0),
                }]),
            ],
        )
    }

    fn platform() -> Platform {
        Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .build()
    }

    #[test]
    fn capture_collects_intervals_messages_markers() {
        let (tl, res) = Timeline::capture(&platform(), &two_rank_trace()).unwrap();
        assert_eq!(tl.rank_count(), 2);
        assert_eq!(tl.intervals(Rank::new(0)).len(), 1); // compute burst
        assert_eq!(tl.intervals(Rank::new(0))[0].state, ProcState::Compute);
        assert_eq!(tl.intervals(Rank::new(1)).len(), 1); // wait-recv
        assert_eq!(tl.intervals(Rank::new(1))[0].state, ProcState::WaitRecv);
        assert_eq!(tl.messages().len(), 1);
        assert_eq!(tl.messages()[0].bytes, 1000);
        assert_eq!(tl.markers().len(), 1);
        assert_eq!(tl.markers()[0].code, 5);
        assert_eq!(tl.span(), res.total_time());
        assert_eq!(tl.span(), Time::from_us(3));
    }

    #[test]
    fn time_in_state_accumulates() {
        let (tl, _) = Timeline::capture(&platform(), &two_rank_trace()).unwrap();
        assert_eq!(
            tl.time_in_state(Rank::new(0), ProcState::Compute),
            Time::from_us(1)
        );
        assert_eq!(
            tl.time_in_state(Rank::new(1), ProcState::WaitRecv),
            Time::from_us(3)
        );
        assert_eq!(
            tl.time_in_state(Rank::new(1), ProcState::Compute),
            Time::ZERO
        );
    }

    #[test]
    fn zero_length_intervals_dropped() {
        let mut tl = Timeline::new("x", 1);
        tl.interval(
            Rank::new(0),
            Time::from_us(1),
            Time::from_us(1),
            ProcState::Compute,
        );
        assert!(tl.intervals(Rank::new(0)).is_empty());
    }
}
