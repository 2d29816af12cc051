//! Channel interning: dense ids for `(source, destination, tag)` channels.
//!
//! Replay matches point-to-point records FIFO per channel. Looking the
//! channel up in an ordered map keyed by `(u32, u32, u64)` costs a tree
//! walk *per message*; since the record stream is fixed at validation time,
//! the channel of every record can be resolved **once** and stored as a
//! dense `u32` — the replay inner loop then does a single vector index.
//!
//! That resolution is part of lowering: a
//! [`CompiledTrace`](crate::CompiledTrace) numbers its channels and
//! carries each one's endpoints, and every record lowers to one
//! instruction whose channel operand is that number. A [`TraceIndex`] is
//! a projection of a program ([`TraceIndex::of`]), not a walk of its own:
//! the channel endpoints and, per record, the channel id. It is for
//! callers that read channels back by record: attribution, and a session
//! that keeps a trace's index beside its program.

use crate::program::CompiledTrace;
use crate::record::TraceSet;
use crate::validate::TraceIssue;

/// Sentinel in [`TraceIndex::rank_channels`] for records that are not
/// point-to-point operations (bursts, waits, collectives, markers).
pub const NO_CHANNEL: u32 = u32::MAX;

/// Dense identifier of a `(source, destination, tag)` channel within one
/// [`TraceIndex`].
///
/// Ids are assigned contiguously from 0 in order of first appearance
/// (scanning ranks then records), so they are deterministic for a given
/// trace and can index plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(u32);

impl ChannelId {
    /// Creates a channel id from its dense index.
    #[inline]
    pub const fn new(v: u32) -> Self {
        ChannelId(v)
    }

    /// The raw dense index.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The id as `usize` for table indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Precomputed per-record channel ids for a validated [`TraceSet`].
///
/// # Example
///
/// ```
/// use ovlsim_core::{MipsRate, Rank, RankTrace, Record, Tag, TraceIndex, TraceSet};
///
/// # fn main() -> Result<(), ovlsim_core::CoreError> {
/// let ts = TraceSet::new(
///     "pair",
///     MipsRate::new(1000)?,
///     vec![
///         RankTrace::from_records(vec![Record::Send {
///             to: Rank::new(1),
///             bytes: 8,
///             tag: Tag::new(0),
///         }]),
///         RankTrace::from_records(vec![Record::Recv {
///             from: Rank::new(0),
///             bytes: 8,
///             tag: Tag::new(0),
///         }]),
///     ],
/// );
/// let index = TraceIndex::build(&ts).expect("valid trace");
/// assert_eq!(index.channel_count(), 1);
/// // Send and matching recv resolve to the same channel.
/// assert_eq!(index.channel_of(0, 0), index.channel_of(1, 0));
/// assert!(index.channel_of(0, 0).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceIndex {
    trace_name: String,
    /// `(source, destination)` rank pair of each channel, indexed by dense
    /// channel id. Node-aware replay derives per-channel routing (intra- vs
    /// inter-node) from this once per run instead of recomputing node ids
    /// per event.
    channel_peers: Vec<(u32, u32)>,
    /// One entry per record per rank: the record's dense channel id, or
    /// [`NO_CHANNEL`] for non-point-to-point records.
    record_channels: Vec<Vec<u32>>,
}

impl TraceIndex {
    /// Validates `ts` and interns its channels: the projection
    /// ([`TraceIndex::of`]) of [`CompiledTrace::build`]'s program.
    ///
    /// # Errors
    ///
    /// Returns every [`TraceIssue`] found if the trace set is structurally
    /// invalid (the index of an invalid trace would be meaningless).
    pub fn build(ts: &TraceSet) -> Result<Self, Vec<TraceIssue>> {
        CompiledTrace::build(ts).map(|prog| Self::of(&prog))
    }

    /// The index of the trace `prog` was lowered from: the program's
    /// channel endpoints, and each instruction's channel operand as its
    /// record's channel (every record lowers to one instruction).
    pub fn of(prog: &CompiledTrace) -> Self {
        TraceIndex {
            trace_name: prog.name().to_string(),
            channel_peers: prog
                .channels()
                .iter()
                .map(|c| (c.src.get(), c.dst.get()))
                .collect(),
            record_channels: (0..prog.rank_count())
                .map(|r| prog.rank(r).channel_column())
                .collect(),
        }
    }

    /// Name of the trace set this index was built from.
    pub fn trace_name(&self) -> &str {
        &self.trace_name
    }

    /// Number of distinct `(source, destination, tag)` channels.
    pub fn channel_count(&self) -> usize {
        self.channel_peers.len()
    }

    /// The `(source, destination)` rank pair of every channel, indexed by
    /// dense channel id. A replay engine maps this through
    /// [`Platform::node_of`](crate::Platform::node_of) **once** per run to
    /// get a per-channel intra-/inter-node routing table — the hot loop
    /// then never recomputes node ids per event.
    pub fn channel_peers(&self) -> &[(u32, u32)] {
        &self.channel_peers
    }

    /// Number of ranks indexed.
    pub fn rank_count(&self) -> usize {
        self.record_channels.len()
    }

    /// The raw channel-id array of one rank, parallel to its records;
    /// non-point-to-point records hold [`NO_CHANNEL`].
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn rank_channels(&self, rank: usize) -> &[u32] {
        &self.record_channels[rank]
    }

    /// The channel of one record, if it is a point-to-point operation.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `record` is out of range.
    pub fn channel_of(&self, rank: usize, record: usize) -> Option<ChannelId> {
        match self.record_channels[rank][record] {
            NO_CHANNEL => None,
            id => Some(ChannelId::new(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Rank, Tag};
    use crate::instr::{Instr, MipsRate};
    use crate::record::{RankTrace, Record};

    fn mips() -> MipsRate {
        MipsRate::new(1000).unwrap()
    }

    #[test]
    fn interns_channels_densely_in_first_appearance_order() {
        let ts = TraceSet::new(
            "t",
            mips(),
            vec![
                RankTrace::from_records(vec![
                    Record::Burst {
                        instr: Instr::new(5),
                    },
                    Record::Send {
                        to: Rank::new(1),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                    Record::Send {
                        to: Rank::new(1),
                        bytes: 8,
                        tag: Tag::new(1),
                    },
                    Record::Send {
                        to: Rank::new(1),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                ]),
                RankTrace::from_records(vec![
                    Record::Recv {
                        from: Rank::new(0),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                    Record::Recv {
                        from: Rank::new(0),
                        bytes: 8,
                        tag: Tag::new(1),
                    },
                    Record::Recv {
                        from: Rank::new(0),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                ]),
            ],
        );
        let idx = TraceIndex::build(&ts).unwrap();
        assert_eq!(idx.channel_count(), 2);
        assert_eq!(idx.rank_count(), 2);
        assert_eq!(idx.rank_channels(0), &[NO_CHANNEL, 0, 1, 0]);
        assert_eq!(idx.rank_channels(1), &[0, 1, 0]);
        assert_eq!(idx.channel_of(0, 0), None);
        assert_eq!(idx.channel_of(0, 1), Some(ChannelId::new(0)));
        // Endpoints recorded per channel: both tags run 0 -> 1.
        assert_eq!(idx.channel_peers(), &[(0, 1), (0, 1)]);
    }

    #[test]
    fn opposite_directions_are_distinct_channels() {
        let ts = TraceSet::new(
            "pingpong",
            mips(),
            vec![
                RankTrace::from_records(vec![
                    Record::Send {
                        to: Rank::new(1),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                    Record::Recv {
                        from: Rank::new(1),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                ]),
                RankTrace::from_records(vec![
                    Record::Recv {
                        from: Rank::new(0),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                    Record::Send {
                        to: Rank::new(0),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                ]),
            ],
        );
        let idx = TraceIndex::build(&ts).unwrap();
        assert_eq!(idx.channel_count(), 2);
        assert_ne!(idx.channel_of(0, 0), idx.channel_of(0, 1));
        // The reverse-direction pair shares the other channel.
        assert_eq!(idx.channel_of(0, 1), idx.channel_of(1, 1));
    }

    #[test]
    fn invalid_trace_reports_issues() {
        let ts = TraceSet::new(
            "bad",
            mips(),
            vec![
                RankTrace::from_records(vec![Record::Send {
                    to: Rank::new(1),
                    bytes: 8,
                    tag: Tag::new(0),
                }]),
                RankTrace::new(),
            ],
        );
        let err = TraceIndex::build(&ts).unwrap_err();
        assert!(!err.is_empty());
    }
}
