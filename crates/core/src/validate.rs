//! Structural validation of trace sets.
//!
//! A [`TraceSet`] can encode executions that no MPI program could produce
//! (unmatched sends, waits on unknown requests, ranks disagreeing on the
//! collective sequence). [`validate_trace_set`] detects these before the
//! replay simulator runs, turning would-be deadlocks or panics into
//! actionable reports.
//!
//! The checks run inside the record walker (`crate::walk`), in the same
//! pass that interns channels for
//! [`TraceIndex::build`](crate::TraceIndex::build) and lowers the replay
//! program for [`CompiledTrace::build`](crate::CompiledTrace::build).
//! All three report the same issues in the same order. The walker
//! tracks requests in flight in one map per rank, from request id to the
//! slot the program gives it, and streams every send and receive size
//! into two flat FIFO streams, paired up by channel after the walk.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;

use crate::ids::{Rank, RequestId, Tag};
use crate::program::ChannelEndpoints;
use crate::record::{Record, TraceSet};
use crate::walk::{walk, At, Resolve};

/// One structural problem found in a trace set.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceIssue {
    /// A record references a rank outside `0..rank_count`.
    RankOutOfRange {
        /// Rank whose trace contains the bad record.
        rank: Rank,
        /// Index of the offending record.
        record: usize,
        /// The referenced (invalid) rank.
        referenced: Rank,
    },
    /// A wait references a request that was never posted (or already
    /// waited).
    UnknownRequest {
        /// Rank whose trace contains the wait.
        rank: Rank,
        /// Index of the offending record.
        record: usize,
        /// The unknown request.
        req: RequestId,
    },
    /// A request was posted twice without an intervening wait.
    DuplicateRequest {
        /// Rank whose trace posts the duplicate.
        rank: Rank,
        /// Index of the offending record.
        record: usize,
        /// The duplicated request.
        req: RequestId,
    },
    /// A request was posted but never waited on.
    LeakedRequest {
        /// Rank that leaked the request.
        rank: Rank,
        /// The leaked request.
        req: RequestId,
    },
    /// The number of sends and receives on a channel disagree.
    UnbalancedChannel {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// Channel tag.
        tag: Tag,
        /// Number of send-side records.
        sends: usize,
        /// Number of receive-side records.
        recvs: usize,
    },
    /// Matching send/recv pair sizes disagree (FIFO order per channel).
    SizeMismatch {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// Channel tag.
        tag: Tag,
        /// Position of the pair within the channel.
        position: usize,
        /// Bytes on the send side.
        send_bytes: u64,
        /// Bytes on the receive side.
        recv_bytes: u64,
    },
    /// Ranks disagree on the sequence of collective operations.
    CollectiveMismatch {
        /// First rank of the disagreeing pair (always rank 0's view).
        rank: Rank,
        /// Index within the rank's collective sequence.
        position: usize,
        /// Description of the disagreement.
        detail: String,
    },
}

impl fmt::Display for TraceIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIssue::RankOutOfRange {
                rank,
                record,
                referenced,
            } => write!(
                f,
                "record {record} of {rank} references out-of-range rank {referenced}"
            ),
            TraceIssue::UnknownRequest { rank, record, req } => {
                write!(f, "record {record} of {rank} waits on unknown {req}")
            }
            TraceIssue::DuplicateRequest { rank, record, req } => {
                write!(f, "record {record} of {rank} re-posts in-flight {req}")
            }
            TraceIssue::LeakedRequest { rank, req } => {
                write!(f, "{rank} never waits on posted {req}")
            }
            TraceIssue::UnbalancedChannel {
                from,
                to,
                tag,
                sends,
                recvs,
            } => write!(
                f,
                "channel {from}->{to} {tag} has {sends} sends but {recvs} recvs"
            ),
            TraceIssue::SizeMismatch {
                from,
                to,
                tag,
                position,
                send_bytes,
                recv_bytes,
            } => write!(
                f,
                "channel {from}->{to} {tag} pair {position}: send {send_bytes} B vs recv {recv_bytes} B"
            ),
            TraceIssue::CollectiveMismatch {
                rank,
                position,
                detail,
            } => write!(
                f,
                "collective sequence mismatch at position {position} ({rank}): {detail}"
            ),
        }
    }
}

/// Validates a trace set, returning every issue found (empty = valid).
///
/// Checks performed:
///
/// 1. all referenced ranks are in range,
/// 2. waits reference posted, not-yet-completed requests; requests are not
///    re-posted while in flight and are not leaked,
/// 3. per channel `(from, to, tag)` the send and receive counts agree and
///    FIFO-paired sizes match,
/// 4. every rank observes the same global sequence of collectives.
///
/// Issues come in that order of discovery: the per-record ones in walk
/// order (each rank's leaked requests after its records), then the
/// channel ones sorted by `(from, to, tag)`, then the collective ones.
///
/// # Example
///
/// ```
/// use ovlsim_core::{validate_trace_set, MipsRate, RankTrace, TraceSet};
///
/// # fn main() -> Result<(), ovlsim_core::CoreError> {
/// let ts = TraceSet::new("empty", MipsRate::new(1000)?, vec![RankTrace::new()]);
/// assert!(validate_trace_set(&ts).is_empty());
/// # Ok(())
/// # }
/// ```
pub fn validate_trace_set(ts: &TraceSet) -> Vec<TraceIssue> {
    let mut checks = Checks::new(ts);
    let Ok(()) = walk(ts, &mut checks, &mut ());
    checks.finish().err().unwrap_or_default()
}

/// The validating [`Resolve`]r: runs every check of
/// [`validate_trace_set`] during the walk and interns channels densely in
/// order of first appearance (ranks in order, records in order), which
/// makes channel ids deterministic.
pub(crate) struct Checks<'t> {
    rank_count: usize,
    issues: Vec<TraceIssue>,
    /// `(from, to, tag)` → channel id, with the default (SipHash) hasher
    /// because the keys come from untrusted traces.
    channel_ids: HashMap<(u32, u32, u64), u32>,
    channels: Vec<ChannelEndpoints>,
    /// Every send's and every receive's size in walk order, with its
    /// channel: grouped by channel after the walk, these are the FIFO
    /// streams the size check pairs up.
    sends: Vec<(u32, u64)>,
    recvs: Vec<(u32, u64)>,
    /// Each rank's collective sequence (compared by value).
    collectives: Vec<Vec<&'t Record>>,
}

impl<'t> Checks<'t> {
    pub(crate) fn new(ts: &TraceSet) -> Self {
        Checks {
            rank_count: ts.rank_count(),
            issues: Vec::new(),
            channel_ids: HashMap::new(),
            channels: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
            collectives: Vec::new(),
        }
    }

    fn check_rank(&mut self, at: At, referenced: Rank) {
        if referenced.index() >= self.rank_count {
            self.issues.push(TraceIssue::RankOutOfRange {
                rank: at.rank,
                record: at.record,
                referenced,
            });
        }
    }

    fn intern(&mut self, src: Rank, dst: Rank, tag: Tag) -> u32 {
        let next = self.channels.len();
        *self
            .channel_ids
            .entry((src.get(), dst.get(), tag.get()))
            .or_insert_with(|| {
                self.channels.push(ChannelEndpoints { src, dst, tag });
                u32::try_from(next).expect("channel ids fit in u32")
            })
    }

    /// Ends the walk: the interned channels, indexed by id, or every
    /// issue found.
    pub(crate) fn finish(mut self) -> Result<Vec<ChannelEndpoints>, Vec<TraceIssue>> {
        // Channel balance and pairwise sizes: a channel is clean when its
        // send and receive FIFOs are equal. Dirty channels are reported in
        // (from, to, tag) order, independent of the interning order.
        let sends = Fifos::group(&self.sends, self.channels.len());
        let recvs = Fifos::group(&self.recvs, self.channels.len());
        let mut dirty: Vec<usize> = (0..self.channels.len())
            .filter(|&c| sends.of(c) != recvs.of(c))
            .collect();
        dirty.sort_by_key(|&c| {
            let e = &self.channels[c];
            (e.src, e.dst, e.tag)
        });
        for c in dirty {
            let ChannelEndpoints {
                src: from,
                dst: to,
                tag,
            } = self.channels[c];
            let (s, r) = (sends.of(c), recvs.of(c));
            if s.len() != r.len() {
                self.issues.push(TraceIssue::UnbalancedChannel {
                    from,
                    to,
                    tag,
                    sends: s.len(),
                    recvs: r.len(),
                });
            }
            for (position, (&send_bytes, &recv_bytes)) in s.iter().zip(r).enumerate() {
                if send_bytes != recv_bytes {
                    self.issues.push(TraceIssue::SizeMismatch {
                        from,
                        to,
                        tag,
                        position,
                        send_bytes,
                        recv_bytes,
                    });
                }
            }
        }

        // Collective agreement: every rank must list rank 0's sequence.
        // Records are compared structurally (identical records keep replay
        // simple and deterministic); a rank whose count differs reports
        // only that. The display strings are only rendered for the (rare)
        // mismatch report.
        if let Some((reference, rest)) = self.collectives.split_first() {
            for (r, seq) in rest.iter().enumerate() {
                let rank = Rank::new(r as u32 + 1);
                let mut diverged = Vec::new();
                if seq.len() != reference.len() {
                    let (expected, count) = (reference.len(), seq.len());
                    diverged.push((
                        count.min(expected),
                        format!("rank 0 has {expected} collectives, {rank} has {count}"),
                    ));
                } else {
                    for (position, (a, b)) in reference.iter().zip(seq).enumerate() {
                        if a != b {
                            diverged
                                .push((position, format!("rank 0 sees `{a}`, {rank} sees `{b}`")));
                        }
                    }
                }
                for (position, detail) in diverged {
                    self.issues.push(TraceIssue::CollectiveMismatch {
                        rank,
                        position,
                        detail,
                    });
                }
            }
        }

        if self.issues.is_empty() {
            Ok(self.channels)
        } else {
            Err(self.issues)
        }
    }
}

impl<'t> Resolve<'t> for Checks<'t> {
    type Error = Infallible;

    fn begin_rank(&mut self, _rank: usize) {
        self.collectives.push(Vec::new());
    }

    fn send(&mut self, at: At, to: Rank, tag: Tag, bytes: u64) -> u32 {
        self.check_rank(at, to);
        let channel = self.intern(at.rank, to, tag);
        self.sends.push((channel, bytes));
        channel
    }

    fn recv(&mut self, at: At, from: Rank, tag: Tag, bytes: u64) -> u32 {
        self.check_rank(at, from);
        let channel = self.intern(from, at.rank, tag);
        self.recvs.push((channel, bytes));
        channel
    }

    fn collective(&mut self, at: At, rec: &'t Record, root: Option<Rank>) {
        if let Some(root) = root {
            self.check_rank(at, root);
        }
        self.collectives[at.rank.index()].push(rec);
    }

    fn duplicate(&mut self, at: At, req: RequestId) {
        self.issues.push(TraceIssue::DuplicateRequest {
            rank: at.rank,
            record: at.record,
            req,
        });
    }

    fn unknown(&mut self, at: At, req: RequestId) -> Result<(), Infallible> {
        self.issues.push(TraceIssue::UnknownRequest {
            rank: at.rank,
            record: at.record,
            req,
        });
        Ok(())
    }

    fn leaked(&mut self, rank: Rank, req: RequestId) {
        self.issues.push(TraceIssue::LeakedRequest { rank, req });
    }
}

/// One side's sizes grouped by channel, walk order kept within each
/// channel (a counting sort of the flat stream).
struct Fifos {
    start: Vec<usize>,
    bytes: Vec<u64>,
}

impl Fifos {
    fn group(stream: &[(u32, u64)], channels: usize) -> Fifos {
        let mut start = vec![0usize; channels + 1];
        for &(c, _) in stream {
            start[c as usize + 1] += 1;
        }
        for c in 0..channels {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut bytes = vec![0; stream.len()];
        for &(c, b) in stream {
            bytes[next[c as usize]] = b;
            next[c as usize] += 1;
        }
        Fifos { start, bytes }
    }

    /// The sizes of channel `c`, in FIFO order.
    fn of(&self, c: usize) -> &[u64] {
        &self.bytes[self.start[c]..self.start[c + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, MipsRate};
    use crate::record::RankTrace;

    fn mips() -> MipsRate {
        MipsRate::new(1000).unwrap()
    }

    fn two_rank(records0: Vec<Record>, records1: Vec<Record>) -> TraceSet {
        TraceSet::new(
            "test",
            mips(),
            vec![
                RankTrace::from_records(records0),
                RankTrace::from_records(records1),
            ],
        )
    }

    #[test]
    fn valid_ping_pong_passes() {
        let ts = two_rank(
            vec![
                Record::Burst {
                    instr: Instr::new(10),
                },
                Record::Send {
                    to: Rank::new(1),
                    bytes: 100,
                    tag: Tag::new(1),
                },
                Record::Recv {
                    from: Rank::new(1),
                    bytes: 100,
                    tag: Tag::new(2),
                },
            ],
            vec![
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 100,
                    tag: Tag::new(1),
                },
                Record::Send {
                    to: Rank::new(0),
                    bytes: 100,
                    tag: Tag::new(2),
                },
            ],
        );
        assert!(validate_trace_set(&ts).is_empty());
    }

    #[test]
    fn unmatched_send_reported() {
        let ts = two_rank(
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 100,
                tag: Tag::new(1),
            }],
            vec![],
        );
        let issues = validate_trace_set(&ts);
        assert_eq!(issues.len(), 1);
        assert!(matches!(issues[0], TraceIssue::UnbalancedChannel { .. }));
    }

    #[test]
    fn size_mismatch_reported() {
        let ts = two_rank(
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 100,
                tag: Tag::new(1),
            }],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 50,
                tag: Tag::new(1),
            }],
        );
        let issues = validate_trace_set(&ts);
        assert!(issues.iter().any(|i| matches!(
            i,
            TraceIssue::SizeMismatch {
                send_bytes: 100,
                recv_bytes: 50,
                ..
            }
        )));
    }

    #[test]
    fn rank_out_of_range_reported() {
        let ts = two_rank(
            vec![Record::Send {
                to: Rank::new(5),
                bytes: 1,
                tag: Tag::new(0),
            }],
            vec![],
        );
        let issues = validate_trace_set(&ts);
        assert!(issues
            .iter()
            .any(|i| matches!(i, TraceIssue::RankOutOfRange { .. })));
    }

    #[test]
    fn wait_on_unknown_request_reported() {
        let ts = two_rank(
            vec![Record::Wait {
                req: RequestId::new(3),
            }],
            vec![],
        );
        let issues = validate_trace_set(&ts);
        assert!(matches!(issues[0], TraceIssue::UnknownRequest { .. }));
    }

    #[test]
    fn leaked_request_reported() {
        let ts = two_rank(
            vec![Record::IRecv {
                from: Rank::new(1),
                bytes: 10,
                tag: Tag::new(1),
                req: RequestId::new(0),
            }],
            vec![Record::Send {
                to: Rank::new(0),
                bytes: 10,
                tag: Tag::new(1),
            }],
        );
        let issues = validate_trace_set(&ts);
        assert!(issues
            .iter()
            .any(|i| matches!(i, TraceIssue::LeakedRequest { .. })));
    }

    #[test]
    fn duplicate_request_reported() {
        let ts = two_rank(
            vec![
                Record::IRecv {
                    from: Rank::new(1),
                    bytes: 10,
                    tag: Tag::new(1),
                    req: RequestId::new(0),
                },
                Record::IRecv {
                    from: Rank::new(1),
                    bytes: 10,
                    tag: Tag::new(2),
                    req: RequestId::new(0),
                },
                Record::Wait {
                    req: RequestId::new(0),
                },
            ],
            vec![
                Record::Send {
                    to: Rank::new(0),
                    bytes: 10,
                    tag: Tag::new(1),
                },
                Record::Send {
                    to: Rank::new(0),
                    bytes: 10,
                    tag: Tag::new(2),
                },
            ],
        );
        let issues = validate_trace_set(&ts);
        assert!(issues
            .iter()
            .any(|i| matches!(i, TraceIssue::DuplicateRequest { .. })));
    }

    #[test]
    fn collective_disagreement_reported() {
        let ts = two_rank(
            vec![Record::Barrier, Record::AllReduce { bytes: 8 }],
            vec![Record::Barrier],
        );
        let issues = validate_trace_set(&ts);
        assert!(issues
            .iter()
            .any(|i| matches!(i, TraceIssue::CollectiveMismatch { .. })));

        let ts = two_rank(
            vec![Record::AllReduce { bytes: 8 }],
            vec![Record::AllReduce { bytes: 16 }],
        );
        let issues = validate_trace_set(&ts);
        assert!(issues
            .iter()
            .any(|i| matches!(i, TraceIssue::CollectiveMismatch { .. })));
    }

    #[test]
    fn issue_display_nonempty() {
        let issue = TraceIssue::LeakedRequest {
            rank: Rank::new(1),
            req: RequestId::new(2),
        };
        assert!(format!("{issue}").contains("req2"));
    }
}
