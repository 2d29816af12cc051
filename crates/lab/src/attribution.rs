//! Time attribution and critical-path extraction.
//!
//! A replay's makespan says *how fast* an execution was; attribution says
//! *where the time went* and *which communication actually matters*. An
//! observed replay (`run_compiled_observed` on a program from
//! `CompiledTrace::build`) emits cause-tagged intervals
//! ([`WaitCause`]) that tile each rank's `[0, finish)` exactly; this
//! module folds them into:
//!
//! * **per-rank breakdowns** — compute, sender overhead, blocked-on-recv
//!   /-send/-wait, network contention (intra vs inter domain) and
//!   collective time, summing bit-exactly to the rank's finish time,
//! * **per-channel wait breakdowns** — every blocked cause carries the
//!   dense channel id of the gating transfer, so wait time rolls up per
//!   `(source, destination, tag)` channel and per peer,
//! * the **critical path** — a back-walk from the slowest rank's finish
//!   through the *last unblocker* of each blocked interval (the
//!   [`DepEdge`]s the engines attach), yielding a contiguous chain of
//!   cause-tagged segments whose durations sum exactly to the makespan,
//! * an **overlap gain potential** per channel — the channel's wait time
//!   on the critical path, clamped to the overlappable gap
//!   `makespan − OverlapBounds::makespan_bound()`, so the ranking can
//!   never promise more than any schedule could recover.
//!
//! [`Attribution::analyze`] runs the whole pipeline on a validated trace;
//! the `ovlsim analyze` subcommand renders the result as byte-stable JSON
//! and CSV (same determinism contract as campaign reports).

use std::fmt::Write as _;

use ovlsim_core::{CompiledTrace, Platform, Rank, Time, TraceIndex, TraceSet};
use ovlsim_dimemas::{DepEdge, ReplayObserver, ReplayResult, Simulator, WaitCause};

use crate::bounds::OverlapBounds;
use crate::campaign::json_escape;
use crate::error::LabError;
use crate::sweep::compile_trace;

/// One cause-tagged interval of one rank, as recorded from the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrInterval {
    /// Interval start (inclusive).
    pub start: Time,
    /// Interval end (exclusive).
    pub end: Time,
    /// What the time is charged to.
    pub cause: WaitCause,
    /// The cross-rank dependency that released the interval, if any.
    pub edge: Option<DepEdge>,
}

/// A [`ReplayObserver`] that records attributed intervals per rank.
///
/// Feed it to `run_observed` or `run_compiled_observed` (on a program
/// from `CompiledTrace::build`); then fold the capture
/// with [`Attribution::from_recorded`] or use the one-call
/// [`Attribution::analyze`].
#[derive(Debug, Clone, Default)]
pub struct AttributionRecorder {
    per_rank: Vec<Vec<AttrInterval>>,
    finish: Vec<Time>,
}

impl AttributionRecorder {
    /// Creates a recorder for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        AttributionRecorder {
            per_rank: vec![Vec::new(); ranks],
            finish: vec![Time::ZERO; ranks],
        }
    }

    /// The recorded intervals of one rank, in time order.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn intervals(&self, rank: usize) -> &[AttrInterval] {
        &self.per_rank[rank]
    }
}

impl ReplayObserver for AttributionRecorder {
    fn attributed(
        &mut self,
        rank: Rank,
        start: Time,
        end: Time,
        cause: WaitCause,
        edge: Option<DepEdge>,
    ) {
        self.per_rank[rank.index()].push(AttrInterval {
            start,
            end,
            cause,
            edge,
        });
    }

    fn finished(&mut self, rank: Rank, at: Time) {
        self.finish[rank.index()] = at;
    }
}

/// Where one rank's time went, summing bit-exactly to `total` (its finish
/// time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankBreakdown {
    /// Computation bursts.
    pub compute: Time,
    /// Per-message sender CPU overhead.
    pub send_overhead: Time,
    /// Blocked in blocking receives.
    pub blocked_recv: Time,
    /// Blocked in rendezvous sends.
    pub blocked_send: Time,
    /// Blocked in `Wait`/`WaitAll`.
    pub blocked_wait: Time,
    /// Gating transfer queued in the bus/NIC fabric.
    pub contended_inter: Time,
    /// Gating transfer queued for intra-node ports.
    pub contended_intra: Time,
    /// Gating transfer held back by a transient link outage (fault
    /// injection; always zero on clean platforms).
    pub link_down: Time,
    /// Inside collectives.
    pub collective: Time,
    /// The rank's finish time (sum of all categories).
    pub total: Time,
}

impl RankBreakdown {
    /// Everything except compute and sender overhead: the rank's
    /// communication wait.
    pub fn wait(&self) -> Time {
        self.blocked_recv
            + self.blocked_send
            + self.blocked_wait
            + self.contended_inter
            + self.contended_intra
            + self.link_down
            + self.collective
    }
}

/// Wait time charged to one `(source, destination, tag)` channel, across
/// all ranks, plus its share of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelBreakdown {
    /// Dense channel id.
    pub chan: u32,
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Blocking-receive wait charged to this channel.
    pub blocked_recv: Time,
    /// Rendezvous-send wait charged to this channel.
    pub blocked_send: Time,
    /// Request-wait time charged to this channel (last-unblocker rule).
    pub blocked_wait: Time,
    /// Bus/NIC queue time of this channel's gating transfers.
    pub contended_inter: Time,
    /// Intra-node port queue time of this channel's gating transfers.
    pub contended_intra: Time,
    /// Link-outage hold time of this channel's gating transfers (fault
    /// injection; always zero on clean platforms).
    pub link_down: Time,
    /// Wait time this channel contributes to the critical path.
    pub critical: Time,
    /// [`ChannelBreakdown::critical`] clamped to the overlappable gap
    /// (`makespan − makespan_bound`): hiding this channel's wait can gain
    /// at most this much, and never more than any schedule could.
    pub gain_potential: Time,
}

impl ChannelBreakdown {
    /// Total wait charged to this channel across all causes.
    pub fn total_wait(&self) -> Time {
        self.blocked_recv
            + self.blocked_send
            + self.blocked_wait
            + self.contended_inter
            + self.contended_intra
            + self.link_down
    }
}

/// One segment of the critical path.
///
/// Segments are contiguous in time: each starts where the previous ended,
/// the first starts at zero and the last ends at the makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// The rank whose interval this segment was cut from.
    pub rank: Rank,
    /// Segment start.
    pub start: Time,
    /// Segment end.
    pub end: Time,
    /// The cause the segment's time is charged to.
    pub cause: WaitCause,
    /// For cross-rank segments: the peer whose action released `rank`
    /// (the back-walk continues on it at `start`).
    pub via: Option<Rank>,
}

/// The folded attribution of one replay: per-rank and per-channel
/// breakdowns plus the critical path. Build with
/// [`Attribution::analyze`] or [`Attribution::from_recorded`].
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    trace_name: String,
    makespan: Time,
    makespan_bound: Time,
    ranks: Vec<RankBreakdown>,
    channels: Vec<ChannelBreakdown>,
    path: Vec<PathStep>,
    /// True when the platform injects link faults; gates the
    /// `link_down_ps` report columns so clean reports stay byte-identical
    /// to pre-fault-model versions.
    faulty: bool,
}

impl Attribution {
    /// Replays `trace` on `platform` with attribution capture (compiling
    /// `trace`, whose channels `index` names) and folds the result.
    ///
    /// # Errors
    ///
    /// Propagates validation and replay errors ([`LabError::Sim`]).
    pub fn analyze(
        platform: &Platform,
        trace: &TraceSet,
        index: &TraceIndex,
    ) -> Result<Attribution, LabError> {
        Ok(Self::analyze_with_recorder(platform, trace, index)?.0)
    }

    /// [`Attribution::analyze`], additionally returning the raw recorder
    /// (whose wait intervals the Paraver exporter consumes).
    ///
    /// # Errors
    ///
    /// Same as [`Attribution::analyze`].
    pub fn analyze_with_recorder(
        platform: &Platform,
        trace: &TraceSet,
        index: &TraceIndex,
    ) -> Result<(Attribution, AttributionRecorder), LabError> {
        let prog = compile_trace(trace)?;
        Self::analyze_compiled(platform, trace, index, &prog)
    }

    /// [`Attribution::analyze_with_recorder`] on the replay program the
    /// caller already holds for `trace` (a session's stored program, a
    /// campaign group's program): nothing is compiled. One program serves
    /// observed and unobserved replays alike.
    ///
    /// # Errors
    ///
    /// Propagates replay errors ([`LabError::Sim`]).
    ///
    /// # Panics
    ///
    /// Panics if `prog` was not compiled from `trace`: its name, rank
    /// count or channel count disagree with `trace` and `index`.
    pub fn analyze_compiled(
        platform: &Platform,
        trace: &TraceSet,
        index: &TraceIndex,
        prog: &CompiledTrace,
    ) -> Result<(Attribution, AttributionRecorder), LabError> {
        assert!(
            prog.name() == trace.name()
                && prog.rank_count() == trace.rank_count()
                && prog.channels().len() == index.channel_count(),
            "program `{}` was not compiled from trace `{}`",
            prog.name(),
            trace.name()
        );
        let mut recorder = AttributionRecorder::new(trace.rank_count());
        let result = Simulator::new(platform.clone()).run_compiled_observed(prog, &mut recorder)?;
        let attribution = Self::from_recorded(&recorder, &result, trace, index, platform);
        Ok((attribution, recorder))
    }

    /// Folds an already-captured attribution stream. `result` must come
    /// from the same replay that filled `recorder`.
    pub fn from_recorded(
        recorder: &AttributionRecorder,
        result: &ReplayResult,
        trace: &TraceSet,
        index: &TraceIndex,
        platform: &Platform,
    ) -> Attribution {
        let makespan = result.total_time();
        let n = recorder.per_rank.len();

        // Per-rank fold.
        let mut ranks = Vec::with_capacity(n);
        for r in 0..n {
            let mut b = RankBreakdown::default();
            for iv in &recorder.per_rank[r] {
                let dur = iv.end - iv.start;
                match iv.cause {
                    WaitCause::Compute => b.compute += dur,
                    WaitCause::SendOverhead => b.send_overhead += dur,
                    WaitCause::BlockedRecv { .. } => b.blocked_recv += dur,
                    WaitCause::BlockedSend { .. } => b.blocked_send += dur,
                    WaitCause::BlockedWait { .. } => b.blocked_wait += dur,
                    WaitCause::Contended { intra: false, .. } => b.contended_inter += dur,
                    WaitCause::Contended { intra: true, .. } => b.contended_intra += dur,
                    WaitCause::LinkDown { .. } => b.link_down += dur,
                    WaitCause::Collective { .. } => b.collective += dur,
                }
                b.total += dur;
            }
            ranks.push(b);
        }

        // Critical path: back-walk from the slowest rank's finish.
        let slowest = recorder
            .finish
            .iter()
            .enumerate()
            .max_by_key(|&(r, t)| (*t, std::cmp::Reverse(r)))
            .map(|(r, _)| r)
            .unwrap_or(0);
        let path = critical_path(recorder, slowest, makespan);

        // Per-channel fold.
        let peers = index.channel_peers();
        let mut channels: Vec<ChannelBreakdown> = peers
            .iter()
            .enumerate()
            .map(|(c, &(src, dst))| ChannelBreakdown {
                chan: c as u32,
                src: Rank::new(src),
                dst: Rank::new(dst),
                blocked_recv: Time::ZERO,
                blocked_send: Time::ZERO,
                blocked_wait: Time::ZERO,
                contended_inter: Time::ZERO,
                contended_intra: Time::ZERO,
                link_down: Time::ZERO,
                critical: Time::ZERO,
                gain_potential: Time::ZERO,
            })
            .collect();
        for rank_ivs in &recorder.per_rank {
            for iv in rank_ivs {
                let Some(chan) = iv.cause.channel() else {
                    continue;
                };
                let c = &mut channels[chan as usize];
                let dur = iv.end - iv.start;
                match iv.cause {
                    WaitCause::BlockedRecv { .. } => c.blocked_recv += dur,
                    WaitCause::BlockedSend { .. } => c.blocked_send += dur,
                    WaitCause::BlockedWait { .. } => c.blocked_wait += dur,
                    WaitCause::Contended { intra: false, .. } => c.contended_inter += dur,
                    WaitCause::Contended { intra: true, .. } => c.contended_intra += dur,
                    WaitCause::LinkDown { .. } => c.link_down += dur,
                    _ => unreachable!("cause with channel is a wait"),
                }
            }
        }
        for step in &path {
            if let Some(chan) = step.cause.channel() {
                channels[chan as usize].critical += step.end - step.start;
            }
        }
        let bounds = OverlapBounds::of(trace, platform);
        let makespan_bound = bounds.makespan_bound();
        let gap = makespan.saturating_sub(makespan_bound);
        for c in &mut channels {
            c.gain_potential = c.critical.min(gap);
        }

        Attribution {
            trace_name: trace.name().to_string(),
            makespan,
            makespan_bound,
            ranks,
            channels,
            path,
            faulty: platform.perturbation().has_faults(),
        }
    }

    /// Name of the analyzed trace.
    pub fn trace_name(&self) -> &str {
        &self.trace_name
    }

    /// The replay's makespan.
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// The theoretical lower bound on the makespan
    /// ([`OverlapBounds::makespan_bound`]).
    pub fn makespan_bound(&self) -> Time {
        self.makespan_bound
    }

    /// Per-rank breakdowns, indexed by rank.
    pub fn ranks(&self) -> &[RankBreakdown] {
        &self.ranks
    }

    /// Per-channel breakdowns, indexed by dense channel id.
    pub fn channels(&self) -> &[ChannelBreakdown] {
        &self.channels
    }

    /// The critical path in chronological order; segment durations sum to
    /// the makespan.
    pub fn critical_path(&self) -> &[PathStep] {
        &self.path
    }

    /// Sum of critical-path segment durations (equals the makespan by the
    /// path invariant).
    pub fn critical_path_len(&self) -> Time {
        self.path.iter().map(|s| s.end - s.start).sum()
    }

    /// Channels ranked by overlap gain potential (descending), breaking
    /// ties by total wait and then channel id — the "which communication
    /// should I overlap first" ordering.
    pub fn ranked_channels(&self) -> Vec<&ChannelBreakdown> {
        let mut out: Vec<&ChannelBreakdown> = self.channels.iter().collect();
        out.sort_by(|a, b| {
            b.gain_potential
                .cmp(&a.gain_potential)
                .then(b.total_wait().cmp(&a.total_wait()))
                .then(a.chan.cmp(&b.chan))
        });
        out
    }

    /// Renders the attribution as deterministic JSON: one row per line,
    /// times as integer picoseconds. Identical replays produce
    /// byte-identical output (the golden-report contract campaign reports
    /// follow).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"trace\": \"{}\",", json_escape(&self.trace_name));
        let _ = writeln!(out, "  \"makespan_ps\": {},", self.makespan.as_ps());
        let _ = writeln!(
            out,
            "  \"makespan_bound_ps\": {},",
            self.makespan_bound.as_ps()
        );
        let _ = writeln!(
            out,
            "  \"critical_path_len_ps\": {},",
            self.critical_path_len().as_ps()
        );
        out.push_str("  \"ranks\": [\n");
        for (r, b) in self.ranks.iter().enumerate() {
            let sep = if r + 1 == self.ranks.len() { "" } else { "," };
            let link_down = if self.faulty {
                format!("\"link_down_ps\":{},", b.link_down.as_ps())
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "    {{\"rank\":{r},\"compute_ps\":{},\"send_overhead_ps\":{},\
                 \"blocked_recv_ps\":{},\"blocked_send_ps\":{},\"blocked_wait_ps\":{},\
                 \"contended_inter_ps\":{},\"contended_intra_ps\":{},{link_down}\
                 \"collective_ps\":{},\"total_ps\":{}}}{sep}",
                b.compute.as_ps(),
                b.send_overhead.as_ps(),
                b.blocked_recv.as_ps(),
                b.blocked_send.as_ps(),
                b.blocked_wait.as_ps(),
                b.contended_inter.as_ps(),
                b.contended_intra.as_ps(),
                b.collective.as_ps(),
                b.total.as_ps(),
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"channels\": [\n");
        let ranked = self.ranked_channels();
        for (i, c) in ranked.iter().enumerate() {
            let sep = if i + 1 == ranked.len() { "" } else { "," };
            let link_down = if self.faulty {
                format!("\"link_down_ps\":{},", c.link_down.as_ps())
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "    {{\"chan\":{},\"src\":{},\"dst\":{},\"blocked_recv_ps\":{},\
                 \"blocked_send_ps\":{},\"blocked_wait_ps\":{},\"contended_inter_ps\":{},\
                 \"contended_intra_ps\":{},{link_down}\"total_wait_ps\":{},\"critical_ps\":{},\
                 \"gain_potential_ps\":{}}}{sep}",
                c.chan,
                c.src.get(),
                c.dst.get(),
                c.blocked_recv.as_ps(),
                c.blocked_send.as_ps(),
                c.blocked_wait.as_ps(),
                c.contended_inter.as_ps(),
                c.contended_intra.as_ps(),
                c.total_wait().as_ps(),
                c.critical.as_ps(),
                c.gain_potential.as_ps(),
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"critical_path\": [\n");
        for (i, s) in self.path.iter().enumerate() {
            let sep = if i + 1 == self.path.len() { "" } else { "," };
            let chan = match s.cause.channel() {
                Some(c) => c.to_string(),
                None => "null".to_string(),
            };
            let via = match s.via {
                Some(v) => v.get().to_string(),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"rank\":{},\"start_ps\":{},\"end_ps\":{},\"cause\":\"{}\",\
                 \"chan\":{chan},\"via\":{via}}}{sep}",
                s.rank.get(),
                s.start.as_ps(),
                s.end.as_ps(),
                s.cause.label(),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the per-channel table as CSV (ranked order, same columns
    /// as the JSON channel rows).
    pub fn to_csv(&self) -> String {
        let link_down_col = if self.faulty { "link_down_ps," } else { "" };
        let mut out = format!(
            "chan,src,dst,blocked_recv_ps,blocked_send_ps,blocked_wait_ps,\
             contended_inter_ps,contended_intra_ps,{link_down_col}total_wait_ps,\
             critical_ps,gain_potential_ps\n",
        );
        for c in self.ranked_channels() {
            let link_down = if self.faulty {
                format!("{},", c.link_down.as_ps())
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{link_down}{},{},{}",
                c.chan,
                c.src.get(),
                c.dst.get(),
                c.blocked_recv.as_ps(),
                c.blocked_send.as_ps(),
                c.blocked_wait.as_ps(),
                c.contended_inter.as_ps(),
                c.contended_intra.as_ps(),
                c.total_wait().as_ps(),
                c.critical.as_ps(),
                c.gain_potential.as_ps(),
            );
        }
        out
    }
}

/// Back-walks the event dependency chain from `(slowest, makespan)`.
///
/// At each position `(rank, t)` the interval ending at `t` is found (the
/// engines' conservation property makes `t` an interval boundary); if the
/// interval carries a release edge strictly earlier than `t`, the path
/// jumps to the releasing rank at the release time and the segment
/// `[edge.at, t)` is charged to the wait's cause; otherwise the whole
/// interval is a local segment. Either way the cursor strictly
/// decreases, so the walk terminates with segments tiling `[0, makespan)`.
fn critical_path(recorder: &AttributionRecorder, slowest: usize, makespan: Time) -> Vec<PathStep> {
    let mut steps = Vec::new();
    let mut cur_rank = slowest;
    let mut cur = makespan;
    while cur > Time::ZERO {
        let ivs = &recorder.per_rank[cur_rank];
        let Ok(i) = ivs.binary_search_by(|iv| iv.end.cmp(&cur)) else {
            // Unreachable for conserving engines; bail rather than loop.
            debug_assert!(false, "no interval ends at {cur} on rank {cur_rank}");
            break;
        };
        let iv = &ivs[i];
        match iv.edge {
            Some(e) if e.at < cur => {
                steps.push(PathStep {
                    rank: Rank::new(cur_rank as u32),
                    start: e.at,
                    end: cur,
                    cause: iv.cause,
                    via: Some(e.rank),
                });
                cur_rank = e.rank.index();
                cur = e.at;
            }
            _ => {
                steps.push(PathStep {
                    rank: Rank::new(cur_rank as u32),
                    start: iv.start,
                    end: cur,
                    cause: iv.cause,
                    via: None,
                });
                cur = iv.start;
            }
        }
    }
    steps.reverse();
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_core::{Instr, MipsRate, RankTrace, Record, Tag};

    fn platform_1us_1gb() -> Platform {
        Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .build()
    }

    fn pair_trace() -> TraceSet {
        TraceSet::new(
            "pair",
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
                ]),
                RankTrace::from_records(vec![Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(0),
                }]),
            ],
        )
    }

    fn analyze(trace: &TraceSet, platform: &Platform) -> Attribution {
        let index = TraceIndex::build(trace).expect("valid");
        Attribution::analyze(platform, trace, &index).expect("analyzes")
    }

    #[test]
    fn pair_breakdown_reconciles_with_replay() {
        let trace = pair_trace();
        let platform = platform_1us_1gb();
        let attr = analyze(&trace, &platform);
        let result = Simulator::new(platform).run(&trace).unwrap();
        assert_eq!(attr.makespan(), result.total_time());
        // Rank 0: 1 us compute, rest zero.
        assert_eq!(attr.ranks()[0].compute, Time::from_us(1));
        assert_eq!(attr.ranks()[0].total, result.rank_finish()[0]);
        // Rank 1: blocked in recv the whole 3 us.
        assert_eq!(attr.ranks()[1].blocked_recv, Time::from_us(3));
        assert_eq!(attr.ranks()[1].total, result.rank_finish()[1]);
        // One channel owns all the wait.
        assert_eq!(attr.channels().len(), 1);
        assert_eq!(attr.channels()[0].total_wait(), Time::from_us(3));
    }

    #[test]
    fn pair_critical_path_spans_makespan() {
        let trace = pair_trace();
        let attr = analyze(&trace, &platform_1us_1gb());
        assert_eq!(attr.critical_path_len(), attr.makespan());
        let path = attr.critical_path();
        // Chronological and contiguous from zero to the makespan.
        assert_eq!(path[0].start, Time::ZERO);
        assert_eq!(path.last().unwrap().end, attr.makespan());
        for w in path.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The path runs through rank 0's compute, then the network edge of
        // the one channel into rank 1's recv.
        assert_eq!(path[0].cause, WaitCause::Compute);
        assert_eq!(path[0].rank, Rank::new(0));
        let last = path.last().unwrap();
        assert_eq!(last.rank, Rank::new(1));
        assert_eq!(last.cause, WaitCause::BlockedRecv { chan: 0 });
        assert_eq!(last.via, Some(Rank::new(0)));
        // The recv wait is critical: hiding it is the gain opportunity.
        assert!(attr.channels()[0].critical > Time::ZERO);
    }

    #[test]
    fn gain_potential_clamped_to_overlappable_gap() {
        let trace = pair_trace();
        let platform = platform_1us_1gb();
        let attr = analyze(&trace, &platform);
        let gap = attr.makespan().saturating_sub(attr.makespan_bound());
        for c in attr.channels() {
            assert!(c.gain_potential <= gap);
            assert!(c.gain_potential <= c.critical);
        }
    }

    #[test]
    fn gain_potential_is_exactly_zero_when_gap_is_zero() {
        // A fully-overlapped point: rank 0 computes 1 us then sends 1000 B
        // to rank 1 (arrival at 1 us compute + 1 us latency + 1 us wire =
        // 3 us), while rank 2 computes exactly 3 us. The makespan equals the
        // compute bound, so the overlappable gap is exactly zero even though
        // the channel into rank 1 carries 3 us of blocked-recv wait. Gain
        // must clamp to exactly zero — never wrap or underflow.
        let trace = TraceSet::new(
            "zero-gap",
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
                ]),
                RankTrace::from_records(vec![Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(0),
                }]),
                RankTrace::from_records(vec![Record::Burst {
                    instr: Instr::new(3000),
                }]),
            ],
        );
        let attr = analyze(&trace, &platform_1us_1gb());
        // The construction really is zero-gap: makespan == bound.
        assert_eq!(attr.makespan(), Time::from_us(3));
        assert_eq!(attr.makespan(), attr.makespan_bound());
        // The channel still carries real wait...
        assert_eq!(attr.channels().len(), 1);
        assert_eq!(attr.channels()[0].total_wait(), Time::from_us(3));
        // ...but the gain potential clamps to exactly zero (no wrap: a
        // wrapped subtraction would produce a huge non-zero Time here).
        for c in attr.channels() {
            assert_eq!(c.gain_potential, Time::ZERO);
        }
    }

    #[test]
    fn ranked_channels_order_is_deterministic() {
        // Two channels with different wait shares rank by gain potential.
        let trace = TraceSet::new(
            "two-chan",
            MipsRate::new(1000).unwrap(),
            vec![
                RankTrace::from_records(vec![
                    Record::Burst {
                        instr: Instr::new(1000),
                    },
                    Record::Send {
                        to: Rank::new(1),
                        bytes: 500_000,
                        tag: Tag::new(0),
                    },
                    Record::Send {
                        to: Rank::new(1),
                        bytes: 100,
                        tag: Tag::new(1),
                    },
                ]),
                RankTrace::from_records(vec![
                    Record::Recv {
                        from: Rank::new(0),
                        bytes: 500_000,
                        tag: Tag::new(0),
                    },
                    Record::Recv {
                        from: Rank::new(0),
                        bytes: 100,
                        tag: Tag::new(1),
                    },
                ]),
            ],
        );
        let attr = analyze(&trace, &platform_1us_1gb());
        let ranked = attr.ranked_channels();
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].gain_potential >= ranked[1].gain_potential);
        // The big transfer dominates the wait.
        assert_eq!(ranked[0].chan, 0);
    }

    #[test]
    fn json_and_csv_are_deterministic_and_structured() {
        let trace = pair_trace();
        let platform = platform_1us_1gb();
        let a = analyze(&trace, &platform);
        let b = analyze(&trace, &platform);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        let json = a.to_json();
        assert!(json.contains("\"trace\": \"pair\""));
        // Clean platforms keep the pre-fault-model schema exactly.
        assert!(!json.contains("link_down_ps"));
        assert!(!a.to_csv().contains("link_down_ps"));
        assert!(json.contains("\"makespan_ps\""));
        assert!(json.contains("\"critical_path\""));
        assert!(json.ends_with("}\n"));
        let csv = a.to_csv();
        assert_eq!(csv.lines().count(), 2, "header + one channel");
        assert!(csv.starts_with("chan,src,dst,"));
    }

    #[test]
    fn fault_injection_surfaces_link_down_and_stays_conserved() {
        use ovlsim_core::PerturbationModel;
        let trace = pair_trace();
        let period = Time::from_us(40);
        let down = Time::from_us(10);
        // Rank 0 posts its send at 1 us (after its burst); pick a seed
        // whose outage window covers that instant so the transfer is held.
        let send_at = Time::from_us(1);
        let model = (0..64)
            .map(|s| PerturbationModel::new(s).with_faults(period, down).unwrap())
            .find(|m| m.outage_end(0, 1, send_at).is_some())
            .expect("some seed puts the send inside an outage window");
        let platform = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .perturbation(model)
            .build();
        let attr = analyze(&trace, &platform);
        // The held transfer surfaces as link-down time on the blocked
        // receiver and rolls up to its channel.
        assert!(attr.ranks()[1].link_down > Time::ZERO);
        assert_eq!(attr.channels()[0].link_down, attr.ranks()[1].link_down);
        // Conservation still holds bit-exactly per rank.
        for b in attr.ranks() {
            assert_eq!(b.compute + b.send_overhead + b.wait(), b.total);
        }
        // Faulty platforms grow the extra report column.
        assert!(attr.to_json().contains("\"link_down_ps\""));
        assert!(attr.to_csv().contains("link_down_ps,"));
    }

    #[test]
    fn empty_trace_yields_empty_attribution() {
        let trace = TraceSet::new(
            "empty",
            MipsRate::new(1000).unwrap(),
            vec![RankTrace::new(), RankTrace::new()],
        );
        let attr = analyze(&trace, &platform_1us_1gb());
        assert_eq!(attr.makespan(), Time::ZERO);
        assert!(attr.critical_path().is_empty());
        assert_eq!(attr.critical_path_len(), Time::ZERO);
    }
}
