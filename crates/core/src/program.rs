//! Trace compilation: lowering a validated [`TraceSet`] into a flat
//! struct-of-arrays replay program.
//!
//! The paper's methodology replays one trace at hundreds of platform
//! points. Everything about the *trace* is invariant across that sweep,
//! yet a replay over the record stream walks heap-allocated
//! [`Record`](crate::Record) enums, resolves request ids through a runtime
//! table, and converts burst instruction counts to time on every point.
//! [`CompiledTrace`] pays those costs **once per trace**:
//!
//! * records are lowered to dense parallel columns — a one-byte opcode
//!   ([`RecordKind`]), two `u32` operands and one `u64` payload per
//!   instruction — with no enum tags and no per-record allocation; every
//!   record becomes exactly one instruction,
//! * a [`Record::Burst`](crate::Record::Burst)'s duration is converted
//!   through the trace's [`MipsRate`] at compile time and carried in
//!   picoseconds in the payload column,
//! * `ISend`/`IRecv`/`Wait*` request ids are **pre-resolved** into dense
//!   per-rank slot indices (a compile-time free-list reuses slots exactly
//!   as the runtime would), so the hot loop indexes a flat array instead
//!   of scanning an association table,
//! * per-channel `(source, destination, tag)` endpoints ride along, so an
//!   engine derives intra-/inter-node routing once per run without
//!   touching a [`TraceIndex`].
//!
//! Lowering runs inside the record walker, so there are three ways in.
//! [`CompiledTrace::build`] validates, interns channels and lowers a whole
//! trace: the path for a caller that needs only the program (single
//! replays, sweeps). It is [`LoweredRank::lower`] over every rank, then
//! [`CompiledTrace::link_owned`]. A caller that synthesizes a trace rank
//! by rank (a campaign's overlapped variants) lowers each rank as it is
//! made and links the lowered ranks the same way, so the trace never
//! exists whole. A caller that changes a few ranks of a trace (the
//! auto-tuner's candidates) keeps the other ranks' lowerings, re-lowers
//! only the changed ones and links again with [`CompiledTrace::link`]: a
//! rank's lowering depends only on its own records, the trace's rank
//! count and its MIPS rate. [`CompiledTrace::compile`] lowers with
//! the channels of an index the caller already holds, checking nothing;
//! the session caches that index and attribution reads it back.
//!
//! Markers stay instructions, so one program serves observed and
//! unobserved replays alike: an observer sees every burst and marker, and
//! an unobserved run steps over markers.

use std::borrow::Borrow;

use crate::ids::{Rank, RequestId, Tag};
use crate::index::{TraceIndex, NO_CHANNEL};
use crate::instr::{Instr, MipsRate};
use crate::record::{Record, RecordKind, TraceSet};
use crate::validate::{join, Checks, Joined, TraceIssue};
use crate::walk::{walk, walk_rank, At, Resolve, Sink, Slots};

/// Why a trace could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// The [`TraceIndex`] disagrees with the trace (detected best-effort
    /// via trace name and rank/record counts, see
    /// [`TraceIndex::mismatch_reason`]).
    IndexMismatch {
        /// What disagreed between the index and the trace.
        reason: String,
    },
    /// A wait referenced a request with no matching outstanding post —
    /// the trace was not validated (or the index belongs to another
    /// trace that passed the best-effort checks).
    InvalidWait {
        /// Rank whose stream contains the wait.
        rank: Rank,
        /// Index of the offending record.
        record: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::IndexMismatch { reason } => {
                write!(f, "trace index built from a different trace: {reason}")
            }
            CompileError::InvalidWait { rank, record } => {
                write!(f, "record {record} of {rank} waits on an unposted request")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The `(source, destination, tag)` identity of one interned channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelEndpoints {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
}

/// The compiled instruction stream of one rank: parallel columns plus the
/// side arena `WaitAll` instructions index into.
///
/// Column meaning by opcode (unused columns hold zero):
///
/// | opcode       | `a`                    | `b`    | `payload`      |
/// |--------------|------------------------|--------|----------------|
/// | `Burst`      | —                      | —      | duration (ps)  |
/// | `Send`/`Recv`| channel id             | —      | bytes          |
/// | `ISend`      | channel id             | slot   | bytes          |
/// | `IRecv`      | channel id             | slot   | —              |
/// | `Wait`       | slot                   | —      | —              |
/// | `WaitAll`    | slot count             | —      | —              |
/// | collectives  | —                      | —      | bytes          |
/// | `Marker`     | event code             | —      | —              |
///
/// A burst's duration is already converted through the trace's
/// [`MipsRate`] but is *clean*: no platform `cpu_ratio` and no
/// [`PerturbationModel`](crate::PerturbationModel) effect is baked in.
/// Both are applied at replay time, so one compiled program can be shared
/// across every sweep point and every perturbation scenario.
///
/// `WaitAll` consumes `a` consecutive entries of
/// [`RankProgram::wait_slots`]. The arena is laid out in program order,
/// so an executor only needs one monotone cursor into it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankProgram {
    ops: Vec<RecordKind>,
    a: Vec<u32>,
    b: Vec<u32>,
    payload: Vec<u64>,
    wait_slots: Vec<u32>,
    slot_count: u32,
}

impl RankProgram {
    /// The opcode column (one entry per instruction).
    pub fn ops(&self) -> &[RecordKind] {
        &self.ops
    }

    /// The first `u32` operand column, parallel to [`RankProgram::ops`].
    pub fn a(&self) -> &[u32] {
        &self.a
    }

    /// The second `u32` operand column, parallel to [`RankProgram::ops`].
    pub fn b(&self) -> &[u32] {
        &self.b
    }

    /// The `u64` payload column, parallel to [`RankProgram::ops`].
    pub fn payload(&self) -> &[u64] {
        &self.payload
    }

    /// Concatenated `WaitAll` slot lists, in program order.
    pub fn wait_slots(&self) -> &[u32] {
        &self.wait_slots
    }

    /// Number of request slots this rank's stream uses — the size of the
    /// flat request-state table an executor allocates per run. Slots are
    /// reused after their wait, so this is the rank's peak number of
    /// simultaneously outstanding requests, not its total post count.
    pub fn slot_count(&self) -> u32 {
        self.slot_count
    }

    /// Number of instructions in the stream.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A [`TraceSet`] lowered to flat per-rank instruction streams, ready for
/// `Simulator::run_compiled` in `ovlsim-dimemas`.
///
/// The program is self-contained: it carries the trace name, MIPS rate and
/// channel endpoints, so a sweep holds one `CompiledTrace` and shares it
/// (`&CompiledTrace` is `Sync`) across every platform point without
/// touching the `TraceSet` or `TraceIndex` again.
///
/// # Example
///
/// ```
/// use ovlsim_core::{CompiledTrace, MipsRate, Rank, RankTrace, Record, Tag, TraceIndex, TraceSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
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
/// let prog = CompiledTrace::compile(&ts, &index)?;
/// assert_eq!(prog.rank_count(), 2);
/// assert_eq!(prog.channels().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrace {
    name: String,
    mips: MipsRate,
    channels: Vec<ChannelEndpoints>,
    ranks: Vec<RankProgram>,
}

impl CompiledTrace {
    /// Validates `trace` and compiles it: every rank is lowered on its own
    /// ([`LoweredRank::lower`]) and the ranks are linked
    /// ([`CompiledTrace::link`]). The program equals
    /// [`CompiledTrace::compile`] with the trace's own [`TraceIndex`],
    /// without building that index.
    ///
    /// # Errors
    ///
    /// Returns every [`TraceIssue`] found, exactly as
    /// [`validate_trace_set`](crate::validate_trace_set) lists them, if
    /// the trace set is structurally invalid.
    pub fn build(trace: &TraceSet) -> Result<Self, Vec<TraceIssue>> {
        let rank_count = trace.rank_count();
        let ranks: Vec<LoweredRank> = trace
            .ranks()
            .iter()
            .enumerate()
            .map(|(r, rank)| {
                LoweredRank::lower(
                    Rank::new(r as u32),
                    rank_count,
                    trace.mips(),
                    rank.records(),
                )
            })
            .collect();
        Self::link_owned(trace.name(), trace.mips(), ranks)
    }

    /// Links ranks lowered one by one, given in rank order, into the
    /// program named `name`. The result equals [`CompiledTrace::build`] of
    /// the trace whose ranks they are: channels are numbered in the same
    /// first-appearance order (ranks in order, each rank's records in
    /// order), and an invalid trace reports the same issues in the same
    /// order.
    ///
    /// Each rank's program is copied with its channel operands renumbered;
    /// the lowered ranks are left as they are, so they can be linked
    /// again beside other ranks.
    ///
    /// # Errors
    ///
    /// Returns every [`TraceIssue`] of the linked trace, as
    /// [`validate_trace_set`](crate::validate_trace_set) lists them: each
    /// rank's own issues rank by rank, then the channel issues by
    /// `(from, to, tag)`, then the collective ones.
    ///
    /// # Panics
    ///
    /// Panics if `ranks[r]` was not lowered as rank `r` of a trace of
    /// `ranks.len()` ranks at `mips`.
    pub fn link<R: Borrow<LoweredRank>>(
        name: &str,
        mips: MipsRate,
        ranks: &[R],
    ) -> Result<Self, Vec<TraceIssue>> {
        let joined = join_lowered(mips, ranks)?;
        Ok(assemble(
            name,
            mips,
            joined,
            ranks.iter().map(|lowered| lowered.borrow().program.clone()),
        ))
    }

    /// [`CompiledTrace::link`] of ranks the caller gives up: each rank's
    /// program is moved into the result instead of copied.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledTrace::link`].
    ///
    /// # Panics
    ///
    /// Same as [`CompiledTrace::link`].
    pub fn link_owned(
        name: &str,
        mips: MipsRate,
        ranks: Vec<LoweredRank>,
    ) -> Result<Self, Vec<TraceIssue>> {
        let joined = join_lowered(mips, &ranks)?;
        Ok(assemble(
            name,
            mips,
            joined,
            ranks.into_iter().map(|lowered| lowered.program),
        ))
    }

    /// Compiles `trace`, one instruction per record. Replay results are
    /// bit-identical to the naive engine, and an observed replay keeps
    /// every burst and marker of the trace.
    ///
    /// `index` supplies the channels and nothing is validated; a caller
    /// without an index uses [`CompiledTrace::build`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::IndexMismatch`] if `index` does not match
    /// `trace` (best-effort detection: trace name plus rank/record counts)
    /// and [`CompileError::InvalidWait`] if a
    /// wait references an unposted request (impossible for a validated
    /// trace with its own index).
    pub fn compile(trace: &TraceSet, index: &TraceIndex) -> Result<Self, CompileError> {
        if let Some(reason) = index.mismatch_reason(trace) {
            return Err(CompileError::IndexMismatch { reason });
        }
        let mut indexed = Indexed::new(index);
        let mut emitter = Emitter::new(trace.mips());
        walk(trace, &mut indexed, &mut emitter)?;
        Ok(emitter.finish(trace, indexed.channels))
    }

    /// Name of the trace this program was compiled from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The MIPS rate of the source trace (`Burst` payloads are already
    /// converted through it).
    pub fn mips(&self) -> MipsRate {
        self.mips
    }

    /// The `(source, destination, tag)` identity of every interned
    /// channel, indexed by dense channel id. Replay engines map the
    /// endpoints through the platform's node assignment **once** per run
    /// to get the intra-/inter-node routing table.
    pub fn channels(&self) -> &[ChannelEndpoints] {
        &self.channels
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// The compiled instruction stream of one rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn rank(&self, rank: usize) -> &RankProgram {
        &self.ranks[rank]
    }
}

/// Joins lowered ranks: the trace's channels and each rank's channel
/// renumbering, or every issue.
fn join_lowered<R: Borrow<LoweredRank>>(
    mips: MipsRate,
    ranks: &[R],
) -> Result<Joined, Vec<TraceIssue>> {
    let walks: Vec<&Checks> = ranks
        .iter()
        .enumerate()
        .map(|(r, lowered)| {
            let lowered = lowered.borrow();
            assert!(
                lowered.rank.index() == r && lowered.mips == mips,
                "rank {r} was lowered as {} at {}",
                lowered.rank,
                lowered.mips
            );
            &lowered.checks
        })
        .collect();
    join(&walks)
}

/// The program of joined ranks: each rank's program with its channels
/// renumbered across the trace.
fn assemble(
    name: &str,
    mips: MipsRate,
    Joined { channels, ids }: Joined,
    programs: impl Iterator<Item = RankProgram>,
) -> CompiledTrace {
    CompiledTrace {
        name: name.to_string(),
        mips,
        channels,
        ranks: programs
            .zip(&ids)
            .map(|(mut program, ids)| {
                program.relabel(ids);
                program
            })
            .collect(),
    }
}

/// One rank of a trace lowered on its own, ready for
/// [`CompiledTrace::link`].
///
/// It holds the rank's program, with channel operands numbered in the
/// rank's own first-appearance order, and what linking needs to number
/// them across the trace and to check the rank against the others: the
/// rank's channels with a table from channel to that number, its send and
/// receive sizes, its collective sequence, and its rank-local issues
/// (ranks out of range; duplicate, unknown and leaked requests) in walk
/// order.
#[derive(Debug)]
pub struct LoweredRank {
    rank: Rank,
    mips: MipsRate,
    program: RankProgram,
    checks: Checks,
}

impl LoweredRank {
    /// Lowers `records` as rank `rank` of a trace of `rank_count` ranks
    /// whose bursts run at `mips`. Nothing here fails: an issue is kept
    /// and reported when the rank is linked.
    pub fn lower(rank: Rank, rank_count: usize, mips: MipsRate, records: &[Record]) -> Self {
        let (sends, recvs) = records.iter().fold((0, 0), |(s, r), rec| match rec {
            Record::Send { .. } | Record::ISend { .. } => (s + 1, r),
            Record::Recv { .. } | Record::IRecv { .. } => (s, r + 1),
            _ => (s, r),
        });
        let mut checks = Checks::with_capacity(rank_count, sends, recvs);
        let mut emitter = Emitter::new(mips);
        let Ok(()) = walk_rank(
            rank,
            records,
            &mut Slots::default(),
            &mut checks,
            &mut emitter,
        );
        LoweredRank {
            rank,
            mips,
            program: emitter.ranks.pop().expect("the walk ends the rank"),
            checks,
        }
    }
}

/// The [`Sink`] that lowers walked records into per-rank programs, shared
/// by [`LoweredRank::lower`] and [`CompiledTrace::compile`].
struct Emitter {
    mips: MipsRate,
    rank: RankProgram,
    ranks: Vec<RankProgram>,
}

impl Emitter {
    fn new(mips: MipsRate) -> Self {
        Emitter {
            mips,
            rank: RankProgram::default(),
            ranks: Vec::new(),
        }
    }

    fn finish(self, trace: &TraceSet, channels: Vec<ChannelEndpoints>) -> CompiledTrace {
        CompiledTrace {
            name: trace.name().to_string(),
            mips: self.mips,
            channels,
            ranks: self.ranks,
        }
    }
}

impl Sink for Emitter {
    fn begin_rank(&mut self, len: usize) {
        self.rank.ops.reserve_exact(len);
        self.rank.a.reserve_exact(len);
        self.rank.b.reserve_exact(len);
        self.rank.payload.reserve_exact(len);
    }

    fn burst(&mut self, instr: Instr) {
        let ps = self.mips.instr_to_time(instr).as_ps();
        self.rank.push(RecordKind::Burst, 0, 0, ps);
    }

    fn op(&mut self, kind: RecordKind, a: u32, b: u32, payload: u64) {
        self.rank.push(kind, a, b, payload);
    }

    fn wait_slot(&mut self, slot: u32) {
        self.rank.wait_slots.push(slot);
    }

    fn end_rank(&mut self, slot_count: u32) {
        self.rank.slot_count = slot_count;
        self.ranks.push(std::mem::take(&mut self.rank));
    }
}

/// The [`Resolve`]r behind [`CompiledTrace::compile`]: channels come from
/// a prebuilt [`TraceIndex`], nothing is checked, and a wait on a request
/// that is not in flight stops the walk.
struct Indexed<'i> {
    index: &'i TraceIndex,
    column: &'i [u32],
    /// Endpoints from the index; each tag is filled in from the first
    /// record on its channel (every interned channel has one).
    channels: Vec<ChannelEndpoints>,
    tag_known: Vec<bool>,
}

impl<'i> Indexed<'i> {
    fn new(index: &'i TraceIndex) -> Self {
        Indexed {
            index,
            column: &[],
            channels: index
                .channel_peers()
                .iter()
                .map(|&(src, dst)| ChannelEndpoints {
                    src: Rank::new(src),
                    dst: Rank::new(dst),
                    tag: Tag::new(0),
                })
                .collect(),
            tag_known: vec![false; index.channel_count()],
        }
    }

    fn channel(&mut self, at: At, tag: Tag) -> u32 {
        let ch = self.column[at.record];
        debug_assert_ne!(ch, NO_CHANNEL, "p2p records are interned");
        if !self.tag_known[ch as usize] {
            self.channels[ch as usize].tag = tag;
            self.tag_known[ch as usize] = true;
        }
        ch
    }
}

impl Resolve for Indexed<'_> {
    type Error = CompileError;

    fn begin_rank(&mut self, rank: usize) {
        self.column = self.index.rank_channels(rank);
    }

    fn send(&mut self, at: At, _to: Rank, tag: Tag, _bytes: u64) -> u32 {
        self.channel(at, tag)
    }

    fn recv(&mut self, at: At, _from: Rank, tag: Tag, _bytes: u64) -> u32 {
        self.channel(at, tag)
    }

    fn unknown(&mut self, at: At, _req: RequestId) -> Result<(), CompileError> {
        Err(CompileError::InvalidWait {
            rank: at.rank,
            record: at.record,
        })
    }
}

impl RankProgram {
    fn push(&mut self, op: RecordKind, a: u32, b: u32, payload: u64) {
        self.ops.push(op);
        self.a.push(a);
        self.b.push(b);
        self.payload.push(payload);
    }

    /// Renumbers the channel operands: channel `c` becomes `ids[c]`.
    fn relabel(&mut self, ids: &[u32]) {
        for (op, a) in self.ops.iter().zip(&mut self.a) {
            if matches!(
                op,
                RecordKind::Send | RecordKind::Recv | RecordKind::ISend | RecordKind::IRecv
            ) {
                *a = ids[*a as usize];
            }
        }
    }

    /// Reassembles a rank program from decoded columns (`core::codec`
    /// only). The caller must run [`RankProgram::check_consistency`]
    /// before handing the result to a replay engine.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_columns(
        ops: Vec<RecordKind>,
        a: Vec<u32>,
        b: Vec<u32>,
        payload: Vec<u64>,
        wait_slots: Vec<u32>,
        slot_count: u32,
    ) -> Self {
        RankProgram {
            ops,
            a,
            b,
            payload,
            wait_slots,
            slot_count,
        }
    }

    /// Checks the structural invariants lowering guarantees by
    /// construction, for programs that arrived from outside (decoded
    /// from bytes): the `WaitAll` arena's size matches the instructions
    /// that consume it, request slots stay below `slot_count`, and channel ids
    /// stay below `channel_count`. Violations would send an executor's
    /// cursors or tables out of bounds.
    pub(crate) fn check_consistency(&self, channel_count: usize) -> Result<(), String> {
        let len = self.ops.len();
        if self.a.len() != len || self.b.len() != len || self.payload.len() != len {
            return Err("instruction columns have mismatched lengths".to_string());
        }
        let mut waits: u64 = 0;
        for (i, &op) in self.ops.iter().enumerate() {
            let a = self.a[i];
            let b = self.b[i];
            match op {
                RecordKind::WaitAll => waits += u64::from(a),
                RecordKind::Wait if a >= self.slot_count => {
                    return Err(format!(
                        "wait references slot {a} but only {} slot(s) exist",
                        self.slot_count
                    ));
                }
                RecordKind::ISend | RecordKind::IRecv => {
                    if b >= self.slot_count {
                        return Err(format!(
                            "post references slot {b} but only {} slot(s) exist",
                            self.slot_count
                        ));
                    }
                    if a as usize >= channel_count {
                        return Err(format!(
                            "instruction references channel {a} of {channel_count}"
                        ));
                    }
                }
                RecordKind::Send | RecordKind::Recv if a as usize >= channel_count => {
                    return Err(format!(
                        "instruction references channel {a} of {channel_count}"
                    ));
                }
                _ => {}
            }
        }
        if waits != self.wait_slots.len() as u64 {
            return Err(format!(
                "waitall instructions consume {waits} slot(s) but the arena holds {}",
                self.wait_slots.len()
            ));
        }
        if self.wait_slots.iter().any(|&s| s >= self.slot_count) {
            return Err(format!(
                "waitall arena references a slot beyond the {} slot(s)",
                self.slot_count
            ));
        }
        Ok(())
    }
}

impl CompiledTrace {
    /// Reassembles a compiled trace from decoded parts (`core::codec`
    /// only).
    pub(crate) fn from_parts(
        name: String,
        mips: MipsRate,
        channels: Vec<ChannelEndpoints>,
        ranks: Vec<RankProgram>,
    ) -> Self {
        CompiledTrace {
            name,
            mips,
            channels,
            ranks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RankTrace, Record};

    fn mips() -> MipsRate {
        MipsRate::new(1000).unwrap()
    }

    fn burst(instr: u64) -> Record {
        Record::Burst {
            instr: Instr::new(instr),
        }
    }

    #[test]
    fn observed_compile_keeps_every_record() {
        // Adjacent bursts and the markers between them each stay one
        // instruction; a burst's payload is its duration in picoseconds.
        let ts = TraceSet::new(
            "t",
            mips(),
            vec![RankTrace::from_records(vec![
                burst(1000),
                Record::Marker { code: 7 },
                burst(2000),
                burst(3000),
                Record::Marker { code: 9 },
            ])],
        );
        let index = TraceIndex::build(&ts).unwrap();
        let prog = CompiledTrace::compile(&ts, &index).unwrap();
        let rp = prog.rank(0);
        assert_eq!(
            rp.ops(),
            &[
                RecordKind::Burst,
                RecordKind::Marker,
                RecordKind::Burst,
                RecordKind::Burst,
                RecordKind::Marker
            ]
        );
        assert_eq!(rp.a(), &[0, 7, 0, 0, 9]);
        // 1000 instr at 1000 MIPS = 1 us = 1_000_000 ps.
        assert_eq!(rp.payload(), &[1_000_000, 0, 2_000_000, 3_000_000, 0]);
        assert_eq!(CompiledTrace::build(&ts).unwrap(), prog);
    }

    #[test]
    fn request_slots_are_reused_after_waits() {
        // Two sequential post/wait pairs with *different* request ids must
        // share one slot; an overlapping post needs a second slot.
        let ts = TraceSet::new(
            "t",
            mips(),
            vec![
                RankTrace::from_records(vec![
                    Record::IRecv {
                        from: Rank::new(1),
                        bytes: 8,
                        tag: Tag::new(0),
                        req: RequestId::new(10),
                    },
                    Record::Wait {
                        req: RequestId::new(10),
                    },
                    Record::IRecv {
                        from: Rank::new(1),
                        bytes: 8,
                        tag: Tag::new(1),
                        req: RequestId::new(20),
                    },
                    Record::IRecv {
                        from: Rank::new(1),
                        bytes: 8,
                        tag: Tag::new(2),
                        req: RequestId::new(30),
                    },
                    Record::WaitAll {
                        reqs: vec![RequestId::new(30), RequestId::new(20)],
                    },
                ]),
                RankTrace::from_records(vec![
                    Record::Send {
                        to: Rank::new(0),
                        bytes: 8,
                        tag: Tag::new(0),
                    },
                    Record::Send {
                        to: Rank::new(0),
                        bytes: 8,
                        tag: Tag::new(1),
                    },
                    Record::Send {
                        to: Rank::new(0),
                        bytes: 8,
                        tag: Tag::new(2),
                    },
                ]),
            ],
        );
        let index = TraceIndex::build(&ts).unwrap();
        let prog = CompiledTrace::compile(&ts, &index).unwrap();
        let rp = prog.rank(0);
        assert_eq!(rp.slot_count(), 2);
        // First IRecv takes slot 0; the wait frees it; the next post
        // reuses slot 0 and the overlapping one takes slot 1.
        assert_eq!(rp.b()[0], 0);
        assert_eq!(rp.a()[1], 0); // Wait on slot 0
        assert_eq!(rp.b()[2], 0);
        assert_eq!(rp.b()[3], 1);
        // WaitAll lists slots in record order: req 30 (slot 1), req 20
        // (slot 0).
        assert_eq!(rp.wait_slots(), &[1, 0]);
        assert_eq!(rp.a()[4], 2);
    }

    #[test]
    fn channel_tags_are_recorded() {
        let ts = TraceSet::new(
            "t",
            mips(),
            vec![
                RankTrace::from_records(vec![Record::Send {
                    to: Rank::new(1),
                    bytes: 8,
                    tag: Tag::new(42),
                }]),
                RankTrace::from_records(vec![Record::Recv {
                    from: Rank::new(0),
                    bytes: 8,
                    tag: Tag::new(42),
                }]),
            ],
        );
        let index = TraceIndex::build(&ts).unwrap();
        let prog = CompiledTrace::compile(&ts, &index).unwrap();
        assert_eq!(
            prog.channels(),
            &[ChannelEndpoints {
                src: Rank::new(0),
                dst: Rank::new(1),
                tag: Tag::new(42),
            }]
        );
    }

    #[test]
    fn mismatched_index_is_rejected() {
        let burst = || {
            RankTrace::from_records(vec![Record::Burst {
                instr: Instr::new(10),
            }])
        };
        let ts = TraceSet::new("a", mips(), vec![burst()]);
        // Each index disagrees with `ts` in one respect: the trace name,
        // the rank count, or one rank's record count.
        let cases = [
            ("name mismatch", TraceSet::new("b", mips(), vec![burst()])),
            (
                "rank count mismatch",
                TraceSet::new("a", mips(), vec![burst(), burst()]),
            ),
            (
                "rank 0 record count mismatch",
                TraceSet::new("a", mips(), vec![RankTrace::new()]),
            ),
        ];
        for (expected, other) in cases {
            let index = TraceIndex::build(&other).unwrap();
            match CompiledTrace::compile(&ts, &index) {
                Err(CompileError::IndexMismatch { reason }) => {
                    assert!(reason.contains(expected), "got: {reason}");
                }
                other => panic!("expected IndexMismatch, got {other:?}"),
            }
        }
    }
}
