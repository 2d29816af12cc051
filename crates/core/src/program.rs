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
//!   touching a [`TraceIndex`](crate::TraceIndex).
//!
//! Lowering runs inside the record walker, one rank at a time, and is the
//! only way a trace is checked and its channels numbered.
//! [`CompiledTrace::build`] validates, interns channels and lowers a whole
//! trace: it is [`LoweredRank::lower`] over every rank, then
//! [`CompiledTrace::link_owned`]. A caller that synthesizes a trace rank
//! by rank (a campaign's overlapped variants) lowers each rank as it is
//! made and links the lowered ranks the same way, so the trace never
//! exists whole. A caller that changes a few ranks of a trace (the
//! auto-tuner's candidates) keeps the other ranks' lowerings, re-lowers
//! only the changed ones and links again with [`CompiledTrace::link`]: a
//! rank's lowering depends only on its own records, the trace's rank
//! count and its MIPS rate. A trace's [`TraceIndex`](crate::TraceIndex)
//! is read off its program
//! ([`TraceIndex::of`](crate::TraceIndex::of)).
//!
//! Markers stay instructions, so one program serves observed and
//! unobserved replays alike: an observer sees every burst and marker, and
//! an unobserved run steps over markers.

use std::borrow::Borrow;

use crate::ids::{Rank, Tag};
use crate::index::NO_CHANNEL;
use crate::instr::{Instr, MipsRate};
use crate::record::{Record, RecordKind, TraceSet};
use crate::validate::{join, Checks, Joined, TraceIssue};
use crate::walk::{walk_rank, Sink};

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
/// use ovlsim_core::{CompiledTrace, MipsRate, Rank, RankTrace, Record, Tag, TraceSet};
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
/// let prog = CompiledTrace::build(&ts).expect("valid trace");
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
    /// Validates `trace` and compiles it, one instruction per record:
    /// every rank is lowered on its own ([`LoweredRank::lower`]) and the
    /// ranks are linked ([`CompiledTrace::link`]). Replay results are
    /// bit-identical to the naive engine, and an observed replay keeps
    /// every burst and marker of the trace.
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
        let mut emitter = Emitter {
            mips,
            rank: RankProgram::default(),
        };
        let checks = walk_rank(rank, rank_count, records, &mut emitter);
        LoweredRank {
            rank,
            mips,
            program: emitter.rank,
            checks,
        }
    }
}

/// The [`Sink`] behind [`LoweredRank::lower`]: lowers one rank's walked
/// records into its program.
struct Emitter {
    mips: MipsRate,
    rank: RankProgram,
}

impl Sink for Emitter {
    // The columns are reserved here, after `walk_rank` has allocated the
    // rank's check tables: reserving them before those tables, in
    // `LoweredRank::lower`, measured serve's inline replays about 1.5x
    // slower at p99 on a 2-CPU host. The cause is not pinned down.
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
            if has_channel(*op) {
                *a = ids[*a as usize];
            }
        }
    }

    /// Each instruction's channel, [`NO_CHANNEL`] for one that is not
    /// point-to-point.
    pub(crate) fn channel_column(&self) -> Vec<u32> {
        self.ops
            .iter()
            .zip(&self.a)
            .map(|(op, &a)| if has_channel(*op) { a } else { NO_CHANNEL })
            .collect()
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

/// True for the opcodes whose `a` operand is a channel id.
fn has_channel(op: RecordKind) -> bool {
    matches!(
        op,
        RecordKind::Send | RecordKind::Recv | RecordKind::ISend | RecordKind::IRecv
    )
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
    use crate::ids::RequestId;
    use crate::index::TraceIndex;
    use crate::record::RankTrace;

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
        let prog = CompiledTrace::build(&ts).unwrap();
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
        assert_eq!(TraceIndex::of(&prog).rank_channels(0), &[NO_CHANNEL; 5]);
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
        let prog = CompiledTrace::build(&ts).unwrap();
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
        let prog = CompiledTrace::build(&ts).unwrap();
        assert_eq!(
            prog.channels(),
            &[ChannelEndpoints {
                src: Rank::new(0),
                dst: Rank::new(1),
                tag: Tag::new(42),
            }]
        );
    }
}
