//! The record walker: the pass over a [`TraceSet`] behind validation,
//! channel indexing and replay-program lowering.
//!
//! [`walk_rank`] visits one rank's records in order and tracks the rank's
//! requests in flight in one map from request id to the dense slot the
//! replay program gives it; [`walk`] runs it over every rank in turn. Two
//! policies plug into it:
//!
//! * a [`Resolve`]r says how a point-to-point record finds its channel and
//!   what a request error means. `Checks` (in `validate`) validates as it
//!   goes and interns channels; `Indexed` (in `program`) reads channels
//!   from a prebuilt [`TraceIndex`](crate::TraceIndex), checks nothing, and
//!   stops at the first wait on a request that is not in flight;
//! * a [`Sink`] keeps what the caller wants: `()` keeps nothing
//!   ([`validate_trace_set`](crate::validate_trace_set)), `Columns` (in
//!   `index`) keeps each record's channel id
//!   ([`TraceIndex::build`](crate::TraceIndex::build)), and `Emitter` (in
//!   `program`) lowers records into a
//!   [`RankProgram`](crate::RankProgram).
//!
//! A whole-trace walk with one `Checks` numbers channels across the trace;
//! a one-rank walk with its own `Checks` numbers them in that rank's
//! first-appearance order, which is how
//! [`LoweredRank::lower`](crate::LoweredRank::lower) lowers a rank on its
//! own for [`CompiledTrace::link`](crate::CompiledTrace::link).

use std::collections::HashMap;

use crate::ids::{Rank, RequestId, Tag};
use crate::index::NO_CHANNEL;
use crate::instr::Instr;
use crate::record::{Record, RecordKind, TraceSet};

/// Where a record sits: its rank and its position in that rank's stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At {
    pub(crate) rank: Rank,
    pub(crate) record: usize,
}

/// How the walker resolves what a record refers to.
pub(crate) trait Resolve {
    /// Why a walk stops early.
    type Error;

    /// Called before the records of `rank`.
    fn begin_rank(&mut self, _rank: usize) {}

    /// The channel of a send (blocking or not) from `at.rank` to `to`.
    fn send(&mut self, at: At, to: Rank, tag: Tag, bytes: u64) -> u32;

    /// The channel of a receive (blocking or not) by `at.rank` from
    /// `from`.
    fn recv(&mut self, at: At, from: Rank, tag: Tag, bytes: u64) -> u32;

    /// A collective record; `root` is set for bcast and reduce.
    fn collective(&mut self, _at: At, _rec: &Record, _root: Option<Rank>) {}

    /// `req` was posted while already in flight.
    fn duplicate(&mut self, _at: At, _req: RequestId) {}

    /// A wait on `req`, which is not in flight.
    fn unknown(&mut self, at: At, req: RequestId) -> Result<(), Self::Error>;

    /// `req` was still in flight when its rank's stream ended.
    fn leaked(&mut self, _rank: Rank, _req: RequestId) {}
}

/// What the walker hands on, record by record. Every method defaults to
/// doing nothing, so `()` is the sink that keeps nothing.
pub(crate) trait Sink {
    /// Called before a rank's `len` records.
    fn begin_rank(&mut self, _len: usize) {}

    /// A computation burst.
    fn burst(&mut self, _instr: Instr) {}

    /// Any other record, lowered to one instruction (the operand columns
    /// are those of [`RankProgram`](crate::RankProgram)).
    fn op(&mut self, _kind: RecordKind, _a: u32, _b: u32, _payload: u64) {}

    /// One slot of a wait-all, before its instruction.
    fn wait_slot(&mut self, _slot: u32) {}

    /// The record's channel, or [`NO_CHANNEL`] if it is not
    /// point-to-point. Called after each record.
    fn channel(&mut self, _channel: u32) {}

    /// Called after a rank's records with the number of request slots it
    /// used.
    fn end_rank(&mut self, _slot_count: u32) {}
}

impl Sink for () {}

/// One rank's requests in flight: the slot each one holds, plus a free
/// list so a slot is reused as soon as its wait retires it. A whole-trace
/// walk reuses one table for every rank.
#[derive(Debug, Default)]
pub(crate) struct Slots {
    /// Request id → slot. The default (SipHash) hasher stays: request ids
    /// come from untrusted traces (`.dim` files, inline serve bodies).
    live: HashMap<u32, u32>,
    free: Vec<u32>,
    next: u32,
}

impl Slots {
    /// Posts `req` on a free slot. The flag is false if `req` was already
    /// in flight; its old slot is then never reused.
    fn post(&mut self, req: u32) -> (u32, bool) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        });
        (slot, self.live.insert(req, slot).is_none())
    }

    /// Retires `req`, freeing its slot; `None` if it is not in flight.
    fn retire(&mut self, req: u32) -> Option<u32> {
        let slot = self.live.remove(&req)?;
        self.free.push(slot);
        Some(slot)
    }

    /// Ends a rank: the slots it used and the requests it left in flight,
    /// in id order. Leaves the table empty for the next rank.
    fn finish(&mut self) -> (u32, Vec<u32>) {
        let mut leaked: Vec<u32> = self.live.drain().map(|(req, _)| req).collect();
        leaked.sort_unstable();
        self.free.clear();
        (std::mem::take(&mut self.next), leaked)
    }
}

/// Walks every record of `ts` once, rank by rank and in record order.
///
/// # Errors
///
/// Stops at the first error `resolve` raises.
pub(crate) fn walk<R: Resolve, S: Sink>(
    ts: &TraceSet,
    resolve: &mut R,
    sink: &mut S,
) -> Result<(), R::Error> {
    let mut slots = Slots::default();
    for (r, trace) in ts.ranks().iter().enumerate() {
        walk_rank(
            Rank::new(r as u32),
            trace.records(),
            &mut slots,
            resolve,
            sink,
        )?;
    }
    Ok(())
}

/// Walks the records of `rank` in order. `slots` must be empty; it is left
/// empty.
///
/// # Errors
///
/// Stops at the first error `resolve` raises.
pub(crate) fn walk_rank<R: Resolve, S: Sink>(
    rank: Rank,
    records: &[Record],
    slots: &mut Slots,
    resolve: &mut R,
    sink: &mut S,
) -> Result<(), R::Error> {
    resolve.begin_rank(rank.index());
    sink.begin_rank(records.len());
    for (record, rec) in records.iter().enumerate() {
        let at = At { rank, record };
        let mut channel = NO_CHANNEL;
        match rec {
            Record::Burst { instr } => sink.burst(*instr),
            Record::Marker { code } => sink.op(RecordKind::Marker, *code, 0, 0),
            Record::Send { to, bytes, tag } => {
                channel = resolve.send(at, *to, *tag, *bytes);
                sink.op(RecordKind::Send, channel, 0, *bytes);
            }
            Record::ISend {
                to,
                bytes,
                tag,
                req,
            } => {
                channel = resolve.send(at, *to, *tag, *bytes);
                let slot = post(slots, resolve, at, *req);
                sink.op(RecordKind::ISend, channel, slot, *bytes);
            }
            Record::Recv { from, bytes, tag } => {
                channel = resolve.recv(at, *from, *tag, *bytes);
                sink.op(RecordKind::Recv, channel, 0, *bytes);
            }
            Record::IRecv {
                from,
                bytes,
                tag,
                req,
            } => {
                channel = resolve.recv(at, *from, *tag, *bytes);
                let slot = post(slots, resolve, at, *req);
                sink.op(RecordKind::IRecv, channel, slot, 0);
            }
            Record::Wait { req } => {
                let slot = retire(slots, resolve, at, *req)?;
                sink.op(RecordKind::Wait, slot, 0, 0);
            }
            Record::WaitAll { reqs } => {
                for req in reqs {
                    let slot = retire(slots, resolve, at, *req)?;
                    sink.wait_slot(slot);
                }
                sink.op(RecordKind::WaitAll, reqs.len() as u32, 0, 0);
            }
            Record::Barrier
            | Record::AllReduce { .. }
            | Record::Bcast { .. }
            | Record::Reduce { .. }
            | Record::AllToAll { .. }
            | Record::AllGather { .. } => {
                let root = match rec {
                    Record::Bcast { root, .. } | Record::Reduce { root, .. } => Some(*root),
                    _ => None,
                };
                resolve.collective(at, rec, root);
                sink.op(rec.kind(), 0, 0, rec.bytes());
            }
        }
        sink.channel(channel);
    }
    let (slot_count, leaked) = slots.finish();
    for req in leaked {
        resolve.leaked(rank, RequestId::new(req));
    }
    sink.end_rank(slot_count);
    Ok(())
}

/// Posts `req`, reporting a post of a request already in flight.
fn post<R: Resolve>(slots: &mut Slots, resolve: &mut R, at: At, req: RequestId) -> u32 {
    let (slot, fresh) = slots.post(req.get());
    if !fresh {
        resolve.duplicate(at, req);
    }
    slot
}

/// Retires `req`, reporting a wait on a request that is not in flight.
/// Such a wait gets slot 0: the walk's result is discarded either way.
fn retire<R: Resolve>(
    slots: &mut Slots,
    resolve: &mut R,
    at: At,
    req: RequestId,
) -> Result<u32, R::Error> {
    match slots.retire(req.get()) {
        Some(slot) => Ok(slot),
        None => resolve.unknown(at, req).map(|()| 0),
    }
}
