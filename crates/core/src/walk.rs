//! The record walker: the one pass over a rank's records behind
//! validation and replay-program lowering.
//!
//! [`walk_rank`] visits one rank's records in order. It runs the
//! rank-local checks and numbers the rank's channels in their
//! first-appearance order (`Checks`, in `validate`), tracks the rank's
//! requests in flight in one map from request id to the dense slot the
//! replay program gives it, and hands each record to a [`Sink`]: `()`
//! keeps nothing ([`validate_trace_set`](crate::validate_trace_set)), and
//! `Emitter` (in `program`) lowers the records into a
//! [`RankProgram`](crate::RankProgram)
//! ([`LoweredRank::lower`](crate::LoweredRank::lower)). Every rank of a
//! trace is walked on its own; `join` (in `validate`) then numbers the
//! channels across the trace and runs the cross-rank checks.

use std::collections::HashMap;

use crate::ids::{Rank, RequestId};
use crate::instr::Instr;
use crate::record::{Record, RecordKind};
use crate::validate::Checks;

/// Where a record sits: its rank and its position in that rank's stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct At {
    pub(crate) rank: Rank,
    pub(crate) record: usize,
}

/// What the walker hands on, record by record. Every method defaults to
/// doing nothing, so `()` is the sink that keeps nothing.
pub(crate) trait Sink {
    /// Called before the rank's `len` records.
    fn begin_rank(&mut self, _len: usize) {}

    /// A computation burst.
    fn burst(&mut self, _instr: Instr) {}

    /// Any other record, lowered to one instruction (the operand columns
    /// are those of [`RankProgram`](crate::RankProgram)).
    fn op(&mut self, _kind: RecordKind, _a: u32, _b: u32, _payload: u64) {}

    /// One slot of a wait-all, before its instruction.
    fn wait_slot(&mut self, _slot: u32) {}

    /// Called after the rank's records with the number of request slots
    /// it used.
    fn end_rank(&mut self, _slot_count: u32) {}
}

impl Sink for () {}

/// One rank's requests in flight: the slot each one holds, plus a free
/// list so a slot is reused as soon as its wait retires it.
#[derive(Debug, Default)]
struct Slots {
    /// Request id → slot. The default (SipHash) hasher stays: request ids
    /// come from untrusted traces (`.dim` files, inline serve bodies).
    live: HashMap<u32, u32>,
    free: Vec<u32>,
    next: u32,
}

impl Slots {
    /// Posts `req` on a free slot, reporting a post of a request already
    /// in flight; its old slot is then never reused.
    fn post(&mut self, checks: &mut Checks, at: At, req: RequestId) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        });
        if self.live.insert(req.get(), slot).is_some() {
            checks.duplicate(at, req);
        }
        slot
    }

    /// Retires `req`, freeing its slot, and reports a wait on a request
    /// that is not in flight. Such a wait gets slot 0: the rank fails to
    /// link either way.
    fn retire(&mut self, checks: &mut Checks, at: At, req: RequestId) -> u32 {
        match self.live.remove(&req.get()) {
            Some(slot) => {
                self.free.push(slot);
                slot
            }
            None => {
                checks.unknown(at, req);
                0
            }
        }
    }

    /// Ends the rank: the slots it used and the requests it left in
    /// flight, in id order.
    fn finish(self) -> (u32, Vec<u32>) {
        let mut leaked: Vec<u32> = self.live.into_keys().collect();
        leaked.sort_unstable();
        (self.next, leaked)
    }
}

/// Walks `records`, rank `rank` of a trace of `rank_count` ranks, in
/// order, handing each record to `sink`. Returns the rank's checks, for
/// `join`.
pub(crate) fn walk_rank<S: Sink>(
    rank: Rank,
    rank_count: usize,
    records: &[Record],
    sink: &mut S,
) -> Checks {
    let (sends, recvs) = records.iter().fold((0, 0), |(s, r), rec| match rec {
        Record::Send { .. } | Record::ISend { .. } => (s + 1, r),
        Record::Recv { .. } | Record::IRecv { .. } => (s, r + 1),
        _ => (s, r),
    });
    let mut checks = Checks::with_capacity(rank_count, sends, recvs);
    let mut slots = Slots::default();
    sink.begin_rank(records.len());
    for (record, rec) in records.iter().enumerate() {
        let at = At { rank, record };
        match rec {
            Record::Burst { instr } => sink.burst(*instr),
            Record::Marker { code } => sink.op(RecordKind::Marker, *code, 0, 0),
            Record::Send { to, bytes, tag } => {
                let channel = checks.send(at, *to, *tag, *bytes);
                sink.op(RecordKind::Send, channel, 0, *bytes);
            }
            Record::ISend {
                to,
                bytes,
                tag,
                req,
            } => {
                let channel = checks.send(at, *to, *tag, *bytes);
                let slot = slots.post(&mut checks, at, *req);
                sink.op(RecordKind::ISend, channel, slot, *bytes);
            }
            Record::Recv { from, bytes, tag } => {
                let channel = checks.recv(at, *from, *tag, *bytes);
                sink.op(RecordKind::Recv, channel, 0, *bytes);
            }
            Record::IRecv {
                from,
                bytes,
                tag,
                req,
            } => {
                let channel = checks.recv(at, *from, *tag, *bytes);
                let slot = slots.post(&mut checks, at, *req);
                sink.op(RecordKind::IRecv, channel, slot, 0);
            }
            Record::Wait { req } => {
                let slot = slots.retire(&mut checks, at, *req);
                sink.op(RecordKind::Wait, slot, 0, 0);
            }
            Record::WaitAll { reqs } => {
                for req in reqs {
                    let slot = slots.retire(&mut checks, at, *req);
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
                checks.collective(at, rec, root);
                sink.op(rec.kind(), 0, 0, rec.bytes());
            }
        }
    }
    let (slot_count, leaked) = slots.finish();
    for req in leaked {
        checks.leaked(rank, RequestId::new(req));
    }
    sink.end_rank(slot_count);
    checks
}
