//! The overlap transform: synthesizing the *potential* (overlapped)
//! execution from the original trace plus production/consumption profiles.
//!
//! The paper's mechanism of automatic overlap is: "to partition every
//! original message into independent chunks; to send every chunk as soon as
//! it is produced; and to wait for every chunk in the moment when it is
//! needed for consumption". This module rewrites a rank's record sequence
//! accordingly:
//!
//! * every chunkable send becomes per-chunk `ISend`s injected at the
//!   instruction instants where each chunk's data is fully produced,
//! * every chunkable receive becomes per-chunk `IRecv`s posted at the
//!   original receive point, with per-chunk `Wait`s injected at the
//!   instants where each chunk is first consumed,
//! * computation bursts are split at the injection points, preserving the
//!   rank's total instruction count exactly.
//!
//! Two pattern sources are supported, mirroring the paper's two overlapped
//! traces: [`PatternSource::Real`] uses the measured profiles;
//! [`PatternSource::Linear`] redistributes chunk instants uniformly over
//! the adjacent computation burst, modeling the ideal sequential pattern
//! assumed by Sancho et al. Mechanism subsets ([`Mechanisms`]) allow the
//! early-send and late-wait halves of the mechanism to be studied
//! separately.

use std::collections::BTreeMap;
use std::ops::Range;

use ovlsim_core::{BufferId, Instr, Record, RequestId, Tag};

use crate::chunking::ChunkingPolicy;
use crate::context::RankMeta;

/// Where chunk readiness/need instants come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSource {
    /// Measured production/consumption profiles (the application's real
    /// access pattern).
    Real,
    /// Uniform distribution over the adjacent computation burst (the ideal
    /// sequential pattern).
    Linear,
}

/// Which halves of the overlap mechanism are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mechanisms {
    /// Send each chunk as soon as it is produced (if false, all chunks are
    /// sent at the original send point).
    pub early_send: bool,
    /// Wait for each chunk only when first consumed (if false, all chunks
    /// are waited at the original receive point).
    pub late_wait: bool,
}

impl Mechanisms {
    /// Both mechanisms enabled (full automatic overlap).
    pub const BOTH: Mechanisms = Mechanisms {
        early_send: true,
        late_wait: true,
    };
    /// Only early sends.
    pub const EARLY_SEND_ONLY: Mechanisms = Mechanisms {
        early_send: true,
        late_wait: false,
    };
    /// Only late waits.
    pub const LATE_WAIT_ONLY: Mechanisms = Mechanisms {
        early_send: false,
        late_wait: true,
    };
    /// Neither (chunked transfer without repositioning — isolates pure
    /// chunking/pipelining effects).
    pub const NONE: Mechanisms = Mechanisms {
        early_send: false,
        late_wait: false,
    };
}

/// A complete overlap-transform configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapMode {
    /// Chunk instant source.
    pub pattern: PatternSource,
    /// Enabled mechanism halves.
    pub mechanisms: Mechanisms,
}

impl OverlapMode {
    /// Full overlap with measured (real) patterns.
    pub fn real() -> Self {
        OverlapMode {
            pattern: PatternSource::Real,
            mechanisms: Mechanisms::BOTH,
        }
    }

    /// Full overlap with ideal (linear) patterns.
    pub fn linear() -> Self {
        OverlapMode {
            pattern: PatternSource::Linear,
            mechanisms: Mechanisms::BOTH,
        }
    }

    /// A short suffix identifying this mode in trace names,
    /// e.g. `"ovl-real"` or `"ovl-linear-earlysend"`.
    pub fn label(&self) -> String {
        let pat = match self.pattern {
            PatternSource::Real => "real",
            PatternSource::Linear => "linear",
        };
        let mech = match (self.mechanisms.early_send, self.mechanisms.late_wait) {
            (true, true) => "",
            (true, false) => "-earlysend",
            (false, true) => "-latewait",
            (false, false) => "-chunked",
        };
        format!("ovl-{pat}{mech}")
    }
}

/// Maximum application tag encodable in chunk tags.
pub const MAX_APP_TAG: u64 = 1 << 20;
/// Maximum per-channel message sequence encodable in chunk tags.
pub const MAX_CHANNEL_SEQ: u32 = 1 << 23;
/// Maximum chunks per message encodable in chunk tags.
pub const MAX_CHUNKS_PER_MESSAGE: usize = 1 << 16;

/// Derives the wire tag of chunk `chunk` of the `channel_seq`-th message
/// with application tag `app_tag` on its channel.
///
/// # Non-collision guarantee
///
/// The three components occupy **disjoint bit fields** of the 64-bit tag:
///
/// ```text
/// bit 63  | bits 40..59        | bits 16..38           | bits 0..15
/// chunk   | app_tag (20 bits)  | channel_seq (23 bits) | chunk (16 bits)
/// flag    |                    |                       |
/// ```
///
/// Within the asserted ranges the encoding is therefore **injective**:
/// two chunk tags are equal iff all three components are equal — in
/// particular, the last chunk of one message can never collide with the
/// first chunk of the next message on an adjacent `channel_seq`, and no
/// chunk count below [`MAX_CHUNKS_PER_MESSAGE`] can overflow into the
/// sequence field. The top bit is always set, so a chunk tag can never
/// collide with an application tag below [`MAX_APP_TAG`] either (bit 39
/// is deliberately left unused as a guard between the sequence and
/// application fields). `tracer::tests` and `tests/props.rs` assert the
/// guarantee on the boundaries.
///
/// # Panics
///
/// Panics if any component exceeds its encodable range (see
/// [`MAX_APP_TAG`], [`MAX_CHANNEL_SEQ`], [`MAX_CHUNKS_PER_MESSAGE`]).
pub fn chunk_tag(app_tag: Tag, channel_seq: u32, chunk: usize) -> Tag {
    assert!(
        app_tag.get() < MAX_APP_TAG,
        "application tag too large to chunk"
    );
    assert!(
        channel_seq < MAX_CHANNEL_SEQ,
        "channel sequence too large to chunk"
    );
    assert!(
        chunk < MAX_CHUNKS_PER_MESSAGE,
        "too many chunks per message"
    );
    Tag::new((1 << 63) | (app_tag.get() << 40) | ((channel_seq as u64) << 16) | chunk as u64)
}

/// Computes the starting instruction position of every record (bursts are
/// the only records that advance the instruction clock).
fn record_positions(records: &[Record]) -> (Vec<Instr>, Instr) {
    let mut pos = Vec::with_capacity(records.len());
    let mut cur = Instr::ZERO;
    for r in records {
        pos.push(cur);
        if let Record::Burst { instr } = r {
            cur += *instr;
        }
    }
    (pos, cur)
}

/// True for records that are "transparent" when extending a located
/// computation run.
fn is_transparent(r: &Record) -> bool {
    matches!(r, Record::Burst { .. } | Record::Marker { .. })
}

/// Finds the start instant of the computation window ending at record
/// `idx`.
///
/// Only bursts have width in the instruction domain; every other record
/// (non-blocking posts, waits, collectives) is a zero-width point. The
/// window is the contiguous burst run *adjacent in the instruction
/// domain*: scan back over zero-width records to reach the nearest burst,
/// then extend across the whole burst run. This matches the paper's
/// "partial transfers … uniformly distributed throughout the original
/// computation burst" even for the common `irecv*/isend*/waitall` idiom,
/// where zero-width posts sit between the producing kernel and the send.
fn window_before(records: &[Record], pos: &[Instr], idx: usize) -> Instr {
    let mut i = idx;
    while i > 0 && !matches!(records[i - 1], Record::Burst { .. }) {
        i -= 1;
    }
    while i > 0 && is_transparent(&records[i - 1]) {
        i -= 1;
    }
    pos[i]
}

/// Finds the end instant of the computation window starting after record
/// `idx` (forward counterpart of [`window_before`]).
fn window_after(records: &[Record], pos: &[Instr], idx: usize, total: Instr) -> Instr {
    let mut i = idx + 1;
    while i < records.len() && !matches!(records[i], Record::Burst { .. }) {
        i += 1;
    }
    while i < records.len() && is_transparent(&records[i]) {
        i += 1;
    }
    if i < records.len() {
        pos[i]
    } else {
        total
    }
}

/// Linear interpolation of instant `k/n` of the way through
/// `[start, end]`.
fn lerp_instr(start: Instr, end: Instr, num: u64, den: u64) -> Instr {
    debug_assert!(end >= start && den > 0);
    let span = (end - start).get() as u128;
    start + Instr::new((span * num as u128 / den as u128) as u64)
}

/// Granularity of the per-channel `early` / `late` aggressiveness levels:
/// level `0` keeps the operation at its original point, level
/// [`TUNING_SCALE`] moves it all the way to the pattern-derived instant,
/// and intermediate levels interpolate linearly between the two.
pub const TUNING_SCALE: u8 = 4;

/// Fully-resolved overlap parameters of a single message.
///
/// This is the per-message unit the transform actually consumes: the
/// chunk byte ranges, the instant-pattern source, and how aggressively to
/// reposition sends (`early`) and waits (`late`) on the `0..=TUNING_SCALE`
/// scale. [`overlap_rank`] derives uniform tunings from an
/// [`OverlapMode`]; per-channel plans (`OverlapPlan`) derive heterogeneous
/// ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgTuning {
    /// Chunk byte ranges partitioning the message (empty = leave the
    /// message untransformed).
    pub ranges: Vec<Range<u64>>,
    /// Where chunk readiness/need instants come from.
    pub pattern: PatternSource,
    /// Early-send aggressiveness (`0` = all chunks at the original send
    /// point, [`TUNING_SCALE`] = each chunk the moment it is produced).
    pub early: u8,
    /// Late-wait aggressiveness (`0` = all chunks complete at the
    /// original receive point, [`TUNING_SCALE`] = each chunk at its first
    /// consumption).
    pub late: u8,
}

/// Interpolates between `origin` (level 0) and the fully-repositioned
/// instant `full` (level [`TUNING_SCALE`]). `full` is always at or before
/// `origin` on the send side and at or after the base on the wait side;
/// callers orient the span accordingly.
fn pull_toward(origin: Instr, full: Instr, level: u8) -> Instr {
    debug_assert!(origin >= full && level <= TUNING_SCALE);
    let span = (origin - full).get() as u128;
    origin - Instr::new((span * level as u128 / TUNING_SCALE as u128) as u64)
}

/// Transforms one rank's original records into the overlapped execution.
///
/// `send_chunkable[i]` / `recv_chunkable[i]` flag whether the `i`-th
/// send/recv of `meta` may be chunked (both endpoints must have registered
/// buffers — computed globally by the session so the two sides agree).
/// Every chunkable message receives the same uniform [`MsgTuning`] derived
/// from `policy` and `mode`; see [`overlap_rank_tuned`] for heterogeneous
/// per-message parameters.
///
/// The transform preserves the rank's total instruction count exactly and
/// produces a trace in which every injected request is waited exactly once.
///
/// # Panics
///
/// Panics if the chunkable flags disagree with `meta` lengths or if tags /
/// sequences exceed the chunk-tag encodable ranges.
pub fn overlap_rank(
    records: &[Record],
    meta: &RankMeta,
    send_chunkable: &[bool],
    recv_chunkable: &[bool],
    policy: &ChunkingPolicy,
    mode: OverlapMode,
) -> Vec<Record> {
    assert_eq!(send_chunkable.len(), meta.sends.len());
    assert_eq!(recv_chunkable.len(), meta.recvs.len());
    let uniform = |bytes: u64| MsgTuning {
        ranges: policy.chunk_ranges(bytes),
        pattern: mode.pattern,
        early: if mode.mechanisms.early_send {
            TUNING_SCALE
        } else {
            0
        },
        late: if mode.mechanisms.late_wait {
            TUNING_SCALE
        } else {
            0
        },
    };
    let send_tuning: Vec<Option<MsgTuning>> = meta
        .sends
        .iter()
        .zip(send_chunkable)
        .map(|(s, &chunkable)| chunkable.then(|| uniform(s.bytes)))
        .collect();
    let recv_tuning: Vec<Option<MsgTuning>> = meta
        .recvs
        .iter()
        .zip(recv_chunkable)
        .map(|(m, &chunkable)| chunkable.then(|| uniform(m.bytes)))
        .collect();
    overlap_rank_tuned(records, meta, &send_tuning, &recv_tuning)
}

/// [`overlap_rank`] with explicit per-message parameters: message `i` of
/// `meta.sends` / `meta.recvs` is transformed with `send_tuning[i]` /
/// `recv_tuning[i]` (`None` = pass through untransformed). The two sides
/// of one message must agree on the chunk ranges — per-channel plans
/// guarantee this by deriving both sides' tunings from the same channel
/// key.
///
/// Every synthesized record goes to one arena, in creation order. An
/// *injected* record (a chunk `ISend`, a late `Wait`, or the `WaitAll`
/// that completes a blocking send's chunks before its buffer is
/// rewritten) is placed by the key `(instant, src, sub)`: the instruction
/// instant it lands at, the index of the original record it derives from,
/// and its rank among that record's injections. A *replaced* original
/// record maps to one contiguous arena range: empty for a chunked send,
/// and for a chunked receive's post the deferred `WaitAll`, the chunk
/// `IRecv`s and, for a blocking receive at `late == 0`, their `WaitAll`.
/// Only the injected records are sorted (stably, so ties keep creation
/// order); they are then merged with the original records, which are in
/// order already and come first at equal `(instant, src)`. Bursts are
/// re-emitted between the merged records, split at every injection
/// instant.
///
/// # Panics
///
/// Panics if the tuning slices disagree with `meta` lengths, a level
/// exceeds [`TUNING_SCALE`], or tags / sequences exceed the chunk-tag
/// encodable ranges.
pub fn overlap_rank_tuned(
    records: &[Record],
    meta: &RankMeta,
    send_tuning: &[Option<MsgTuning>],
    recv_tuning: &[Option<MsgTuning>],
) -> Vec<Record> {
    assert_eq!(send_tuning.len(), meta.sends.len());
    assert_eq!(recv_tuning.len(), meta.recvs.len());

    let (pos, total) = record_positions(records);

    // Fresh request ids start above anything in the original trace. Each
    // message takes a consecutive block, so its chunk requests are a
    // range of ids.
    let mut next_req: u32 = records
        .iter()
        .filter_map(|r| match r {
            Record::ISend { req, .. } | Record::IRecv { req, .. } | Record::Wait { req } => {
                Some(req.get() + 1)
            }
            Record::WaitAll { reqs } => reqs.iter().map(|r| r.get() + 1).max(),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let requests = |ids: Range<u32>| -> Vec<RequestId> { ids.map(RequestId::new).collect() };

    let mut arena: Vec<Record> = Vec::new();
    // Injected records: (instant, src, sub, arena slot).
    let mut injected: Vec<(Instr, usize, u32, usize)> = Vec::new();
    // The arena range standing in for each replaced original record.
    let mut replaced: Vec<Option<Range<usize>>> = vec![None; records.len()];
    // Wait-record request rewrites: (wait record, orig req, substitute
    // chunk request ids; empty = the wait for this request moves
    // elsewhere). A single WaitAll may complete several transformed
    // messages, so one wait record can carry several rewrites.
    let mut wait_rewrites: Vec<(usize, u32, Range<u32>)> = Vec::new();
    // Chunk-recv requests whose wait is deferred to the next receive on the
    // same buffer (or end of trace).
    let mut pending_by_buffer: BTreeMap<BufferId, Vec<RequestId>> = BTreeMap::new();
    // Requests to wait at the very end of the trace.
    let mut end_waits: Vec<RequestId> = Vec::new();

    // --- Send side -------------------------------------------------------
    for (send, tuning) in meta.sends.iter().zip(send_tuning) {
        let Some(t) = tuning else {
            continue;
        };
        assert!(t.early <= TUNING_SCALE, "send tuning level out of range");
        let ranges = &t.ranges;
        let n = ranges.len();
        if n == 0 {
            continue;
        }
        let send_instant = send.send_instant;
        let wstart = window_before(records, &pos, send.record_idx);
        let first_req = next_req;

        for (j, range) in ranges.iter().enumerate() {
            let ready = if t.early == 0 {
                send_instant
            } else {
                let full = match t.pattern {
                    PatternSource::Real => send
                        .production
                        .as_ref()
                        .expect("chunkable send must have a production profile")
                        .ready_at(range.clone())
                        .min(send_instant),
                    PatternSource::Linear => {
                        lerp_instr(wstart, send_instant, (j + 1) as u64, n as u64)
                    }
                };
                pull_toward(send_instant, full, t.early)
            };
            injected.push((ready, send.record_idx, 1000 + j as u32, arena.len()));
            arena.push(Record::ISend {
                to: send.to,
                bytes: range.end - range.start,
                tag: chunk_tag(send.tag, send.channel_seq, j),
                req: RequestId::new(next_req),
            });
            next_req += 1;
        }
        let chunk_reqs = first_req..next_req;

        // The original send (and its wait, for isend) disappears.
        replaced[send.record_idx] = Some(arena.len()..arena.len());
        match send.wait_record_idx {
            Some(wait_idx) => {
                // isend: the application's own wait completes the chunks.
                let orig_req = match &records[send.record_idx] {
                    Record::ISend { req, .. } => *req,
                    other => unreachable!("send meta with wait points at {other}"),
                };
                wait_rewrites.push((wait_idx, orig_req.get(), chunk_reqs));
            }
            None => {
                // Blocking send: chunk completions are needed once the
                // buffer is rewritten; otherwise at end of trace.
                match send.reuse_write {
                    Some(at) => {
                        injected.push((at.min(total), send.record_idx, 500, arena.len()));
                        arena.push(Record::WaitAll {
                            reqs: requests(chunk_reqs),
                        });
                    }
                    None => end_waits.extend(chunk_reqs.map(RequestId::new)),
                }
            }
        }
    }

    // --- Receive side ----------------------------------------------------
    for (recv, tuning) in meta.recvs.iter().zip(recv_tuning) {
        let Some(t) = tuning else {
            continue;
        };
        assert!(t.late <= TUNING_SCALE, "recv tuning level out of range");
        let ranges = &t.ranges;
        let n = ranges.len();
        if n == 0 {
            continue;
        }
        let buf = recv
            .buffer
            .expect("chunkable recv must have a registered buffer");
        let complete_idx = recv.wait_record_idx.unwrap_or(recv.post_record_idx);
        let complete = recv.complete_instant;
        let wend = window_after(records, &pos, complete_idx, total);

        // Posts: per-chunk IRecvs at the original posting point, prefixed
        // by any deferred waits for the previous message in this buffer.
        let posts_start = arena.len();
        if let Some(pending) = pending_by_buffer.remove(&buf) {
            arena.push(Record::WaitAll { reqs: pending });
        }
        let first_req = next_req;
        for (j, range) in ranges.iter().enumerate() {
            arena.push(Record::IRecv {
                from: recv.from,
                bytes: range.end - range.start,
                tag: chunk_tag(recv.tag, recv.channel_seq, j),
                req: RequestId::new(next_req),
            });
            next_req += 1;
        }
        let chunk_reqs = first_req..next_req;

        let orig_req = recv
            .wait_record_idx
            .map(|_| match &records[recv.post_record_idx] {
                Record::IRecv { req, .. } => *req,
                other => unreachable!("recv meta with wait points at {other}"),
            });

        if t.late == 0 {
            // All chunks complete where the original message completed.
            match (recv.wait_record_idx, orig_req) {
                (Some(wait_idx), Some(req)) => {
                    wait_rewrites.push((wait_idx, req.get(), chunk_reqs));
                }
                _ => {
                    // Blocking recv: append to the posts.
                    arena.push(Record::WaitAll {
                        reqs: requests(chunk_reqs),
                    });
                }
            }
            replaced[recv.post_record_idx] = Some(posts_start..arena.len());
            continue;
        }
        replaced[recv.post_record_idx] = Some(posts_start..arena.len());

        // Late waits: each chunk is waited where first consumed; the
        // application's own wait no longer covers this message.
        if let (Some(wait_idx), Some(req)) = (recv.wait_record_idx, orig_req) {
            wait_rewrites.push((wait_idx, req.get(), first_req..first_req));
        }
        let consumption = recv.consumption.as_ref();
        for (j, (range, id)) in ranges.iter().zip(chunk_reqs).enumerate() {
            let req = RequestId::new(id);
            let needed = match t.pattern {
                PatternSource::Real => consumption.and_then(|c| c.needed_at(range.clone())),
                PatternSource::Linear => Some(lerp_instr(complete, wend, j as u64, n as u64)),
            };
            match needed {
                Some(at) => {
                    // Interpolate between the original completion point
                    // (level 0) and the first-consumption instant
                    // (level TUNING_SCALE).
                    let full = at.max(complete).min(total);
                    let span = (full - complete).get() as u128;
                    let at = complete
                        + Instr::new((span * t.late as u128 / TUNING_SCALE as u128) as u64);
                    injected.push((at, complete_idx, 1000 + j as u32, arena.len()));
                    arena.push(Record::Wait { req });
                }
                None => {
                    // Never consumed: defer to the next receive in this
                    // buffer or the end of the trace.
                    pending_by_buffer.entry(buf).or_default().push(req);
                }
            }
        }
    }

    // Remaining deferred waits land at the end.
    for (_, reqs) in std::mem::take(&mut pending_by_buffer) {
        end_waits.extend(reqs);
    }

    // --- Reassembly ------------------------------------------------------
    // A stable sort: two receives completed by one WaitAll can tie on all
    // three keys, and creation order breaks the tie.
    injected.sort_by_key(|&(instant, src, sub, _)| (instant, src, sub));
    wait_rewrites.sort_by_key(|&(wait_idx, _, _)| wait_idx);

    // The synthesized trace is stored with this capacity, so it estimates
    // the output length rather than bounding it: every original record,
    // every injected record, and a burst split at each non-burst original.
    let non_bursts = records
        .iter()
        .filter(|r| !matches!(r, Record::Burst { .. }))
        .count();
    let mut out: Vec<Record> = Vec::with_capacity(records.len() + injected.len() + non_bursts);
    let mut cursor = Instr::ZERO;
    let push_burst = |out: &mut Vec<Record>, upto: Instr, cursor: &mut Instr| {
        if upto > *cursor {
            let instr = upto - *cursor;
            if let Some(Record::Burst { instr: prev }) = out.last_mut() {
                *prev += instr;
            } else {
                out.push(Record::Burst { instr });
            }
            *cursor = upto;
        }
    };
    // Every arena slot is emitted exactly once, so it is moved out.
    let mut take = |slot: usize| std::mem::replace(&mut arena[slot], Record::Barrier);
    let mut next_injected = injected.into_iter().peekable();
    let mut rewrites = wait_rewrites.as_slice();
    for (idx, rec) in records.iter().enumerate() {
        if matches!(rec, Record::Burst { .. }) {
            continue;
        }
        let at = pos[idx];
        // Injected records sorting before this one: at equal
        // `(instant, src)` the original goes first (its `sub` is 0).
        while let Some(&(instant, src, _, slot)) = next_injected.peek() {
            if (instant, src) >= (at, idx) {
                break;
            }
            push_burst(&mut out, instant, &mut cursor);
            out.push(take(slot));
            next_injected.next();
        }
        push_burst(&mut out, at, &mut cursor);

        // Rewrites aimed at a burst are skipped, like the burst itself.
        let start = rewrites.iter().take_while(|w| w.0 < idx).count();
        let end = start + rewrites[start..].iter().take_while(|w| w.0 == idx).count();
        let mods = &rewrites[start..end];
        rewrites = &rewrites[end..];
        if !mods.is_empty() {
            // Rewrite the wait's request list: transformed messages
            // contribute their chunk requests (or nothing, for late
            // waits); untransformed requests are kept. A request
            // rewritten twice takes its latest substitute.
            let orig: &[RequestId] = match rec {
                Record::Wait { req } => std::slice::from_ref(req),
                Record::WaitAll { reqs } => reqs,
                other => unreachable!("wait rewrite on non-wait record {other}"),
            };
            let mut new_reqs: Vec<RequestId> = Vec::new();
            for &req in orig {
                match mods.iter().rev().find(|w| w.1 == req.get()) {
                    Some((_, _, subst)) => new_reqs.extend(subst.clone().map(RequestId::new)),
                    None => new_reqs.push(req),
                }
            }
            match new_reqs.len() {
                0 => {}
                1 => out.push(Record::Wait { req: new_reqs[0] }),
                _ => out.push(Record::WaitAll { reqs: new_reqs }),
            }
        } else if let Some(range) = replaced[idx].clone() {
            out.extend(range.map(&mut take));
        } else {
            out.push(rec.clone());
        }
    }
    for (instant, _, _, slot) in next_injected {
        push_burst(&mut out, instant, &mut cursor);
        out.push(take(slot));
    }
    push_burst(&mut out, total, &mut cursor);
    if !end_waits.is_empty() {
        out.push(Record::WaitAll { reqs: end_waits });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceContext;
    use ovlsim_core::{Rank, RecordKind};
    use ovlsim_memtrace::{AccessKind, IndexPattern, Kernel};

    /// Builds a 1-of-2 context, runs `f` on it, and returns records+meta.
    fn trace(f: impl FnOnce(&mut TraceContext)) -> (Vec<Record>, RankMeta) {
        let mut ctx = TraceContext::new(Rank::new(0), 2);
        f(&mut ctx);
        ctx.finish().unwrap()
    }

    fn total_instr(records: &[Record]) -> Instr {
        records
            .iter()
            .map(|r| match r {
                Record::Burst { instr } => *instr,
                _ => Instr::ZERO,
            })
            .sum()
    }

    #[test]
    fn chunk_tag_is_injective_and_flagged() {
        let a = chunk_tag(Tag::new(1), 0, 0);
        let b = chunk_tag(Tag::new(1), 0, 1);
        let c = chunk_tag(Tag::new(1), 1, 0);
        let d = chunk_tag(Tag::new(2), 0, 0);
        let all = [a, b, c, d];
        for (i, x) in all.iter().enumerate() {
            assert!(x.get() >> 63 == 1);
            for (j, y) in all.iter().enumerate() {
                assert_eq!(i == j, x == y);
            }
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn chunk_tag_rejects_huge_app_tag() {
        chunk_tag(Tag::new(MAX_APP_TAG), 0, 0);
    }

    #[test]
    fn chunk_tag_adjacent_channels_never_collide() {
        // The classic carry hazard: the LAST chunk of message `seq` vs
        // the FIRST chunk of message `seq + 1`. Disjoint bit fields mean
        // the chunk count can never overflow into the sequence field.
        let last_chunk = MAX_CHUNKS_PER_MESSAGE - 1;
        for seq in [0u32, 1, 1000, MAX_CHANNEL_SEQ - 2] {
            let end_of_seq = chunk_tag(Tag::new(7), seq, last_chunk);
            let start_of_next = chunk_tag(Tag::new(7), seq + 1, 0);
            assert_ne!(
                end_of_seq, start_of_next,
                "carry from chunk field into sequence field at seq {seq}"
            );
            // And the difference is exactly what the layout predicts:
            // clearing the chunk bits of `end_of_seq` recovers `seq`.
            assert_eq!((end_of_seq.get() >> 16) & 0x7f_ffff, seq as u64);
            assert_eq!(end_of_seq.get() & 0xffff, last_chunk as u64);
        }
    }

    #[test]
    fn chunk_tag_boundary_values_stay_injective() {
        // Every component at its maximum simultaneously: fields must not
        // bleed into each other or the flag bit.
        let max = chunk_tag(
            Tag::new(MAX_APP_TAG - 1),
            MAX_CHANNEL_SEQ - 1,
            MAX_CHUNKS_PER_MESSAGE - 1,
        );
        assert_eq!(max.get() >> 63, 1, "flag bit survives max components");
        assert_eq!((max.get() >> 40) & 0xf_ffff, MAX_APP_TAG - 1);
        assert_eq!((max.get() >> 16) & 0x7f_ffff, (MAX_CHANNEL_SEQ - 1) as u64);
        assert_eq!(max.get() & 0xffff, (MAX_CHUNKS_PER_MESSAGE - 1) as u64);
        // High chunk counts on adjacent (app_tag, seq) pairs: pairwise
        // distinct across a dense block of the boundary region.
        let mut seen = std::collections::BTreeSet::new();
        for app in [0u64, 1, MAX_APP_TAG - 1] {
            for seq in [0u32, 1, MAX_CHANNEL_SEQ - 1] {
                for chunk in [0usize, 1, 255, MAX_CHUNKS_PER_MESSAGE - 1] {
                    assert!(
                        seen.insert(chunk_tag(Tag::new(app), seq, chunk)),
                        "collision at app={app} seq={seq} chunk={chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_tags_disjoint_from_application_tags() {
        // Application tags are < MAX_APP_TAG and the flag bit is always
        // set: no chunk tag can shadow any valid application tag.
        let smallest_chunk_tag = chunk_tag(Tag::new(0), 0, 0);
        assert!(smallest_chunk_tag.get() >= 1 << 63);
        for app_tag in [0, 1, MAX_APP_TAG - 1] {
            assert!(Tag::new(app_tag).get() < smallest_chunk_tag.get());
        }
    }

    #[test]
    fn sequential_production_spreads_isends() {
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 1000, 10);
            let k = Kernel::builder()
                .phase(Instr::new(1000))
                .access(buf, AccessKind::Write, IndexPattern::Sequential)
                .build();
            ctx.kernel(&k);
            ctx.send(Rank::new(1), buf, Tag::new(0)).unwrap();
        });
        let policy = ChunkingPolicy::fixed_count(4).with_min_chunk_bytes(1);
        let out = overlap_rank(&records, &meta, &[true], &[], &policy, OverlapMode::real());
        // Expect bursts split at 250/500/750/1000 with ISends between.
        let kinds: Vec<RecordKind> = out.iter().map(Record::kind).collect();
        assert_eq!(
            kinds,
            vec![
                RecordKind::Burst,
                RecordKind::ISend,
                RecordKind::Burst,
                RecordKind::ISend,
                RecordKind::Burst,
                RecordKind::ISend,
                RecordKind::Burst,
                RecordKind::ISend,
                RecordKind::WaitAll,
            ]
        );
        assert_eq!(total_instr(&out), Instr::new(1000));
        // Each burst is a quarter.
        let bursts: Vec<u64> = out
            .iter()
            .filter_map(|r| match r {
                Record::Burst { instr } => Some(instr.get()),
                _ => None,
            })
            .collect();
        assert_eq!(bursts, vec![250, 250, 250, 250]);
    }

    #[test]
    fn packed_tail_production_defeats_early_send() {
        // All production in the last 1% of the burst (pack loop): chunks
        // are only ready at the end, so no burst splitting happens early.
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 1000, 10);
            let k = Kernel::builder()
                .phase(Instr::new(990))
                .phase(Instr::new(10))
                .access(buf, AccessKind::Write, IndexPattern::Sequential)
                .build();
            ctx.kernel(&k);
            ctx.send(Rank::new(1), buf, Tag::new(0)).unwrap();
        });
        let policy = ChunkingPolicy::fixed_count(4).with_min_chunk_bytes(1);
        let out = overlap_rank(&records, &meta, &[true], &[], &policy, OverlapMode::real());
        // First burst must be at least 990 instructions long.
        if let Record::Burst { instr } = &out[0] {
            assert!(instr.get() >= 990, "burst was split early: {}", instr.get());
        } else {
            panic!("expected leading burst");
        }
    }

    #[test]
    fn linear_mode_ignores_real_pattern() {
        // Same packed-tail app, but linear pattern: uniform spread.
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 1000, 10);
            let k = Kernel::builder()
                .phase(Instr::new(990))
                .phase(Instr::new(10))
                .access(buf, AccessKind::Write, IndexPattern::Sequential)
                .build();
            ctx.kernel(&k);
            ctx.send(Rank::new(1), buf, Tag::new(0)).unwrap();
        });
        let policy = ChunkingPolicy::fixed_count(4).with_min_chunk_bytes(1);
        let out = overlap_rank(
            &records,
            &meta,
            &[true],
            &[],
            &policy,
            OverlapMode::linear(),
        );
        let bursts: Vec<u64> = out
            .iter()
            .filter_map(|r| match r {
                Record::Burst { instr } => Some(instr.get()),
                _ => None,
            })
            .collect();
        assert_eq!(bursts, vec![250, 250, 250, 250]);
    }

    #[test]
    fn early_send_disabled_keeps_sends_at_origin() {
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 1000, 10);
            let k = Kernel::builder()
                .phase(Instr::new(1000))
                .access(buf, AccessKind::Write, IndexPattern::Sequential)
                .build();
            ctx.kernel(&k);
            ctx.send(Rank::new(1), buf, Tag::new(0)).unwrap();
        });
        let policy = ChunkingPolicy::fixed_count(4).with_min_chunk_bytes(1);
        let mode = OverlapMode {
            pattern: PatternSource::Real,
            mechanisms: Mechanisms::LATE_WAIT_ONLY,
        };
        let out = overlap_rank(&records, &meta, &[true], &[], &policy, mode);
        // One unsplit burst, then 4 ISends.
        assert!(matches!(out[0], Record::Burst { instr } if instr.get() == 1000));
        assert_eq!(
            out[1..5]
                .iter()
                .filter(|r| r.kind() == RecordKind::ISend)
                .count(),
            4
        );
    }

    #[test]
    fn recv_late_waits_split_consuming_burst() {
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 1000, 10);
            let k = Kernel::builder()
                .phase(Instr::new(1000))
                .access(buf, AccessKind::Read, IndexPattern::Sequential)
                .build();
            ctx.recv(Rank::new(1), buf, Tag::new(0)).unwrap();
            ctx.kernel(&k);
        });
        let policy = ChunkingPolicy::fixed_count(4).with_min_chunk_bytes(1);
        let out = overlap_rank(&records, &meta, &[], &[true], &policy, OverlapMode::real());
        let kinds: Vec<RecordKind> = out.iter().map(Record::kind).collect();
        // 4 posts, then for each chunk: Wait before its consuming sub-burst.
        assert_eq!(kinds[0..4], [RecordKind::IRecv; 4]);
        let waits = kinds.iter().filter(|k| **k == RecordKind::Wait).count();
        assert_eq!(waits, 4);
        assert_eq!(total_instr(&out), Instr::new(1000));
        // Chunk 0's wait must come within the first chunk's read span
        // (element 0 is first read at instr 10).
        let mut instr_seen = 0u64;
        for r in &out {
            match r {
                Record::Burst { instr } => instr_seen += instr.get(),
                Record::Wait { .. } => break,
                _ => {}
            }
        }
        assert!(instr_seen <= 10, "first wait too late: {instr_seen}");
    }

    #[test]
    fn recv_immediate_gather_defeats_late_wait() {
        // The consuming kernel reads the whole buffer in its first 1%
        // (unpack loop): all waits stay at the front.
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 1000, 10);
            let k = Kernel::builder()
                .phase(Instr::new(10))
                .access(buf, AccessKind::Read, IndexPattern::Sequential)
                .phase(Instr::new(990))
                .build();
            ctx.recv(Rank::new(1), buf, Tag::new(0)).unwrap();
            ctx.kernel(&k);
        });
        let policy = ChunkingPolicy::fixed_count(4).with_min_chunk_bytes(1);
        let out = overlap_rank(&records, &meta, &[], &[true], &policy, OverlapMode::real());
        // All waits must appear within the first 10 instructions.
        let mut instr_seen = 0u64;
        let mut last_wait_at = 0u64;
        for r in &out {
            match r {
                Record::Burst { instr } => instr_seen += instr.get(),
                Record::Wait { .. } => last_wait_at = instr_seen,
                _ => {}
            }
        }
        assert!(last_wait_at <= 10, "a wait appeared at {last_wait_at}");
    }

    #[test]
    fn unconsumed_chunks_waited_at_end() {
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 1000, 10);
            // Only the first half is ever read.
            let k = Kernel::builder()
                .phase(Instr::new(100))
                .access_range(buf, AccessKind::Read, IndexPattern::Sequential, Some(0..50))
                .build();
            ctx.recv(Rank::new(1), buf, Tag::new(0)).unwrap();
            ctx.kernel(&k);
        });
        let policy = ChunkingPolicy::fixed_count(2).with_min_chunk_bytes(1);
        let out = overlap_rank(&records, &meta, &[], &[true], &policy, OverlapMode::real());
        // The unread chunk's wait must be the final record.
        assert!(matches!(out.last(), Some(Record::WaitAll { reqs }) if reqs.len() == 1));
    }

    #[test]
    fn isend_wait_becomes_chunk_waitall() {
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 1000, 10);
            let k = Kernel::builder()
                .phase(Instr::new(100))
                .access(buf, AccessKind::Write, IndexPattern::Sequential)
                .build();
            ctx.kernel(&k);
            let h = ctx.isend(Rank::new(1), buf, Tag::new(0)).unwrap();
            ctx.compute(Instr::new(50));
            ctx.wait_send(h).unwrap();
        });
        let policy = ChunkingPolicy::fixed_count(2).with_min_chunk_bytes(1);
        let out = overlap_rank(&records, &meta, &[true], &[], &policy, OverlapMode::real());
        assert!(out
            .iter()
            .any(|r| matches!(r, Record::WaitAll { reqs } if reqs.len() == 2)));
        assert_eq!(total_instr(&out), Instr::new(150));
    }

    #[test]
    fn non_chunkable_messages_pass_through() {
        let (records, meta) = trace(|ctx| {
            ctx.compute(Instr::new(100));
            ctx.send_bytes(Rank::new(1), 500, Tag::new(3)).unwrap();
            ctx.recv_bytes(Rank::new(1), 300, Tag::new(4)).unwrap();
        });
        let out = overlap_rank(
            &records,
            &meta,
            &[false],
            &[false],
            &ChunkingPolicy::default(),
            OverlapMode::real(),
        );
        assert_eq!(out, records);
    }

    #[test]
    fn collectives_and_markers_preserved_in_order() {
        let (records, meta) = trace(|ctx| {
            ctx.compute(Instr::new(10));
            ctx.barrier();
            ctx.marker(9);
            ctx.allreduce(64);
            ctx.compute(Instr::new(10));
        });
        let out = overlap_rank(
            &records,
            &meta,
            &[],
            &[],
            &ChunkingPolicy::default(),
            OverlapMode::linear(),
        );
        assert_eq!(out, records);
    }

    #[test]
    fn reuse_wait_lands_before_rewrite() {
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 100, 10);
            let w = Kernel::builder()
                .phase(Instr::new(100))
                .access(buf, AccessKind::Write, IndexPattern::Sequential)
                .build();
            ctx.kernel(&w);
            ctx.send(Rank::new(1), buf, Tag::new(0)).unwrap();
            ctx.kernel(&w); // rewrite
            ctx.send(Rank::new(1), buf, Tag::new(0)).unwrap();
        });
        let policy = ChunkingPolicy::fixed_count(2).with_min_chunk_bytes(1);
        let out = overlap_rank(
            &records,
            &meta,
            &[true, true],
            &[],
            &policy,
            OverlapMode::real(),
        );
        // Find the WaitAll for message 1's chunks: it must appear before
        // the second message's ISends complete their production burst.
        let wait_pos = out
            .iter()
            .position(|r| matches!(r, Record::WaitAll { .. }))
            .expect("reuse waitall present");
        let second_msg_isend_pos = out
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Record::ISend { .. }))
            .map(|(i, _)| i)
            .nth(2)
            .expect("four isends");
        assert!(
            wait_pos < second_msg_isend_pos,
            "reuse wait at {wait_pos} not before second message isends at {second_msg_isend_pos}"
        );
        // Total instructions preserved.
        assert_eq!(total_instr(&out), Instr::new(200));
    }

    #[test]
    fn instruction_conservation_across_modes() {
        let (records, meta) = trace(|ctx| {
            let buf = ctx.register_buffer("b", 4096, 8);
            let k = Kernel::builder()
                .phase(Instr::new(5000))
                .access(buf, AccessKind::Write, IndexPattern::Strided { stride: 16 })
                .build();
            ctx.kernel(&k);
            ctx.send(Rank::new(1), buf, Tag::new(0)).unwrap();
            ctx.recv(Rank::new(1), buf, Tag::new(1)).unwrap();
            let r = Kernel::builder()
                .phase(Instr::new(3000))
                .access(buf, AccessKind::Read, IndexPattern::Shuffled { seed: 1 })
                .build();
            ctx.kernel(&r);
        });
        for mode in [
            OverlapMode::real(),
            OverlapMode::linear(),
            OverlapMode {
                pattern: PatternSource::Real,
                mechanisms: Mechanisms::EARLY_SEND_ONLY,
            },
            OverlapMode {
                pattern: PatternSource::Linear,
                mechanisms: Mechanisms::NONE,
            },
        ] {
            let out = overlap_rank(
                &records,
                &meta,
                &[true],
                &[true],
                &ChunkingPolicy::default(),
                mode,
            );
            assert_eq!(
                total_instr(&out),
                Instr::new(8000),
                "instruction count changed in mode {mode:?}"
            );
        }
    }

    #[test]
    fn shared_waitall_covers_all_transformed_messages() {
        // Two isends and one irecv completed by a single WaitAll — the
        // rewritten wait must cover every chunk of every message.
        let mut ctx = TraceContext::new(Rank::new(0), 3);
        let (records, meta) = {
            let a = ctx.register_buffer("a", 1000, 10);
            let b = ctx.register_buffer("b", 1000, 10);
            let c = ctx.register_buffer("c", 1000, 10);
            let k = Kernel::builder()
                .phase(Instr::new(100))
                .access(a, AccessKind::Write, IndexPattern::Sequential)
                .access(b, AccessKind::Write, IndexPattern::Sequential)
                .build();
            ctx.kernel(&k);
            let h1 = ctx.isend(Rank::new(1), a, Tag::new(0)).unwrap();
            let h2 = ctx.isend(Rank::new(2), b, Tag::new(0)).unwrap();
            let h3 = ctx.irecv(Rank::new(1), c, Tag::new(1)).unwrap();
            ctx.compute(Instr::new(50));
            // Complete all three with individual waits in a row (the
            // context emits one Wait per handle; exercise shared record via
            // wait_send which reuses the same WaitAll? The context emits
            // separate Wait records, so construct sharing manually below.)
            ctx.wait_send(h1).unwrap();
            ctx.wait_send(h2).unwrap();
            ctx.wait_recv(h3).unwrap();
            let read = Kernel::builder()
                .phase(Instr::new(100))
                .access(c, AccessKind::Read, IndexPattern::Sequential)
                .build();
            ctx.kernel(&read);
            ctx.finish().unwrap()
        };
        // Merge the three Wait records into one WaitAll to model the
        // common `MPI_Waitall` idiom.
        let mut merged: Vec<Record> = Vec::new();
        let mut shared: Vec<ovlsim_core::RequestId> = Vec::new();
        let mut meta = meta;
        for (idx, r) in records.iter().enumerate() {
            match r {
                Record::Wait { req } => {
                    shared.push(*req);
                    if shared.len() == 3 {
                        // All three metas point at this merged record.
                        let new_idx = merged.len();
                        for s in &mut meta.sends {
                            s.wait_record_idx = Some(new_idx);
                        }
                        for m in &mut meta.recvs {
                            m.wait_record_idx = Some(new_idx);
                        }
                        merged.push(Record::WaitAll {
                            reqs: shared.clone(),
                        });
                    }
                    let _ = idx;
                }
                other => merged.push(other.clone()),
            }
        }
        // Fix post/record indices shifted by the merge: recompute by
        // matching records (sends/recv posts are before the waits, so
        // their indices are unchanged here).
        let policy = ChunkingPolicy::fixed_count(2).with_min_chunk_bytes(1);
        let out = overlap_rank(
            &merged,
            &meta,
            &[true, true],
            &[true],
            &policy,
            OverlapMode {
                pattern: PatternSource::Real,
                mechanisms: Mechanisms::EARLY_SEND_ONLY,
            },
        );
        // With early-send + eager waits (late_wait=false), the rewritten
        // WaitAll must contain 2+2+2 = 6 chunk requests.
        let wait_reqs: Vec<usize> = out
            .iter()
            .filter_map(|r| match r {
                Record::WaitAll { reqs } => Some(reqs.len()),
                _ => None,
            })
            .collect();
        assert_eq!(wait_reqs, vec![6]);
        // Every posted request is waited exactly once.
        use std::collections::BTreeSet;
        let mut posted = BTreeSet::new();
        let mut waited = BTreeSet::new();
        for r in &out {
            match r {
                Record::ISend { req, .. } | Record::IRecv { req, .. } => {
                    assert!(posted.insert(req.get()));
                }
                Record::Wait { req } => {
                    assert!(waited.insert(req.get()));
                }
                Record::WaitAll { reqs } => {
                    for req in reqs {
                        assert!(waited.insert(req.get()));
                    }
                }
                _ => {}
            }
        }
        assert_eq!(posted, waited);
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::BTreeSet;
        let labels: BTreeSet<String> = [
            OverlapMode::real(),
            OverlapMode::linear(),
            OverlapMode {
                pattern: PatternSource::Real,
                mechanisms: Mechanisms::EARLY_SEND_ONLY,
            },
            OverlapMode {
                pattern: PatternSource::Real,
                mechanisms: Mechanisms::LATE_WAIT_ONLY,
            },
            OverlapMode {
                pattern: PatternSource::Real,
                mechanisms: Mechanisms::NONE,
            },
        ]
        .iter()
        .map(OverlapMode::label)
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
