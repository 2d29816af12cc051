//! Differential test of the overlap synthesis.
//!
//! `overlap_rank_tuned` builds its output from one record arena and a
//! merge. The oracle below is the reassembly it replaced: every emitted
//! unit owns its own record vector, replacements and wait rewrites are
//! keyed by record index in ordered maps, and every unit, original or
//! injected, goes through one stable sort by `(instant, src, sub)`. Both
//! must return equal record vectors on
//!
//! * random single-rank traces recorded through [`TraceContext`], with one
//!   random [`MsgTuning`] per message (`generator_reaches_every_shape`
//!   lists the shapes the generator must produce), and
//! * the six paper applications at class S, in both uniform modes.
//!
//! The oracle lives in an integration test rather than a `#[cfg(test)]`
//! module so that it can run the application models of `ovlsim-apps`: a
//! unit-test build would link a second copy of this crate, whose types the
//! models do not implement.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ovlsim_apps::registry::{build_app, AppOverrides, APP_NAMES};
use ovlsim_apps::ProblemClass;
use ovlsim_core::{BufferId, Instr, Rank, Record, RequestId, Tag};
use ovlsim_memtrace::{AccessKind, IndexPattern, Kernel};
use ovlsim_tracer::{
    chunk_tag, overlap_rank_tuned, ChunkingPolicy, MsgTuning, OverlapMode, PatternSource, RankMeta,
    RecvHandle, SendHandle, TraceContext, TracingSession, TUNING_SCALE,
};
use proptest::prelude::*;
use proptest::TestRng;

// --- The oracle -----------------------------------------------------------

/// One emission unit during reassembly.
#[derive(Debug)]
struct Item {
    instant: Instr,
    src: usize,
    sub: u32,
    records: Vec<Record>,
}

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

fn is_transparent(r: &Record) -> bool {
    matches!(r, Record::Burst { .. } | Record::Marker { .. })
}

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

fn lerp_instr(start: Instr, end: Instr, num: u64, den: u64) -> Instr {
    let span = (end - start).get() as u128;
    start + Instr::new((span * num as u128 / den as u128) as u64)
}

fn pull_toward(origin: Instr, full: Instr, level: u8) -> Instr {
    let span = (origin - full).get() as u128;
    origin - Instr::new((span * level as u128 / TUNING_SCALE as u128) as u64)
}

/// The record-map reassembly `overlap_rank_tuned` replaced.
fn oracle(
    records: &[Record],
    meta: &RankMeta,
    send_tuning: &[Option<MsgTuning>],
    recv_tuning: &[Option<MsgTuning>],
) -> Vec<Record> {
    assert_eq!(send_tuning.len(), meta.sends.len());
    assert_eq!(recv_tuning.len(), meta.recvs.len());

    let (pos, total) = record_positions(records);

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
    let mut fresh_req = move || {
        let r = RequestId::new(next_req);
        next_req += 1;
        r
    };

    let mut replacements: BTreeMap<usize, Vec<Record>> = BTreeMap::new();
    let mut wait_mods: BTreeMap<usize, BTreeMap<u32, Vec<RequestId>>> = BTreeMap::new();
    let mut items: Vec<Item> = Vec::new();
    let mut pending_by_buffer: BTreeMap<BufferId, Vec<RequestId>> = BTreeMap::new();
    let mut end_waits: Vec<RequestId> = Vec::new();

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
        let mut chunk_reqs = Vec::with_capacity(n);

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
            let req = fresh_req();
            chunk_reqs.push(req);
            items.push(Item {
                instant: ready,
                src: send.record_idx,
                sub: 1000 + j as u32,
                records: vec![Record::ISend {
                    to: send.to,
                    bytes: range.end - range.start,
                    tag: chunk_tag(send.tag, send.channel_seq, j),
                    req,
                }],
            });
        }

        replacements.insert(send.record_idx, Vec::new());
        match send.wait_record_idx {
            Some(wait_idx) => {
                let orig_req = match &records[send.record_idx] {
                    Record::ISend { req, .. } => *req,
                    other => unreachable!("send meta with wait points at {other}"),
                };
                wait_mods
                    .entry(wait_idx)
                    .or_default()
                    .insert(orig_req.get(), chunk_reqs);
            }
            None => match send.reuse_write {
                Some(at) => items.push(Item {
                    instant: at.min(total),
                    src: send.record_idx,
                    sub: 500,
                    records: vec![Record::WaitAll { reqs: chunk_reqs }],
                }),
                None => end_waits.extend(chunk_reqs),
            },
        }
    }

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

        let mut posts: Vec<Record> = Vec::with_capacity(n + 1);
        if let Some(pending) = pending_by_buffer.remove(&buf) {
            if !pending.is_empty() {
                posts.push(Record::WaitAll { reqs: pending });
            }
        }

        let mut chunk_reqs = Vec::with_capacity(n);
        for (j, range) in ranges.iter().enumerate() {
            let req = fresh_req();
            chunk_reqs.push(req);
            posts.push(Record::IRecv {
                from: recv.from,
                bytes: range.end - range.start,
                tag: chunk_tag(recv.tag, recv.channel_seq, j),
                req,
            });
        }
        replacements.insert(recv.post_record_idx, posts);

        let orig_req = recv
            .wait_record_idx
            .map(|_| match &records[recv.post_record_idx] {
                Record::IRecv { req, .. } => *req,
                other => unreachable!("recv meta with wait points at {other}"),
            });

        if t.late == 0 {
            match (recv.wait_record_idx, orig_req) {
                (Some(wait_idx), Some(req)) => {
                    wait_mods
                        .entry(wait_idx)
                        .or_default()
                        .insert(req.get(), chunk_reqs);
                }
                _ => {
                    replacements
                        .get_mut(&recv.post_record_idx)
                        .expect("posts were just inserted")
                        .push(Record::WaitAll { reqs: chunk_reqs });
                }
            }
            continue;
        }

        if let (Some(wait_idx), Some(req)) = (recv.wait_record_idx, orig_req) {
            wait_mods
                .entry(wait_idx)
                .or_default()
                .insert(req.get(), Vec::new());
        }
        let consumption = recv.consumption.as_ref();
        for (j, (range, req)) in ranges.iter().zip(&chunk_reqs).enumerate() {
            let needed = match t.pattern {
                PatternSource::Real => consumption.and_then(|c| c.needed_at(range.clone())),
                PatternSource::Linear => Some(lerp_instr(complete, wend, j as u64, n as u64)),
            };
            match needed {
                Some(at) => {
                    let full = at.max(complete).min(total);
                    let span = (full - complete).get() as u128;
                    let at = complete
                        + Instr::new((span * t.late as u128 / TUNING_SCALE as u128) as u64);
                    items.push(Item {
                        instant: at,
                        src: complete_idx,
                        sub: 1000 + j as u32,
                        records: vec![Record::Wait { req: *req }],
                    });
                }
                None => {
                    pending_by_buffer.entry(buf).or_default().push(*req);
                }
            }
        }
    }

    for (_, reqs) in std::mem::take(&mut pending_by_buffer) {
        end_waits.extend(reqs);
    }

    for (idx, rec) in records.iter().enumerate() {
        if matches!(rec, Record::Burst { .. }) {
            continue;
        }
        let recs = if let Some(mods) = wait_mods.remove(&idx) {
            let orig: Vec<RequestId> = match rec {
                Record::Wait { req } => vec![*req],
                Record::WaitAll { reqs } => reqs.clone(),
                other => unreachable!("wait mods on non-wait record {other}"),
            };
            let mut new_reqs: Vec<RequestId> = Vec::new();
            for req in orig {
                match mods.get(&req.get()) {
                    Some(subst) => new_reqs.extend(subst.iter().copied()),
                    None => new_reqs.push(req),
                }
            }
            match new_reqs.len() {
                0 => Vec::new(),
                1 => vec![Record::Wait { req: new_reqs[0] }],
                _ => vec![Record::WaitAll { reqs: new_reqs }],
            }
        } else {
            match replacements.remove(&idx) {
                Some(replacement) => replacement,
                None => vec![rec.clone()],
            }
        };
        items.push(Item {
            instant: pos[idx],
            src: idx,
            sub: 0,
            records: recs,
        });
    }

    items.sort_by_key(|it| (it.instant, it.src, it.sub));

    let mut out: Vec<Record> = Vec::with_capacity(records.len() + items.len());
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
    for item in items {
        assert!(item.instant >= cursor, "items must be time-sorted");
        push_burst(&mut out, item.instant, &mut cursor);
        out.extend(item.records);
    }
    push_burst(&mut out, total, &mut cursor);
    if !end_waits.is_empty() {
        out.push(Record::WaitAll { reqs: end_waits });
    }
    out
}

// --- The generator --------------------------------------------------------

/// Registered buffers per generated rank.
const BUFFERS: usize = 3;
/// Bytes per buffer element.
const ELEM_BYTES: u64 = 8;

/// One step of a generated rank program (rank 0 of three).
#[derive(Debug, Clone)]
enum Op {
    /// Opaque computation.
    Compute(u64),
    /// A kernel writing buffer `buf` in visit order `pattern`.
    Write { buf: usize, instr: u64, pattern: u8 },
    /// A kernel reading buffer `buf`, all of it or only its first half.
    Read {
        buf: usize,
        instr: u64,
        pattern: u8,
        half: bool,
    },
    /// A send of buffer `buf`: blocking, or an `isend` waited later.
    Send {
        buf: usize,
        peer: u32,
        tag: u64,
        blocking: bool,
    },
    /// A receive into buffer `buf`: blocking, or an `irecv` waited later.
    Recv {
        buf: usize,
        peer: u32,
        tag: u64,
        blocking: bool,
    },
    /// A raw-byte send (no buffer, never chunkable).
    RawSend { peer: u32, bytes: u64, tag: u64 },
    /// A raw-byte receive (no buffer, never chunkable).
    RawRecv { peer: u32, bytes: u64, tag: u64 },
    /// Waits for the `k` oldest outstanding requests, back to back.
    Wait(usize),
    /// A zero-width marker.
    Marker,
}

/// The per-message tuning draw: `choice` 0 leaves the message
/// untransformed, 1 gives it no chunks, anything else `chunks` chunks.
#[derive(Debug, Clone, Copy)]
struct TuningDraw {
    choice: u8,
    chunks: usize,
    linear: bool,
    early: u8,
    late: u8,
}

/// One generated rank and its per-message tunings.
#[derive(Debug)]
struct Case {
    records: Vec<Record>,
    meta: RankMeta,
    send_tuning: Vec<Option<MsgTuning>>,
    recv_tuning: Vec<Option<MsgTuning>>,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let buffer_msg = || (0..BUFFERS, 1u32..3, 0u64..2, 0u8..2);
    prop_oneof![
        (1u64..500).prop_map(Op::Compute),
        (0..BUFFERS, 1u64..800, 0u8..4).prop_map(|(buf, instr, pattern)| Op::Write {
            buf,
            instr,
            pattern
        }),
        (0..BUFFERS, 1u64..800, 0u8..4, 0u8..2).prop_map(|(buf, instr, pattern, half)| {
            Op::Read {
                buf,
                instr,
                pattern,
                half: half == 1,
            }
        }),
        buffer_msg().prop_map(|(buf, peer, tag, b)| Op::Send {
            buf,
            peer,
            tag,
            blocking: b == 1,
        }),
        buffer_msg().prop_map(|(buf, peer, tag, b)| Op::Recv {
            buf,
            peer,
            tag,
            blocking: b == 1,
        }),
        buffer_msg().prop_map(|(buf, peer, tag, _)| Op::Recv {
            buf,
            peer,
            tag,
            blocking: false,
        }),
        (1u32..3, 1u64..300, 0u64..2).prop_map(|(peer, bytes, tag)| Op::RawSend {
            peer,
            bytes,
            tag
        }),
        (1u32..3, 1u64..300, 0u64..2).prop_map(|(peer, bytes, tag)| Op::RawRecv {
            peer,
            bytes,
            tag
        }),
        (1usize..4).prop_map(Op::Wait),
        Just(Op::Marker),
    ]
}

fn arb_draw() -> impl Strategy<Value = TuningDraw> {
    (
        0u8..6,
        1usize..65,
        0u8..2,
        0u8..TUNING_SCALE + 1,
        0u8..TUNING_SCALE + 1,
    )
        .prop_map(|(choice, chunks, linear, early, late)| TuningDraw {
            choice,
            chunks,
            linear: linear == 1,
            early,
            late,
        })
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(arb_op(), 1..28),
        proptest::collection::vec(8u64..65, BUFFERS..BUFFERS + 1),
        0u8..2,
        0u8..2,
        proptest::collection::vec(arb_draw(), 32..33),
    )
        .prop_map(|(ops, elems, merge, reuse, draws)| {
            build_case(&ops, &elems, merge == 1, reuse == 1, &draws)
        })
}

fn pattern(code: u8) -> IndexPattern {
    match code {
        0 => IndexPattern::Sequential,
        1 => IndexPattern::Reverse,
        2 => IndexPattern::Strided { stride: 3 },
        _ => IndexPattern::Shuffled { seed: 7 },
    }
}

enum Handle {
    Send(SendHandle),
    Recv(RecvHandle),
}

fn build_case(ops: &[Op], elems: &[u64], merge: bool, reuse: bool, draws: &[TuningDraw]) -> Case {
    let mut ctx = TraceContext::new(Rank::new(0), 3);
    let bufs: Vec<BufferId> = elems
        .iter()
        .enumerate()
        .map(|(i, &n)| ctx.register_buffer(format!("b{i}"), n * ELEM_BYTES, ELEM_BYTES as u32))
        .collect();
    let mut outstanding: VecDeque<Handle> = VecDeque::new();
    let wait = |ctx: &mut TraceContext, h: Handle| match h {
        Handle::Send(h) => ctx.wait_send(h).unwrap(),
        Handle::Recv(h) => ctx.wait_recv(h).unwrap(),
    };
    for op in ops {
        match *op {
            Op::Compute(instr) => ctx.compute(Instr::new(instr)),
            Op::Write {
                buf,
                instr,
                pattern: p,
            } => ctx.kernel(
                &Kernel::builder()
                    .phase(Instr::new(instr))
                    .access(bufs[buf], AccessKind::Write, pattern(p))
                    .build(),
            ),
            Op::Read {
                buf,
                instr,
                pattern: p,
                half,
            } => {
                let n = elems[buf] as usize;
                let part = half.then_some(0..n / 2);
                ctx.kernel(
                    &Kernel::builder()
                        .phase(Instr::new(instr))
                        .access_range(bufs[buf], AccessKind::Read, pattern(p), part)
                        .build(),
                );
            }
            Op::Send {
                buf,
                peer,
                tag,
                blocking,
            } => {
                let (to, tag) = (Rank::new(peer), Tag::new(tag));
                if blocking {
                    ctx.send(to, bufs[buf], tag).unwrap();
                } else {
                    outstanding.push_back(Handle::Send(ctx.isend(to, bufs[buf], tag).unwrap()));
                }
            }
            Op::Recv {
                buf,
                peer,
                tag,
                blocking,
            } => {
                let (from, tag) = (Rank::new(peer), Tag::new(tag));
                if blocking {
                    ctx.recv(from, bufs[buf], tag).unwrap();
                } else {
                    outstanding.push_back(Handle::Recv(ctx.irecv(from, bufs[buf], tag).unwrap()));
                }
            }
            Op::RawSend { peer, bytes, tag } => ctx
                .send_bytes(Rank::new(peer), bytes, Tag::new(tag))
                .unwrap(),
            Op::RawRecv { peer, bytes, tag } => ctx
                .recv_bytes(Rank::new(peer), bytes, Tag::new(tag))
                .unwrap(),
            Op::Wait(k) => {
                for _ in 0..k {
                    if let Some(h) = outstanding.pop_front() {
                        wait(&mut ctx, h);
                    }
                }
            }
            Op::Marker => ctx.marker(1),
        }
    }
    while let Some(h) = outstanding.pop_front() {
        wait(&mut ctx, h);
    }
    let (mut records, mut meta) = ctx.finish().unwrap();
    if merge {
        (records, meta) = merge_wait_runs(records, meta);
    }
    if reuse {
        reuse_request_ids(&mut records);
    }
    let tuning = |d: &TuningDraw, bytes: u64| -> Option<MsgTuning> {
        let ranges = match d.choice {
            0 => return None,
            1 => Vec::new(),
            _ => ChunkingPolicy::fixed_count(d.chunks)
                .with_min_chunk_bytes(1)
                .chunk_ranges(bytes),
        };
        Some(MsgTuning {
            ranges,
            pattern: if d.linear {
                PatternSource::Linear
            } else {
                PatternSource::Real
            },
            early: d.early,
            late: d.late,
        })
    };
    let send_tuning = meta
        .sends
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.production
                .is_some()
                .then(|| tuning(&draws[i % draws.len()], s.bytes))
                .flatten()
        })
        .collect();
    let recv_tuning = meta
        .recvs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            m.buffer
                .is_some()
                .then(|| tuning(&draws[(i + draws.len() / 2) % draws.len()], m.bytes))
                .flatten()
        })
        .collect();
    Case {
        records,
        meta,
        send_tuning,
        recv_tuning,
    }
}

/// Merges every run of back-to-back `Wait` records into one `WaitAll`
/// (the `MPI_Waitall` idiom) and remaps the metadata's record indices.
fn merge_wait_runs(records: Vec<Record>, mut meta: RankMeta) -> (Vec<Record>, RankMeta) {
    let mut out: Vec<Record> = Vec::with_capacity(records.len());
    let mut new_idx: Vec<usize> = Vec::with_capacity(records.len());
    let mut in_run = false;
    for r in records {
        match (r, in_run, out.last_mut()) {
            (Record::Wait { req }, true, Some(last)) => {
                *last = match std::mem::replace(last, Record::Barrier) {
                    Record::Wait { req: prev } => Record::WaitAll {
                        reqs: vec![prev, req],
                    },
                    Record::WaitAll { mut reqs } => {
                        reqs.push(req);
                        Record::WaitAll { reqs }
                    }
                    other => unreachable!("a wait run ends in {other}"),
                };
            }
            (r, _, _) => {
                in_run = matches!(r, Record::Wait { .. });
                out.push(r);
            }
        }
        new_idx.push(out.len() - 1);
    }
    for s in &mut meta.sends {
        s.record_idx = new_idx[s.record_idx];
        s.wait_record_idx = s.wait_record_idx.map(|i| new_idx[i]);
    }
    for m in &mut meta.recvs {
        m.post_record_idx = new_idx[m.post_record_idx];
        m.wait_record_idx = m.wait_record_idx.map(|i| new_idx[i]);
    }
    (out, meta)
}

/// Renumbers requests the way an MPI library recycles handles: every post
/// takes the lowest id not outstanding at that point.
fn reuse_request_ids(records: &mut [Record]) {
    let mut live: BTreeMap<u32, u32> = BTreeMap::new();
    let mut free: BTreeSet<u32> = BTreeSet::new();
    let mut next = 0;
    let complete =
        |req: &mut RequestId, live: &mut BTreeMap<u32, u32>, free: &mut BTreeSet<u32>| {
            let id = live.remove(&req.get()).expect("waited request was posted");
            free.insert(id);
            *req = RequestId::new(id);
        };
    for r in records {
        match r {
            Record::ISend { req, .. } | Record::IRecv { req, .. } => {
                let id = match free.pop_first() {
                    Some(id) => id,
                    None => {
                        next += 1;
                        next - 1
                    }
                };
                live.insert(req.get(), id);
                *req = RequestId::new(id);
            }
            Record::Wait { req } => complete(req, &mut live, &mut free),
            Record::WaitAll { reqs } => {
                for req in reqs {
                    complete(req, &mut live, &mut free);
                }
            }
            _ => {}
        }
    }
}

// --- The properties -------------------------------------------------------

const CASES: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The arena-and-merge synthesis returns exactly the oracle's records.
    #[test]
    fn synthesis_matches_oracle(case in arb_case()) {
        let got = overlap_rank_tuned(&case.records, &case.meta, &case.send_tuning, &case.recv_tuning);
        let want = oracle(&case.records, &case.meta, &case.send_tuning, &case.recv_tuning);
        prop_assert_eq!(got, want);
    }
}

/// The shapes one generated case exercises.
fn shapes(case: &Case) -> BTreeSet<&'static str> {
    let mut out = BTreeSet::new();
    fn chunked(t: &Option<MsgTuning>) -> Option<&MsgTuning> {
        t.as_ref().filter(|t| !t.ranges.is_empty())
    }
    for (s, t) in case.meta.sends.iter().zip(&case.send_tuning) {
        match t {
            None => {
                out.insert("untransformed message");
            }
            Some(t) if t.ranges.is_empty() => {
                out.insert("tuning without chunks");
            }
            Some(_) => {}
        }
        let Some(t) = chunked(t) else { continue };
        out.insert(match (s.wait_record_idx, s.reuse_write) {
            (Some(_), _) => "isend + wait",
            (None, Some(_)) => "blocking send, buffer rewritten later",
            (None, None) => "blocking send, buffer never rewritten",
        });
        out.insert(if t.early == 0 { "early 0" } else { "early > 0" });
    }
    let mut late_by_wait: BTreeMap<usize, usize> = BTreeMap::new();
    let mut tuned_by_wait: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, (m, t)) in case.meta.recvs.iter().zip(&case.recv_tuning).enumerate() {
        let Some(t) = chunked(t) else { continue };
        out.insert(match (m.wait_record_idx, t.late) {
            (Some(_), _) => "irecv + wait",
            (None, 0) => "blocking recv, late 0",
            (None, _) => "blocking recv, late > 0",
        });
        out.insert(if t.late == 0 { "late 0" } else { "late > 0" });
        if let Some(w) = m.wait_record_idx {
            *tuned_by_wait.entry(w).or_default() += 1;
            if t.late > 0 {
                *late_by_wait.entry(w).or_default() += 1;
            }
        }
        let unconsumed = t.late > 0
            && t.pattern == PatternSource::Real
            && t.ranges.iter().any(|r| {
                m.consumption
                    .as_ref()
                    .is_none_or(|c| c.needed_at(r.clone()).is_none())
            });
        if unconsumed {
            let next_into_buffer = case.meta.recvs[i + 1..]
                .iter()
                .zip(&case.recv_tuning[i + 1..])
                .any(|(n, t)| n.buffer == m.buffer && chunked(t).is_some());
            out.insert(if next_into_buffer {
                "unconsumed chunks, deferred to the next receive"
            } else {
                "unconsumed chunks, deferred to the end"
            });
        }
    }
    let waits_shared = |counts: &BTreeMap<usize, usize>| counts.values().any(|&n| n >= 2);
    if waits_shared(&tuned_by_wait) {
        out.insert("one WaitAll completes several messages");
    }
    if waits_shared(&late_by_wait) {
        out.insert("late waits of one WaitAll tie on all three keys");
    }
    let tunings = case.send_tuning.iter().chain(&case.recv_tuning);
    for t in tunings.filter_map(|t| chunked(t)) {
        match t.ranges.len() {
            1 => {
                out.insert("1 chunk");
            }
            64 => {
                out.insert("64 chunks");
            }
            _ => {}
        }
    }
    let mut posted = BTreeSet::new();
    for r in &case.records {
        if let Record::ISend { req, .. } | Record::IRecv { req, .. } = r {
            if !posted.insert(req.get()) {
                out.insert("reused request id");
            }
        }
    }
    out
}

/// The cases `synthesis_matches_oracle` draws reach every shape the
/// reassembly treats specially.
#[test]
fn generator_reaches_every_shape() {
    let test_path = concat!(module_path!(), "::synthesis_matches_oracle");
    let strategy = arb_case();
    let mut seen: BTreeMap<&'static str, u32> = BTreeMap::new();
    for case in 0..CASES {
        let mut rng = TestRng::for_case(test_path, case);
        for shape in shapes(&strategy.generate(&mut rng)) {
            *seen.entry(shape).or_default() += 1;
        }
    }
    let expected = [
        "untransformed message",
        "tuning without chunks",
        "isend + wait",
        "irecv + wait",
        "blocking send, buffer rewritten later",
        "blocking send, buffer never rewritten",
        "blocking recv, late 0",
        "blocking recv, late > 0",
        "one WaitAll completes several messages",
        "late waits of one WaitAll tie on all three keys",
        "unconsumed chunks, deferred to the next receive",
        "unconsumed chunks, deferred to the end",
        "reused request id",
        "early 0",
        "early > 0",
        "late 0",
        "late > 0",
        "1 chunk",
        "64 chunks",
    ];
    for shape in expected {
        assert!(
            seen.contains_key(shape),
            "no generated case reaches {shape:?}; reached: {seen:?}"
        );
    }
}

/// The session's chunkable flags: a message may be chunked only if the
/// sender snapshotted a production profile and the receiver used a
/// registered buffer.
fn chunkable(metas: &[RankMeta]) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
    let mut recv_has_buffer = BTreeMap::new();
    let mut send_has_profile = BTreeMap::new();
    for (r, meta) in metas.iter().enumerate() {
        let r = r as u32;
        for m in &meta.recvs {
            recv_has_buffer.insert((m.from.get(), r, m.tag, m.channel_seq), m.buffer.is_some());
        }
        for s in &meta.sends {
            send_has_profile.insert(
                (r, s.to.get(), s.tag, s.channel_seq),
                s.production.is_some(),
            );
        }
    }
    let sends = metas
        .iter()
        .enumerate()
        .map(|(r, meta)| {
            let key = |s: &ovlsim_tracer::SendMeta| (r as u32, s.to.get(), s.tag, s.channel_seq);
            meta.sends
                .iter()
                .map(|s| s.production.is_some() && recv_has_buffer.get(&key(s)) == Some(&true))
                .collect()
        })
        .collect();
    let recvs = metas
        .iter()
        .enumerate()
        .map(|(r, meta)| {
            let key = |m: &ovlsim_tracer::RecvMeta| (m.from.get(), r as u32, m.tag, m.channel_seq);
            meta.recvs
                .iter()
                .map(|m| m.buffer.is_some() && send_has_profile.get(&key(m)) == Some(&true))
                .collect()
        })
        .collect();
    (sends, recvs)
}

/// On the six paper applications at class S, both uniform modes
/// synthesize exactly what the oracle does, and exactly what
/// `TraceBundle::overlapped` returns.
#[test]
fn paper_apps_match_oracle() {
    for name in APP_NAMES {
        let app = build_app(name, ProblemClass::S, AppOverrides::default()).unwrap();
        let bundle = TracingSession::new(app.as_ref()).run().unwrap();
        let (send_ok, recv_ok) = chunkable(bundle.metas());
        for mode in [OverlapMode::linear(), OverlapMode::real()] {
            let synthesized = bundle.overlapped(mode).unwrap();
            let level = |on: bool| if on { TUNING_SCALE } else { 0 };
            let uniform = |ok: bool, bytes: u64| {
                ok.then(|| MsgTuning {
                    ranges: bundle.policy().chunk_ranges(bytes),
                    pattern: mode.pattern,
                    early: level(mode.mechanisms.early_send),
                    late: level(mode.mechanisms.late_wait),
                })
            };
            for (r, rank) in bundle.original().ranks().iter().enumerate() {
                let meta = &bundle.metas()[r];
                let sends: Vec<_> = meta
                    .sends
                    .iter()
                    .zip(&send_ok[r])
                    .map(|(s, &ok)| uniform(ok, s.bytes))
                    .collect();
                let recvs: Vec<_> = meta
                    .recvs
                    .iter()
                    .zip(&recv_ok[r])
                    .map(|(m, &ok)| uniform(ok, m.bytes))
                    .collect();
                let got = overlap_rank_tuned(rank.records(), meta, &sends, &recvs);
                let want = oracle(rank.records(), meta, &sends, &recvs);
                let label = mode.label();
                assert!(
                    got == want,
                    "{name} {label} rank {r}: synthesis differs from the oracle"
                );
                assert!(
                    got == synthesized.ranks()[r].records(),
                    "{name} {label} rank {r}: uniform tunings differ from the bundle's"
                );
            }
        }
    }
}
