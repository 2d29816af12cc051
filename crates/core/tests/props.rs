//! Property tests for the core quantity types, and for the record walker
//! against the two-pass validate-then-lower oracle it replaced.

use ovlsim_core::{format_bandwidth, format_bytes, format_time, Bandwidth, Instr, MipsRate, Time};
use proptest::prelude::*;

proptest! {
    /// Addition and subtraction are exact inverses within range.
    #[test]
    fn time_add_sub_roundtrip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let ta = Time::from_ps(a);
        let tb = Time::from_ps(b);
        prop_assert_eq!((ta + tb) - tb, ta);
        prop_assert_eq!((ta + tb) - ta, tb);
    }

    /// max/min are consistent with ordering.
    #[test]
    fn time_minmax_consistent(a in any::<u64>(), b in any::<u64>()) {
        let ta = Time::from_ps(a);
        let tb = Time::from_ps(b);
        prop_assert_eq!(ta.max(tb).as_ps(), a.max(b));
        prop_assert_eq!(ta.min(tb).as_ps(), a.min(b));
        prop_assert_eq!(ta.max(tb).min(ta.min(tb)), ta.min(tb));
    }

    /// Saturating operations never panic and clamp correctly.
    #[test]
    fn time_saturating_never_panics(a in any::<u64>(), b in any::<u64>(), m in any::<u64>()) {
        let ta = Time::from_ps(a);
        let tb = Time::from_ps(b);
        let sum = ta.saturating_add(tb);
        prop_assert!(sum >= ta.min(sum));
        prop_assert_eq!(ta.saturating_sub(tb).as_ps(), a.saturating_sub(b));
        let _ = ta.saturating_mul(m);
    }

    /// Seconds round-trip through the f64 constructor within one
    /// picosecond (the division by 10^12 costs at most one ulp).
    #[test]
    fn time_secs_f64_roundtrip(ps in 0u64..(1u64 << 52)) {
        let t = Time::from_ps(ps);
        let back = Time::try_from_secs_f64(t.as_secs_f64()).unwrap();
        prop_assert!(back.as_ps().abs_diff(t.as_ps()) <= 1, "{} vs {}", back.as_ps(), t.as_ps());
    }

    /// Instruction→time→instruction round-trips within one instruction.
    #[test]
    fn mips_roundtrip(instr in 0u64..1_000_000_000_000, mips in 1u64..1_000_000) {
        let rate = MipsRate::new(mips).unwrap();
        let t = rate.instr_to_time(Instr::new(instr));
        let back = rate.time_to_instr(t);
        prop_assert!(back.get().abs_diff(instr) <= 1,
            "instr {instr} at {mips} MIPS -> {t} -> {back}");
    }

    /// Scaling time by MIPS is monotone in the instruction count.
    #[test]
    fn mips_monotone(a in 0u64..u64::MAX / 2_000_000, b in 0u64..u64::MAX / 2_000_000, mips in 1u64..1_000_000) {
        let rate = MipsRate::new(mips).unwrap();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(rate.instr_to_time(Instr::new(lo)) <= rate.instr_to_time(Instr::new(hi)));
    }

    /// Transfer time scales (weakly) monotonically with bytes and
    /// inversely with bandwidth.
    #[test]
    fn bandwidth_transfer_monotone(
        bytes_a in 0u64..1u64 << 40,
        bytes_b in 0u64..1u64 << 40,
        bps in 1.0f64..1.0e12,
    ) {
        let bw = Bandwidth::from_bytes_per_sec(bps).unwrap();
        let (lo, hi) = (bytes_a.min(bytes_b), bytes_a.max(bytes_b));
        prop_assert!(bw.transfer_time(lo) <= bw.transfer_time(hi));
        let faster = Bandwidth::from_bytes_per_sec(bps * 2.0).unwrap();
        prop_assert!(faster.transfer_time(hi) <= bw.transfer_time(hi));
    }

    /// Formatters never panic and never return empty strings.
    #[test]
    fn formatters_total(ps in any::<u64>(), bytes in any::<u64>(), bps in 1.0e-3f64..1.0e15) {
        prop_assert!(!format_time(Time::from_ps(ps)).is_empty());
        prop_assert!(!format_bytes(bytes).is_empty());
        prop_assert!(!format_bandwidth(Bandwidth::from_bytes_per_sec(bps).unwrap()).is_empty());
    }
}

// ---------------------------------------------------------------------
// The record walker against the two-pass oracle it replaced: a
// validate-and-index scan, then a lowering driven by that index. Both are
// kept here as test code, so the walker's issue lists, indexes and
// programs can be compared value for value.

use std::collections::{BTreeSet, HashMap};

use ovlsim_core::{
    validate_trace_set, CompiledTrace, LoweredRank, Rank, RankTrace, Record, RecordKind, RequestId,
    Tag, TraceIndex, TraceIssue, TraceSet, NO_CHANNEL,
};

/// A trace index as plain data: name, channel endpoints, and each
/// record's channel id.
#[derive(Debug, PartialEq)]
struct IndexView {
    name: String,
    peers: Vec<(u32, u32)>,
    columns: Vec<Vec<u32>>,
}

fn index_view(index: &TraceIndex) -> IndexView {
    IndexView {
        name: index.trace_name().to_string(),
        peers: index.channel_peers().to_vec(),
        columns: (0..index.rank_count())
            .map(|r| index.rank_channels(r).to_vec())
            .collect(),
    }
}

/// One rank's compiled program as plain data.
#[derive(Debug, PartialEq, Default)]
struct RankView {
    ops: Vec<RecordKind>,
    a: Vec<u32>,
    b: Vec<u32>,
    payload: Vec<u64>,
    wait_slots: Vec<u32>,
    slot_count: u32,
}

impl RankView {
    fn push(&mut self, op: RecordKind, a: u32, b: u32, payload: u64) {
        self.ops.push(op);
        self.a.push(a);
        self.b.push(b);
        self.payload.push(payload);
    }
}

/// A compiled program as plain data.
#[derive(Debug, PartialEq)]
struct ProgramView {
    name: String,
    mips: u64,
    channels: Vec<(u32, u32, u64)>,
    ranks: Vec<RankView>,
}

fn program_view(p: &CompiledTrace) -> ProgramView {
    ProgramView {
        name: p.name().to_string(),
        mips: p.mips().get(),
        channels: p
            .channels()
            .iter()
            .map(|c| (c.src.get(), c.dst.get(), c.tag.get()))
            .collect(),
        ranks: (0..p.rank_count())
            .map(|r| {
                let rp = p.rank(r);
                RankView {
                    ops: rp.ops().to_vec(),
                    a: rp.a().to_vec(),
                    b: rp.b().to_vec(),
                    payload: rp.payload().to_vec(),
                    wait_slots: rp.wait_slots().to_vec(),
                    slot_count: rp.slot_count(),
                }
            })
            .collect(),
    }
}

/// Oracle, first pass: validates and indexes in one scan, with two size
/// vectors per channel and an ordered set of requests in flight.
fn oracle_scan(ts: &TraceSet) -> (Vec<TraceIssue>, IndexView) {
    struct ChannelScan {
        from: Rank,
        to: Rank,
        tag: Tag,
        sends: Vec<u64>,
        recvs: Vec<u64>,
    }
    let mut issues = Vec::new();
    let n = ts.rank_count();
    let mut channel_ids: HashMap<(u32, u32, u64), u32> = HashMap::new();
    let mut channels: Vec<ChannelScan> = Vec::new();
    let mut record_channels: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut collective_seqs: Vec<Vec<&Record>> = Vec::with_capacity(n);
    let mut intern = |from: Rank, to: Rank, tag: Tag, channels: &mut Vec<ChannelScan>| -> u32 {
        *channel_ids
            .entry((from.get(), to.get(), tag.get()))
            .or_insert_with(|| {
                channels.push(ChannelScan {
                    from,
                    to,
                    tag,
                    sends: Vec::new(),
                    recvs: Vec::new(),
                });
                (channels.len() - 1) as u32
            })
    };
    for (idx, trace) in ts.ranks().iter().enumerate() {
        let rank = Rank::new(idx as u32);
        let mut in_flight: BTreeSet<RequestId> = BTreeSet::new();
        let mut collectives = Vec::new();
        let mut rank_channels = Vec::with_capacity(trace.len());
        for (ri, rec) in trace.iter().enumerate() {
            let check_rank = |referenced: Rank, issues: &mut Vec<TraceIssue>| {
                if referenced.index() >= n {
                    issues.push(TraceIssue::RankOutOfRange {
                        rank,
                        record: ri,
                        referenced,
                    });
                }
            };
            let mut channel = NO_CHANNEL;
            match rec {
                Record::Send { to, bytes, tag } => {
                    check_rank(*to, &mut issues);
                    channel = intern(rank, *to, *tag, &mut channels);
                    channels[channel as usize].sends.push(*bytes);
                }
                Record::ISend {
                    to,
                    bytes,
                    tag,
                    req,
                } => {
                    check_rank(*to, &mut issues);
                    channel = intern(rank, *to, *tag, &mut channels);
                    channels[channel as usize].sends.push(*bytes);
                    if !in_flight.insert(*req) {
                        issues.push(TraceIssue::DuplicateRequest {
                            rank,
                            record: ri,
                            req: *req,
                        });
                    }
                }
                Record::Recv { from, bytes, tag } => {
                    check_rank(*from, &mut issues);
                    channel = intern(*from, rank, *tag, &mut channels);
                    channels[channel as usize].recvs.push(*bytes);
                }
                Record::IRecv {
                    from,
                    bytes,
                    tag,
                    req,
                } => {
                    check_rank(*from, &mut issues);
                    channel = intern(*from, rank, *tag, &mut channels);
                    channels[channel as usize].recvs.push(*bytes);
                    if !in_flight.insert(*req) {
                        issues.push(TraceIssue::DuplicateRequest {
                            rank,
                            record: ri,
                            req: *req,
                        });
                    }
                }
                Record::Wait { req } if !in_flight.remove(req) => {
                    issues.push(TraceIssue::UnknownRequest {
                        rank,
                        record: ri,
                        req: *req,
                    });
                }
                Record::WaitAll { reqs } => {
                    for req in reqs {
                        if !in_flight.remove(req) {
                            issues.push(TraceIssue::UnknownRequest {
                                rank,
                                record: ri,
                                req: *req,
                            });
                        }
                    }
                }
                Record::Bcast { root, .. } | Record::Reduce { root, .. } => {
                    check_rank(*root, &mut issues);
                    collectives.push(rec);
                }
                r if r.is_collective() => collectives.push(rec),
                _ => {}
            }
            rank_channels.push(channel);
        }
        for req in in_flight {
            issues.push(TraceIssue::LeakedRequest { rank, req });
        }
        collective_seqs.push(collectives);
        record_channels.push(rank_channels);
    }
    let mut report_order: Vec<usize> = (0..channels.len()).collect();
    report_order.sort_by_key(|&i| {
        let c = &channels[i];
        (c.from, c.to, c.tag)
    });
    for i in report_order {
        let c = &channels[i];
        if c.sends.len() != c.recvs.len() {
            issues.push(TraceIssue::UnbalancedChannel {
                from: c.from,
                to: c.to,
                tag: c.tag,
                sends: c.sends.len(),
                recvs: c.recvs.len(),
            });
        }
        for (pos, (s, r)) in c.sends.iter().zip(c.recvs.iter()).enumerate() {
            if s != r {
                issues.push(TraceIssue::SizeMismatch {
                    from: c.from,
                    to: c.to,
                    tag: c.tag,
                    position: pos,
                    send_bytes: *s,
                    recv_bytes: *r,
                });
            }
        }
    }
    if let Some(reference) = collective_seqs.first() {
        for (idx, seq) in collective_seqs.iter().enumerate().skip(1) {
            let rank = Rank::new(idx as u32);
            if seq.len() != reference.len() {
                issues.push(TraceIssue::CollectiveMismatch {
                    rank,
                    position: seq.len().min(reference.len()),
                    detail: format!(
                        "rank 0 has {} collectives, {rank} has {}",
                        reference.len(),
                        seq.len()
                    ),
                });
                continue;
            }
            for (pos, (a, b)) in reference.iter().zip(seq.iter()).enumerate() {
                if a != b {
                    issues.push(TraceIssue::CollectiveMismatch {
                        rank,
                        position: pos,
                        detail: format!("rank 0 sees `{a}`, {rank} sees `{b}`"),
                    });
                }
            }
        }
    }
    let index = IndexView {
        name: ts.name().to_string(),
        peers: channels
            .iter()
            .map(|c| (c.from.get(), c.to.get()))
            .collect(),
        columns: record_channels,
    };
    (issues, index)
}

/// The oracle's slot allocator: posts pop the free list (or grow the
/// table), waits push their slot back.
#[derive(Default)]
struct SlotAllocator {
    live: HashMap<u32, u32>,
    free: Vec<u32>,
    next: u32,
}

impl SlotAllocator {
    fn post(&mut self, req: RequestId) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        });
        self.live.insert(req.get(), slot);
        slot
    }

    fn wait(&mut self, req: RequestId) -> Option<u32> {
        let slot = self.live.remove(&req.get())?;
        self.free.push(slot);
        Some(slot)
    }
}

/// Oracle, second pass: lowers a validated trace with its index. A wait
/// on a request not in flight fails with its rank and record.
fn oracle_lower(ts: &TraceSet, index: &IndexView) -> Result<ProgramView, (usize, usize)> {
    let mut channels: Vec<(u32, u32, u64)> = index.peers.iter().map(|&(s, d)| (s, d, 0)).collect();
    let mut tag_known = vec![false; channels.len()];
    let mips = ts.mips();
    let mut ranks = Vec::new();
    for (r, rank_trace) in ts.ranks().iter().enumerate() {
        let chans = &index.columns[r];
        let mut p = RankView::default();
        let mut slots = SlotAllocator::default();
        for (ri, rec) in rank_trace.iter().enumerate() {
            let mut note_channel = |ch: u32, tag: Tag| {
                if !tag_known[ch as usize] {
                    channels[ch as usize].2 = tag.get();
                    tag_known[ch as usize] = true;
                }
            };
            match rec {
                Record::Burst { instr } => {
                    let ps = mips.instr_to_time(*instr).as_ps();
                    p.push(RecordKind::Burst, 0, 0, ps);
                }
                Record::Marker { code } => p.push(RecordKind::Marker, *code, 0, 0),
                Record::Send { bytes, tag, .. } => {
                    note_channel(chans[ri], *tag);
                    p.push(RecordKind::Send, chans[ri], 0, *bytes);
                }
                Record::ISend {
                    bytes, tag, req, ..
                } => {
                    note_channel(chans[ri], *tag);
                    let slot = slots.post(*req);
                    p.push(RecordKind::ISend, chans[ri], slot, *bytes);
                }
                Record::Recv { bytes, tag, .. } => {
                    note_channel(chans[ri], *tag);
                    p.push(RecordKind::Recv, chans[ri], 0, *bytes);
                }
                Record::IRecv { tag, req, .. } => {
                    note_channel(chans[ri], *tag);
                    let slot = slots.post(*req);
                    p.push(RecordKind::IRecv, chans[ri], slot, 0);
                }
                Record::Wait { req } => {
                    let slot = slots.wait(*req).ok_or((r, ri))?;
                    p.push(RecordKind::Wait, slot, 0, 0);
                }
                Record::WaitAll { reqs } => {
                    for req in reqs {
                        let slot = slots.wait(*req).ok_or((r, ri))?;
                        p.wait_slots.push(slot);
                    }
                    p.push(RecordKind::WaitAll, reqs.len() as u32, 0, 0);
                }
                Record::Barrier => p.push(RecordKind::Barrier, 0, 0, 0),
                Record::AllReduce { bytes } => p.push(RecordKind::AllReduce, 0, 0, *bytes),
                Record::Bcast { bytes, .. } => p.push(RecordKind::Bcast, 0, 0, *bytes),
                Record::Reduce { bytes, .. } => p.push(RecordKind::Reduce, 0, 0, *bytes),
                Record::AllToAll { bytes } => p.push(RecordKind::AllToAll, 0, 0, *bytes),
                Record::AllGather { bytes } => p.push(RecordKind::AllGather, 0, 0, *bytes),
            }
        }
        p.slot_count = slots.next;
        ranks.push(p);
    }
    Ok(ProgramView {
        name: ts.name().to_string(),
        mips: mips.get(),
        channels,
        ranks,
    })
}

/// One step of a generated execution. Rank fields are reduced modulo the
/// rank count when the trace is built.
#[derive(Debug, Clone)]
enum Step {
    /// A message; either side may be non-blocking.
    Msg {
        src: u8,
        dst: u8,
        tag: u8,
        bytes: u16,
        isend: bool,
        irecv: bool,
    },
    /// Waits on the oldest request of a rank, or on all of them at once.
    Flush {
        rank: u8,
        all: bool,
    },
    /// The same collective on every rank.
    Collective {
        kind: u8,
        bytes: u16,
        root: u8,
    },
    Burst {
        rank: u8,
        instr: u32,
    },
    Marker {
        rank: u8,
        code: u8,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            any::<u8>(),
            any::<u8>(),
            0u8..3,
            any::<u16>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(src, dst, tag, bytes, isend, irecv)| Step::Msg {
                src,
                dst,
                tag,
                bytes,
                isend,
                irecv,
            }),
        (any::<u8>(), any::<bool>()).prop_map(|(rank, all)| Step::Flush { rank, all }),
        (0u8..6, any::<u16>(), any::<u8>()).prop_map(|(kind, bytes, root)| Step::Collective {
            kind,
            bytes,
            root
        }),
        (any::<u8>(), 0u32..1_000_000).prop_map(|(rank, instr)| Step::Burst { rank, instr }),
        (any::<u8>(), any::<u8>()).prop_map(|(rank, code)| Step::Marker { rank, code }),
    ]
}

/// Builds a structurally valid trace from `steps`: every post is waited
/// on (the rest at the end, in one wait-all), request ids are reused once
/// retired, and every rank lists the same collectives.
fn build_valid(ranks: usize, mips: u64, steps: &[Step]) -> TraceSet {
    let mut records: Vec<Vec<Record>> = vec![Vec::new(); ranks];
    let mut pending: Vec<Vec<RequestId>> = vec![Vec::new(); ranks];
    let mut next = vec![0u32; ranks];
    let mut fresh = |r: usize, pending: &mut Vec<Vec<RequestId>>| {
        let mut id = next[r];
        while pending[r].contains(&RequestId::new(id)) {
            id += 1;
        }
        next[r] = (id + 1) % 4;
        pending[r].push(RequestId::new(id));
        RequestId::new(id)
    };
    for step in steps {
        match *step {
            Step::Msg {
                src,
                dst,
                tag,
                bytes,
                isend,
                irecv,
            } => {
                let (s, d) = (src as usize % ranks, dst as usize % ranks);
                let (tag, bytes) = (Tag::new(u64::from(tag)), u64::from(bytes));
                let send = if isend {
                    let req = fresh(s, &mut pending);
                    Record::ISend {
                        to: Rank::new(d as u32),
                        bytes,
                        tag,
                        req,
                    }
                } else {
                    Record::Send {
                        to: Rank::new(d as u32),
                        bytes,
                        tag,
                    }
                };
                records[s].push(send);
                let recv = if irecv {
                    let req = fresh(d, &mut pending);
                    Record::IRecv {
                        from: Rank::new(s as u32),
                        bytes,
                        tag,
                        req,
                    }
                } else {
                    Record::Recv {
                        from: Rank::new(s as u32),
                        bytes,
                        tag,
                    }
                };
                records[d].push(recv);
            }
            Step::Flush { rank, all } => {
                let r = rank as usize % ranks;
                if pending[r].is_empty() {
                } else if all {
                    let mut reqs = std::mem::take(&mut pending[r]);
                    reqs.reverse();
                    records[r].push(Record::WaitAll { reqs });
                } else {
                    let req = pending[r].remove(0);
                    records[r].push(Record::Wait { req });
                }
            }
            Step::Collective { kind, bytes, root } => {
                let (bytes, root) = (u64::from(bytes), Rank::new(u32::from(root) % ranks as u32));
                let rec = match kind {
                    0 => Record::Barrier,
                    1 => Record::AllReduce { bytes },
                    2 => Record::Bcast { root, bytes },
                    3 => Record::Reduce { root, bytes },
                    4 => Record::AllToAll { bytes },
                    _ => Record::AllGather { bytes },
                };
                for r in &mut records {
                    r.push(rec.clone());
                }
            }
            Step::Burst { rank, instr } => records[rank as usize % ranks].push(Record::Burst {
                instr: Instr::new(u64::from(instr)),
            }),
            Step::Marker { rank, code } => records[rank as usize % ranks].push(Record::Marker {
                code: u32::from(code),
            }),
        }
    }
    for (r, reqs) in pending.into_iter().enumerate() {
        if !reqs.is_empty() {
            records[r].push(Record::WaitAll { reqs });
        }
    }
    TraceSet::new(
        "walk",
        MipsRate::new(mips).unwrap(),
        records.into_iter().map(RankTrace::from_records).collect(),
    )
}

fn arb_valid_trace() -> impl Strategy<Value = TraceSet> {
    (
        1usize..5,
        1u64..1_000_000,
        proptest::collection::vec(arb_step(), 0..48),
    )
        .prop_map(|(ranks, mips, steps)| build_valid(ranks, mips, &steps))
}

/// One injected defect: `kind` picks the defect, `rank`, `at` and `value`
/// pick where and how (reduced modulo what the trace offers).
#[derive(Debug, Clone, Copy)]
struct Mutation {
    kind: u8,
    rank: u8,
    at: u16,
    value: u32,
}

/// The number of mutation kinds [`mutate`] knows.
const MUTATION_KINDS: u8 = 9;

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0..MUTATION_KINDS, any::<u8>(), any::<u16>(), any::<u32>()).prop_map(
        |(kind, rank, at, value)| Mutation {
            kind,
            rank,
            at,
            value,
        },
    )
}

/// The position of one record of `recs` matching `pred`, chosen by `at`.
fn pick(recs: &[Record], at: u16, pred: impl Fn(&Record) -> bool) -> Option<usize> {
    let hits: Vec<usize> = (0..recs.len()).filter(|&i| pred(&recs[i])).collect();
    (!hits.is_empty()).then(|| hits[at as usize % hits.len()])
}

fn is_p2p(r: &Record) -> bool {
    matches!(
        r,
        Record::Send { .. } | Record::ISend { .. } | Record::Recv { .. } | Record::IRecv { .. }
    )
}

/// Applies `muts` in order. Each one injects one kind of issue, and most
/// bring others along (a retargeted message also unbalances channels).
fn mutate(ts: &TraceSet, muts: &[Mutation]) -> TraceSet {
    let n = ts.rank_count();
    let mut ranks: Vec<Vec<Record>> = ts.ranks().iter().map(|r| r.records().to_vec()).collect();
    for m in muts {
        let recs = &mut ranks[m.rank as usize % n];
        let beyond = Rank::new(n as u32 + m.value % 3);
        match m.kind {
            // Out-of-range peer.
            0 => {
                if let Some(i) = pick(recs, m.at, is_p2p) {
                    match &mut recs[i] {
                        Record::Send { to, .. } | Record::ISend { to, .. } => *to = beyond,
                        Record::Recv { from, .. } | Record::IRecv { from, .. } => *from = beyond,
                        _ => unreachable!(),
                    }
                }
            }
            // Out-of-range root, on every rank alike.
            1 => {
                for r in &mut ranks {
                    r.push(Record::Bcast {
                        root: beyond,
                        bytes: 8,
                    });
                }
            }
            // Wait on a request nobody posted.
            2 => {
                let i = m.at as usize % (recs.len() + 1);
                recs.insert(
                    i,
                    Record::Wait {
                        req: RequestId::new(100 + m.value % 5),
                    },
                );
            }
            // Re-post a request in flight.
            3 => {
                let posts = |r: &Record| matches!(r, Record::ISend { .. } | Record::IRecv { .. });
                if let Some(i) = pick(recs, m.at, posts) {
                    recs.insert(i + 1, recs[i].clone());
                }
            }
            // Leak a request: drop its wait.
            4 => {
                let waits = |r: &Record| matches!(r, Record::Wait { .. } | Record::WaitAll { .. });
                if let Some(i) = pick(recs, m.at, waits) {
                    match &mut recs[i] {
                        Record::WaitAll { reqs } if !reqs.is_empty() => {
                            reqs.remove(m.value as usize % reqs.len());
                        }
                        _ => {
                            recs.remove(i);
                        }
                    }
                }
            }
            // Unbalance a channel: drop one side of a message.
            5 => {
                let blocking = |r: &Record| matches!(r, Record::Send { .. } | Record::Recv { .. });
                if let Some(i) = pick(recs, m.at, blocking) {
                    recs.remove(i);
                }
            }
            // Size mismatch.
            6 => {
                if let Some(i) = pick(recs, m.at, is_p2p) {
                    match &mut recs[i] {
                        Record::Send { bytes, .. }
                        | Record::ISend { bytes, .. }
                        | Record::Recv { bytes, .. }
                        | Record::IRecv { bytes, .. } => *bytes += 1 + u64::from(m.value % 7),
                        _ => unreachable!(),
                    }
                }
            }
            // Collective count mismatch: one rank skips a collective.
            7 => {
                if let Some(i) = pick(recs, m.at, Record::is_collective) {
                    recs.remove(i);
                }
            }
            // Collective content mismatch: one rank's collective moves
            // more bytes, or is another operation.
            _ => {
                if let Some(i) = pick(recs, m.at, Record::is_collective) {
                    let bytes = recs[i].bytes() + 1;
                    recs[i] = match (&recs[i], m.value % 2) {
                        (Record::Bcast { root, .. }, 0) => Record::Bcast { root: *root, bytes },
                        (Record::Reduce { root, .. }, 0) => Record::Reduce { root: *root, bytes },
                        (Record::AllToAll { .. }, 0) => Record::AllToAll { bytes },
                        (Record::AllGather { .. }, 0) => Record::AllGather { bytes },
                        (Record::AllReduce { .. }, 1) => Record::AllToAll { bytes },
                        _ => Record::AllReduce { bytes },
                    };
                }
            }
        }
    }
    TraceSet::new(
        ts.name(),
        ts.mips(),
        ranks.into_iter().map(RankTrace::from_records).collect(),
    )
}

/// Any record over small value ranges, so that garbage traces still hit
/// real channels, requests and ranks now and then.
fn arb_small_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (0u64..100).prop_map(|i| Record::Burst {
            instr: Instr::new(i)
        }),
        (0u32..4, 0u64..3, 0u64..2).prop_map(|(to, bytes, tag)| Record::Send {
            to: Rank::new(to),
            bytes,
            tag: Tag::new(tag),
        }),
        (0u32..4, 0u64..3, 0u64..2, 0u32..3).prop_map(|(to, bytes, tag, req)| Record::ISend {
            to: Rank::new(to),
            bytes,
            tag: Tag::new(tag),
            req: RequestId::new(req),
        }),
        (0u32..4, 0u64..3, 0u64..2).prop_map(|(from, bytes, tag)| Record::Recv {
            from: Rank::new(from),
            bytes,
            tag: Tag::new(tag),
        }),
        (0u32..4, 0u64..3, 0u64..2, 0u32..3).prop_map(|(from, bytes, tag, req)| {
            Record::IRecv {
                from: Rank::new(from),
                bytes,
                tag: Tag::new(tag),
                req: RequestId::new(req),
            }
        }),
        (0u32..3).prop_map(|req| Record::Wait {
            req: RequestId::new(req)
        }),
        proptest::collection::vec(0u32..3, 0..3).prop_map(|reqs| Record::WaitAll {
            reqs: reqs.into_iter().map(RequestId::new).collect(),
        }),
        Just(Record::Barrier),
        (0u64..2).prop_map(|bytes| Record::AllReduce { bytes }),
        (0u32..4, 0u64..2).prop_map(|(root, bytes)| Record::Bcast {
            root: Rank::new(root),
            bytes,
        }),
        (0u32..100).prop_map(|code| Record::Marker { code }),
    ]
}

fn arb_small_trace() -> impl Strategy<Value = TraceSet> {
    proptest::collection::vec(proptest::collection::vec(arb_small_record(), 0..12), 0..4).prop_map(
        |ranks| {
            TraceSet::new(
                "garbage",
                MipsRate::new(1000).unwrap(),
                ranks.into_iter().map(RankTrace::from_records).collect(),
            )
        },
    )
}

/// Every rank of `ts` lowered on its own.
fn lower_ranks(ts: &TraceSet) -> Vec<LoweredRank> {
    ts.ranks()
        .iter()
        .enumerate()
        .map(|(r, rank)| {
            LoweredRank::lower(
                Rank::new(r as u32),
                ts.rank_count(),
                ts.mips(),
                rank.records(),
            )
        })
        .collect()
}

/// Checks every walker entry point on `ts` against the oracle.
fn check_walker(ts: &TraceSet) -> Result<(), TestCaseError> {
    let (expected, oracle_index) = oracle_scan(ts);
    let issues = validate_trace_set(ts);
    prop_assert_eq!(&issues, &expected);
    let shown = |v: &[TraceIssue]| v.iter().map(ToString::to_string).collect::<Vec<_>>();
    prop_assert_eq!(shown(&issues), shown(&expected));
    let linked = CompiledTrace::link(ts.name(), ts.mips(), &lower_ranks(ts));
    if !expected.is_empty() {
        prop_assert_eq!(TraceIndex::build(ts).err(), Some(expected.clone()));
        prop_assert_eq!(CompiledTrace::build(ts).err(), Some(expected.clone()));
        prop_assert_eq!(linked.err(), Some(expected));
        return Ok(());
    }
    let index = TraceIndex::build(ts).expect("the oracle finds no issue");
    prop_assert_eq!(&index_view(&index), &oracle_index);
    let built = CompiledTrace::build(ts).expect("a valid trace builds");
    prop_assert_eq!(&index_view(&TraceIndex::of(&built)), &oracle_index);
    prop_assert_eq!(Ok(&built), linked.as_ref());
    prop_assert_eq!(Ok(program_view(&built)), oracle_lower(ts, &oracle_index));
    Ok(())
}

/// `records` with every burst twice as long and a marker before each
/// point-to-point record: still valid if `records` was, but lowered to a
/// different program with the same channels.
fn stretched(records: &[Record]) -> Vec<Record> {
    let mut out = Vec::with_capacity(records.len() * 2);
    for rec in records {
        match rec {
            Record::Burst { instr } => out.push(Record::Burst {
                instr: Instr::new(instr.get() * 2),
            }),
            rec if is_p2p(rec) => {
                out.push(Record::Marker { code: 7 });
                out.push(rec.clone());
            }
            rec => out.push(rec.clone()),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On valid traces the walker finds nothing, its one-pass program
    /// equals the oracle's lowering, and the program projects to the
    /// oracle's index.
    #[test]
    fn walker_matches_oracle_on_valid_traces(ts in arb_valid_trace()) {
        prop_assert!(oracle_scan(&ts).0.is_empty(), "generator made an invalid trace");
        check_walker(&ts)?;
    }

    /// With several defects injected, every entry point reports exactly
    /// the oracle's issues, in its order and with its text.
    #[test]
    fn walker_matches_oracle_on_mutated_traces(
        ts in arb_valid_trace(),
        muts in proptest::collection::vec(arb_mutation(), 2..6),
    ) {
        check_walker(&mutate(&ts, &muts))?;
    }

    /// Same on unstructured traces over small value ranges.
    #[test]
    fn walker_matches_oracle_on_garbage(ts in arb_small_trace()) {
        check_walker(&ts)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Relinking: one rank's lowering is replaced by the lowering of
    /// another stream and the ranks are linked again, as the auto-tuner
    /// does for a candidate. The result must equal `build` of the trace
    /// with that rank's records replaced: the same program for a valid
    /// trace, the same issues for an invalid one. The replacement is the
    /// rank's own stream stretched (valid), the rank of a mutated copy, or
    /// garbage.
    #[test]
    fn relinking_one_rank_equals_building_the_changed_trace(
        ts in arb_valid_trace(),
        muts in proptest::collection::vec(arb_mutation(), 1..4),
        garbage in proptest::collection::vec(arb_small_record(), 0..12),
        kind in 0u8..3,
        pick in any::<usize>(),
    ) {
        let r = pick % ts.rank_count();
        let records = match kind {
            0 => stretched(ts.ranks()[r].records()),
            1 => mutate(&ts, &muts).ranks()[r].records().to_vec(),
            _ => garbage,
        };
        let mut ranks: Vec<Vec<Record>> =
            ts.ranks().iter().map(|rank| rank.records().to_vec()).collect();
        ranks[r] = records;
        let changed = TraceSet::new(
            ts.name(),
            ts.mips(),
            ranks.into_iter().map(RankTrace::from_records).collect(),
        );

        let mut lowered: Vec<std::sync::Arc<LoweredRank>> =
            lower_ranks(&ts).into_iter().map(std::sync::Arc::new).collect();
        lowered[r] = std::sync::Arc::new(LoweredRank::lower(
            Rank::new(r as u32),
            ts.rank_count(),
            ts.mips(),
            changed.ranks()[r].records(),
        ));
        let relinked = CompiledTrace::link(changed.name(), changed.mips(), &lowered);
        prop_assert_eq!(relinked, CompiledTrace::build(&changed));
        if kind == 0 {
            prop_assert!(validate_trace_set(&changed).is_empty(), "stretching broke a valid trace");
        }
    }
}

/// Each mutation kind does inject the issue it is meant to, so the
/// mutated-trace property covers every kind of issue.
#[test]
fn every_mutation_kind_injects_its_issue() {
    let marks = [
        "references out-of-range rank",
        "references out-of-range rank",
        "waits on unknown",
        "re-posts in-flight",
        "never waits on posted",
        "sends but",
        "B vs recv",
        "collectives, ",
        "sees `",
    ];
    let valid = arb_valid_trace();
    for kind in 0..MUTATION_KINDS {
        let mark = marks[kind as usize];
        let hit = (0..64u32).any(|case| {
            let mut rng = proptest::TestRng::for_case("every_mutation_kind", case);
            let ts = valid.generate(&mut rng);
            let m = Mutation {
                kind,
                rank: case as u8,
                at: case as u16,
                value: case,
            };
            validate_trace_set(&mutate(&ts, &[m]))
                .iter()
                .any(|i| i.to_string().contains(mark))
        });
        assert!(hit, "mutation {kind} never reported `{mark}`");
    }
}
