//! Property tests for the replay simulator and the text trace format.

use ovlsim_core::{
    Instr, MipsRate, PerturbationModel, Platform, Rank, RankTrace, Record, RequestId, Tag, Time,
    TraceSet,
};
use ovlsim_dimemas::{
    emit_trace_set, parse_trace_set, DepEdge, ProcState, ReplayObserver, Simulator, WaitCause,
};
use proptest::prelude::*;

/// Generates an arbitrary *structurally valid* two-rank trace: rank 0
/// sends a stream of messages interleaved with bursts; rank 1 receives
/// them in order, interleaved with its own bursts.
fn arb_paired_trace() -> impl Strategy<Value = TraceSet> {
    (
        proptest::collection::vec((1u64..500_000, 1u64..200_000), 1..20),
        proptest::collection::vec(1u64..500_000, 1..20),
        1u64..5_000,
    )
        .prop_map(|(sends, recv_bursts, mips)| {
            let mut r0 = Vec::new();
            let mut r1 = Vec::new();
            for (i, (burst, bytes)) in sends.iter().enumerate() {
                r0.push(Record::Burst {
                    instr: Instr::new(*burst),
                });
                r0.push(Record::Send {
                    to: Rank::new(1),
                    bytes: *bytes,
                    tag: Tag::new(0),
                });
                if let Some(b) = recv_bursts.get(i % recv_bursts.len()) {
                    r1.push(Record::Burst {
                        instr: Instr::new(*b),
                    });
                }
                r1.push(Record::Recv {
                    from: Rank::new(0),
                    bytes: *bytes,
                    tag: Tag::new(0),
                });
            }
            r0.push(Record::Barrier);
            r1.push(Record::Barrier);
            TraceSet::new(
                "prop",
                MipsRate::new(mips).unwrap(),
                vec![RankTrace::from_records(r0), RankTrace::from_records(r1)],
            )
        })
}

/// A four-rank trace whose messages deliberately mix same-node and
/// cross-node channels under `ranks_per_node > 1`: neighbour exchanges
/// (0<->1, 2<->3, intra when packed two per node) interleaved with stride-2
/// traffic (0->2, 1->3, always inter-node), closed by a barrier.
fn arb_multinode_trace() -> impl Strategy<Value = TraceSet> {
    (
        proptest::collection::vec((1u64..300_000, 1u64..150_000), 1..12),
        1u64..5_000,
    )
        .prop_map(|(rounds, mips)| {
            let mut ranks: Vec<Vec<Record>> = vec![Vec::new(); 4];
            for (i, (burst, bytes)) in rounds.iter().enumerate() {
                let tag = Tag::new(i as u64);
                for (r, rank) in ranks.iter_mut().enumerate() {
                    rank.push(Record::Burst {
                        instr: Instr::new(*burst + r as u64),
                    });
                }
                // Neighbour pairs: 0->1 and 2->3 (intra-node at rpn=2).
                ranks[0].push(Record::Send {
                    to: Rank::new(1),
                    bytes: *bytes,
                    tag,
                });
                ranks[1].push(Record::Recv {
                    from: Rank::new(0),
                    bytes: *bytes,
                    tag,
                });
                ranks[2].push(Record::Send {
                    to: Rank::new(3),
                    bytes: *bytes,
                    tag,
                });
                ranks[3].push(Record::Recv {
                    from: Rank::new(2),
                    bytes: *bytes,
                    tag,
                });
                // Stride-2 pair: 0->2 (inter-node at every packing < 4).
                if i % 2 == 0 {
                    ranks[0].push(Record::Send {
                        to: Rank::new(2),
                        bytes: *bytes,
                        tag,
                    });
                    ranks[2].push(Record::Recv {
                        from: Rank::new(0),
                        bytes: *bytes,
                        tag,
                    });
                }
            }
            for r in &mut ranks {
                r.push(Record::Barrier);
            }
            TraceSet::new(
                "prop-multinode",
                MipsRate::new(mips).unwrap(),
                ranks.into_iter().map(RankTrace::from_records).collect(),
            )
        })
}

/// Hierarchical platforms: multicore nodes, intra-node parameters and an
/// optionally finite intra-node port count.
fn arb_hier_platform() -> impl Strategy<Value = Platform> {
    (
        0u64..50,         // latency us
        1.0e6f64..1.0e10, // bandwidth
        prop_oneof![Just(None), (1u32..4).prop_map(Some)],
        1u32..5,          // ranks per node (1..=4 over a 4-rank trace)
        1.0e8f64..1.0e11, // intra-node bandwidth
        prop_oneof![Just(None), (1u32..3).prop_map(Some)],
        0u64..500_000, // eager threshold
    )
        .prop_map(|(lat, bw, buses, rpn, intra_bw, intra_links, eager)| {
            let mut b = Platform::builder();
            b.latency(Time::from_us(lat))
                .bandwidth_bytes_per_sec(bw)
                .expect("positive")
                .buses(buses)
                .ranks_per_node(rpn)
                .expect("positive packing")
                .intra_node_latency(Time::from_ns(300))
                .intra_node_bandwidth(
                    ovlsim_core::Bandwidth::from_bytes_per_sec(intra_bw).expect("positive"),
                )
                .intra_node_links(intra_links)
                .eager_threshold(eager);
            b.build()
        })
}

/// An arbitrary perturbation model spanning every axis — seeded OS noise,
/// straggler ranks, heterogeneous node speeds, link degradation, latency
/// jitter and transient link faults — with each axis individually
/// switchable, so identity, single-axis and fully-stacked models are all
/// fuzzed.
fn arb_perturbation() -> impl Strategy<Value = PerturbationModel> {
    (
        any::<u64>(),                         // seed
        prop_oneof![Just(0.0), 0.01f64..0.5], // noise level
        prop_oneof![
            Just(None),
            (proptest::collection::vec(0u32..4, 1..3), 1.1f64..3.0).prop_map(Some)
        ],
        prop_oneof![
            Just(None),
            proptest::collection::vec(0.5f64..2.0, 1..3).prop_map(Some)
        ],
        prop_oneof![Just(0.0), 0.01f64..0.8], // link degradation
        0u64..3_000,                          // latency jitter ns
        prop_oneof![Just(None), (50u64..500, 1u64..40).prop_map(Some)], // fault period/down us
    )
        .prop_map(
            |(seed, noise, stragglers, speeds, degradation, jitter, faults)| {
                let mut m = PerturbationModel::new(seed);
                if noise > 0.0 {
                    m = m.with_noise(noise).expect("valid noise");
                }
                if let Some((ranks, slowdown)) = stragglers {
                    // Duplicates are fine: the model sorts and dedups.
                    m = m
                        .with_stragglers(&ranks, slowdown)
                        .expect("valid stragglers");
                }
                if let Some(speeds) = speeds {
                    m = m.with_node_speeds(&speeds).expect("valid speeds");
                }
                if degradation > 0.0 {
                    m = m
                        .with_link_degradation(degradation)
                        .expect("valid degradation");
                }
                if jitter > 0 {
                    m = m.with_latency_jitter(Time::from_ns(jitter));
                }
                if let Some((period, down)) = faults {
                    m = m
                        .with_faults(Time::from_us(period), Time::from_us(down))
                        .expect("valid faults");
                }
                m
            },
        )
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    (
        0u64..100,        // latency us
        1.0e5f64..1.0e11, // bandwidth
        prop_oneof![Just(None), (1u32..8).prop_map(Some)],
        1u32..4,
        0u64..1_000_000, // eager threshold
        0u64..20,        // overheads us
    )
        .prop_map(|(lat, bw, buses, links, eager, oh)| {
            let mut b = Platform::builder();
            b.latency(Time::from_us(lat))
                .bandwidth_bytes_per_sec(bw)
                .expect("positive")
                .buses(buses)
                .input_links(links)
                .output_links(links)
                .eager_threshold(eager)
                .send_overhead(Time::from_us(oh))
                .recv_overhead(Time::from_us(oh));
            b.build()
        })
}

/// A two-rank trace built from non-blocking operations: rank 0 isends a
/// batch of messages on distinct tags and waits for all of them; rank 1
/// irecvs them (interleaved with bursts) and waits; both close with a
/// collective. Wait-sets larger than the inline request-group capacity are
/// common, exercising the spill path.
fn arb_nonblocking_trace() -> impl Strategy<Value = TraceSet> {
    (
        proptest::collection::vec((1u64..300_000, 1u64..150_000), 1..14),
        1u64..5_000,
    )
        .prop_map(|(msgs, mips)| {
            let mut r0 = Vec::new();
            let mut r1 = Vec::new();
            let mut reqs0 = Vec::new();
            let mut reqs1 = Vec::new();
            for (i, (burst, bytes)) in msgs.iter().enumerate() {
                let req = RequestId::new(i as u32);
                r0.push(Record::Burst {
                    instr: Instr::new(*burst),
                });
                r0.push(Record::ISend {
                    to: Rank::new(1),
                    bytes: *bytes,
                    tag: Tag::new(i as u64),
                    req,
                });
                reqs0.push(req);
                r1.push(Record::IRecv {
                    from: Rank::new(0),
                    bytes: *bytes,
                    tag: Tag::new(i as u64),
                    req,
                });
                reqs1.push(req);
                if i % 3 == 0 {
                    r1.push(Record::Burst {
                        instr: Instr::new(*burst / 2 + 1),
                    });
                }
            }
            r0.push(Record::WaitAll { reqs: reqs0 });
            r1.push(Record::WaitAll { reqs: reqs1 });
            r0.push(Record::AllReduce { bytes: 64 });
            r1.push(Record::AllReduce { bytes: 64 });
            TraceSet::new(
                "prop-nb",
                MipsRate::new(mips).unwrap(),
                vec![RankTrace::from_records(r0), RankTrace::from_records(r1)],
            )
        })
}

/// Splits `total` instructions into `parts` bursts whose counts sum to
/// `total` exactly.
fn split_instr(total: u64, parts: u64) -> Vec<Record> {
    let parts = parts.max(1).min(total.max(1));
    let each = total / parts;
    let mut out: Vec<Record> = (0..parts.saturating_sub(1))
        .map(|_| Record::Burst {
            instr: Instr::new(each),
        })
        .collect();
    out.push(Record::Burst {
        instr: Instr::new(total - each * parts.saturating_sub(1)),
    });
    out
}

/// A four-rank trace engineered to stress per-burst rounding and event
/// order: every round gives all ranks the **same total compute** but
/// *different adjacent-burst splits* (so ranks take different numbers of
/// burst events to the same instant, while message-readiness ties at
/// identical instants still abound), then exchanges messages on a mix of
/// neighbour (intra-node when packed) and stride-2 (inter-node) channels —
/// blocking on even rounds, isend/irecv + wait/waitall with *reused*
/// request ids on odd rounds (exercising compile-time slot reuse) — and
/// sprinkles markers and a rotating collective.
fn arb_bursty_trace() -> impl Strategy<Value = TraceSet> {
    (
        proptest::collection::vec((1u64..300_000, 1u64..150_000, 0u8..3), 1..8),
        1u64..5_000,
    )
        .prop_map(|(rounds, mips)| {
            let mut ranks: Vec<Vec<Record>> = vec![Vec::new(); 4];
            for (i, (total, bytes, coll)) in rounds.iter().enumerate() {
                let tag = Tag::new(i as u64);
                for (r, rank) in ranks.iter_mut().enumerate() {
                    // Same total, different split: ranks reach the round's
                    // sends at the same instant via different burst runs.
                    rank.extend(split_instr(*total, 1 + ((r + i) % 3) as u64));
                    if r == i % 4 {
                        rank.push(Record::Marker { code: i as u32 });
                    }
                }
                if i % 2 == 0 {
                    // Blocking neighbour exchange: 0->1 and 2->3.
                    for (s, d) in [(0usize, 1usize), (2, 3)] {
                        ranks[s].push(Record::Send {
                            to: Rank::new(d as u32),
                            bytes: *bytes,
                            tag,
                        });
                        ranks[d].push(Record::Recv {
                            from: Rank::new(s as u32),
                            bytes: *bytes,
                            tag,
                        });
                    }
                } else {
                    // Non-blocking stride-2 exchange with request ids
                    // reused every round (0 on the send side, 1 on the
                    // receive side): 0->2 and 1->3.
                    for (s, d) in [(0usize, 2usize), (1, 3)] {
                        ranks[s].push(Record::ISend {
                            to: Rank::new(d as u32),
                            bytes: *bytes,
                            tag,
                            req: RequestId::new(0),
                        });
                        ranks[d].push(Record::IRecv {
                            from: Rank::new(s as u32),
                            bytes: *bytes,
                            tag,
                            req: RequestId::new(1),
                        });
                        // A little compute between post and wait so the
                        // transfer can overlap.
                        ranks[s].push(Record::Burst {
                            instr: Instr::new(*total / 2 + 1),
                        });
                        ranks[d].push(Record::Burst {
                            instr: Instr::new(*total / 3 + 1),
                        });
                        ranks[s].push(Record::Wait {
                            req: RequestId::new(0),
                        });
                        ranks[d].push(Record::WaitAll {
                            reqs: vec![RequestId::new(1)],
                        });
                    }
                }
                if i % 3 == 2 {
                    let rec = match coll {
                        0 => Record::Barrier,
                        1 => Record::AllReduce { bytes: *bytes },
                        _ => Record::AllGather { bytes: *bytes },
                    };
                    for rank in &mut ranks {
                        rank.push(rec.clone());
                    }
                }
            }
            for rank in &mut ranks {
                rank.push(Record::Barrier);
            }
            TraceSet::new(
                "prop-bursty",
                MipsRate::new(mips).unwrap(),
                ranks.into_iter().map(RankTrace::from_records).collect(),
            )
        })
}

/// A many-rank fan-out trace: each round every rank bursts, isends to
/// random peers on fresh tags, posts the matching irecvs in reverse order
/// and waits on all its requests; a barrier closes the trace. With few
/// links per node, chunks for several destinations park at once, so the
/// order in which a freed link admits waiters shows in the result.
fn arb_fanout_trace() -> impl Strategy<Value = TraceSet> {
    (3usize..10)
        .prop_flat_map(|ranks| {
            // Per round and rank: a burst and the sends, as (peer offset,
            // bytes); the offset keeps every peer distinct from the sender.
            let rank_round = (
                1u64..200_000,
                proptest::collection::vec((1..ranks, 1u64..150_000), 0..6),
            );
            (
                Just(ranks),
                proptest::collection::vec(
                    proptest::collection::vec(rank_round, ranks..ranks + 1),
                    1..4,
                ),
                1u64..5_000,
            )
        })
        .prop_map(|(ranks, rounds, mips)| {
            let mut recs: Vec<Vec<Record>> = vec![Vec::new(); ranks];
            let mut tag = 0u64;
            for round in rounds {
                let mut incoming: Vec<Vec<(Rank, u64, Tag)>> = vec![Vec::new(); ranks];
                let mut reqs = vec![0u32; ranks];
                for (r, (burst, sends)) in round.into_iter().enumerate() {
                    recs[r].push(Record::Burst {
                        instr: Instr::new(burst),
                    });
                    for (offset, bytes) in sends {
                        let to = (r + offset) % ranks;
                        tag += 1;
                        recs[r].push(Record::ISend {
                            to: Rank::new(to as u32),
                            bytes,
                            tag: Tag::new(tag),
                            req: RequestId::new(reqs[r]),
                        });
                        reqs[r] += 1;
                        incoming[to].push((Rank::new(r as u32), bytes, Tag::new(tag)));
                    }
                }
                for (r, msgs) in incoming.into_iter().enumerate() {
                    for (from, bytes, tag) in msgs.into_iter().rev() {
                        recs[r].push(Record::IRecv {
                            from,
                            bytes,
                            tag,
                            req: RequestId::new(reqs[r]),
                        });
                        reqs[r] += 1;
                    }
                    if reqs[r] > 0 {
                        recs[r].push(Record::WaitAll {
                            reqs: (0..reqs[r]).map(RequestId::new).collect(),
                        });
                    }
                }
            }
            for r in &mut recs {
                r.push(Record::Barrier);
            }
            TraceSet::new(
                "prop-fanout",
                MipsRate::new(mips).unwrap(),
                recs.into_iter().map(RankTrace::from_records).collect(),
            )
        })
}

/// Platforms for the fan-out traces: few input and output links drawn
/// apart, one to three ranks per node, any eager threshold.
fn arb_fanout_platform() -> impl Strategy<Value = Platform> {
    (
        1u32..4,          // input links
        1u32..4,          // output links
        1u32..4,          // ranks per node
        0u64..200_000,    // eager threshold
        0u64..21,         // latency us
        1.0e7f64..1.0e10, // bandwidth
    )
        .prop_map(|(input, output, rpn, eager, lat, bw)| {
            let mut b = Platform::builder();
            b.latency(Time::from_us(lat))
                .bandwidth_bytes_per_sec(bw)
                .expect("positive")
                .input_links(input)
                .output_links(output)
                .ranks_per_node(rpn)
                .expect("positive packing")
                .eager_threshold(eager);
            b.build()
        })
}

/// One recorded attribution callback: `(start, end, cause, edge)`.
type AttrEntry = (Time, Time, WaitCause, Option<DepEdge>);

/// The timeline callbacks every engine emits, each kind in emission
/// order.
#[derive(Default, Debug, PartialEq, Eq)]
struct Timeline {
    intervals: Vec<(Rank, Time, Time, ProcState)>,
    messages: Vec<(Rank, Rank, Time, Time, u64, Tag)>,
    markers: Vec<(Rank, Time, u32)>,
    finished: Vec<(Rank, Time)>,
}

/// Records every attributed interval per rank, plus finish times and the
/// timeline.
#[derive(Default, Debug, PartialEq, Eq)]
struct AttrCapture {
    per_rank: Vec<Vec<AttrEntry>>,
    finish: Vec<Time>,
    timeline: Timeline,
}

impl AttrCapture {
    fn new(ranks: usize) -> Self {
        AttrCapture {
            per_rank: vec![Vec::new(); ranks],
            finish: vec![Time::ZERO; ranks],
            timeline: Timeline::default(),
        }
    }
}

impl ReplayObserver for AttrCapture {
    fn interval(&mut self, rank: Rank, start: Time, end: Time, state: ProcState) {
        self.timeline.intervals.push((rank, start, end, state));
    }
    fn message(&mut self, from: Rank, to: Rank, start: Time, end: Time, bytes: u64, tag: Tag) {
        self.timeline
            .messages
            .push((from, to, start, end, bytes, tag));
    }
    fn marker(&mut self, rank: Rank, at: Time, code: u32) {
        self.timeline.markers.push((rank, at, code));
    }
    fn attributed(
        &mut self,
        rank: Rank,
        start: Time,
        end: Time,
        cause: WaitCause,
        edge: Option<DepEdge>,
    ) {
        self.per_rank[rank.index()].push((start, end, cause, edge));
    }
    fn finished(&mut self, rank: Rank, at: Time) {
        self.finish[rank.index()] = at;
        self.timeline.finished.push((rank, at));
    }
}

/// The conservation property: per rank, attributed intervals are
/// disjoint, gapless, in order, and their durations sum exactly to the
/// rank's finish time (and the makespan for the slowest rank).
fn assert_conserved(cap: &AttrCapture, trace: &TraceSet, total: Time) -> Result<(), TestCaseError> {
    let channel_count = ovlsim_core::TraceIndex::build(trace)
        .expect("valid")
        .channel_count() as u32;
    let mut max_finish = Time::ZERO;
    for (r, ivs) in cap.per_rank.iter().enumerate() {
        let finish = cap.finish[r];
        max_finish = max_finish.max(finish);
        let mut cursor = Time::ZERO;
        let mut sum = Time::ZERO;
        for &(start, end, cause, _) in ivs {
            prop_assert_eq!(
                start,
                cursor,
                "rank {} interval starts at {} but previous ended at {}",
                r,
                start,
                cursor
            );
            prop_assert!(end > start, "rank {r}: zero-length interval emitted");
            if let Some(chan) = cause.channel() {
                prop_assert!(chan < channel_count, "rank {r}: dangling channel {chan}");
            }
            sum += end - start;
            cursor = end;
        }
        prop_assert_eq!(
            cursor,
            finish,
            "rank {}'s intervals end at {} but it finished at {}",
            r,
            cursor,
            finish
        );
        prop_assert_eq!(sum, finish, "rank {}'s durations do not sum up", r);
    }
    prop_assert_eq!(max_finish, total, "finish times disagree with makespan");
    Ok(())
}

/// Captures attribution through the observed-compiled engine and asserts
/// the conservation property on it; then asserts that its result and its
/// timeline (intervals, messages, markers, finish times) are
/// **identical** to the naive engine's.
fn assert_attribution_conserved(
    trace: &TraceSet,
    platform: &Platform,
) -> Result<(), TestCaseError> {
    let index = ovlsim_core::TraceIndex::build(trace).expect("valid");
    let prog = ovlsim_core::CompiledTrace::compile(trace, &index).expect("compiles");
    let mut compiled_cap = AttrCapture::new(trace.rank_count());
    let compiled = Simulator::new(platform.clone())
        .run_compiled_observed(&prog, &mut compiled_cap)
        .expect("replays");
    assert_conserved(&compiled_cap, trace, compiled.total_time())?;

    let mut naive_cap = AttrCapture::new(trace.rank_count());
    let naive =
        ovlsim_dimemas::replay_naive_observed(platform, trace, &mut naive_cap).expect("replays");
    prop_assert_eq!(&naive, &compiled, "engines disagree on the result");
    prop_assert_eq!(
        naive_cap.timeline,
        compiled_cap.timeline,
        "naive and compiled timelines diverged"
    );
    Ok(())
}

/// Replays through the naive engine, the validating entry point and a
/// compiled program, and asserts bit-identical results.
fn assert_engines_agree(trace: &TraceSet, platform: &Platform) -> Result<(), TestCaseError> {
    let index = ovlsim_core::TraceIndex::build(trace).expect("valid");
    let prog = ovlsim_core::CompiledTrace::compile(trace, &index).expect("compiles");
    let sim = Simulator::new(platform.clone());
    let naive = ovlsim_dimemas::replay_naive(platform, trace).expect("replays");
    let validated = sim.run(trace).expect("replays");
    let compiled = sim.run_compiled(&prog).expect("replays");
    prop_assert_eq!(&naive, &validated, "validating engine diverged");
    prop_assert_eq!(&naive, &compiled, "compiled engine diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any structurally valid paired trace replays to completion on any
    /// platform, is deterministic, and respects the compute lower bound.
    #[test]
    fn replay_total(trace in arb_paired_trace(), platform in arb_platform()) {
        let sim = Simulator::new(platform);
        let a = sim.run(&trace).expect("valid traces replay");
        let b = sim.run(&trace).expect("valid traces replay");
        prop_assert_eq!(&a, &b, "replay must be deterministic");
        for (finish, compute) in a.rank_finish().iter().zip(a.rank_compute()) {
            prop_assert!(finish >= compute);
        }
        prop_assert_eq!(a.p2p_messages() as usize,
            trace.ranks()[0].records().iter()
                .filter(|r| matches!(r, Record::Send { .. })).count());
    }

    /// The production executor (compiled program, calendar event store,
    /// small-vec wait groups) produces results identical to the naive
    /// reference engine on blocking traces — makespan, per-rank times,
    /// message/byte counts, network statistics, everything.
    #[test]
    fn optimized_replay_matches_naive(
        trace in arb_paired_trace(),
        platform in arb_platform(),
    ) {
        let optimized = Simulator::new(platform.clone())
            .run(&trace)
            .expect("valid traces replay");
        let naive = ovlsim_dimemas::replay_naive(&platform, &trace)
            .expect("valid traces replay");
        prop_assert_eq!(optimized, naive);
    }

    /// Same differential check on non-blocking traces (isend/irecv with
    /// large wait-sets), which stress the request-group machinery.
    #[test]
    fn optimized_replay_matches_naive_nonblocking(
        trace in arb_nonblocking_trace(),
        platform in arb_platform(),
    ) {
        let optimized = Simulator::new(platform.clone())
            .run(&trace)
            .expect("valid traces replay");
        let naive = ovlsim_dimemas::replay_naive(&platform, &trace)
            .expect("valid traces replay");
        prop_assert_eq!(optimized, naive);
    }

    /// Node-aware routing: on hierarchical platforms (`ranks_per_node > 1`,
    /// intra-node parameters, optionally finite intra-node ports) the
    /// naive reference and the validating entry point produce
    /// bit-identical `ReplayResult`s — the per-channel intra/inter
    /// precomputation cannot drift from the per-transfer classification.
    #[test]
    fn multinode_replay_is_identical_across_all_engines(
        trace in arb_multinode_trace(),
        platform in arb_hier_platform(),
    ) {
        let validated = Simulator::new(platform.clone()).run(&trace).expect("replays");
        let naive = ovlsim_dimemas::replay_naive(&platform, &trace)
            .expect("replays");
        prop_assert_eq!(&validated, &naive, "naive diverged");
    }

    /// One compiled program replayed on two unrelated platforms matches
    /// the validating entry point on each, bit for bit: nothing of the
    /// platform leaks into the program a sweep shares across its points.
    #[test]
    fn compiled_program_replays_every_platform(
        trace in arb_nonblocking_trace(),
        first in arb_platform(),
        second in arb_hier_platform(),
    ) {
        let index = ovlsim_core::TraceIndex::build(&trace).expect("valid");
        let prog = ovlsim_core::CompiledTrace::compile(&trace, &index).expect("compiles");
        for platform in [first, second] {
            let sim = Simulator::new(platform);
            let validated = sim.run(&trace).expect("replays");
            prop_assert_eq!(validated, sim.run_compiled(&prog).expect("replays"));
        }
    }

    /// The compiled engine (flat SoA program, one event per burst,
    /// pre-resolved request slots) is bit-identical to every other engine
    /// on traces full of adjacent-burst runs and same-instant ties, on
    /// flat platforms with finite buses/links and overheads.
    #[test]
    fn compiled_replay_matches_all_engines_flat(
        trace in arb_bursty_trace(),
        platform in arb_platform(),
    ) {
        assert_engines_agree(&trace, &platform)?;
    }

    /// Same three-way differential on hierarchical (multicore-node)
    /// platforms: mixed intra-/inter-node channels, finite intra-node
    /// ports, and node-aware collectives.
    #[test]
    fn compiled_replay_matches_all_engines_multicore(
        trace in arb_bursty_trace(),
        platform in arb_hier_platform(),
    ) {
        assert_engines_agree(&trace, &platform)?;
    }

    /// The multinode generator from PR 2, run through the compiled engine
    /// as well.
    #[test]
    fn compiled_replay_matches_on_multinode_traces(
        trace in arb_multinode_trace(),
        platform in arb_hier_platform(),
    ) {
        assert_engines_agree(&trace, &platform)?;
    }

    /// Non-blocking traces with large wait-sets (request-group spill paths)
    /// through the compiled engine.
    #[test]
    fn compiled_replay_matches_on_nonblocking_traces(
        trace in arb_nonblocking_trace(),
        platform in arb_platform(),
    ) {
        assert_engines_agree(&trace, &platform)?;
    }

    /// Many ranks fanning out to several peers at once over few links:
    /// waiters for several destinations park together, and the order in
    /// which a freed link admits them must match the naive engine's FIFO.
    #[test]
    fn compiled_replay_matches_on_fanout_traces(
        trace in arb_fanout_trace(),
        platform in arb_fanout_platform(),
    ) {
        assert_engines_agree(&trace, &platform)?;
    }

    /// Conservation on flat platforms: every rank's cause-tagged intervals
    /// are disjoint, gapless and sum exactly to its finish time, and the
    /// observed-compiled timeline equals the naive engine's.
    /// Bursty traces cover blocking sends/recvs, request waits, reused
    /// request slots, markers, collectives and sender overheads.
    #[test]
    fn attribution_conserves_time_flat(
        trace in arb_bursty_trace(),
        platform in arb_platform(),
    ) {
        assert_attribution_conserved(&trace, &platform)?;
    }

    /// Conservation on hierarchical (multicore-node) platforms: mixed
    /// intra-/inter-node channels and finite intra-node ports, which
    /// exercise the contended-intra vs contended-inter cause split.
    #[test]
    fn attribution_conserves_time_multicore(
        trace in arb_bursty_trace(),
        platform in arb_hier_platform(),
    ) {
        assert_attribution_conserved(&trace, &platform)?;
    }

    /// Conservation on non-blocking traces with large wait-sets (the
    /// last-unblocker attribution path for `WaitAll`).
    #[test]
    fn attribution_conserves_time_nonblocking(
        trace in arb_nonblocking_trace(),
        platform in arb_platform(),
    ) {
        assert_attribution_conserved(&trace, &platform)?;
    }

    /// Tentpole guarantee: under any seeded perturbation (noise,
    /// stragglers, heterogeneous nodes, link degradation/jitter,
    /// transient link faults) naive, validating and compiled replay stay
    /// bit-identical on flat platforms.
    #[test]
    fn perturbed_replay_is_identical_across_all_engines_flat(
        trace in arb_bursty_trace(),
        platform in arb_platform(),
        model in arb_perturbation(),
    ) {
        assert_engines_agree(&trace, &platform.with_perturbation(model))?;
    }

    /// Same three-way perturbed differential on hierarchical platforms,
    /// where intra-node channels must stay exempt from link perturbations
    /// in every engine.
    #[test]
    fn perturbed_replay_is_identical_across_all_engines_multicore(
        trace in arb_bursty_trace(),
        platform in arb_hier_platform(),
        model in arb_perturbation(),
    ) {
        assert_engines_agree(&trace, &platform.with_perturbation(model))?;
    }

    /// Attribution conservation survives perturbation: cause-tagged
    /// intervals (now including link-down holds) stay disjoint, gapless
    /// and sum to each rank's finish time, with the naive and
    /// observed-compiled timelines identical.
    #[test]
    fn perturbed_attribution_conserves_time(
        trace in arb_bursty_trace(),
        platform in arb_hier_platform(),
        model in arb_perturbation(),
    ) {
        assert_attribution_conserved(&trace, &platform.with_perturbation(model))?;
    }

    /// Latency monotonicity: increasing latency never speeds things up.
    #[test]
    fn latency_monotone(trace in arb_paired_trace(), extra_us in 1u64..1000) {
        let base = Platform::builder().latency(Time::from_us(1)).build();
        let slow = base.with_latency(Time::from_us(1 + extra_us));
        let t_base = Simulator::new(base).run(&trace).unwrap().total_time();
        let t_slow = Simulator::new(slow).run(&trace).unwrap().total_time();
        prop_assert!(t_slow >= t_base);
    }

    /// The text format round-trips arbitrary valid traces.
    #[test]
    fn format_roundtrip(trace in arb_paired_trace()) {
        let text = emit_trace_set(&trace);
        let back = parse_trace_set(&text).expect("emitted traces parse");
        prop_assert_eq!(trace, back);
    }

    /// Round-trip with the full record vocabulary (non-blocking ops,
    /// collectives, markers).
    #[test]
    fn format_roundtrip_full_vocabulary(
        bytes in 1u64..1_000_000,
        code in any::<u32>(),
        req in 0u32..1000,
    ) {
        let records = vec![
            Record::Burst { instr: Instr::new(bytes) },
            Record::ISend { to: Rank::new(1), bytes, tag: Tag::new(bytes), req: RequestId::new(req) },
            Record::Wait { req: RequestId::new(req) },
            Record::IRecv { from: Rank::new(1), bytes, tag: Tag::new(1), req: RequestId::new(req + 1) },
            Record::WaitAll { reqs: vec![RequestId::new(req + 1)] },
            Record::Barrier,
            Record::AllReduce { bytes },
            Record::Bcast { root: Rank::new(0), bytes },
            Record::Reduce { root: Rank::new(1), bytes },
            Record::AllToAll { bytes },
            Record::AllGather { bytes },
            Record::Marker { code },
        ];
        let ts = TraceSet::new(
            "vocab",
            MipsRate::new(1000).unwrap(),
            vec![RankTrace::from_records(records), RankTrace::new()],
        );
        let back = parse_trace_set(&emit_trace_set(&ts)).expect("parses");
        prop_assert_eq!(ts, back);
    }
}
