//! Property tests for the attribution fold and critical-path extraction.

use ovlsim_core::{
    Instr, MipsRate, Platform, Rank, RankTrace, Record, RequestId, Tag, Time, TraceIndex, TraceSet,
};
use ovlsim_dimemas::replay_naive;
use ovlsim_lab::Attribution;
use proptest::prelude::*;

/// A four-rank trace mixing blocking exchanges, non-blocking rounds with
/// reused request ids, and rotating collectives — the same shapes the
/// engine-level differential tests use, kept local because test utilities
/// do not cross crate boundaries.
fn arb_trace() -> impl Strategy<Value = TraceSet> {
    (
        proptest::collection::vec((1u64..200_000, 1u64..150_000, 0u8..3), 1..7),
        1u64..5_000,
    )
        .prop_map(|(rounds, mips)| {
            let mut ranks: Vec<Vec<Record>> = vec![Vec::new(); 4];
            for (i, (burst, bytes, coll)) in rounds.iter().enumerate() {
                let tag = Tag::new(i as u64);
                for (r, rank) in ranks.iter_mut().enumerate() {
                    rank.push(Record::Burst {
                        instr: Instr::new(*burst + r as u64),
                    });
                }
                if i % 2 == 0 {
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
                        ranks[s].push(Record::Burst {
                            instr: Instr::new(*burst / 2 + 1),
                        });
                        ranks[d].push(Record::Burst {
                            instr: Instr::new(*burst / 3 + 1),
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
                "attr-prop",
                MipsRate::new(mips).unwrap(),
                ranks.into_iter().map(RankTrace::from_records).collect(),
            )
        })
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    (
        0u64..50,
        1.0e6f64..1.0e10,
        prop_oneof![Just(None), (1u32..4).prop_map(Some)],
        1u32..5,
        prop_oneof![Just(None), (1u32..3).prop_map(Some)],
        0u64..300_000,
        0u64..10,
    )
        .prop_map(|(lat, bw, buses, rpn, intra_links, eager, oh)| {
            let mut b = Platform::builder();
            b.latency(Time::from_us(lat))
                .bandwidth_bytes_per_sec(bw)
                .expect("positive")
                .buses(buses)
                .ranks_per_node(rpn)
                .expect("positive packing")
                .intra_node_links(intra_links)
                .eager_threshold(eager)
                .send_overhead(Time::from_us(oh))
                .recv_overhead(Time::from_us(oh));
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Critical-path invariants: the reported path length equals the
    /// makespan exactly, segments are contiguous in chronological order
    /// from zero, and every segment references real ranks and channels
    /// (no dangling ids).
    #[test]
    fn critical_path_length_equals_makespan(
        trace in arb_trace(),
        platform in arb_platform(),
    ) {
        let index = TraceIndex::build(&trace).expect("valid");
        let attr = Attribution::analyze(&platform, &trace, &index).expect("analyzes");
        let result = replay_naive(&platform, &trace).expect("replays");

        prop_assert_eq!(attr.makespan(), result.total_time());
        prop_assert_eq!(attr.critical_path_len(), attr.makespan(),
            "critical path does not span the makespan");

        let n = trace.rank_count() as u32;
        let channels = index.channel_count() as u32;
        let path = attr.critical_path();
        if attr.makespan() > Time::ZERO {
            prop_assert!(!path.is_empty());
            prop_assert_eq!(path[0].start, Time::ZERO, "path must start at zero");
            prop_assert_eq!(path.last().unwrap().end, attr.makespan());
        }
        for w in path.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "path segments must be contiguous");
        }
        for step in path {
            prop_assert!(step.end > step.start, "zero-length path segment");
            prop_assert!(step.rank.get() < n, "dangling rank id {}", step.rank.get());
            if let Some(chan) = step.cause.channel() {
                prop_assert!(chan < channels, "dangling channel id {}", chan);
            }
            if let Some(via) = step.via {
                prop_assert!(via.get() < n, "dangling via rank {}", via.get());
            }
        }
    }

    /// Reconciliation: per-rank breakdown totals equal the replay's
    /// per-rank finish times bit-exactly, and per-channel wait sums equal
    /// the per-rank wait sums (every wait picosecond is charged to
    /// exactly one channel or to a collective).
    #[test]
    fn breakdowns_reconcile_with_replay(
        trace in arb_trace(),
        platform in arb_platform(),
    ) {
        let index = TraceIndex::build(&trace).expect("valid");
        let attr = Attribution::analyze(&platform, &trace, &index).expect("analyzes");
        let result = replay_naive(&platform, &trace).expect("replays");

        let mut rank_wait = Time::ZERO;
        let mut rank_collective = Time::ZERO;
        for (r, b) in attr.ranks().iter().enumerate() {
            prop_assert_eq!(b.total, result.rank_finish()[r],
                "rank {} total does not reconcile", r);
            prop_assert_eq!(b.compute, result.rank_compute()[r],
                "rank {} compute does not reconcile", r);
            let parts = b.compute + b.send_overhead + b.wait();
            prop_assert_eq!(parts, b.total, "rank {} categories do not sum", r);
            rank_wait += b.wait();
            rank_collective += b.collective;
        }
        let chan_wait: Time = attr.channels().iter().map(|c| c.total_wait()).sum();
        prop_assert_eq!(chan_wait + rank_collective, rank_wait,
            "per-channel waits do not cover the per-rank waits");

        // Gain potentials never promise more than the overlappable gap.
        let gap = attr.makespan().saturating_sub(attr.makespan_bound());
        for c in attr.channels() {
            prop_assert!(c.gain_potential <= gap);
            prop_assert!(c.gain_potential <= c.critical);
            prop_assert!(c.critical <= attr.makespan());
        }
    }
}
