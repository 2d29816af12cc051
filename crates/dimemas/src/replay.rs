//! The trace-replay simulator.
//!
//! [`Simulator`] replays a [`TraceSet`] on a [`Platform`], reconstructing
//! the application's time behaviour "off-line … on a configurable parallel
//! platform" exactly as Dimemas does in the paper's environment:
//!
//! * computation bursts take `instructions / MIPS / cpu_ratio` time,
//! * point-to-point transfers take `latency + bytes/bandwidth` once they
//!   hold a sender output link, a network bus and a receiver input link
//!   (finite resources queue FIFO),
//! * messages at most [`Platform::eager_threshold`] bytes are *eager*:
//!   the sender proceeds immediately and the data waits at the receiver if
//!   necessary; larger messages *rendezvous*: the wire transfer starts only
//!   once the receive is posted, and blocking senders wait for completion,
//! * collectives are synchronized cost-model phases,
//! * request matching is FIFO per `(source, destination, tag)` channel.
//!
//! # Entry points
//!
//! The paper's methodology is "synthesize once, replay many": every figure
//! sweeps the same trace pair across dozens of platform points. A sweep
//! validates and lowers the trace once into a [`CompiledTrace`] (one pass,
//! [`CompiledTrace::build`]) and calls [`Simulator::run_compiled`] per
//! platform point. [`Simulator::run`] and [`Simulator::run_observed`] do
//! both steps for a single replay. Every entry point runs the one
//! executor described in the `fastforward` module's docs; the seed's
//! engine is kept in [`crate::naive`] as the independent reference, and
//! differential property tests enforce bit-identical results.

use std::fmt;

use ovlsim_core::{CompiledTrace, Platform, Time, TraceSet};

use crate::error::SimError;
use crate::observer::ReplayObserver;

/// Outcome of replaying one trace set on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    pub(crate) name: String,
    pub(crate) total_time: Time,
    pub(crate) rank_finish: Vec<Time>,
    pub(crate) rank_compute: Vec<Time>,
    pub(crate) p2p_messages: u64,
    pub(crate) p2p_bytes: u64,
    pub(crate) collective_count: u64,
    pub(crate) mean_busy_buses: f64,
    pub(crate) peak_busy_buses: f64,
    pub(crate) peak_waiting_transfers: usize,
}

impl ReplayResult {
    /// The replayed trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Completion time of the slowest rank (the execution's makespan).
    pub fn total_time(&self) -> Time {
        self.total_time
    }

    /// Per-rank completion times.
    pub fn rank_finish(&self) -> &[Time] {
        &self.rank_finish
    }

    /// Per-rank accumulated computation time.
    pub fn rank_compute(&self) -> &[Time] {
        &self.rank_compute
    }

    /// Fraction of rank-time spent *not* computing (blocked in
    /// communication or collectives), in `[0, 1]`.
    pub fn comm_fraction(&self) -> f64 {
        let finish: f64 = self.rank_finish.iter().map(|t| t.as_secs_f64()).sum();
        if finish == 0.0 {
            return 0.0;
        }
        let compute: f64 = self.rank_compute.iter().map(|t| t.as_secs_f64()).sum();
        ((finish - compute) / finish).clamp(0.0, 1.0)
    }

    /// Number of point-to-point transfers (chunks count individually).
    pub fn p2p_messages(&self) -> u64 {
        self.p2p_messages
    }

    /// Total point-to-point bytes moved.
    pub fn p2p_bytes(&self) -> u64 {
        self.p2p_bytes
    }

    /// Number of collective operations executed.
    pub fn collective_count(&self) -> u64 {
        self.collective_count
    }

    /// Time-weighted mean number of busy buses.
    pub fn mean_busy_buses(&self) -> f64 {
        self.mean_busy_buses
    }

    /// Peak number of simultaneously busy buses.
    pub fn peak_busy_buses(&self) -> f64 {
        self.peak_busy_buses
    }

    /// Largest number of transfers simultaneously waiting for transport
    /// resources in either contention domain (bus/NIC links, or a node's
    /// finite intra-node ports when the platform bounds them).
    pub fn peak_waiting_transfers(&self) -> usize {
        self.peak_waiting_transfers
    }
}

impl fmt::Display for ReplayResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({} ranks, {} msgs, comm {:.1}%)",
            self.name,
            self.total_time,
            self.rank_finish.len(),
            self.p2p_messages,
            self.comm_fraction() * 100.0
        )
    }
}

/// The Dimemas-style replay simulator.
///
/// # Example
///
/// ```
/// use ovlsim_core::{Instr, MipsRate, Platform, Rank, RankTrace, Record, Tag, TraceSet};
/// use ovlsim_dimemas::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mips = MipsRate::new(1000)?;
/// let trace = TraceSet::new(
///     "pair",
///     mips,
///     vec![
///         RankTrace::from_records(vec![
///             Record::Burst { instr: Instr::new(1000) },
///             Record::Send { to: Rank::new(1), bytes: 1000, tag: Tag::new(0) },
///         ]),
///         RankTrace::from_records(vec![
///             Record::Recv { from: Rank::new(0), bytes: 1000, tag: Tag::new(0) },
///         ]),
///     ],
/// );
/// let platform = Platform::builder()
///     .latency(ovlsim_core::Time::from_us(1))
///     .bandwidth_bytes_per_sec(1.0e9)?
///     .build();
/// let result = Simulator::new(platform).run(&trace)?;
/// // 1 us compute + 1 us latency + 1 us wire.
/// assert_eq!(result.total_time(), ovlsim_core::Time::from_us(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    platform: Platform,
}

impl Simulator {
    /// Creates a simulator for the given platform.
    pub fn new(platform: Platform) -> Self {
        Simulator { platform }
    }

    /// The platform this simulator replays onto.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Replays a trace set: validates and compiles it in one pass
    /// ([`CompiledTrace::build`]) and runs the compiled program.
    ///
    /// When replaying the same trace on many platforms, build the program
    /// once and use [`Simulator::run_compiled`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTrace`] if the trace fails validation and
    /// [`SimError::Deadlock`] if replay stalls.
    pub fn run(&self, trace: &TraceSet) -> Result<ReplayResult, SimError> {
        let prog =
            CompiledTrace::build(trace).map_err(|issues| SimError::InvalidTrace { issues })?;
        self.run_compiled(&prog)
    }

    /// Replays a trace set, reporting timeline happenings to `observer`.
    /// The trace is compiled with [`CompiledTrace::build`] as in
    /// [`Simulator::run`]; a program keeps one instruction per record, so
    /// the timeline holds every burst and marker.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_observed(
        &self,
        trace: &TraceSet,
        observer: &mut dyn ReplayObserver,
    ) -> Result<ReplayResult, SimError> {
        let prog =
            CompiledTrace::build(trace).map_err(|issues| SimError::InvalidTrace { issues })?;
        self.run_compiled_observed(&prog, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{ProcState, WaitCause};
    use ovlsim_core::{Bandwidth, Instr, MipsRate, Rank, RankTrace, Record, RequestId, Tag};

    fn mips() -> MipsRate {
        MipsRate::new(1000).unwrap()
    }

    fn platform_1us_1gb() -> Platform {
        Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .build()
    }

    fn trace(ranks: Vec<Vec<Record>>) -> TraceSet {
        TraceSet::new(
            "test",
            mips(),
            ranks.into_iter().map(RankTrace::from_records).collect(),
        )
    }

    #[test]
    fn lone_burst_takes_instr_over_mips() {
        let ts = trace(vec![vec![Record::Burst {
            instr: Instr::new(5000),
        }]]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        // 5000 instr at 1000 MIPS = 5 us.
        assert_eq!(res.total_time(), Time::from_us(5));
        assert_eq!(res.rank_compute()[0], Time::from_us(5));
        assert_eq!(res.comm_fraction(), 0.0);
    }

    #[test]
    fn cpu_ratio_scales_bursts() {
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .cpu_ratio(2.0)
            .expect("positive ratio")
            .build();
        let ts = trace(vec![vec![Record::Burst {
            instr: Instr::new(5000),
        }]]);
        let res = Simulator::new(p).run(&ts).unwrap();
        assert_eq!(res.total_time(), Time::from_us(2) + Time::from_ps(500_000));
    }

    #[test]
    fn eager_send_recv_pair_timing() {
        let ts = trace(vec![
            vec![
                Record::Burst {
                    instr: Instr::new(1000),
                },
                Record::Send {
                    to: Rank::new(1),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
            ],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 1000,
                tag: Tag::new(0),
            }],
        ]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        // Sender: 1 us compute, send eager (instant locally).
        assert_eq!(res.rank_finish()[0], Time::from_us(1));
        // Receiver: wire starts at 1 us, 1 us latency + 1 us transfer.
        assert_eq!(res.rank_finish()[1], Time::from_us(3));
        assert_eq!(res.p2p_messages(), 1);
        assert_eq!(res.p2p_bytes(), 1000);
    }

    #[test]
    fn early_receiver_still_pays_wire_time() {
        // Receiver posts immediately; sender computes first.
        let ts = trace(vec![
            vec![
                Record::Burst {
                    instr: Instr::new(10_000),
                },
                Record::Send {
                    to: Rank::new(1),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
            ],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 1000,
                tag: Tag::new(0),
            }],
        ]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        assert_eq!(res.rank_finish()[1], Time::from_us(12));
    }

    #[test]
    fn rendezvous_waits_for_receiver() {
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .eager_threshold(100)
            .build();
        // 1000-byte message is rendezvous. Receiver arrives late (10 us).
        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 1000,
                tag: Tag::new(0),
            }],
            vec![
                Record::Burst {
                    instr: Instr::new(10_000),
                },
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
            ],
        ]);
        let res = Simulator::new(p).run(&ts).unwrap();
        // Transfer starts at 10 us; fully sent at 11 us (sender resumes),
        // arrives one latency later at 12 us (receiver resumes).
        assert_eq!(res.rank_finish()[0], Time::from_us(11));
        assert_eq!(res.rank_finish()[1], Time::from_us(12));
    }

    #[test]
    fn eager_message_buffered_until_late_receiver() {
        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 1000,
                tag: Tag::new(0),
            }],
            vec![
                Record::Burst {
                    instr: Instr::new(10_000),
                },
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
            ],
        ]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        // Sender done immediately; wire done at 2 us; receiver computes
        // till 10 us and finds the message there.
        assert_eq!(res.rank_finish()[0], Time::ZERO);
        assert_eq!(res.rank_finish()[1], Time::from_us(10));
    }

    #[test]
    fn irecv_wait_overlaps_compute() {
        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 1_000_000,
                tag: Tag::new(0),
            }],
            vec![
                Record::IRecv {
                    from: Rank::new(0),
                    bytes: 1_000_000,
                    tag: Tag::new(0),
                    req: RequestId::new(0),
                },
                Record::Burst {
                    instr: Instr::new(2000),
                },
                Record::Wait {
                    req: RequestId::new(0),
                },
            ],
        ]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        // Wire: 1 us latency + 1000 us transfer = 1001 us; compute 2 us
        // overlaps fully. Receiver ends at 1001 us.
        assert_eq!(res.rank_finish()[1], Time::from_us(1001));
    }

    #[test]
    fn fifo_matching_same_tag() {
        // Two messages of different sizes on one channel must match FIFO.
        let ts = trace(vec![
            vec![
                Record::Send {
                    to: Rank::new(1),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
                Record::Send {
                    to: Rank::new(1),
                    bytes: 2000,
                    tag: Tag::new(0),
                },
            ],
            vec![
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 2000,
                    tag: Tag::new(0),
                },
            ],
        ]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        // Serialized on the sender's single output link: msg1 transmits
        // [0,1us] and lands at 2us; msg2 transmits [1us,3us], lands at 4us.
        assert_eq!(res.rank_finish()[1], Time::from_us(4));
    }

    #[test]
    fn single_output_link_serializes_chunks() {
        // Four 1000-byte chunks posted back-to-back as isends.
        let reqs: Vec<RequestId> = (0..4).map(RequestId::new).collect();
        let mut r0: Vec<Record> = reqs
            .iter()
            .map(|&req| Record::ISend {
                to: Rank::new(1),
                bytes: 1000,
                tag: Tag::new(req.get() as u64),
                req,
            })
            .collect();
        r0.push(Record::WaitAll { reqs: reqs.clone() });
        let r1: Vec<Record> = reqs
            .iter()
            .map(|&req| Record::Recv {
                from: Rank::new(0),
                bytes: 1000,
                tag: Tag::new(req.get() as u64),
            })
            .collect();
        let res = Simulator::new(platform_1us_1gb())
            .run(&trace(vec![r0, r1]))
            .unwrap();
        // Chunks pipeline on the out-link (1 us transmission each) with a
        // single overlapped flight latency: chunk k lands at k+2 us, so
        // the receiver finishes at 5 us -- not 4 x (1+1) = 8 us. This is
        // exactly why chunking stays cheap in the Dimemas model.
        assert_eq!(res.rank_finish()[1], Time::from_us(5));
    }

    #[test]
    fn more_output_links_parallelize_chunks() {
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .output_links(4)
            .input_links(4)
            .build();
        let reqs: Vec<RequestId> = (0..4).map(RequestId::new).collect();
        let mut r0: Vec<Record> = reqs
            .iter()
            .map(|&req| Record::ISend {
                to: Rank::new(1),
                bytes: 1000,
                tag: Tag::new(req.get() as u64),
                req,
            })
            .collect();
        r0.push(Record::WaitAll { reqs: reqs.clone() });
        let r1: Vec<Record> = reqs
            .iter()
            .map(|&req| Record::Recv {
                from: Rank::new(0),
                bytes: 1000,
                tag: Tag::new(req.get() as u64),
            })
            .collect();
        let res = Simulator::new(p).run(&trace(vec![r0, r1])).unwrap();
        // All four chunks in parallel: done at 2 us.
        assert_eq!(res.rank_finish()[1], Time::from_us(2));
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let ts = trace(vec![
            vec![
                Record::Burst {
                    instr: Instr::new(10_000),
                },
                Record::Barrier,
            ],
            vec![
                Record::Burst {
                    instr: Instr::new(1000),
                },
                Record::Barrier,
            ],
        ]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        // Barrier completes at 10 us (latest) + log2(2)*1 us = 11 us.
        assert_eq!(res.rank_finish()[0], Time::from_us(11));
        assert_eq!(res.rank_finish()[1], Time::from_us(11));
        assert_eq!(res.collective_count(), 1);
    }

    #[test]
    fn allreduce_cost_scales_with_ranks() {
        let mk = |n: u32| {
            trace(
                (0..n)
                    .map(|_| vec![Record::AllReduce { bytes: 1000 }])
                    .collect(),
            )
        };
        let sim = Simulator::new(platform_1us_1gb());
        let t2 = sim.run(&mk(2)).unwrap().total_time();
        let t8 = sim.run(&mk(8)).unwrap().total_time();
        // 2 ranks: 2*1 stages * 2 us = 4 us; 8 ranks: 2*3 * 2 us = 12 us.
        assert_eq!(t2, Time::from_us(4));
        assert_eq!(t8, Time::from_us(12));
    }

    #[test]
    fn remaining_collectives_follow_their_stage_models() {
        // Defaults: bcast/reduce/allgather log2(p) stages, alltoall p-1.
        let sim = Simulator::new(platform_1us_1gb());
        let mk = |rec: Record, n: u32| trace((0..n).map(|_| vec![rec.clone()]).collect());
        // 4 ranks, 1000 bytes, per stage 1 us latency + 1 us wire = 2 us.
        let bcast = mk(
            Record::Bcast {
                root: Rank::new(0),
                bytes: 1000,
            },
            4,
        );
        assert_eq!(sim.run(&bcast).unwrap().total_time(), Time::from_us(4));
        let reduce = mk(
            Record::Reduce {
                root: Rank::new(1),
                bytes: 1000,
            },
            4,
        );
        assert_eq!(sim.run(&reduce).unwrap().total_time(), Time::from_us(4));
        let allgather = mk(Record::AllGather { bytes: 1000 }, 4);
        assert_eq!(sim.run(&allgather).unwrap().total_time(), Time::from_us(4));
        // alltoall: (4-1) stages * 2 us.
        let alltoall = mk(Record::AllToAll { bytes: 1000 }, 4);
        assert_eq!(sim.run(&alltoall).unwrap().total_time(), Time::from_us(6));
    }

    #[test]
    fn collectives_wait_for_last_arrival() {
        // Mixed arrival times: the barrier fires from the latest.
        let ts = trace(vec![
            vec![
                Record::Burst {
                    instr: Instr::new(3_000),
                },
                Record::AllGather { bytes: 1000 },
            ],
            vec![
                Record::Burst {
                    instr: Instr::new(7_000),
                },
                Record::AllGather { bytes: 1000 },
            ],
            vec![Record::AllGather { bytes: 1000 }],
        ]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        // Last arrival 7 us + ceil(log2 3)=2 stages * 2 us = 11 us.
        for finish in res.rank_finish() {
            assert_eq!(*finish, Time::from_us(11));
        }
    }

    #[test]
    fn deadlock_detected_and_reported() {
        // Two ranks both waiting to receive; nothing in flight.
        let ts = trace(vec![
            vec![Record::Recv {
                from: Rank::new(1),
                bytes: 100,
                tag: Tag::new(0),
            }],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 100,
                tag: Tag::new(0),
            }],
        ]);
        // Note: validation flags the unbalanced channels first, so build a
        // structurally valid but deadlocking trace: cyclic rendezvous.
        let p = Platform::builder()
            .eager_threshold(10)
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .build();
        let cyc = trace(vec![
            vec![
                Record::Send {
                    to: Rank::new(1),
                    bytes: 100,
                    tag: Tag::new(0),
                },
                Record::Recv {
                    from: Rank::new(1),
                    bytes: 100,
                    tag: Tag::new(1),
                },
            ],
            vec![
                Record::Send {
                    to: Rank::new(0),
                    bytes: 100,
                    tag: Tag::new(1),
                },
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 100,
                    tag: Tag::new(0),
                },
            ],
        ]);
        match Simulator::new(p).run(&cyc) {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 2);
                assert!(blocked[0].1.contains("rendezvous"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        // The unbalanced trace is rejected by validation.
        assert!(matches!(
            Simulator::new(platform_1us_1gb()).run(&ts),
            Err(SimError::InvalidTrace { .. })
        ));
    }

    #[test]
    fn bandwidth_monotonicity() {
        // Higher bandwidth never slows an execution down.
        let ts = trace(vec![
            vec![
                Record::Burst {
                    instr: Instr::new(1000),
                },
                Record::Send {
                    to: Rank::new(1),
                    bytes: 100_000,
                    tag: Tag::new(0),
                },
                Record::Recv {
                    from: Rank::new(1),
                    bytes: 100_000,
                    tag: Tag::new(1),
                },
            ],
            vec![
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 100_000,
                    tag: Tag::new(0),
                },
                Record::Burst {
                    instr: Instr::new(1000),
                },
                Record::Send {
                    to: Rank::new(0),
                    bytes: 100_000,
                    tag: Tag::new(1),
                },
            ],
        ]);
        let mut last = Time::MAX;
        for bw in [1.0e6, 1.0e7, 1.0e8, 1.0e9, 1.0e10] {
            let p = Platform::builder()
                .latency(Time::from_us(1))
                .bandwidth_bytes_per_sec(bw)
                .unwrap()
                .build();
            let t = Simulator::new(p).run(&ts).unwrap().total_time();
            assert!(t <= last, "slower at higher bandwidth {bw}");
            last = t;
        }
    }

    #[test]
    fn observer_sees_intervals_and_messages() {
        #[derive(Default)]
        struct Counter {
            compute: u32,
            waits: u32,
            messages: u32,
            finished: u32,
        }
        impl ReplayObserver for Counter {
            fn interval(&mut self, _r: Rank, _s: Time, _e: Time, state: ProcState) {
                match state {
                    ProcState::Compute => self.compute += 1,
                    _ => self.waits += 1,
                }
            }
            fn message(&mut self, _f: Rank, _t: Rank, _s: Time, _e: Time, _b: u64, _tag: Tag) {
                self.messages += 1;
            }
            fn finished(&mut self, _r: Rank, _t: Time) {
                self.finished += 1;
            }
        }
        let ts = trace(vec![
            vec![
                Record::Burst {
                    instr: Instr::new(1000),
                },
                Record::Send {
                    to: Rank::new(1),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
            ],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 1000,
                tag: Tag::new(0),
            }],
        ]);
        let mut obs = Counter::default();
        Simulator::new(platform_1us_1gb())
            .run_observed(&ts, &mut obs)
            .unwrap();
        assert_eq!(obs.compute, 1);
        assert_eq!(obs.messages, 1);
        assert_eq!(obs.waits, 1); // the blocking recv
        assert_eq!(obs.finished, 2);
    }

    #[test]
    fn send_overhead_delays_sender() {
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .send_overhead(Time::from_us(3))
            .build();
        let ts = trace(vec![
            vec![
                Record::Send {
                    to: Rank::new(1),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
                Record::Send {
                    to: Rank::new(1),
                    bytes: 1000,
                    tag: Tag::new(1),
                },
            ],
            vec![
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(1),
                },
            ],
        ]);
        let res = Simulator::new(p).run(&ts).unwrap();
        // Sender pays 3 us per eager send: finishes at 6 us.
        assert_eq!(res.rank_finish()[0], Time::from_us(6));
    }

    #[test]
    fn recv_overhead_delays_completion() {
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .recv_overhead(Time::from_us(2))
            .build();
        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 1000,
                tag: Tag::new(0),
            }],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 1000,
                tag: Tag::new(0),
            }],
        ]);
        let res = Simulator::new(p).run(&ts).unwrap();
        // Arrival at 2 us + 2 us rx overhead.
        assert_eq!(res.rank_finish()[1], Time::from_us(4));
    }

    #[test]
    fn recv_overhead_applies_to_buffered_messages() {
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .recv_overhead(Time::from_us(2))
            .build();
        // Message arrives long before the receive is posted.
        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 1000,
                tag: Tag::new(0),
            }],
            vec![
                Record::Burst {
                    instr: Instr::new(10_000),
                },
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(0),
                },
            ],
        ]);
        let res = Simulator::new(p).run(&ts).unwrap();
        assert_eq!(res.rank_finish()[1], Time::from_us(12));
    }

    #[test]
    fn intra_node_messages_bypass_the_network() {
        // Ranks 0 and 1 share a node: their message uses the intra-node
        // path (500 ns latency, 10 GB/s) instead of 1 us + 1 GB/s.
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .ranks_per_node(2)
            .expect("positive packing")
            .intra_node_latency(Time::from_ns(500))
            .intra_node_bandwidth(ovlsim_core::Bandwidth::from_bytes_per_sec(10.0e9).unwrap())
            .build();
        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 10_000,
                tag: Tag::new(0),
            }],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 10_000,
                tag: Tag::new(0),
            }],
        ]);
        let res = Simulator::new(p).run(&ts).unwrap();
        // 10 KB at 10 GB/s = 1 us transmission + 0.5 us latency.
        assert_eq!(res.rank_finish()[1], Time::from_ns(1500));
        // Inter-node for comparison: 10 us transmission + 1 us latency.
        let inter = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .build();
        let res = Simulator::new(inter).run(&ts).unwrap();
        assert_eq!(res.rank_finish()[1], Time::from_us(11));
    }

    #[test]
    fn shared_nic_contends_across_siblings() {
        // Node 0 hosts ranks 0 and 1; both send to node 1 concurrently
        // through one shared out-link: transmissions serialize.
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .ranks_per_node(2)
            .expect("positive packing")
            .build();
        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(2),
                bytes: 10_000,
                tag: Tag::new(0),
            }],
            vec![Record::Send {
                to: Rank::new(3),
                bytes: 10_000,
                tag: Tag::new(0),
            }],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 10_000,
                tag: Tag::new(0),
            }],
            vec![Record::Recv {
                from: Rank::new(1),
                bytes: 10_000,
                tag: Tag::new(0),
            }],
        ]);
        let res = Simulator::new(p).run(&ts).unwrap();
        let finishes: Vec<Time> = res.rank_finish().to_vec();
        // One message lands at 11 us, the other waits for the shared link
        // and lands at 21 us.
        let mut arrivals = vec![finishes[2], finishes[3]];
        arrivals.sort();
        assert_eq!(arrivals, vec![Time::from_us(11), Time::from_us(21)]);
    }

    #[test]
    fn packing_ranks_onto_nodes_relieves_a_constrained_bus() {
        // Pairs (0,1) and (2,3) exchange under a single shared bus. With
        // one rank per node every message crosses the bus and serializes;
        // with two ranks per node both messages are intra-node, bypass the
        // bus/NIC fabric entirely, and the run finishes faster; with all
        // four on one node no bus is ever busy. More intra-node bandwidth
        // never slows a fixed packing. The production executor and naive
        // replay stay bit-identical on every topology.
        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 100_000,
                tag: Tag::new(0),
            }],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 100_000,
                tag: Tag::new(0),
            }],
            vec![Record::Send {
                to: Rank::new(3),
                bytes: 100_000,
                tag: Tag::new(0),
            }],
            vec![Record::Recv {
                from: Rank::new(2),
                bytes: 100_000,
                tag: Tag::new(0),
            }],
        ]);
        let platform_with = |rpn: u32, intra_bps: f64| {
            Platform::builder()
                .latency(Time::from_us(1))
                .bandwidth_bytes_per_sec(1.0e9)
                .unwrap()
                .buses(Some(1))
                .ranks_per_node(rpn)
                .expect("positive packing")
                .intra_node_bandwidth(Bandwidth::from_bytes_per_sec(intra_bps).unwrap())
                .build()
        };
        // Ranks per node major, intra-node bandwidth (1, then 10 GB/s)
        // minor.
        let mut runs = Vec::new();
        for rpn in [1u32, 2, 4] {
            for intra_bps in [1.0e9, 1.0e10] {
                let p = platform_with(rpn, intra_bps);
                let run = Simulator::new(p.clone()).run(&ts).unwrap();
                let naive = crate::naive::replay_naive(&p, &ts).unwrap();
                assert_eq!(run, naive, "naive diverged at rpn={rpn}, intra={intra_bps}");
                runs.push(run);
            }
        }
        // rpn=1: the two 100 us transmissions serialize on the one bus.
        // rpn=2: both messages use the 10 GB/s intra path concurrently.
        assert!(
            runs[3].total_time() < runs[1].total_time(),
            "2 ranks/node ({}) should beat 1 rank/node ({}) under a constrained bus",
            runs[3].total_time(),
            runs[1].total_time(),
        );
        // rpn=4: every rank on one node, so no transfer touches a bus.
        assert_eq!(runs[4].mean_busy_buses(), 0.0);
        assert_eq!(runs[5].mean_busy_buses(), 0.0);
        for pair in runs.chunks(2) {
            assert!(pair[1].total_time() <= pair[0].total_time());
        }
    }

    #[test]
    fn finite_intra_node_ports_serialize_sibling_messages() {
        // Ranks 0 and 1 share a node and exchange 0->1 and 1->0
        // simultaneously: with a single shared-memory port the two
        // transmissions serialize; with unlimited ports they overlap.
        let ts = trace(vec![
            vec![
                Record::Send {
                    to: Rank::new(1),
                    bytes: 10_000,
                    tag: Tag::new(0),
                },
                Record::Recv {
                    from: Rank::new(1),
                    bytes: 10_000,
                    tag: Tag::new(1),
                },
            ],
            vec![
                Record::Send {
                    to: Rank::new(0),
                    bytes: 10_000,
                    tag: Tag::new(1),
                },
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 10_000,
                    tag: Tag::new(0),
                },
            ],
        ]);
        let base = |ports: Option<u32>| {
            Platform::builder()
                .latency(Time::from_us(1))
                .bandwidth_bytes_per_sec(1.0e9)
                .unwrap()
                .ranks_per_node(2)
                .expect("positive packing")
                .intra_node_latency(Time::from_ns(500))
                .intra_node_bandwidth(ovlsim_core::Bandwidth::from_bytes_per_sec(10.0e9).unwrap())
                .intra_node_links(ports)
                .build()
        };
        // Unlimited: both 1 us transmissions overlap; done at 1.5 us.
        let free = Simulator::new(base(None)).run(&ts).unwrap();
        assert_eq!(free.total_time(), Time::from_ns(1500));
        // One port: the second transmission waits; done at 2.5 us. The
        // queueing is visible in the waiting-transfer statistic.
        let p = base(Some(1));
        let ported = Simulator::new(p.clone()).run(&ts).unwrap();
        assert_eq!(ported.total_time(), Time::from_ns(2500));
        assert!(ported.peak_waiting_transfers() >= 1);
        assert_eq!(free.peak_waiting_transfers(), 0);
        // Differential: naive replay agrees on the ported topology.
        assert_eq!(ported, crate::naive::replay_naive(&p, &ts).unwrap());
    }

    #[test]
    fn empty_trace_finishes_at_zero() {
        let ts = trace(vec![vec![], vec![]]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        assert_eq!(res.total_time(), Time::ZERO);
    }

    #[test]
    fn result_display_mentions_name() {
        let ts = trace(vec![vec![]]);
        let res = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        assert!(format!("{res}").contains("test"));
    }

    #[test]
    fn compiled_program_matches_run_across_bandwidths() {
        // The program depends only on the trace: compile once, replay on
        // many platforms, bit-identical to the validating path and to
        // naive replay.
        let ts = trace(vec![
            vec![
                Record::Burst {
                    instr: Instr::new(2000),
                },
                Record::Send {
                    to: Rank::new(1),
                    bytes: 50_000,
                    tag: Tag::new(0),
                },
                Record::Recv {
                    from: Rank::new(1),
                    bytes: 1000,
                    tag: Tag::new(1),
                },
            ],
            vec![
                Record::Recv {
                    from: Rank::new(0),
                    bytes: 50_000,
                    tag: Tag::new(0),
                },
                Record::Burst {
                    instr: Instr::new(500),
                },
                Record::Send {
                    to: Rank::new(0),
                    bytes: 1000,
                    tag: Tag::new(1),
                },
            ],
        ]);
        let prog = CompiledTrace::build(&ts).expect("valid");
        for bw in [1.0e6, 1.0e8, 1.0e10] {
            let p = Platform::builder()
                .latency(Time::from_us(1))
                .bandwidth_bytes_per_sec(bw)
                .unwrap()
                .build();
            let sim = Simulator::new(p.clone());
            let compiled = sim.run_compiled(&prog).unwrap();
            assert_eq!(
                compiled,
                sim.run(&ts).unwrap(),
                "diverged from run at {bw} B/s"
            );
            let naive = crate::naive::replay_naive(&p, &ts).unwrap();
            assert_eq!(compiled, naive, "diverged from naive at {bw} B/s");
        }
    }

    #[test]
    fn perturbed_noise_stretches_bursts_deterministically() {
        use ovlsim_core::PerturbationModel;
        let ts = trace(vec![vec![
            Record::Burst {
                instr: Instr::new(5000),
            },
            Record::Burst {
                instr: Instr::new(5000),
            },
        ]]);
        let clean = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        let noisy = platform_1us_1gb()
            .with_perturbation(PerturbationModel::new(42).with_noise(0.2).unwrap());
        let a = Simulator::new(noisy.clone()).run(&ts).unwrap();
        let b = Simulator::new(noisy).run(&ts).unwrap();
        assert_eq!(a, b, "same seed replays bit-identically");
        assert!(a.total_time() > clean.total_time());
        // Bounded: at most (1 + level) times the clean duration.
        assert!(a.total_time() <= clean.total_time().scale_f64(1.2));
        // A zero-noise model is the identity.
        let ident = platform_1us_1gb().with_perturbation(PerturbationModel::new(42));
        assert_eq!(Simulator::new(ident).run(&ts).unwrap(), clean);
    }

    #[test]
    fn perturbed_stragglers_and_node_speeds_slow_ranks() {
        use ovlsim_core::PerturbationModel;
        let ts = trace(vec![
            vec![Record::Burst {
                instr: Instr::new(1000),
            }],
            vec![Record::Burst {
                instr: Instr::new(1000),
            }],
        ]);
        let model = PerturbationModel::new(0)
            .with_stragglers(&[1], 3.0)
            .unwrap();
        let p = platform_1us_1gb().with_perturbation(model);
        let res = Simulator::new(p).run(&ts).unwrap();
        assert_eq!(res.rank_finish()[0], Time::from_us(1));
        assert_eq!(res.rank_finish()[1], Time::from_us(3));
        // Heterogeneous nodes: rank 1 is node 1 at half speed (rpn = 1).
        let model = PerturbationModel::new(0)
            .with_node_speeds(&[1.0, 0.5])
            .unwrap();
        let p = platform_1us_1gb().with_perturbation(model);
        let res = Simulator::new(p).run(&ts).unwrap();
        assert_eq!(res.rank_finish()[0], Time::from_us(1));
        assert_eq!(res.rank_finish()[1], Time::from_us(2));
    }

    #[test]
    fn perturbed_faults_hold_transfers_and_surface_link_down() {
        use crate::observer::DepEdge;
        use ovlsim_core::PerturbationModel;

        #[derive(Default)]
        struct Causes(Vec<(Time, Time, WaitCause)>);
        impl ReplayObserver for Causes {
            fn attributed(
                &mut self,
                _r: Rank,
                s: Time,
                e: Time,
                cause: WaitCause,
                _edge: Option<DepEdge>,
            ) {
                self.0.push((s, e, cause));
            }
        }

        let ts = trace(vec![
            vec![Record::Send {
                to: Rank::new(1),
                bytes: 1000,
                tag: Tag::new(0),
            }],
            vec![Record::Recv {
                from: Rank::new(0),
                bytes: 1000,
                tag: Tag::new(0),
            }],
        ]);
        let clean = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        // Find a seed whose 0 -> 1 outage window covers t = 0: the send is
        // posted at time zero, so the transfer must be held back.
        let period = Time::from_us(100);
        let down = Time::from_us(30);
        let seed = (0..64)
            .find(|&s| {
                PerturbationModel::new(s)
                    .with_faults(period, down)
                    .unwrap()
                    .outage_end(0, 1, Time::ZERO)
                    .is_some()
            })
            .expect("some seed puts the link down at t=0");
        let model = PerturbationModel::new(seed)
            .with_faults(period, down)
            .unwrap();
        let up = model.outage_end(0, 1, Time::ZERO).unwrap();
        let p = platform_1us_1gb().with_perturbation(model);
        let mut causes = Causes::default();
        let faulty = Simulator::new(p).run_observed(&ts, &mut causes).unwrap();
        // The whole execution is delayed by exactly the outage remainder.
        assert_eq!(faulty.total_time(), clean.total_time() + (up - Time::ZERO));
        // The receiver's blocked window contains a link-down segment
        // covering the hold.
        let downs: Vec<_> = causes
            .0
            .iter()
            .filter(|(_, _, c)| matches!(c, WaitCause::LinkDown { .. }))
            .collect();
        assert_eq!(downs.len(), 1);
        assert_eq!(downs[0].0, Time::ZERO);
        assert_eq!(downs[0].1, up);
    }

    #[test]
    fn optimized_matches_naive_reference() {
        // Direct spot-check of the differential property (the exhaustive
        // version lives in tests/props.rs).
        let ts = trace(vec![
            vec![
                Record::ISend {
                    to: Rank::new(1),
                    bytes: 200_000,
                    tag: Tag::new(0),
                    req: RequestId::new(0),
                },
                Record::Burst {
                    instr: Instr::new(5000),
                },
                Record::Wait {
                    req: RequestId::new(0),
                },
                Record::Barrier,
            ],
            vec![
                Record::IRecv {
                    from: Rank::new(0),
                    bytes: 200_000,
                    tag: Tag::new(0),
                    req: RequestId::new(1),
                },
                Record::Burst {
                    instr: Instr::new(1000),
                },
                Record::WaitAll {
                    reqs: vec![RequestId::new(1)],
                },
                Record::Barrier,
            ],
        ]);
        let p = Platform::builder()
            .latency(Time::from_us(3))
            .bandwidth_bytes_per_sec(2.5e8)
            .unwrap()
            .eager_threshold(4096)
            .build();
        let optimized = Simulator::new(p.clone()).run(&ts).unwrap();
        let naive = crate::naive::replay_naive(&p, &ts).unwrap();
        assert_eq!(optimized, naive);
    }
}
