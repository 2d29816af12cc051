//! Entry points for compiled trace programs ([`CompiledTrace`]).
//!
//! [`Simulator::run_compiled`] is the cheapest replay path: it executes
//! the flat struct-of-arrays program produced by
//! [`CompiledTrace::compile`] — one-byte opcodes, dense operand columns,
//! pre-converted burst durations and pre-resolved request slots — instead
//! of decoding [`ovlsim_core::Record`] enums and scanning request tables
//! per event. One program serves both entry points: an unobserved run
//! steps over the markers an observer would see. The executor behind them
//! (and behind [`Simulator::run`], which compiles first) lives in
//! `fastforward.rs`.
//! Results are bit-identical to the independent reference engine,
//! [`crate::naive::replay_naive`]; the differential property tests in
//! `tests/props.rs` enforce it.

use ovlsim_core::CompiledTrace;

use crate::error::SimError;
use crate::fastforward::execute;
use crate::observer::{NullObserver, ReplayObserver};
use crate::replay::{ReplayResult, Simulator};

impl Simulator {
    /// Replays a compiled trace program, the cheapest per-sweep-point
    /// entry. The result is bit-identical to [`Simulator::run`] on the
    /// source trace, which validates, indexes and compiles on every call;
    /// here that work is paid once. Compile once with
    /// [`CompiledTrace::compile`] and share `&CompiledTrace` across
    /// parallel sweep points.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if replay stalls.
    pub fn run_compiled(&self, prog: &CompiledTrace) -> Result<ReplayResult, SimError> {
        execute(self.platform(), prog, &mut NullObserver)
    }

    /// [`Simulator::run_compiled`] with timeline observation. Every
    /// program keeps one instruction per record, so the timeline holds
    /// every burst and marker of the source trace, and the result equals
    /// the unobserved run's.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if replay stalls.
    pub fn run_compiled_observed(
        &self,
        prog: &CompiledTrace,
        observer: &mut dyn ReplayObserver,
    ) -> Result<ReplayResult, SimError> {
        execute(self.platform(), prog, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::ProcState;
    use ovlsim_core::{
        Instr, MipsRate, Platform, Rank, RankTrace, Record, RequestId, Tag, Time, TraceIndex,
        TraceSet,
    };

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

    fn compile(ts: &TraceSet) -> CompiledTrace {
        let index = TraceIndex::build(ts).expect("valid");
        CompiledTrace::compile(ts, &index).expect("compiles")
    }

    #[test]
    fn compiled_matches_run_on_mixed_trace() {
        let reqs: Vec<RequestId> = (0..4).map(RequestId::new).collect();
        let mut r0: Vec<Record> = vec![
            Record::Burst {
                instr: Instr::new(700),
            },
            Record::Burst {
                instr: Instr::new(1300),
            },
            Record::Marker { code: 3 },
            Record::Burst {
                instr: Instr::new(500),
            },
        ];
        for &req in &reqs {
            r0.push(Record::ISend {
                to: Rank::new(1),
                bytes: 100_000,
                tag: Tag::new(req.get() as u64),
                req,
            });
        }
        r0.push(Record::WaitAll { reqs: reqs.clone() });
        r0.push(Record::Barrier);
        let mut r1: Vec<Record> = reqs
            .iter()
            .map(|&req| Record::Recv {
                from: Rank::new(0),
                bytes: 100_000,
                tag: Tag::new(req.get() as u64),
            })
            .collect();
        r1.push(Record::Barrier);
        let ts = trace(vec![r0, r1]);
        let sim = Simulator::new(platform_1us_1gb());
        let compiled = sim.run_compiled(&compile(&ts)).unwrap();
        assert_eq!(sim.run(&ts).unwrap(), compiled);
        let naive = crate::naive::replay_naive(sim.platform(), &ts).unwrap();
        assert_eq!(naive, compiled);
    }

    #[test]
    fn compiled_jump_handles_lone_computer() {
        // One rank computes a long run of bursts while the other is
        // already done: the makespan is exact.
        let ts = trace(vec![
            (0..10)
                .map(|i| Record::Burst {
                    instr: Instr::new(1000 + i),
                })
                .collect(),
            vec![],
        ]);
        let sim = Simulator::new(platform_1us_1gb());
        let reference = crate::naive::replay_naive(sim.platform(), &ts).unwrap();
        let compiled = sim.run_compiled(&compile(&ts)).unwrap();
        assert_eq!(reference, compiled);
    }

    #[test]
    fn compiled_respects_cpu_ratio_rounding() {
        // cpu_ratio scaling rounds per burst; the run must accumulate the
        // rounded durations exactly as naive does.
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .cpu_ratio(3.0)
            .expect("positive ratio")
            .build();
        let ts = trace(vec![(0..7)
            .map(|i| Record::Burst {
                instr: Instr::new(101 + 13 * i),
            })
            .collect()]);
        let sim = Simulator::new(p.clone());
        let reference = crate::naive::replay_naive(&p, &ts).unwrap();
        let compiled = sim.run_compiled(&compile(&ts)).unwrap();
        assert_eq!(reference, compiled);
    }

    #[test]
    fn observed_compiled_timeline_matches_uncompiled() {
        #[derive(Default, PartialEq, Debug, Clone)]
        struct Capture {
            intervals: Vec<(Rank, Time, Time, ProcState)>,
            messages: Vec<(Rank, Rank, Time, Time, u64, Tag)>,
            markers: Vec<(Rank, Time, u32)>,
            finished: Vec<(Rank, Time)>,
        }
        impl ReplayObserver for Capture {
            fn interval(&mut self, r: Rank, s: Time, e: Time, st: ProcState) {
                self.intervals.push((r, s, e, st));
            }
            fn message(&mut self, f: Rank, t: Rank, s: Time, e: Time, b: u64, tag: Tag) {
                self.messages.push((f, t, s, e, b, tag));
            }
            fn marker(&mut self, r: Rank, at: Time, code: u32) {
                self.markers.push((r, at, code));
            }
            fn finished(&mut self, r: Rank, at: Time) {
                self.finished.push((r, at));
            }
        }
        let ts = trace(vec![
            vec![
                Record::Burst {
                    instr: Instr::new(1000),
                },
                Record::Burst {
                    instr: Instr::new(2000),
                },
                Record::Marker { code: 5 },
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
        let sim = Simulator::new(platform_1us_1gb());
        let mut naive = Capture::default();
        crate::naive::replay_naive_observed(sim.platform(), &ts, &mut naive).unwrap();
        let prog = compile(&ts);
        let mut compiled = Capture::default();
        let observed = sim.run_compiled_observed(&prog, &mut compiled).unwrap();
        assert_eq!(naive, compiled);
        // Observation changes nothing: the same program replays to the
        // same result with or without an observer.
        assert_eq!(observed, sim.run(&ts).unwrap());
        assert_eq!(observed, sim.run_compiled(&prog).unwrap());
        let mut direct = Capture::default();
        sim.run_observed(&ts, &mut direct).unwrap();
        assert_eq!(direct, compiled);
    }

    #[test]
    fn compiled_multicore_ported_intra_domain_matches() {
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
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .ranks_per_node(2)
            .expect("positive packing")
            .intra_node_links(Some(1))
            .build();
        let sim = Simulator::new(p.clone());
        let reference = crate::naive::replay_naive(&p, &ts).unwrap();
        let compiled = sim.run_compiled(&compile(&ts)).unwrap();
        assert_eq!(reference, compiled);
    }

    #[test]
    fn compiled_matches_both_engines_under_full_perturbation() {
        use ovlsim_core::PerturbationModel;
        // Bursts + eager and rendezvous traffic + a collective, replayed
        // under every perturbation axis at once: the compiled program, the
        // validating entry point and the naive engine stay bit-identical.
        let mk = |to: u32, from: u32| {
            vec![
                Record::Burst {
                    instr: Instr::new(2500),
                },
                Record::Send {
                    to: Rank::new(to),
                    bytes: 500,
                    tag: Tag::new(7),
                },
                Record::Burst {
                    instr: Instr::new(900),
                },
                Record::Recv {
                    from: Rank::new(from),
                    bytes: 200_000,
                    tag: Tag::new(8),
                },
                Record::Barrier,
            ]
        };
        let swap = |to: u32, from: u32| {
            vec![
                Record::Burst {
                    instr: Instr::new(1800),
                },
                Record::Recv {
                    from: Rank::new(from),
                    bytes: 500,
                    tag: Tag::new(7),
                },
                Record::Send {
                    to: Rank::new(to),
                    bytes: 200_000,
                    tag: Tag::new(8),
                },
                Record::Barrier,
            ]
        };
        // With two ranks per node, pair 0<->2 and 1<->3 so the p2p
        // traffic crosses nodes and the link perturbations actually fire.
        let ts = trace(vec![mk(2, 2), mk(3, 3), swap(0, 0), swap(1, 1)]);
        let model = PerturbationModel::new(0xBEEF)
            .with_noise(0.2)
            .unwrap()
            .with_stragglers(&[2], 1.7)
            .unwrap()
            .with_node_speeds(&[1.0, 0.8])
            .unwrap()
            .with_link_degradation(0.3)
            .unwrap()
            .with_latency_jitter(Time::from_us(2))
            .with_faults(Time::from_us(40), Time::from_us(9))
            .unwrap();
        let p = Platform::builder()
            .latency(Time::from_us(1))
            .bandwidth_bytes_per_sec(1.0e9)
            .unwrap()
            .ranks_per_node(2)
            .expect("positive packing")
            .perturbation(model)
            .build();
        let sim = Simulator::new(p.clone());
        let naive = crate::naive::replay_naive(&p, &ts).unwrap();
        let run = sim.run(&ts).unwrap();
        let compiled = sim.run_compiled(&compile(&ts)).unwrap();
        assert_eq!(naive, run);
        assert_eq!(run, compiled);
        // And the perturbed makespan differs from the clean one (the
        // model actually did something).
        let clean = Simulator::new(platform_1us_1gb()).run(&ts).unwrap();
        assert_ne!(clean.total_time, compiled.total_time);
    }
}
