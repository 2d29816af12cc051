//! Property tests for access patterns and profile recording, including a
//! differential test of the recorder against a per-element reference.

use ovlsim_core::{BufferId, Instr};
use ovlsim_memtrace::{
    AccessKind, ConsumptionProfile, IndexPattern, Kernel, MemTracer, ProductionProfile, WriteWatch,
};
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = IndexPattern> {
    prop_oneof![
        Just(IndexPattern::Sequential),
        Just(IndexPattern::Reverse),
        (1usize..64).prop_map(|stride| IndexPattern::Strided { stride }),
        any::<u64>().prop_map(|seed| IndexPattern::Shuffled { seed }),
    ]
}

proptest! {
    /// Every pattern materializes to a permutation of 0..n.
    #[test]
    fn patterns_are_permutations(pattern in arb_pattern(), n in 0usize..2_000) {
        let order = pattern.order(n);
        prop_assert_eq!(order.len(), n);
        let mut seen = vec![false; n];
        for i in order {
            prop_assert!(i < n);
            prop_assert!(!seen[i], "index {i} visited twice");
            seen[i] = true;
        }
    }

    /// Recording a full-buffer write stamps every element within the
    /// phase, with the k-th visited element at offset (k+1)·I/n, so all
    /// timestamps lie in (start, start+I] and the max equals start+I.
    #[test]
    fn write_timestamps_bounded(
        pattern in arb_pattern(),
        elements in 1usize..500,
        instr in 1u64..10_000_000,
        lead in 0u64..1_000_000,
    ) {
        let mut mt = MemTracer::new();
        let buf = mt.register("b", elements as u64 * 8, 8);
        mt.advance(Instr::new(lead));
        let k = Kernel::builder()
            .phase(Instr::new(instr))
            .access(buf, AccessKind::Write, pattern)
            .build();
        mt.execute(&k);
        let prof = mt.snapshot_production(buf);
        let mut max_seen = 0;
        for e in 0..elements {
            let t = prof.element_timestamp(e).expect("written").get();
            prop_assert!(t > lead, "element {e} stamped at {t} before phase start {lead}");
            prop_assert!(t <= lead + instr);
            max_seen = max_seen.max(t);
        }
        prop_assert_eq!(max_seen, lead + instr, "last visit must land at phase end");
        prop_assert_eq!(prof.fully_ready_at(), Instr::new(lead + instr));
    }

    /// The readiness CDF is monotone non-decreasing and ends at 1 when
    /// production finishes exactly at the interval end.
    #[test]
    fn readiness_cdf_monotone(
        pattern in arb_pattern(),
        elements in 1usize..300,
        instr in 1u64..1_000_000,
        points in 1usize..20,
    ) {
        let mut mt = MemTracer::new();
        let buf = mt.register("b", elements as u64 * 8, 8);
        let k = Kernel::builder()
            .phase(Instr::new(instr))
            .access(buf, AccessKind::Write, pattern)
            .build();
        mt.execute(&k);
        let prof = mt.snapshot_production(buf);
        let cdf = prof.readiness_cdf(Instr::ZERO, Instr::new(instr), points);
        prop_assert_eq!(cdf.len(), points);
        for w in cdf.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12, "CDF not monotone: {cdf:?}");
        }
        prop_assert!((cdf[points - 1] - 1.0).abs() < 1e-9, "CDF must end at 1: {cdf:?}");
    }

    /// First-read consumption: the minimum over any byte range equals the
    /// minimum over its element timestamps.
    #[test]
    fn consumption_min_consistent(
        pattern in arb_pattern(),
        elements in 1usize..300,
        instr in 1u64..1_000_000,
    ) {
        let mut mt = MemTracer::new();
        let bytes = elements as u64 * 8;
        let buf = mt.register("b", bytes, 8);
        let k = Kernel::builder()
            .phase(Instr::new(instr))
            .access(buf, AccessKind::Read, pattern)
            .build();
        mt.execute(&k);
        let prof = mt.snapshot_consumption(buf);
        let whole = prof.needed_at(0..bytes).expect("all read");
        let per_element_min = (0..elements)
            .filter_map(|e| prof.element_timestamp(e))
            .min()
            .expect("all read");
        prop_assert_eq!(whole, per_element_min);
    }
}

/// The recorder as a per-element loop: every visit of every stream stamps
/// its element, writes overwrite and the first read sticks.
#[derive(Debug, Default)]
struct Reference {
    elem_bytes: Vec<u32>,
    last_write: Vec<Vec<Option<Instr>>>,
    first_read: Vec<Vec<Option<Instr>>>,
    watches: Vec<(usize, Option<Instr>)>,
    clock: Instr,
}

impl Reference {
    fn register(&mut self, elements: usize, elem_bytes: u32) {
        self.elem_bytes.push(elem_bytes);
        self.last_write.push(vec![None; elements]);
        self.first_read.push(vec![None; elements]);
    }

    fn execute(&mut self, kernel: &Kernel) {
        for phase in kernel.phases() {
            let phase_start = self.clock;
            for access in &phase.accesses {
                let b = access.buffer.index();
                let range = access
                    .elements
                    .clone()
                    .unwrap_or(0..self.last_write[b].len());
                if range.is_empty() {
                    continue;
                }
                let n = range.len() as u128;
                for (k, rel) in access.pattern.order(range.len()).into_iter().enumerate() {
                    let e = range.start + rel;
                    let offset = ((k as u128 + 1) * phase.instr.get() as u128 / n) as u64;
                    let t = phase_start + Instr::new(offset);
                    match access.kind {
                        AccessKind::Write => self.last_write[b][e] = Some(t),
                        AccessKind::Read => {
                            self.first_read[b][e].get_or_insert(t);
                        }
                    }
                }
                if access.kind == AccessKind::Write {
                    let earliest = phase_start + Instr::new((phase.instr.get() as u128 / n) as u64);
                    for (buf, first) in &mut self.watches {
                        if *buf == b && first.is_none() {
                            *first = Some(earliest);
                        }
                    }
                }
            }
            self.clock += phase.instr;
        }
    }

    /// The element span of the byte range `[lo, hi)` in buffer `b`.
    fn span(&self, b: usize, lo: u64, hi: u64) -> std::ops::Range<usize> {
        let eb = self.elem_bytes[b] as u64;
        (lo / eb) as usize..hi.div_ceil(eb) as usize
    }

    fn ready_at(&self, b: usize, lo: u64, hi: u64) -> Instr {
        let span = self.span(b, lo, hi);
        self.last_write[b][span]
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or(Instr::ZERO)
    }

    fn needed_at(&self, b: usize, lo: u64, hi: u64) -> Option<Instr> {
        let span = self.span(b, lo, hi);
        self.first_read[b][span].iter().flatten().min().copied()
    }

    fn readiness_cdf(&self, b: usize, start: Instr, end: Instr, points: usize) -> Vec<f64> {
        let byte_len = self.last_write[b].len() as u64 * self.elem_bytes[b] as u64;
        let span = end.get().saturating_sub(start.get()).max(1);
        (1..=points)
            .map(|i| {
                let bytes = byte_len * i as u64 / points as u64;
                if bytes == 0 {
                    return 0.0;
                }
                let rel = self.ready_at(b, 0, bytes).get().saturating_sub(start.get());
                (rel as f64 / span as f64).min(1.0)
            })
            .collect()
    }
}

/// An element order, materialized once the stream's length is known.
#[derive(Debug, Clone)]
enum PatternSpec {
    Sequential,
    Reverse,
    Strided(usize),
    Shuffled(u64),
    /// An explicit permutation drawn from this seed.
    Explicit(u64),
}

impl PatternSpec {
    fn pattern(&self, n: usize) -> IndexPattern {
        match *self {
            PatternSpec::Sequential => IndexPattern::Sequential,
            PatternSpec::Reverse => IndexPattern::Reverse,
            PatternSpec::Strided(stride) => IndexPattern::Strided { stride },
            PatternSpec::Shuffled(seed) => IndexPattern::Shuffled { seed },
            PatternSpec::Explicit(seed) => {
                // Fisher–Yates over a splitmix64 stream.
                let mut state = seed;
                let mut next = move || {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                let mut order: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    order.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                IndexPattern::Explicit(order)
            }
        }
    }
}

/// One access stream: buffer and range are drawn raw and reduced modulo
/// the registered buffers once those are known.
#[derive(Debug, Clone)]
struct AccessSpec {
    buffer: usize,
    write: bool,
    pattern: PatternSpec,
    /// `None` = the whole buffer.
    range: Option<(usize, usize)>,
}

#[derive(Debug, Clone)]
enum Op {
    Kernel(Vec<(u64, Vec<AccessSpec>)>),
    Advance(u64),
    ResetConsumption(usize),
    Watch(usize),
}

/// 0, a few, or about 2⁴⁰ instructions.
fn arb_instr() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..1_000,
        (1u64 << 40) - 1_000..(1u64 << 40) + 1_000,
    ]
}

fn arb_pattern_spec() -> impl Strategy<Value = PatternSpec> {
    prop_oneof![
        Just(PatternSpec::Sequential),
        Just(PatternSpec::Reverse),
        (1usize..20).prop_map(PatternSpec::Strided),
        any::<u64>().prop_map(PatternSpec::Shuffled),
        any::<u64>().prop_map(PatternSpec::Explicit),
    ]
}

fn arb_access() -> impl Strategy<Value = AccessSpec> {
    let range = prop_oneof![Just(None), (any::<usize>(), any::<usize>()).prop_map(Some),];
    (any::<usize>(), any::<bool>(), arb_pattern_spec(), range).prop_map(
        |(buffer, write, pattern, range)| AccessSpec {
            buffer,
            write,
            pattern,
            range,
        },
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    let phase = (arb_instr(), proptest::collection::vec(arb_access(), 0..4));
    prop_oneof![
        proptest::collection::vec(phase, 1..4).prop_map(Op::Kernel),
        arb_instr().prop_map(Op::Advance),
        any::<usize>().prop_map(Op::ResetConsumption),
        any::<usize>().prop_map(Op::Watch),
    ]
}

/// The kernel an op describes over buffers of the given element counts.
fn build_kernel(phases: &[(u64, Vec<AccessSpec>)], elements: &[usize]) -> Kernel {
    let mut kb = Kernel::builder();
    for (instr, accesses) in phases {
        kb = kb.phase(Instr::new(*instr));
        for a in accesses {
            let b = a.buffer % elements.len();
            let n = elements[b];
            let range = a.range.map(|(x, y)| {
                let lo = x % (n + 1);
                lo..lo + y % (n + 1 - lo)
            });
            let len = range.as_ref().map_or(n, |r| r.len());
            let kind = if a.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let id = BufferId::new(b as u32);
            kb = kb.access_range(id, kind, a.pattern.pattern(len), range);
        }
    }
    kb.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The recorder agrees with the per-element reference after every op
    /// of a random sequence: the clock, every element's instants, chunk
    /// queries on random byte ranges (partial elements included), whole
    /// buffer queries, the readiness CDF, value equality of the snapshots
    /// and every watch result.
    #[test]
    fn recorder_matches_per_element_reference(
        buffers in proptest::collection::vec((1usize..401, 1u32..17), 1..4),
        ops in proptest::collection::vec(arb_op(), 1..12),
        queries in proptest::collection::vec((any::<u64>(), any::<u64>()), 4..8),
        points in 1usize..9,
    ) {
        let mut mt = MemTracer::new();
        let mut reference = Reference::default();
        let mut ids = Vec::new();
        for &(elements, elem_bytes) in &buffers {
            ids.push(mt.register("b", elements as u64 * elem_bytes as u64, elem_bytes));
            reference.register(elements, elem_bytes);
        }
        let elements: Vec<usize> = buffers.iter().map(|&(n, _)| n).collect();
        let mut watches: Vec<WriteWatch> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Kernel(phases) => {
                    let kernel = build_kernel(phases, &elements);
                    mt.execute(&kernel);
                    reference.execute(&kernel);
                }
                Op::Advance(instr) => {
                    mt.advance(Instr::new(*instr));
                    reference.clock += Instr::new(*instr);
                }
                Op::ResetConsumption(b) => {
                    let b = b % ids.len();
                    mt.reset_consumption(ids[b]);
                    reference.first_read[b].fill(None);
                }
                Op::Watch(b) => {
                    let b = b % ids.len();
                    watches.push(mt.watch_first_write(ids[b]));
                    reference.watches.push((b, None));
                }
            }
            prop_assert_eq!(mt.now(), reference.clock, "clock after op {}", step);
            for (b, &id) in ids.iter().enumerate() {
                let prod = mt.snapshot_production(id);
                let cons = mt.snapshot_consumption(id);
                let n = elements[b];
                for e in 0..n + 2 {
                    let want = reference.last_write[b].get(e).copied().flatten();
                    prop_assert_eq!(prod.element_timestamp(e), want, "op {} buf {} written {}", step, b, e);
                    let want = reference.first_read[b].get(e).copied().flatten();
                    prop_assert_eq!(cons.element_timestamp(e), want, "op {} buf {} read {}", step, b, e);
                }
                let byte_len = prod.byte_len();
                for &(x, y) in &queries {
                    let lo = x % byte_len;
                    let hi = lo + 1 + y % (byte_len - lo);
                    prop_assert_eq!(prod.ready_at(lo..hi), reference.ready_at(b, lo, hi), "op {} buf {} ready_at {}..{}", step, b, lo, hi);
                    prop_assert_eq!(cons.needed_at(lo..hi), reference.needed_at(b, lo, hi), "op {} buf {} needed_at {}..{}", step, b, lo, hi);
                }
                prop_assert_eq!(prod.fully_ready_at(), reference.ready_at(b, 0, byte_len));
                prop_assert_eq!(cons.first_needed_at(), reference.needed_at(b, 0, byte_len));
                let end = reference.clock.max(Instr::new(1));
                prop_assert_eq!(
                    prod.readiness_cdf(Instr::ZERO, end, points),
                    reference.readiness_cdf(b, Instr::ZERO, end, points)
                );
                let elem_bytes = buffers[b].1;
                prop_assert_eq!(&prod, &ProductionProfile::new(elem_bytes, reference.last_write[b].clone()));
                prop_assert_eq!(&cons, &ConsumptionProfile::new(elem_bytes, reference.first_read[b].clone()));
            }
            for (w, &(_, want)) in watches.iter().zip(&reference.watches) {
                prop_assert_eq!(mt.watch_result(*w), want, "watch after op {}", step);
            }
        }
    }
}
