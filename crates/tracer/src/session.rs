//! The tracing session: runs an application under instrumentation and
//! produces the full family of traces.
//!
//! Mirrors the paper's tool, which "from a single real run … generates
//! various Dimemas traces – one non-overlapped (original) and several
//! overlapped (potential), each of them addressing different overlapping
//! mechanism".
//!
//! Overlapped variants are synthesized rank by rank: each rank's records
//! depend only on its own original records and message metadata, and,
//! under a per-channel [`OverlapPlan`], on the tunings of the channels it
//! sends or receives on. So a variant's replay program can be built
//! without its trace: each rank is synthesized, lowered on its own and
//! dropped, and the lowered ranks are linked. A uniform mode's program
//! comes whole ([`TraceBundle::overlapped_program`], the campaign
//! runner's path). A plan's ranks are lowered one by one
//! ([`TraceBundle::lower_planned_rank`]) and linked
//! ([`TraceBundle::link_planned`]), so a plan that differs from another
//! in a few channels re-lowers only the ranks
//! [`OverlapPlan::differing_ranks`] names.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use ovlsim_core::{
    validate_trace_set, CompiledTrace, LoweredRank, MipsRate, Rank, RankTrace, Record, Tag,
    TraceSet,
};

use crate::app::Application;
use crate::chunking::ChunkingPolicy;
use crate::context::{RankMeta, TraceContext};
use crate::error::TraceError;
use crate::plan::OverlapPlan;
use crate::transform::{overlap_rank, overlap_rank_tuned, MsgTuning, OverlapMode, TUNING_SCALE};

/// A traced application: the original trace plus everything needed to
/// synthesize overlapped variants.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    name: String,
    mips: MipsRate,
    original: TraceSet,
    metas: Vec<RankMeta>,
    send_chunkable: Vec<Vec<bool>>,
    recv_chunkable: Vec<Vec<bool>>,
    policy: ChunkingPolicy,
}

impl TraceBundle {
    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The non-overlapped (original) trace.
    pub fn original(&self) -> &TraceSet {
        &self.original
    }

    /// Per-rank message metadata (production/consumption profiles).
    pub fn metas(&self) -> &[RankMeta] {
        &self.metas
    }

    /// The chunking policy used for overlapped variants.
    pub fn policy(&self) -> &ChunkingPolicy {
        &self.policy
    }

    /// Synthesizes the overlapped trace for `mode` with the bundle's
    /// chunking policy.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidTrace`] if the synthesized trace fails
    /// structural validation (indicates a transform bug; should not happen
    /// for traces produced by [`TracingSession`]).
    pub fn overlapped(&self, mode: OverlapMode) -> Result<TraceSet, TraceError> {
        self.overlapped_with(mode, &self.policy)
    }

    /// Synthesizes the overlapped trace for `mode` with an explicit
    /// chunking policy.
    ///
    /// # Errors
    ///
    /// Same as [`TraceBundle::overlapped`].
    pub fn overlapped_with(
        &self,
        mode: OverlapMode,
        policy: &ChunkingPolicy,
    ) -> Result<TraceSet, TraceError> {
        let ranks = (0..self.original.rank_count())
            .map(|r| RankTrace::from_records(self.mode_records(mode, policy, r)))
            .collect();
        validated(TraceSet::new(self.mode_name(mode), self.mips, ranks))
    }

    /// The replay program of [`TraceBundle::overlapped`]'s trace, without
    /// that trace: each rank is synthesized, lowered on its own and
    /// dropped, and the lowered ranks are linked, so the trace is checked
    /// once, at link. The program equals [`CompiledTrace::build`] of the
    /// trace, name and channels included.
    ///
    /// # Errors
    ///
    /// Same as [`TraceBundle::overlapped`], with the same issues.
    pub fn overlapped_program(&self, mode: OverlapMode) -> Result<CompiledTrace, TraceError> {
        let rank_count = self.original.rank_count();
        let ranks = (0..rank_count)
            .map(|r| {
                LoweredRank::lower(
                    Rank::new(r as u32),
                    rank_count,
                    self.mips,
                    &self.mode_records(mode, &self.policy, r),
                )
            })
            .collect();
        let name = self.mode_name(mode);
        CompiledTrace::link_owned(&name, self.mips, ranks).map_err(|issues| {
            TraceError::InvalidTrace {
                variant: name,
                issues,
            }
        })
    }

    /// The name of a uniform mode's trace.
    fn mode_name(&self, mode: OverlapMode) -> String {
        format!("{}.{}", self.name, mode.label())
    }

    /// The records of rank `r` under a uniform mode and `policy`.
    fn mode_records(&self, mode: OverlapMode, policy: &ChunkingPolicy, r: usize) -> Vec<Record> {
        overlap_rank(
            self.original.ranks()[r].records(),
            &self.metas[r],
            &self.send_chunkable[r],
            &self.recv_chunkable[r],
            policy,
            mode,
        )
    }

    /// Synthesizes the overlapped trace for a per-channel [`OverlapPlan`]:
    /// each chunkable message is transformed with the tuning its channel
    /// resolves to under the plan (disabled channels pass through), so
    /// heterogeneous chunk counts and early/late aggressiveness levels can
    /// coexist in one trace. The two sides of a message resolve the same
    /// channel key, so their chunk ranges always agree.
    ///
    /// # Errors
    ///
    /// Same as [`TraceBundle::overlapped`].
    pub fn overlapped_planned(&self, plan: &OverlapPlan) -> Result<TraceSet, TraceError> {
        validated(self.synthesize_planned(plan))
    }

    /// Rank `rank` of [`TraceBundle::overlapped_planned`]'s trace, lowered
    /// on its own for [`TraceBundle::link_planned`]. Nothing is validated
    /// here: the issues of a transform bug surface when the ranks are
    /// linked.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not a rank of the bundle.
    pub fn lower_planned_rank(&self, plan: &OverlapPlan, rank: usize) -> LoweredRank {
        LoweredRank::lower(
            Rank::new(rank as u32),
            self.original.rank_count(),
            self.mips,
            &self.planned_records(plan, rank),
        )
    }

    /// Links ranks of `plan`'s trace lowered by
    /// [`TraceBundle::lower_planned_rank`], given in rank order, into the
    /// trace's replay program. The program equals
    /// [`CompiledTrace::build`] of [`TraceBundle::overlapped_planned`]'s
    /// trace, and so `CompiledTrace::compile` of that trace with its own
    /// index. Each rank may have been lowered under another plan that
    /// agrees with `plan` on it ([`OverlapPlan::differing_ranks`]). This is
    /// the auto-tuner's candidate path.
    ///
    /// # Errors
    ///
    /// Same as [`TraceBundle::overlapped_planned`], with the same issues.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` are not this bundle's ranks in rank order.
    pub fn link_planned<R: Borrow<LoweredRank>>(
        &self,
        plan: &OverlapPlan,
        ranks: &[R],
    ) -> Result<CompiledTrace, TraceError> {
        let name = self.planned_name(plan);
        CompiledTrace::link(&name, self.mips, ranks).map_err(|issues| TraceError::InvalidTrace {
            variant: name,
            issues,
        })
    }

    /// The unvalidated trace of a per-channel plan.
    fn synthesize_planned(&self, plan: &OverlapPlan) -> TraceSet {
        let ranks = (0..self.original.rank_count())
            .map(|r| RankTrace::from_records(self.planned_records(plan, r)))
            .collect();
        TraceSet::new(self.planned_name(plan), self.mips, ranks)
    }

    /// The name of a per-channel plan's trace.
    fn planned_name(&self, plan: &OverlapPlan) -> String {
        format!("{}.{}", self.name, plan.label())
    }

    /// The records of rank `r` under a per-channel plan: each of its
    /// chunkable messages is transformed with the tuning of its channel.
    fn planned_records(&self, plan: &OverlapPlan, r: usize) -> Vec<Record> {
        let tuning_of = |src: u32, dst: u32, tag: Tag, bytes: u64| -> Option<MsgTuning> {
            let t = plan.tuning_for(src, dst, tag);
            if !t.enabled {
                return None;
            }
            Some(MsgTuning {
                ranges: plan.policy_for(t).chunk_ranges(bytes),
                pattern: plan.pattern,
                early: t.early.min(TUNING_SCALE),
                late: t.late.min(TUNING_SCALE),
            })
        };
        let meta = &self.metas[r];
        let send_tuning: Vec<Option<MsgTuning>> = meta
            .sends
            .iter()
            .zip(&self.send_chunkable[r])
            .map(|(s, &chunkable)| {
                chunkable
                    .then(|| tuning_of(r as u32, s.to.get(), s.tag, s.bytes))
                    .flatten()
            })
            .collect();
        let recv_tuning: Vec<Option<MsgTuning>> = meta
            .recvs
            .iter()
            .zip(&self.recv_chunkable[r])
            .map(|(m, &chunkable)| {
                chunkable
                    .then(|| tuning_of(m.from.get(), r as u32, m.tag, m.bytes))
                    .flatten()
            })
            .collect();
        overlap_rank_tuned(
            self.original.ranks()[r].records(),
            meta,
            &send_tuning,
            &recv_tuning,
        )
    }

    /// The chunkable channels of this bundle as sorted, deduplicated
    /// `(src_rank, dst_rank, tag)` triples — the channels an
    /// [`OverlapPlan`] can meaningfully tune.
    pub fn chunkable_channels(&self) -> Vec<(u32, u32, Tag)> {
        let mut out: Vec<(u32, u32, Tag)> = Vec::new();
        for (r, meta) in self.metas.iter().enumerate() {
            for (s, &chunkable) in meta.sends.iter().zip(&self.send_chunkable[r]) {
                if chunkable {
                    out.push((r as u32, s.to.get(), s.tag));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Convenience: full overlap with real (measured) patterns.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails validation (transform bug).
    pub fn overlapped_real(&self) -> TraceSet {
        self.overlapped(OverlapMode::real())
            .expect("real-pattern overlap must validate")
    }

    /// Convenience: full overlap with linear (ideal) patterns.
    ///
    /// # Panics
    ///
    /// Panics if synthesis fails validation (transform bug).
    pub fn overlapped_linear(&self) -> TraceSet {
        self.overlapped(OverlapMode::linear())
            .expect("linear-pattern overlap must validate")
    }
}

/// `ts` if it passes structural validation. A failure indicates a
/// transform bug.
fn validated(ts: TraceSet) -> Result<TraceSet, TraceError> {
    let issues = validate_trace_set(&ts);
    if issues.is_empty() {
        Ok(ts)
    } else {
        Err(TraceError::InvalidTrace {
            variant: ts.name().to_string(),
            issues,
        })
    }
}

/// Runs an [`Application`] under the tracing tool.
///
/// # Example
///
/// ```
/// use ovlsim_core::{Instr, Rank, Tag};
/// use ovlsim_tracer::{Application, TraceContext, TraceError, TracingSession};
///
/// struct OneShot;
/// impl Application for OneShot {
///     fn name(&self) -> &str { "one-shot" }
///     fn ranks(&self) -> usize { 2 }
///     fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
///         let buf = ctx.register_buffer("x", 4096, 8);
///         if rank.index() == 0 {
///             ctx.compute(Instr::new(1000));
///             ctx.send(Rank::new(1), buf, Tag::new(0))?;
///         } else {
///             ctx.recv(Rank::new(0), buf, Tag::new(0))?;
///             ctx.compute(Instr::new(1000));
///         }
///         Ok(())
///     }
/// }
///
/// # fn main() -> Result<(), TraceError> {
/// let bundle = TracingSession::new(&OneShot).run()?;
/// assert_eq!(bundle.original().rank_count(), 2);
/// let overlapped = bundle.overlapped_linear();
/// assert!(overlapped.total_records() >= bundle.original().total_records());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TracingSession<'a, A: Application + ?Sized> {
    app: &'a A,
    policy: ChunkingPolicy,
}

impl<'a, A: Application + ?Sized> TracingSession<'a, A> {
    /// Creates a session for `app` with the default chunking policy.
    pub fn new(app: &'a A) -> Self {
        TracingSession {
            app,
            policy: ChunkingPolicy::default(),
        }
    }

    /// Overrides the chunking policy.
    pub fn policy(mut self, policy: ChunkingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs every rank of the application under instrumentation and
    /// returns the trace bundle.
    ///
    /// # Errors
    ///
    /// Fails if the application issues invalid operations, leaks requests,
    /// or produces a structurally invalid original trace.
    pub fn run(&self) -> Result<TraceBundle, TraceError> {
        let n = self.app.ranks();
        if n == 0 {
            return Err(TraceError::InvalidRankCount(0));
        }
        let mut all_records: Vec<Vec<Record>> = Vec::with_capacity(n);
        let mut metas: Vec<RankMeta> = Vec::with_capacity(n);
        for r in 0..n {
            let rank = Rank::new(r as u32);
            let mut ctx = TraceContext::new(rank, n);
            self.app.run(rank, &mut ctx)?;
            let (records, meta) = ctx.finish()?;
            all_records.push(records);
            metas.push(meta);
        }

        // A message may be chunked only if the sender snapshotted a
        // production profile AND the receiver used a registered buffer —
        // both transforms must agree, so the plan is computed globally.
        type ChannelKey = (u32, u32, Tag, u32); // (src, dst, tag, seq)
        let mut recv_has_buffer: BTreeMap<ChannelKey, bool> = BTreeMap::new();
        for (r, meta) in metas.iter().enumerate() {
            for recv in &meta.recvs {
                recv_has_buffer.insert(
                    (recv.from.get(), r as u32, recv.tag, recv.channel_seq),
                    recv.buffer.is_some(),
                );
            }
        }
        let mut send_has_profile: BTreeMap<ChannelKey, bool> = BTreeMap::new();
        for (r, meta) in metas.iter().enumerate() {
            for send in &meta.sends {
                send_has_profile.insert(
                    (r as u32, send.to.get(), send.tag, send.channel_seq),
                    send.production.is_some(),
                );
            }
        }
        let send_chunkable: Vec<Vec<bool>> = metas
            .iter()
            .enumerate()
            .map(|(r, meta)| {
                meta.sends
                    .iter()
                    .map(|s| {
                        s.production.is_some()
                            && *recv_has_buffer
                                .get(&(r as u32, s.to.get(), s.tag, s.channel_seq))
                                .unwrap_or(&false)
                    })
                    .collect()
            })
            .collect();
        let recv_chunkable: Vec<Vec<bool>> = metas
            .iter()
            .enumerate()
            .map(|(r, meta)| {
                meta.recvs
                    .iter()
                    .map(|m| {
                        m.buffer.is_some()
                            && *send_has_profile
                                .get(&(m.from.get(), r as u32, m.tag, m.channel_seq))
                                .unwrap_or(&false)
                    })
                    .collect()
            })
            .collect();

        let name = self.app.name().to_string();
        let mips = self.app.mips();
        let original = validated(TraceSet::new(
            format!("{name}.original"),
            mips,
            all_records
                .into_iter()
                .map(RankTrace::from_records)
                .collect(),
        ))?;
        Ok(TraceBundle {
            name,
            mips,
            original,
            metas,
            send_chunkable,
            recv_chunkable,
            policy: self.policy.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChannelTuning;
    use crate::transform::{Mechanisms, PatternSource};
    use ovlsim_core::Instr;
    use ovlsim_memtrace::{AccessKind, IndexPattern, Kernel};

    /// Simple 1D ring halo exchange with sequential production/consumption.
    struct Ring {
        ranks: usize,
        iterations: usize,
    }

    impl Application for Ring {
        fn name(&self) -> &str {
            "ring"
        }
        fn ranks(&self) -> usize {
            self.ranks
        }
        fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
            let n = self.ranks as u32;
            let right = Rank::new((rank.get() + 1) % n);
            let left = Rank::new((rank.get() + n - 1) % n);
            let out = ctx.register_buffer("out", 8192, 8);
            let inb = ctx.register_buffer("in", 8192, 8);
            for _ in 0..self.iterations {
                let produce = Kernel::builder()
                    .phase(Instr::new(10_000))
                    .access(out, AccessKind::Write, IndexPattern::Sequential)
                    .build();
                ctx.kernel(&produce);
                // Even ranks send first; odd ranks receive first.
                if rank.get().is_multiple_of(2) {
                    ctx.send(right, out, Tag::new(0))?;
                    ctx.recv(left, inb, Tag::new(0))?;
                } else {
                    ctx.recv(left, inb, Tag::new(0))?;
                    ctx.send(right, out, Tag::new(0))?;
                }
                let consume = Kernel::builder()
                    .phase(Instr::new(10_000))
                    .access(inb, AccessKind::Read, IndexPattern::Sequential)
                    .build();
                ctx.kernel(&consume);
            }
            ctx.barrier();
            Ok(())
        }
    }

    #[test]
    fn session_produces_valid_bundle() {
        let app = Ring {
            ranks: 4,
            iterations: 3,
        };
        let bundle = TracingSession::new(&app).run().unwrap();
        assert_eq!(bundle.original().rank_count(), 4);
        assert_eq!(bundle.name(), "ring");
        // All messages use registered buffers on both sides => chunkable.
        assert!(bundle.send_chunkable.iter().flatten().all(|&b| b));
        assert!(bundle.recv_chunkable.iter().flatten().all(|&b| b));
    }

    #[test]
    fn all_overlap_modes_validate() {
        let app = Ring {
            ranks: 4,
            iterations: 2,
        };
        let bundle = TracingSession::new(&app)
            .policy(ChunkingPolicy::fixed_count(8).with_min_chunk_bytes(64))
            .run()
            .unwrap();
        for pattern in [PatternSource::Real, PatternSource::Linear] {
            for mechanisms in [
                Mechanisms::BOTH,
                Mechanisms::EARLY_SEND_ONLY,
                Mechanisms::LATE_WAIT_ONLY,
                Mechanisms::NONE,
            ] {
                let mode = OverlapMode {
                    pattern,
                    mechanisms,
                };
                let ts = bundle.overlapped(mode).unwrap();
                assert!(ts.name().starts_with("ring.ovl-"));
                // Instruction counts preserved per rank.
                for (orig, ovl) in bundle.original().ranks().iter().zip(ts.ranks()) {
                    assert_eq!(orig.total_instr(), ovl.total_instr());
                }
                // Total bytes preserved.
                assert_eq!(
                    bundle.original().total_p2p_send_bytes(),
                    ts.total_p2p_send_bytes()
                );
            }
        }
    }

    #[test]
    fn uniform_plan_matches_linear_mode_exactly() {
        let app = Ring {
            ranks: 4,
            iterations: 2,
        };
        let bundle = TracingSession::new(&app).run().unwrap();
        let mode = bundle.overlapped_linear();
        let plan = bundle
            .overlapped_planned(&crate::plan::OverlapPlan::uniform_linear())
            .unwrap();
        // A uniform plan is the same transform as the uniform mode —
        // per-rank record streams must be identical (only names differ).
        for (m, p) in mode.ranks().iter().zip(plan.ranks()) {
            assert_eq!(m.records(), p.records());
        }
        assert!(plan.name().starts_with("ring.ovl-plan-"));
    }

    #[test]
    fn planned_overlap_respects_per_channel_tunings() {
        let app = Ring {
            ranks: 4,
            iterations: 2,
        };
        let bundle = TracingSession::new(&app).run().unwrap();
        let channels = bundle.chunkable_channels();
        assert!(!channels.is_empty());
        assert!(channels.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");

        // Disabling every channel reproduces the original trace exactly.
        let mut all_off = crate::plan::OverlapPlan::uniform_linear();
        all_off.default = ChannelTuning::off();
        let off = bundle.overlapped_planned(&all_off).unwrap();
        for (o, p) in bundle.original().ranks().iter().zip(off.ranks()) {
            assert_eq!(o.records(), p.records());
        }

        // Disabling a single channel still validates and produces fewer
        // records than the fully-overlapped plan.
        let mut one_off = crate::plan::OverlapPlan::uniform_linear();
        let &(src, dst, tag) = &channels[0];
        one_off.set(src, dst, tag, ChannelTuning::off());
        let partial = bundle.overlapped_planned(&one_off).unwrap();
        let full = bundle
            .overlapped_planned(&crate::plan::OverlapPlan::uniform_linear())
            .unwrap();
        assert!(partial.total_records() < full.total_records());
        assert!(partial.total_records() > bundle.original().total_records());
        // Instruction counts preserved per rank in all plan variants.
        for (orig, ovl) in bundle.original().ranks().iter().zip(partial.ranks()) {
            assert_eq!(orig.total_instr(), ovl.total_instr());
        }
    }

    #[test]
    fn a_broken_mode_program_fails_as_its_trace_does() {
        let app = Ring {
            ranks: 4,
            iterations: 2,
        };
        let mut bundle = TracingSession::new(&app).run().unwrap();
        // Rank 1 keeps its receives whole while rank 0 chunks its sends:
        // the channel's byte counts no longer pair up.
        bundle.recv_chunkable[1].fill(false);
        let mode = OverlapMode::linear();
        let expected = bundle.overlapped(mode).unwrap_err();
        assert!(matches!(expected, TraceError::InvalidTrace { .. }));
        assert_eq!(bundle.overlapped_program(mode).unwrap_err(), expected);
    }

    #[test]
    fn overlapped_has_more_records_than_original() {
        let app = Ring {
            ranks: 2,
            iterations: 1,
        };
        let bundle = TracingSession::new(&app)
            .policy(ChunkingPolicy::fixed_count(8).with_min_chunk_bytes(64))
            .run()
            .unwrap();
        let overlapped = bundle.overlapped_linear();
        assert!(overlapped.total_records() > bundle.original().total_records());
    }

    #[test]
    fn zero_rank_app_rejected() {
        struct Empty;
        impl Application for Empty {
            fn name(&self) -> &str {
                "empty"
            }
            fn ranks(&self) -> usize {
                0
            }
            fn run(&self, _: Rank, _: &mut TraceContext) -> Result<(), TraceError> {
                Ok(())
            }
        }
        assert!(matches!(
            TracingSession::new(&Empty).run(),
            Err(TraceError::InvalidRankCount(0))
        ));
    }

    #[test]
    fn mixed_raw_and_buffered_messages() {
        /// Rank 0 sends a buffered message; rank 1 receives raw (size-only).
        struct Mixed;
        impl Application for Mixed {
            fn name(&self) -> &str {
                "mixed"
            }
            fn ranks(&self) -> usize {
                2
            }
            fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
                if rank.index() == 0 {
                    let buf = ctx.register_buffer("b", 1024, 8);
                    ctx.compute(Instr::new(100));
                    ctx.send(Rank::new(1), buf, Tag::new(0))?;
                } else {
                    ctx.recv_bytes(Rank::new(0), 1024, Tag::new(0))?;
                    ctx.compute(Instr::new(100));
                }
                Ok(())
            }
        }
        let bundle = TracingSession::new(&Mixed).run().unwrap();
        // The receiver has no buffer, so neither side may chunk.
        assert_eq!(bundle.send_chunkable[0], vec![false]);
        assert_eq!(bundle.recv_chunkable[1], vec![false]);
        // Overlapped trace equals original (message passes through).
        let ovl = bundle.overlapped_real();
        assert_eq!(
            ovl.ranks()[0].records(),
            bundle.original().ranks()[0].records()
        );
    }
}
