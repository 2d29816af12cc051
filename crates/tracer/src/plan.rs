//! Per-channel overlap plans: heterogeneous transform parameters.
//!
//! [`OverlapMode`](crate::transform::OverlapMode) applies one uniform
//! configuration to every chunkable message. An [`OverlapPlan`] instead
//! assigns each *channel* — a `(src, dst, tag)` triple — its own
//! [`ChannelTuning`]: whether to overlap it at all, how many chunks to
//! split its messages into, and how aggressively to reposition sends and
//! waits on the `0..=TUNING_SCALE` scale. This is the unit the auto-tuner
//! (`lab::tune`) mutates and scores.
//!
//! Plans are value types with a deterministic [fingerprint]
//! (`OverlapPlan::fingerprint`) so that synthesized trace variants get
//! stable, cacheable names, and a byte-stable [`OverlapPlan::render`] for
//! human-readable reports.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use ovlsim_core::rng::{mix64, GOLDEN_GAMMA};
use ovlsim_core::Tag;

use crate::chunking::ChunkingPolicy;
use crate::transform::{PatternSource, TUNING_SCALE};

/// Default chunk count for newly-enabled channels (matches
/// [`ChunkingPolicy::default`]).
pub const DEFAULT_PLAN_CHUNKS: u32 = 16;

/// How one channel's messages are overlapped under an [`OverlapPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelTuning {
    /// Whether this channel is overlapped at all (`false` = its messages
    /// pass through the transform untouched).
    pub enabled: bool,
    /// Chunks per message (clamped to at least 1; the effective count is
    /// still limited by the plan's `min_chunk_bytes`).
    pub chunks: u32,
    /// Early-send aggressiveness, `0..=TUNING_SCALE`.
    pub early: u8,
    /// Late-wait aggressiveness, `0..=TUNING_SCALE`.
    pub late: u8,
}

impl ChannelTuning {
    /// Fully-aggressive overlap with `chunks` chunks per message.
    pub fn full(chunks: u32) -> Self {
        ChannelTuning {
            enabled: true,
            chunks,
            early: TUNING_SCALE,
            late: TUNING_SCALE,
        }
    }

    /// Overlap disabled for this channel.
    pub fn off() -> Self {
        ChannelTuning {
            enabled: false,
            chunks: DEFAULT_PLAN_CHUNKS,
            early: 0,
            late: 0,
        }
    }

    /// The words this tuning contributes to a plan fingerprint.
    fn words(self) -> [u64; 4] {
        [
            u64::from(self.enabled),
            u64::from(self.chunks),
            u64::from(self.early),
            u64::from(self.late),
        ]
    }
}

impl fmt::Display for ChannelTuning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.enabled {
            write!(f, "{}c{}e{}l", self.chunks, self.early, self.late)
        } else {
            write!(f, "off")
        }
    }
}

/// A per-channel overlap plan.
///
/// The plan holds a `default` tuning applied to every chunkable channel
/// plus explicit per-channel overrides keyed by `(src, dst, tag)`.
/// Non-chunkable messages (either endpoint lacks a registered buffer)
/// always pass through untransformed, exactly as under uniform modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapPlan {
    /// Where chunk readiness/need instants come from, plan-wide.
    pub pattern: PatternSource,
    /// Minimum bytes per chunk (clamped to at least 1), plan-wide.
    pub min_chunk_bytes: u64,
    /// Tuning for channels without an explicit override.
    pub default: ChannelTuning,
    /// Per-channel overrides keyed by `(src_rank, dst_rank, raw_tag)`.
    pub channels: BTreeMap<(u32, u32, u64), ChannelTuning>,
}

impl OverlapPlan {
    /// The plan equivalent of `OverlapMode::linear()` with the default
    /// chunking policy: every chunkable channel fully overlapped with
    /// ideal linear patterns, 16 chunks, 256-byte minimum chunks.
    pub fn uniform_linear() -> Self {
        OverlapPlan {
            pattern: PatternSource::Linear,
            min_chunk_bytes: ChunkingPolicy::DEFAULT_MIN_CHUNK_BYTES,
            default: ChannelTuning::full(DEFAULT_PLAN_CHUNKS),
            channels: BTreeMap::new(),
        }
    }

    /// The effective tuning of channel `(src, dst, tag)`.
    pub fn tuning_for(&self, src: u32, dst: u32, tag: Tag) -> ChannelTuning {
        self.channels
            .get(&(src, dst, tag.get()))
            .copied()
            .unwrap_or(self.default)
    }

    /// Sets an explicit override for channel `(src, dst, tag)`.
    pub fn set(&mut self, src: u32, dst: u32, tag: Tag, tuning: ChannelTuning) {
        self.channels.insert((src, dst, tag.get()), tuning);
    }

    /// The ranks, below `rank_count` and ascending, whose synthesized
    /// records can differ between this plan and `other`: every rank if the
    /// pattern, the minimum chunk size or the default tuning differ;
    /// otherwise both endpoints of every overridden channel whose
    /// effective tuning differs. A message is transformed by the
    /// plan-wide fields and its own channel's tuning alone, and only the
    /// channel's two endpoints hold its records, so every other rank
    /// synthesizes the same records under both plans.
    pub fn differing_ranks(&self, other: &OverlapPlan, rank_count: usize) -> Vec<usize> {
        if self.pattern != other.pattern
            || self.min_chunk_bytes != other.min_chunk_bytes
            || self.default != other.default
        {
            return (0..rank_count).collect();
        }
        let mut ranks: Vec<usize> = self
            .channels
            .keys()
            .chain(other.channels.keys())
            .filter(|&&(src, dst, tag)| {
                self.tuning_for(src, dst, Tag::new(tag))
                    != other.tuning_for(src, dst, Tag::new(tag))
            })
            .flat_map(|&(src, dst, _)| [src as usize, dst as usize])
            .filter(|&r| r < rank_count)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// The chunking policy a tuning resolves to under this plan.
    pub(crate) fn policy_for(&self, tuning: ChannelTuning) -> ChunkingPolicy {
        ChunkingPolicy::fixed_count(tuning.chunks.max(1) as usize)
            .with_min_chunk_bytes(self.min_chunk_bytes.max(1))
    }

    /// A deterministic 64-bit fingerprint of the full plan contents.
    ///
    /// Computed as a *sequential* splitmix64 fold over the plan's words in
    /// `BTreeMap` (sorted-key) order, so equal plans always fingerprint
    /// equal and the value is stable across platforms and runs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix64(0x6f76_6c70_6c61_6e00 ^ GOLDEN_GAMMA); // "ovlplan\0"
        let mut absorb = |w: u64| h = mix64(h ^ w.wrapping_add(GOLDEN_GAMMA));
        absorb(match self.pattern {
            PatternSource::Real => 1,
            PatternSource::Linear => 2,
        });
        absorb(self.min_chunk_bytes);
        for w in self.default.words() {
            absorb(w);
        }
        for (&(src, dst, tag), t) in &self.channels {
            absorb(u64::from(src));
            absorb(u64::from(dst));
            absorb(tag);
            for w in t.words() {
                absorb(w);
            }
        }
        h
    }

    /// A short suffix identifying this plan in trace names, e.g.
    /// `"ovl-plan-1f3a…"`. Distinct plans get distinct labels (up to
    /// fingerprint collision), equal plans always the same one.
    pub fn label(&self) -> String {
        format!("ovl-plan-{:016x}", self.fingerprint())
    }

    /// A byte-stable human-readable rendering, e.g.
    /// `"linear/256 *=16c4e4l 0>1#5=off"` (pattern, min chunk bytes, the
    /// default tuning, then each override as `src>dst#tag=tuning` in
    /// sorted key order).
    pub fn render(&self) -> String {
        let pat = match self.pattern {
            PatternSource::Real => "real",
            PatternSource::Linear => "linear",
        };
        let mut s = format!("{pat}/{} *={}", self.min_chunk_bytes, self.default);
        for (&(src, dst, tag), t) in &self.channels {
            let _ = write!(s, " {src}>{dst}#{tag}={t}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_override_lookup() {
        let mut plan = OverlapPlan::uniform_linear();
        assert_eq!(
            plan.tuning_for(0, 1, Tag::new(5)),
            ChannelTuning::full(DEFAULT_PLAN_CHUNKS)
        );
        plan.set(0, 1, Tag::new(5), ChannelTuning::off());
        assert_eq!(plan.tuning_for(0, 1, Tag::new(5)), ChannelTuning::off());
        // Other channels keep the default.
        assert_eq!(
            plan.tuning_for(1, 0, Tag::new(5)),
            ChannelTuning::full(DEFAULT_PLAN_CHUNKS)
        );
    }

    #[test]
    fn fingerprint_distinguishes_plans_and_is_stable() {
        let base = OverlapPlan::uniform_linear();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        let mut chunks = base.clone();
        chunks.default.chunks = 8;
        let mut disabled = base.clone();
        disabled.set(0, 1, Tag::new(0), ChannelTuning::off());
        let mut real = base.clone();
        real.pattern = PatternSource::Real;

        let fps = [
            base.fingerprint(),
            chunks.fingerprint(),
            disabled.fingerprint(),
            real.fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "plans {i} and {j} collide");
            }
        }
        assert_eq!(base.label(), format!("ovl-plan-{:016x}", fps[0]));
    }

    #[test]
    fn render_is_byte_stable_and_sorted() {
        let mut plan = OverlapPlan::uniform_linear();
        plan.set(2, 3, Tag::new(7), ChannelTuning::off());
        plan.set(
            0,
            1,
            Tag::new(5),
            ChannelTuning {
                enabled: true,
                chunks: 8,
                early: 2,
                late: 4,
            },
        );
        assert_eq!(plan.render(), "linear/256 *=16c4e4l 0>1#5=8c2e4l 2>3#7=off");
        assert_eq!(plan.render(), plan.clone().render());
    }

    #[test]
    fn differing_ranks_name_plan_wide_changes_and_changed_channels() {
        let base = OverlapPlan::uniform_linear();
        assert!(base.differing_ranks(&base.clone(), 4).is_empty());

        // One override: its two endpoints, whichever plan holds it, and
        // nothing once it equals the default again.
        let mut one = base.clone();
        one.set(3, 1, Tag::new(9), ChannelTuning::off());
        assert_eq!(base.differing_ranks(&one, 4), vec![1, 3]);
        assert_eq!(one.differing_ranks(&base, 4), vec![1, 3]);
        let mut same = base.clone();
        same.set(3, 1, Tag::new(9), base.default);
        assert!(base.differing_ranks(&same, 4).is_empty());

        // Equal overrides on both sides drop out; endpoints beyond the
        // rank count are not ranks.
        let mut two = one.clone();
        two.set(0, 7, Tag::new(2), ChannelTuning::full(4));
        assert_eq!(one.differing_ranks(&two, 4), vec![0]);

        // A plan-wide change names every rank.
        for change in [
            |p: &mut OverlapPlan| p.pattern = PatternSource::Real,
            |p: &mut OverlapPlan| p.min_chunk_bytes = 64,
            |p: &mut OverlapPlan| p.default.late = 1,
        ] {
            let mut wide = one.clone();
            change(&mut wide);
            assert_eq!(one.differing_ranks(&wide, 4), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn policy_clamps_degenerate_parameters() {
        let mut plan = OverlapPlan::uniform_linear();
        plan.min_chunk_bytes = 0;
        let t = ChannelTuning {
            enabled: true,
            chunks: 0,
            early: 1,
            late: 1,
        };
        // Must not panic or divide by zero.
        let ranges = plan.policy_for(t).chunk_ranges(1024);
        assert!(!ranges.is_empty());
    }
}
