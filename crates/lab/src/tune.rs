//! Attribution-guided overlap auto-tuner: a deterministic, seeded
//! mutate → replay → score search over per-channel overlap plans.
//!
//! ROADMAP item 1 closes the paper's loop: PR 5's attribution engine ranks
//! channels by clamped overlap-gain potential, and this module *spends* a
//! mutation budget on those channels, in the style of coverage-guided
//! fuzzers (corpus = best plan so far; mutation = one per-channel
//! parameter change; feedback = makespan from a full replay; scheduling =
//! the attribution ranking biases which channel gets mutated).
//!
//! Determinism is structural: every random choice is a counter-based hash
//! of `(seed, round, slot)` — no mutable RNG state — candidate scores come
//! back in slot order from the order-stable parallel map, and acceptance
//! folds over them sequentially. The trajectory report is therefore
//! byte-identical across reruns and `OVLSIM_THREADS` settings, and plans
//! replay bit-identically on every engine (the engines are differential-
//! tested against each other).
//!
//! Candidates never enter the artifact pipeline. The pipeline supplies
//! the original trace, its index and program, whose observed replay ranks
//! the channels; each candidate plan is then lowered straight to its
//! replay program, replayed and dropped. Nothing about a candidate is
//! fingerprinted, cached or written to a cache directory. Within one run
//! a plan equal to one already scored is not scored again.
//!
//! A candidate changes one channel of the incumbent plan, and so the
//! records of that channel's two endpoints only. The search keeps the
//! incumbent's ranks lowered one by one ([`LoweredPlan`], shared through
//! `Arc`); a candidate re-synthesizes and re-lowers just the ranks the two
//! plans disagree on ([`OverlapPlan::differing_ranks`]) and links them
//! with the incumbent's others into the program that
//! `CompiledTrace::build` of its whole trace would give. When a candidate
//! is accepted its ranks become the incumbent's; the other candidates'
//! ranks are dropped at the end of their round.

use std::fmt::Write as _;
use std::sync::Arc;

use ovlsim_core::rng::{hash_counters, unit_f64};
use ovlsim_core::{CompiledTrace, LoweredRank, Platform, Tag, Time, TraceSet};
use ovlsim_dimemas::{replay_naive, Simulator};
use ovlsim_tracer::{OverlapPlan, TraceBundle, TUNING_SCALE};

use crate::attribution::Attribution;
use crate::campaign::{json_escape, Engine};
use crate::error::LabError;
use crate::par;
use crate::pipeline::ArtifactPipeline;

/// Default candidate-evaluation budget of a tune run.
pub const DEFAULT_TUNE_BUDGET: usize = 64;

/// The largest evaluation budget a tune run accepts. A search's time grows
/// with its budget, and a campaign spec reaches the tuner through a
/// server's `POST /campaign`, so a budget of 10^8 would hold a server
/// thread indefinitely. Every committed spec and default uses 64 or less.
const MAX_TUNE_BUDGET: usize = 4096;

/// `budget` clamped to at least 1, or refused above
/// [`MAX_TUNE_BUDGET`]. Every tune run checks its budget here before it
/// scores anything; a campaign spec checks its `tune budget` here too, to
/// name the line.
pub(crate) fn checked_budget(budget: usize) -> Result<usize, LabError> {
    if budget > MAX_TUNE_BUDGET {
        return Err(LabError::BudgetTooLarge {
            budget,
            max: MAX_TUNE_BUDGET,
        });
    }
    Ok(budget.max(1))
}

/// Candidates proposed (and scored concurrently) per search round. All
/// proposals of a round mutate the round's incumbent best plan; acceptance
/// folds over their scores in slot order.
const PROPOSALS_PER_ROUND: usize = 4;

/// The chunk-count alphabet mutations draw from.
const CHUNK_CHOICES: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Tuning-run parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneOptions {
    /// Total candidate evaluations, including the uniform-linear baseline
    /// (clamped to at least 1; a budget above 4096 is refused).
    pub budget: usize,
    /// Search seed: all mutation choices derive from it by counter-based
    /// hashing.
    pub seed: u64,
    /// Engine candidates are scored on (all engines produce bit-identical
    /// makespans; this only selects the execution strategy).
    pub engine: Engine,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            budget: DEFAULT_TUNE_BUDGET,
            seed: 0,
            engine: Engine::Compiled,
        }
    }
}

/// One candidate evaluation in the search trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneStep {
    /// Global evaluation index (0 = the uniform-linear baseline).
    pub iter: usize,
    /// Human-readable mutation, e.g. `"0>1#5 chunks=8"`.
    pub mutation: String,
    /// This candidate's makespan.
    pub makespan: Time,
    /// Whether the candidate strictly improved on the best so far and was
    /// accepted as the new incumbent.
    pub accepted: bool,
    /// Best makespan after resolving this step.
    pub best: Time,
}

/// The full result of a tune run: scores, trajectory, and the winning
/// per-channel plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Application (or trace) name.
    pub app: String,
    /// Search seed used.
    pub seed: u64,
    /// Evaluation budget used.
    pub budget: usize,
    /// Scoring engine.
    pub engine: Engine,
    /// Number of tunable (chunkable) channels.
    pub channels: usize,
    /// Makespan of the original (non-overlapped) execution.
    pub original: Time,
    /// Makespan under the uniform-linear baseline plan.
    pub linear: Time,
    /// Best makespan found.
    pub best: Time,
    /// The winning plan (`None` when tuning a raw trace, which carries no
    /// transform metadata to re-synthesize candidates from).
    pub best_plan: Option<OverlapPlan>,
    /// The search trajectory, one entry per evaluation.
    pub steps: Vec<TuneStep>,
}

impl TuneReport {
    /// `linear / best` makespan ratio: how much the tuned plan gains over
    /// uniform linear overlap (1.0 = no gain; degenerate zero best → 1.0).
    pub fn speedup_vs_linear(&self) -> f64 {
        if self.best.is_zero() {
            return 1.0;
        }
        self.linear.as_secs_f64() / self.best.as_secs_f64()
    }

    /// Byte-stable JSON rendering: header fields, then one line per
    /// trajectory step.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let plan = match &self.best_plan {
            Some(p) => p.render(),
            None => "n/a".to_owned(),
        };
        let _ = writeln!(
            out,
            "{{\"tune\":{{\"app\":\"{}\",\"seed\":{},\"budget\":{},\
             \"engine\":\"{}\",\"channels\":{},\"original_ps\":{},\
             \"linear_ps\":{},\"best_ps\":{},\"speedup_vs_linear\":{},\
             \"best_plan\":\"{}\",\"steps\":[",
            json_escape(&self.app),
            self.seed,
            self.budget,
            self.engine,
            self.channels,
            self.original.as_ps(),
            self.linear.as_ps(),
            self.best.as_ps(),
            self.speedup_vs_linear(),
            json_escape(&plan),
        );
        for (i, s) in self.steps.iter().enumerate() {
            let sep = if i + 1 == self.steps.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"iter\":{},\"mutation\":\"{}\",\"makespan_ps\":{},\
                 \"accepted\":{},\"best_ps\":{}}}{sep}",
                s.iter,
                json_escape(&s.mutation),
                s.makespan.as_ps(),
                s.accepted,
                s.best.as_ps(),
            );
        }
        out.push_str("]}}\n");
        out
    }

    /// Byte-stable CSV rendering of the trajectory.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("iter,mutation,makespan_ps,accepted,best_ps\n");
        for s in &self.steps {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.iter,
                s.mutation,
                s.makespan.as_ps(),
                s.accepted,
                s.best.as_ps(),
            );
        }
        out
    }
}

/// A plan with every rank of its trace lowered on its own: what the search
/// keeps of its incumbent. The ranks are shared through `Arc`, so a plan
/// derived from this one holds the ranks the two agree on without copying
/// them.
#[derive(Debug, Clone)]
pub struct LoweredPlan {
    plan: OverlapPlan,
    ranks: Vec<Arc<LoweredRank>>,
}

impl LoweredPlan {
    /// Synthesizes and lowers every rank of `plan` on `bundle`.
    pub fn lower(bundle: &TraceBundle, plan: &OverlapPlan) -> Self {
        LoweredPlan {
            plan: plan.clone(),
            ranks: (0..bundle.original().rank_count())
                .map(|r| Arc::new(bundle.lower_planned_rank(plan, r)))
                .collect(),
        }
    }

    /// Lowers `plan` from this plan's ranks: the ranks the two plans
    /// disagree on are synthesized and lowered again, every other rank is
    /// shared. `bundle` must be the one this plan was lowered on.
    pub fn derive(&self, bundle: &TraceBundle, plan: &OverlapPlan) -> Self {
        let mut ranks = self.ranks.clone();
        for r in self.plan.differing_ranks(plan, ranks.len()) {
            ranks[r] = Arc::new(bundle.lower_planned_rank(plan, r));
        }
        LoweredPlan {
            plan: plan.clone(),
            ranks,
        }
    }

    /// The plan these ranks are lowered for.
    pub fn plan(&self) -> &OverlapPlan {
        &self.plan
    }

    /// Links the ranks into the plan's replay program, equal to
    /// `CompiledTrace::build` of
    /// [`TraceBundle::overlapped_planned`]'s trace.
    ///
    /// # Errors
    ///
    /// Propagates the synthesized trace's validation issues (a transform
    /// bug).
    pub fn program(&self, bundle: &TraceBundle) -> Result<CompiledTrace, LabError> {
        Ok(bundle.link_planned(&self.plan, &self.ranks)?)
    }
}

/// Scores one fresh candidate plan. The compiled engine lowers it from the
/// incumbent's ranks (every rank when there is no incumbent yet), replays
/// the linked program and hands back the lowered plan; the naive engine
/// replays the materialized trace and lowers nothing.
fn score_plan(
    bundle: &TraceBundle,
    platform: &Platform,
    engine: Engine,
    incumbent: Option<&LoweredPlan>,
    plan: &OverlapPlan,
) -> Result<(Time, Option<LoweredPlan>), LabError> {
    match engine {
        Engine::Compiled => {
            let lowered = match incumbent {
                Some(base) => base.derive(bundle, plan),
                None => LoweredPlan::lower(bundle, plan),
            };
            let result =
                Simulator::new(platform.clone()).run_compiled(&lowered.program(bundle)?)?;
            Ok((result.total_time(), Some(lowered)))
        }
        Engine::Naive => {
            let result = replay_naive(platform, &bundle.overlapped_planned(plan)?)?;
            Ok((result.total_time(), None))
        }
    }
}

/// The bundle's tunable channels ranked by the attribution of the
/// *original* replay: clamped overlap-gain potential descending, then
/// total charged wait descending, then `(src, dst, tag)` ascending.
/// Channels the attribution never charged rank last in key order.
fn ranked_tunable_channels(
    bundle: &TraceBundle,
    prog: &CompiledTrace,
    attribution: &Attribution,
) -> Vec<(u32, u32, Tag)> {
    let mut weight: std::collections::HashMap<(u32, u32, u64), (Time, Time)> =
        std::collections::HashMap::new();
    for b in attribution.channels() {
        let tag = prog.channels()[b.chan as usize].tag;
        let entry = weight
            .entry((b.src.get(), b.dst.get(), tag.get()))
            .or_insert((Time::ZERO, Time::ZERO));
        entry.0 += b.gain_potential;
        entry.1 += b.total_wait();
    }
    let mut ranked: Vec<((u32, u32, Tag), Time, Time)> = bundle
        .chunkable_channels()
        .into_iter()
        .map(|(src, dst, tag)| {
            let (gain, wait) = weight
                .get(&(src, dst, tag.get()))
                .copied()
                .unwrap_or((Time::ZERO, Time::ZERO));
            ((src, dst, tag), gain, wait)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(b.2.cmp(&a.2))
            .then(a.0 .0.cmp(&b.0 .0))
            .then(a.0 .1.cmp(&b.0 .1))
            .then(a.0 .2.cmp(&b.0 .2))
    });
    ranked.into_iter().map(|(c, _, _)| c).collect()
}

/// Derives one mutation of `best`: pick a channel (rank-biased — squaring
/// the uniform draw concentrates picks on the high-gain head of the
/// ranking), pick a parameter, move it to a different value.
fn propose(
    best: &OverlapPlan,
    ranked: &[(u32, u32, Tag)],
    seed: u64,
    round: u64,
    slot: u64,
) -> (OverlapPlan, String) {
    let draw = |salt: u64| hash_counters(seed, &[round, slot, salt]);
    let u = unit_f64(draw(0));
    let idx = ((u * u * ranked.len() as f64) as usize).min(ranked.len() - 1);
    let (src, dst, tag) = ranked[idx];
    let cur = best.tuning_for(src, dst, tag);
    let mut t = cur;
    let desc = match draw(1) % 4 {
        0 => {
            t.enabled = !cur.enabled;
            if t.enabled { "on" } else { "off" }.to_owned()
        }
        1 => {
            let choices: Vec<u32> = CHUNK_CHOICES
                .iter()
                .copied()
                .filter(|&c| c != cur.chunks)
                .collect();
            t.chunks = choices[(draw(2) % choices.len() as u64) as usize];
            t.enabled = true;
            format!("chunks={}", t.chunks)
        }
        2 => {
            let step = 1 + (draw(2) % u64::from(TUNING_SCALE)) as u8;
            t.early = (cur.early + step) % (TUNING_SCALE + 1);
            t.enabled = true;
            format!("early={}", t.early)
        }
        _ => {
            let step = 1 + (draw(2) % u64::from(TUNING_SCALE)) as u8;
            t.late = (cur.late + step) % (TUNING_SCALE + 1);
            t.enabled = true;
            format!("late={}", t.late)
        }
    };
    let mut plan = best.clone();
    plan.set(src, dst, tag, t);
    (plan, format!("{src}>{dst}#{} {desc}", tag.get()))
}

/// Runs the auto-tuner on a traced application bundle.
///
/// Evaluation 0 is always the uniform-linear baseline plan (the plan the
/// acceptance criterion compares against); subsequent rounds propose up to
/// four mutations of the incumbent, score them concurrently, and accept
/// each strict improvement in slot order.
///
/// `pipeline` supplies only the original trace, its index and program,
/// for the attribution ranking; candidates bypass it (see the module
/// docs).
///
/// # Errors
///
/// Refuses a budget above 4096 evaluations ([`LabError::BudgetTooLarge`])
/// before scoring anything; propagates synthesis, validation, compilation
/// and replay errors.
pub fn run_tune(
    pipeline: &dyn ArtifactPipeline,
    bundle: &TraceBundle,
    platform: &Platform,
    opts: &TuneOptions,
) -> Result<TuneReport, LabError> {
    run_tune_threaded(
        pipeline,
        bundle,
        platform,
        opts,
        crate::par::configured_threads()?,
    )
}

/// [`run_tune`] with an explicit worker cap (exposed for the determinism
/// tests and scaling measurements).
///
/// # Errors
///
/// Same as [`run_tune`].
#[doc(hidden)]
pub fn run_tune_threaded(
    pipeline: &dyn ArtifactPipeline,
    bundle: &TraceBundle,
    platform: &Platform,
    opts: &TuneOptions,
    threads: usize,
) -> Result<TuneReport, LabError> {
    let budget = checked_budget(opts.budget)?;
    let original = pipeline.variant(bundle, None)?;
    let index = pipeline.index(&original)?;
    let prog = pipeline.compiled(&original, &index)?;
    let (attribution, _) = Attribution::analyze_compiled(platform, &original, &index, &prog)?;
    let ranked = ranked_tunable_channels(bundle, &prog, &attribution);

    let uniform = OverlapPlan::uniform_linear();
    let (linear, mut incumbent) = score_plan(bundle, platform, opts.engine, None, &uniform)?;
    // Every plan scored so far, compared by value: a plan proposed again
    // reuses its score instead of being lowered and replayed twice.
    let mut scored: Vec<(OverlapPlan, Time)> = vec![(uniform.clone(), linear)];
    let mut steps = vec![TuneStep {
        iter: 0,
        mutation: "baseline uniform-linear".to_owned(),
        makespan: linear,
        accepted: true,
        best: linear,
    }];
    let mut best_plan = uniform;
    let mut best = linear;
    let mut evals = 1;
    let mut round: u64 = 0;
    while evals < budget && !ranked.is_empty() {
        let width = PROPOSALS_PER_ROUND.min(budget - evals);
        let proposals: Vec<(OverlapPlan, String)> = (0..width)
            .map(|slot| propose(&best_plan, &ranked, opts.seed, round, slot as u64))
            .collect();
        let mut fresh: Vec<OverlapPlan> = Vec::new();
        for (plan, _) in &proposals {
            if !scored.iter().any(|(p, _)| p == plan) && !fresh.contains(plan) {
                fresh.push(plan.clone());
            }
        }
        let scores = par::par_map_with(&fresh, threads, |plan| {
            score_plan(bundle, platform, opts.engine, incumbent.as_ref(), plan)
        });
        // This round's lowered candidates, dropped when the round ends
        // unless one is accepted.
        let mut lowered: Vec<LoweredPlan> = Vec::new();
        for (plan, score) in fresh.into_iter().zip(scores) {
            let (makespan, ranks) = score?;
            scored.push((plan, makespan));
            lowered.extend(ranks);
        }
        for (plan, mutation) in proposals {
            let makespan = scored
                .iter()
                .find(|(p, _)| *p == plan)
                .map(|&(_, t)| t)
                .expect("every proposal was scored");
            let accepted = makespan < best;
            if accepted {
                best = makespan;
                // A plan scored in an earlier round is never accepted
                // (its makespan is not below the best since), so an
                // accepted plan's ranks are this round's. Were they not,
                // the incumbent would stay: it lowers from its own plan.
                if let Some(i) = lowered.iter().position(|l| *l.plan() == plan) {
                    incumbent = Some(lowered.swap_remove(i));
                }
                best_plan = plan;
            }
            steps.push(TuneStep {
                iter: evals,
                mutation,
                makespan,
                accepted,
                best,
            });
            evals += 1;
        }
        round += 1;
    }

    Ok(TuneReport {
        app: bundle.name().to_owned(),
        seed: opts.seed,
        budget,
        engine: opts.engine,
        channels: ranked.len(),
        original: attribution.makespan(),
        linear,
        best,
        best_plan: Some(best_plan),
        steps,
    })
}

/// The raw-trace fallback: a `.dim`/`.ovlb` trace carries no
/// production/consumption metadata, so no candidate can be synthesized —
/// the report records the baseline replay and an empty search.
///
/// # Errors
///
/// Refuses a budget above 4096 evaluations, as [`run_tune`] does;
/// propagates validation and replay errors.
pub fn run_tune_baseline(
    pipeline: &dyn ArtifactPipeline,
    trace: &Arc<TraceSet>,
    platform: &Platform,
    opts: &TuneOptions,
) -> Result<TuneReport, LabError> {
    let budget = checked_budget(opts.budget)?;
    let index = pipeline.index(trace)?;
    let prog = pipeline.compiled(trace, &index)?;
    let (attribution, _) = Attribution::analyze_compiled(platform, trace, &index, &prog)?;
    let makespan = attribution.makespan();
    Ok(TuneReport {
        app: trace.name().to_owned(),
        seed: opts.seed,
        budget,
        engine: opts.engine,
        channels: 0,
        original: makespan,
        linear: makespan,
        best: makespan,
        best_plan: None,
        steps: vec![TuneStep {
            iter: 0,
            mutation: "baseline original (raw trace: no transform metadata)".to_owned(),
            makespan,
            accepted: true,
            best: makespan,
        }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DirectPipeline;
    use ovlsim_apps::registry::AppOverrides;
    use ovlsim_apps::ProblemClass;

    fn tune_app(app: &str, opts: &TuneOptions) -> TuneReport {
        let p = DirectPipeline;
        let bundle = p
            .bundle(app, ProblemClass::S, AppOverrides::default())
            .unwrap();
        let platform = ovlsim_apps::calibration::reference_platform();
        run_tune(&p, &bundle, &platform, opts).unwrap()
    }

    #[test]
    fn tune_never_regresses_below_uniform_linear() {
        let report = tune_app(
            "sweep3d",
            &TuneOptions {
                budget: 9,
                ..TuneOptions::default()
            },
        );
        assert!(report.best <= report.linear);
        assert_eq!(report.steps.len(), 9);
        assert_eq!(report.steps[0].makespan, report.linear);
        assert!(report.channels > 0);
        // best-so-far is monotone non-increasing along the trajectory.
        for w in report.steps.windows(2) {
            assert!(w[1].best <= w[0].best);
        }
        // The final best matches the report header.
        assert_eq!(report.steps.last().unwrap().best, report.best);
    }

    #[test]
    fn tune_is_deterministic_for_a_seed() {
        let opts = TuneOptions {
            budget: 5,
            seed: 42,
            ..TuneOptions::default()
        };
        let a = tune_app("sweep3d", &opts);
        let b = tune_app("sweep3d", &opts);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.best_plan, b.best_plan);
        // A different seed explores a different trajectory.
        let c = tune_app("sweep3d", &TuneOptions { seed: 43, ..opts });
        assert_ne!(
            a.steps.iter().map(|s| &s.mutation).collect::<Vec<_>>(),
            c.steps.iter().map(|s| &s.mutation).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn budget_zero_clamps_to_baseline_only() {
        let report = tune_app(
            "sweep3d",
            &TuneOptions {
                budget: 0,
                ..TuneOptions::default()
            },
        );
        assert_eq!(report.steps.len(), 1);
        assert_eq!(report.best, report.linear);
    }

    #[test]
    fn baseline_report_for_raw_trace() {
        let p = DirectPipeline;
        let bundle = p
            .bundle("sweep3d", ProblemClass::S, AppOverrides::default())
            .unwrap();
        let trace = p.variant(&bundle, None).unwrap();
        let platform = ovlsim_apps::calibration::reference_platform();
        let report = run_tune_baseline(&p, &trace, &platform, &TuneOptions::default()).unwrap();
        assert_eq!(report.channels, 0);
        assert!(report.best_plan.is_none());
        assert_eq!(report.steps.len(), 1);
        assert_eq!(report.best, report.original);
        assert!(report.to_json().contains("\"best_plan\":\"n/a\""));
    }

    #[test]
    fn report_renderings_are_byte_stable() {
        let opts = TuneOptions {
            budget: 5,
            ..TuneOptions::default()
        };
        let report = tune_app("sweep3d", &opts);
        assert_eq!(report.to_json(), report.to_json());
        assert_eq!(report.to_csv(), report.to_csv());
        let csv = report.to_csv();
        assert!(csv.starts_with("iter,mutation,makespan_ps,accepted,best_ps\n"));
        assert_eq!(csv.lines().count(), 1 + report.steps.len());
    }
}
