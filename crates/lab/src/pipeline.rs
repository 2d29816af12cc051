//! The artifact pipeline abstraction: who builds traces, indexes and
//! compiled programs.
//!
//! Every experiment in this crate consumes the same three artifact kinds —
//! a synthesized [`TraceSet`], its channel [`TraceIndex`], and the flat
//! [`CompiledTrace`] replay program — but *who builds them* is a policy
//! decision. The CLI used to inline that plumbing at every call site;
//! the session layer (crate `ovlsim-session`) wants to intercept it with a
//! content-addressed cache so a thousand sweep points compile once.
//!
//! [`ArtifactPipeline`] is that seam. [`DirectPipeline`] is the identity
//! policy: build everything on demand, cache nothing — byte-identical to
//! the historical inline code. A caching implementation lives above this
//! crate (the session layer implements the trait over its artifact store);
//! campaign and sweep code only ever sees the trait.
//!
//! What goes through the pipeline is what is worth keeping: traced
//! bundles, the trace variants a campaign replays, their indexes and
//! programs. An overlapped variant the compiled engine replays is asked
//! for as a program ([`ArtifactPipeline::variant_program`]): it is
//! synthesized, lowered and linked rank by rank from the bundle, checked
//! once, at link, and never exists as a trace, a fingerprint or an index;
//! a caching implementation keys it by the bundle's descriptor and the
//! mode ([`ArtifactPipeline::load_variant_program`]). Its trace is built
//! only for the naive engine. The auto-tuner's candidates do not go
//! through the pipeline at all. Each one is a throwaway plan that is
//! lowered straight to its program, replayed once and dropped (see
//! [`crate::tune`]), so it is never fingerprinted, indexed, stored or
//! written to disk.

use std::sync::Arc;

use ovlsim_apps::registry::{build_app, AppOverrides};
use ovlsim_apps::ProblemClass;
use ovlsim_core::{CompiledTrace, Platform, TraceIndex, TraceSet};
use ovlsim_dimemas::{replay_naive, ReplayResult, SimError, Simulator};
use ovlsim_tracer::{OverlapMode, TraceBundle, TracingSession};

use crate::campaign::Engine;
use crate::error::LabError;

/// Builds a [`TraceIndex`], mapping validation issues to [`LabError`].
///
/// # Errors
///
/// Returns [`LabError::Sim`] wrapping the trace's validation issues.
pub fn build_index(trace: &TraceSet) -> Result<TraceIndex, LabError> {
    TraceIndex::build(trace).map_err(|issues| LabError::Sim(SimError::InvalidTrace { issues }))
}

/// A producer of simulation artifacts.
///
/// Implementations decide caching policy; callers express *what* they
/// need and remain agnostic of *how often* it is physically built. All
/// methods return [`Arc`]s so a caching implementation can hand out
/// shared instances without copies.
pub trait ArtifactPipeline: Sync {
    /// Traces `app` at `class` (applying `overrides`), returning the full
    /// bundle of original + overlap-transformable trace.
    ///
    /// # Errors
    ///
    /// Propagates app construction and tracing errors.
    fn bundle(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
    ) -> Result<Arc<TraceBundle>, LabError>;

    /// One trace variant of a bundle: the original (`mode == None`) or the
    /// overlap-transformed trace for `mode`.
    ///
    /// # Errors
    ///
    /// Propagates overlap synthesis errors.
    fn variant(
        &self,
        bundle: &TraceBundle,
        mode: Option<OverlapMode>,
    ) -> Result<Arc<TraceSet>, LabError>;

    /// The `mode` variant of `app × class × overrides` if this pipeline
    /// can serve it *without tracing the app* — the load hook for
    /// persistent caches. The default has no storage and always answers
    /// `None`; callers then fall back to
    /// [`ArtifactPipeline::bundle`] + [`ArtifactPipeline::variant`].
    /// A durable implementation answers from its integrity-checked
    /// store, which is what lets a warm restart rebuild nothing.
    fn load_variant(
        &self,
        _app: &str,
        _class: ProblemClass,
        _overrides: AppOverrides,
        _mode: Option<OverlapMode>,
    ) -> Option<Arc<TraceSet>> {
        None
    }

    /// The replay program of `bundle`'s overlapped variant for `mode`,
    /// built without the variant's trace. The default lowers it straight
    /// from the bundle ([`TraceBundle::overlapped_program`]) and keeps
    /// nothing; the program equals the one
    /// [`ArtifactPipeline::compiled_standalone`] builds from
    /// [`ArtifactPipeline::variant`]'s trace.
    ///
    /// # Errors
    ///
    /// Propagates overlap synthesis errors.
    fn variant_program(
        &self,
        bundle: &TraceBundle,
        mode: OverlapMode,
    ) -> Result<Arc<CompiledTrace>, LabError> {
        Ok(Arc::new(bundle.overlapped_program(mode)?))
    }

    /// The program of the `mode` variant of `app × class × overrides` if
    /// this pipeline can serve it without tracing the app: the
    /// [`ArtifactPipeline::load_variant`] hook for programs. The default
    /// answers `None`, and callers fall back to
    /// [`ArtifactPipeline::bundle`] + [`ArtifactPipeline::variant_program`].
    fn load_variant_program(
        &self,
        _app: &str,
        _class: ProblemClass,
        _overrides: AppOverrides,
        _mode: OverlapMode,
    ) -> Option<Arc<CompiledTrace>> {
        None
    }

    /// The channel index of `trace` (validates the trace as a side
    /// effect).
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Sim`] if the trace fails validation.
    fn index(&self, trace: &Arc<TraceSet>) -> Result<Arc<TraceIndex>, LabError>;

    /// The flat replay program of `trace`. `index` must belong to the
    /// same trace (callers obtain it from [`ArtifactPipeline::index`]).
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    fn compiled(
        &self,
        trace: &Arc<TraceSet>,
        index: &Arc<TraceIndex>,
    ) -> Result<Arc<CompiledTrace>, LabError>;

    /// The flat replay program of `trace` when the caller needs *only*
    /// the program: the default builds the index (validating the trace)
    /// and compiles through it. This is the load hook for persistent
    /// caches — an implementation backed by durable storage overrides it
    /// to serve an integrity-checked stored program directly, skipping
    /// both validation and compilation on a warm start.
    ///
    /// # Errors
    ///
    /// Propagates validation and compilation errors.
    fn compiled_standalone(&self, trace: &Arc<TraceSet>) -> Result<Arc<CompiledTrace>, LabError> {
        let index = self.index(trace)?;
        self.compiled(trace, &index)
    }
}

/// The no-cache pipeline: every request builds its artifact from scratch,
/// exactly as the pre-session inline code did.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectPipeline;

impl ArtifactPipeline for DirectPipeline {
    fn bundle(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
    ) -> Result<Arc<TraceBundle>, LabError> {
        let app = build_app(app, class, overrides)?;
        Ok(Arc::new(TracingSession::new(app.as_ref()).run()?))
    }

    fn variant(
        &self,
        bundle: &TraceBundle,
        mode: Option<OverlapMode>,
    ) -> Result<Arc<TraceSet>, LabError> {
        match mode {
            None => Ok(Arc::new(bundle.original().clone())),
            Some(mode) => Ok(Arc::new(bundle.overlapped(mode)?)),
        }
    }

    fn index(&self, trace: &Arc<TraceSet>) -> Result<Arc<TraceIndex>, LabError> {
        build_index(trace).map(Arc::new)
    }

    fn compiled(
        &self,
        trace: &Arc<TraceSet>,
        index: &Arc<TraceIndex>,
    ) -> Result<Arc<CompiledTrace>, LabError> {
        Ok(Arc::new(CompiledTrace::compile(trace, index)?))
    }
}

/// The per-trace data one engine family needs, built once per
/// `app × class × mode` group. Fields the engine list does not require
/// are never built (a compiled-only campaign keeps no record streams or
/// indexes alive; a naive-only campaign compiles nothing).
#[derive(Debug, Clone)]
pub struct EngineInput {
    /// Record stream — kept only for the naive engine and attribution.
    pub trace: Option<Arc<TraceSet>>,
    /// Channel index — kept only for attribution.
    pub index: Option<Arc<TraceIndex>>,
    /// Flat replay program — built for the compiled engine and for
    /// attribution.
    pub prog: Option<Arc<CompiledTrace>>,
}

impl EngineInput {
    /// Builds the artifacts `engines` require for `ts` through `pipeline`.
    /// `attribution` forces the record stream, the index and the program
    /// to be kept: the attribution pass replays that program observed,
    /// whatever the row's engine.
    ///
    /// # Errors
    ///
    /// Propagates validation and compilation errors.
    pub fn build(
        pipeline: &dyn ArtifactPipeline,
        ts: Arc<TraceSet>,
        engines: &[Engine],
        attribution: bool,
    ) -> Result<EngineInput, LabError> {
        let needs_prog = engines.contains(&Engine::Compiled);
        let needs_trace = attribution || engines.contains(&Engine::Naive);
        let (index, prog) = if attribution {
            let index = pipeline.index(&ts)?;
            let prog = pipeline.compiled(&ts, &index)?;
            (Some(index), Some(prog))
        } else if needs_prog {
            // Compiled-only: let the pipeline skip the index build when
            // it can serve a persisted program.
            (None, Some(pipeline.compiled_standalone(&ts)?))
        } else {
            (None, None)
        };
        Ok(EngineInput {
            trace: needs_trace.then_some(ts),
            index,
            prog,
        })
    }

    /// Replays this input on `platform` with `engine`. The `expect`s hold
    /// by construction: [`EngineInput::build`] receives the same engine
    /// list `engine` is drawn from.
    ///
    /// # Errors
    ///
    /// Propagates replay errors.
    ///
    /// # Panics
    ///
    /// Panics if `engine` was not in the list this input was built for.
    pub fn replay(&self, engine: Engine, platform: &Platform) -> Result<ReplayResult, SimError> {
        match engine {
            Engine::Compiled => {
                let prog = self.prog.as_ref().expect("compiled engine was requested");
                Simulator::new(platform.clone()).run_compiled(prog)
            }
            Engine::Naive => {
                let trace = self.trace.as_ref().expect("naive engine was requested");
                replay_naive(platform, trace)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_trace() -> Arc<TraceSet> {
        let bundle = DirectPipeline
            .bundle("sweep3d", ProblemClass::S, AppOverrides::default())
            .unwrap();
        DirectPipeline.variant(&bundle, None).unwrap()
    }

    #[test]
    fn direct_pipeline_builds_every_artifact() {
        let p = DirectPipeline;
        let trace = any_trace();
        let index = p.index(&trace).unwrap();
        let prog = p.compiled(&trace, &index).unwrap();
        let platform = ovlsim_apps::calibration::reference_platform();
        let via_prog = Simulator::new(platform.clone())
            .run_compiled(&prog)
            .unwrap();
        let via_trace = Simulator::new(platform.clone()).run(&trace).unwrap();
        assert_eq!(via_prog, via_trace);
    }

    #[test]
    fn engine_input_keeps_only_what_the_engines_need() {
        let p = DirectPipeline;
        let trace = any_trace();
        let compiled_only =
            EngineInput::build(&p, trace.clone(), &[Engine::Compiled], false).unwrap();
        assert!(compiled_only.trace.is_none());
        assert!(compiled_only.index.is_none());
        assert!(compiled_only.prog.is_some());
        let naive_only = EngineInput::build(&p, trace.clone(), &[Engine::Naive], false).unwrap();
        assert!(naive_only.trace.is_some());
        assert!(naive_only.index.is_none());
        assert!(naive_only.prog.is_none());
        let attr = EngineInput::build(&p, trace, &[Engine::Compiled], true).unwrap();
        assert!(attr.trace.is_some());
        assert!(attr.index.is_some());
        assert!(attr.prog.is_some());
    }

    #[test]
    fn all_engines_replay_identically_through_engine_input() {
        let p = DirectPipeline;
        let trace = any_trace();
        let engines = [Engine::Compiled, Engine::Naive];
        let input = EngineInput::build(&p, trace, &engines, false).unwrap();
        let platform = ovlsim_apps::calibration::reference_platform();
        let [compiled, naive] = engines.map(|e| input.replay(e, &platform).unwrap());
        assert_eq!(compiled, naive);
    }
}
