//! A timing decorator over the session's artifact pipeline: every build
//! the campaign runner, the tuner or a request asks for is recorded as a
//! span of the layer that does the work.

use std::sync::Arc;

use ovlsim_apps::registry::AppOverrides;
use ovlsim_apps::ProblemClass;
use ovlsim_core::{CompiledTrace, TraceIndex, TraceSet};
use ovlsim_lab::{ArtifactPipeline, LabError};
use ovlsim_session::Session;
use ovlsim_tracer::{OverlapMode, TraceBundle};

use crate::spans::Recorder;

fn records<T>(r: &Result<Arc<T>, LabError>, count: impl Fn(&T) -> usize) -> u64 {
    r.as_ref().map_or(0, |a| count(a) as u64)
}

pub struct Traced<'a> {
    pub session: &'a Session,
    pub rec: &'a Recorder,
}

impl ArtifactPipeline for Traced<'_> {
    fn bundle(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
    ) -> Result<Arc<TraceBundle>, LabError> {
        self.rec.span(
            "tracer.trace",
            || self.session.bundle(app, class, overrides),
            |r| records(r, |b: &TraceBundle| b.original().total_records()),
        )
    }

    fn variant(
        &self,
        bundle: &TraceBundle,
        mode: Option<OverlapMode>,
    ) -> Result<Arc<TraceSet>, LabError> {
        self.rec.span(
            "tracer.transform",
            || self.session.variant(bundle, mode),
            |r| records(r, TraceSet::total_records),
        )
    }

    fn load_variant(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
        mode: Option<OverlapMode>,
    ) -> Option<Arc<TraceSet>> {
        self.session.load_variant(app, class, overrides, mode)
    }

    fn index(&self, trace: &Arc<TraceSet>) -> Result<Arc<TraceIndex>, LabError> {
        self.rec.span(
            "core.index",
            || self.session.index(trace),
            |_| trace.total_records() as u64,
        )
    }

    fn compiled(
        &self,
        trace: &Arc<TraceSet>,
        index: &Arc<TraceIndex>,
    ) -> Result<Arc<CompiledTrace>, LabError> {
        self.rec.span(
            "core.compile",
            || self.session.compiled(trace, index),
            |_| trace.total_records() as u64,
        )
    }

    // `compiled_standalone` keeps the trait's default (index, then
    // compile), so both layers show up as spans of their own.
}
