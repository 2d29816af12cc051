//! The `paper` and `tune` passes in process. The campaign itself runs
//! through `run_campaign_with`, the runner `ovlsim campaign run` uses, with
//! the timing pipeline decorator in place of the bare session, so the
//! trace, transform, index and compile spans are the runner's own calls.
//! The runner's replays cannot be timed from outside, so the replay phase
//! afterwards replays every point of `CampaignSpec::expand()` again, each
//! replay a span. The rendered report must equal the `ovlsim campaign run`
//! report byte for byte.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use ovlsim_apps::registry::AppOverrides;
use ovlsim_core::Platform;
use ovlsim_lab::{run_campaign_with, ArtifactPipeline, CampaignSpec, EngineInput, LabError};
use ovlsim_session::Session;

use crate::pipeline::Traced;
use crate::spans::Recorder;

/// `spec` without its bandwidth points: the runner builds every group's
/// artifacts (trace, transform, index, compile) and replays nothing.
pub fn build_only(spec: &CampaignSpec) -> CampaignSpec {
    let mut spec = spec.clone();
    spec.bandwidths.clear();
    spec
}

/// Runs `f` over `items` on up to `threads` workers (an atomic cursor,
/// as in the lab crate's pool), returning results in input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut part = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break part;
                        }
                        part.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// One cold campaign pass; returns the report JSON.
pub fn run(p: &Traced<'_>, spec: &CampaignSpec, threads: usize) -> Result<String, String> {
    let rec = p.rec;
    let report = rec
        .span(
            "lab.campaign",
            || run_campaign_with(p, spec, threads),
            |_| 0,
        )
        .map_err(|e| e.to_string())?;
    Ok(rec.span("lab.report", || report.to_json(), |s| s.len() as u64))
}

/// The campaign's original and overlapped replays again, one span each,
/// over the artifacts `run` left in `session` (every lookup is a hit).
pub fn replays(
    session: &Session,
    rec: &Recorder,
    spec: &CampaignSpec,
    threads: usize,
) -> Result<(), String> {
    let overrides = AppOverrides {
        ranks: spec.ranks,
        iterations: spec.iterations,
    };
    let mut groups = HashMap::new();
    for app in &spec.apps {
        for &class in &spec.classes {
            let bundle = session
                .bundle(app, class, overrides)
                .map_err(|e| e.to_string())?;
            for &mode in &spec.modes {
                let mut inputs = Vec::new();
                for variant in [None, Some(mode)] {
                    let trace = session
                        .variant(&bundle, variant)
                        .map_err(|e| e.to_string())?;
                    let records = trace.total_records() as u64;
                    let input = EngineInput::build(session, trace, &spec.engines, false)
                        .map_err(|e| e.to_string())?;
                    inputs.push((input, records));
                }
                groups.insert((app.clone(), class, mode.label()), inputs);
            }
        }
    }
    let base = Platform::builder()
        .latency(spec.latency)
        .intra_node_bandwidth(spec.intra_bandwidth)
        .build();
    let points = spec.expand();
    par_map(&points, threads, |point| -> Result<(), LabError> {
        let mut platform = base
            .with_bandwidth(point.bandwidth)
            .with_ranks_per_node(point.ranks_per_node);
        let model = spec.perturbation_at(point.noise_level);
        if !model.is_identity() {
            platform = platform.with_perturbation(model);
        }
        for (input, records) in &groups[&(point.app.clone(), point.class, point.mode.clone())] {
            rec.span(
                "dimemas.replay",
                || input.replay(point.engine, &platform),
                |_| *records,
            )?;
        }
        Ok(())
    })
    .into_iter()
    .collect::<Result<(), LabError>>()
    .map_err(|e| e.to_string())
}
