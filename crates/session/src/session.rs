//! The [`Session`]: one artifact store + one thread pool behind every
//! simulation entry point.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use ovlsim_apps::registry::AppOverrides;
use ovlsim_apps::ProblemClass;
use ovlsim_core::{CompiledTrace, Digest, StableHasher, TraceIndex, TraceSet};
use ovlsim_dimemas::parse_trace_set;
use ovlsim_lab::attribution::{Attribution, AttributionRecorder};
use ovlsim_lab::pipeline::{build_index, ArtifactPipeline, DirectPipeline, EngineInput};
use ovlsim_lab::{configured_threads, run_campaign_with, CampaignReport, CampaignSpec, LabError};
use ovlsim_tracer::{OverlapMode, TraceBundle};

use crate::disk::{DiskCache, DiskStats};
use crate::error::SessionError;
use crate::request::{
    AnalyzeRequest, CampaignRequest, ReplayRequest, ReplayResponse, SweepRequest, SweepResponse,
    TraceSource,
};
use crate::store::{ArtifactStore, CacheStats};

/// A long-lived simulation context: a content-addressed [`ArtifactStore`]
/// plus the deterministic `OVLSIM_THREADS` worker count, serving typed
/// requests ([`ReplayRequest`], [`SweepRequest`], [`AnalyzeRequest`],
/// [`CampaignRequest`]).
///
/// `Session` implements [`ArtifactPipeline`], so the campaign runner and
/// every other lab entry point transparently share its cache: equal
/// traces index and compile exactly once per session, no matter how many
/// requests — or how many concurrent server connections — ask for them.
pub struct Session {
    store: ArtifactStore,
    /// Optional persistent backend: trace variants and compiled programs
    /// survive process restarts as integrity-checked `.ovlb` files. When
    /// present, cache misses consult disk before building, and builds
    /// write through.
    disk: Option<DiskCache>,
    threads: usize,
    /// Memoized content digests, keyed by artifact address. Each entry
    /// pins its artifact's `Arc`, so an address can never be reused while
    /// it is a key — repeated lookups of a cached trace cost a pointer
    /// hash instead of re-hashing every record (that re-hash is what the
    /// perf snapshot's <5% cached-replay budget guards against).
    trace_keys: Mutex<HashMap<usize, (Arc<TraceSet>, Digest)>>,
    bundle_keys: Mutex<HashMap<usize, (Arc<TraceBundle>, Digest)>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Session {
    /// Creates a session with the configured worker count
    /// (`OVLSIM_THREADS` or the machine's available parallelism).
    ///
    /// # Errors
    ///
    /// Rejects a malformed `OVLSIM_THREADS`.
    pub fn new() -> Result<Session, SessionError> {
        Ok(Session {
            threads: configured_threads()?,
            ..Session::with_threads(1)
        })
    }

    /// Creates a session with an explicit worker cap (for determinism
    /// tests).
    pub fn with_threads(threads: usize) -> Session {
        Session {
            store: ArtifactStore::new(),
            disk: None,
            threads: threads.max(1),
            trace_keys: Mutex::new(HashMap::new()),
            bundle_keys: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a persistent artifact cache rooted at `dir` (created if
    /// missing). Trace variants and compiled programs are then written
    /// through to disk and served back — after integrity verification —
    /// on any later session pointed at the same directory, so a warm
    /// restart rebuilds nothing.
    ///
    /// # Errors
    ///
    /// Surfaces directory-creation failures as [`SessionError::Io`].
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Result<Session, SessionError> {
        let dir = dir.into();
        self.disk = Some(
            DiskCache::open(&dir)
                .map_err(|e| SessionError::Io(format!("cache dir {}: {e}", dir.display())))?,
        );
        Ok(self)
    }

    /// A snapshot of the persistent cache's counters, when one is
    /// attached.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(DiskCache::stats)
    }

    /// The content digest of a trace, hashing its records only the first
    /// time this session sees this `Arc`. The hash runs outside the memo's
    /// lock, so workers keying different traces never wait on each other;
    /// two workers racing on one `Arc` compute the same digest, and the
    /// later insert replaces an equal entry.
    fn trace_key(&self, trace: &Arc<TraceSet>) -> Digest {
        let addr = Arc::as_ptr(trace) as usize;
        if let Some((_, digest)) = lock(&self.trace_keys).get(&addr) {
            return *digest;
        }
        let digest = trace.fingerprint();
        lock(&self.trace_keys).insert(addr, (Arc::clone(trace), digest));
        digest
    }

    /// The descriptor digest of a bundle this session traced, or `None`
    /// for a bundle it did not.
    fn bundle_digest(&self, bundle: &TraceBundle) -> Option<Digest> {
        lock(&self.bundle_keys)
            .get(&(bundle as *const TraceBundle as usize))
            .map(|(_, digest)| *digest)
    }

    /// The program stored under `key`: from memory, else from the disk
    /// cache, else built by `build` and written through.
    fn program_at(
        &self,
        key: Digest,
        build: impl FnOnce() -> Result<CompiledTrace, LabError>,
    ) -> Result<Arc<CompiledTrace>, LabError> {
        self.store.program_with(
            key,
            || self.disk.as_ref().and_then(|d| d.load_program(key)),
            || {
                let prog = build()?;
                if let Some(disk) = &self.disk {
                    disk.store_program(key, &prog);
                }
                Ok(prog)
            },
        )
    }

    /// A snapshot of the artifact store's hit/build counters.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// The trace a source describes, cached by content.
    ///
    /// # Errors
    ///
    /// Propagates parse errors (text sources) or app construction,
    /// tracing and synthesis errors (generated sources).
    pub fn trace(&self, source: &TraceSource) -> Result<Arc<TraceSet>, SessionError> {
        match source {
            TraceSource::Text { dim } => {
                let key = source.key();
                self.store.trace_with(
                    key,
                    || self.disk.as_ref().and_then(|d| d.load_trace(key)),
                    || {
                        let parsed = parse_trace_set(dim)?;
                        if let Some(disk) = &self.disk {
                            disk.store_trace(key, &parsed);
                        }
                        Ok(parsed)
                    },
                )
            }
            TraceSource::Binary { bytes } => {
                let key = source.key();
                self.store.trace_with(
                    key,
                    || self.disk.as_ref().and_then(|d| d.load_trace(key)),
                    || {
                        let decoded = ovlsim_core::codec::decode_trace_set(bytes)?;
                        if let Some(disk) = &self.disk {
                            disk.store_trace(key, &decoded);
                        }
                        Ok(decoded)
                    },
                )
            }
            TraceSource::Generated {
                app, class, mode, ..
            } => {
                // A persisted variant short-circuits tracing entirely —
                // this is what keeps a warm restart's build counters at
                // zero.
                if let Some(trace) =
                    ArtifactPipeline::load_variant(self, app, *class, source.overrides(), *mode)
                {
                    return Ok(trace);
                }
                let bundle = ArtifactPipeline::bundle(self, app, *class, source.overrides())?;
                Ok(self.variant(&bundle, *mode)?)
            }
        }
    }

    /// Replays one trace on one platform point.
    ///
    /// # Errors
    ///
    /// Propagates source, platform and replay errors.
    pub fn replay(&self, req: &ReplayRequest) -> Result<ReplayResponse, SessionError> {
        let trace = self.trace(&req.source)?;
        let platform = req.perturb.apply(req.platform.build()?)?;
        let input = EngineInput::build(self, Arc::clone(&trace), &[req.engine], false)?;
        let result = input
            .replay(req.engine, &platform)
            .map_err(LabError::from)?;
        Ok(ReplayResponse {
            trace: trace.name().to_string(),
            total: result.total_time(),
            comm_fraction: result.comm_fraction(),
            rank_finish: result.rank_finish().to_vec(),
        })
    }

    /// Replays an original/overlapped pair over a bandwidth range,
    /// fanning points across the session's worker pool. Both programs
    /// come from the cache: repeated sweeps over the same traces compile
    /// exactly once.
    ///
    /// # Errors
    ///
    /// Propagates source, validation, compilation and replay errors.
    pub fn sweep(&self, req: &SweepRequest) -> Result<SweepResponse, SessionError> {
        let orig = self.trace(&req.original)?;
        let ovl = self.trace(&req.overlapped)?;
        let base = crate::request::PlatformSpec {
            bandwidth: None,
            latency_us: req.latency_us,
        }
        .build()?;
        let orig_prog = self.compiled(&orig, &ArtifactPipeline::index(self, &orig)?)?;
        let ovl_prog = self.compiled(&ovl, &ArtifactPipeline::index(self, &ovl)?)?;
        let points = ovlsim_lab::sweep_compiled_threaded(
            &orig_prog,
            &ovl_prog,
            &base,
            &req.bandwidths,
            self.threads,
        )?;
        Ok(SweepResponse { points })
    }

    /// Attributes wait time and extracts the critical path of one trace
    /// on one platform point, returning the folded attribution and the
    /// raw recorder (whose intervals the Paraver exporter consumes). The
    /// observed replay runs the store's program for the trace, so a trace
    /// already replayed or analyzed compiles nothing.
    ///
    /// # Errors
    ///
    /// Propagates source, validation and replay errors.
    pub fn analyze(
        &self,
        req: &AnalyzeRequest,
    ) -> Result<(Attribution, AttributionRecorder), SessionError> {
        let trace = self.trace(&req.source)?;
        let platform = req.perturb.apply(req.platform.build()?)?;
        let index = ArtifactPipeline::index(self, &trace)?;
        let prog = ArtifactPipeline::compiled(self, &trace, &index)?;
        Ok(Attribution::analyze_compiled(
            &platform, &trace, &index, &prog,
        )?)
    }

    /// Parses and runs a full campaign through this session's cache.
    ///
    /// # Errors
    ///
    /// Propagates spec parse errors and campaign run errors.
    pub fn campaign(&self, req: &CampaignRequest) -> Result<CampaignReport, SessionError> {
        let spec = CampaignSpec::parse(&req.spec)?;
        self.run_campaign(&spec)
    }

    /// Runs an already-parsed campaign spec through this session's cache
    /// (the CLI splices perturbation flags into the spec before running).
    ///
    /// # Errors
    ///
    /// Propagates campaign run errors.
    pub fn run_campaign(&self, spec: &CampaignSpec) -> Result<CampaignReport, SessionError> {
        Ok(run_campaign_with(self, spec, self.threads)?)
    }
}

fn bundle_key(app: &str, class: ProblemClass, overrides: AppOverrides) -> Digest {
    let mut h = StableHasher::new();
    h.write_str("artifact:bundle");
    h.write_str(app);
    h.write_str(&class.to_string());
    // +1 keeps `None` distinct from `Some(0)`.
    h.write_u64(overrides.ranks.map_or(0, |r| r as u64 + 1));
    h.write_u64(overrides.iterations.map_or(0, |i| i as u64 + 1));
    h.finish()
}

fn derived_key(kind: &str, fingerprint: Digest) -> Digest {
    let mut h = StableHasher::new();
    h.write_str(kind);
    h.write_u64(fingerprint.0);
    h.write_u64(fingerprint.1);
    h.finish()
}

/// The cache key of one trace variant of a bundle. Computable from the
/// bundle's *descriptor* digest alone, which is what lets
/// [`ArtifactPipeline::load_variant`] answer from persistent storage
/// without tracing the app first.
fn variant_key(bundle_digest: Digest, mode: Option<OverlapMode>) -> Digest {
    let mut h = StableHasher::new();
    h.write_str("artifact:variant");
    h.write_u64(bundle_digest.0);
    h.write_u64(bundle_digest.1);
    h.write_str(&mode.map_or_else(|| "original".to_string(), |m| m.label()));
    h.finish()
}

/// The cache key of the replay program of one overlapped variant of a
/// bundle, lowered straight from the bundle. Like [`variant_key`], it
/// needs only the bundle's descriptor digest.
fn variant_program_key(bundle_digest: Digest, mode: OverlapMode) -> Digest {
    derived_key(
        "artifact:variant-program",
        variant_key(bundle_digest, Some(mode)),
    )
}

impl ArtifactPipeline for Session {
    fn bundle(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
    ) -> Result<Arc<TraceBundle>, LabError> {
        let key = bundle_key(app, class, overrides);
        let bundle = self.store.bundle(key, || {
            DirectPipeline
                .bundle(app, class, overrides)
                .map(|b| Arc::try_unwrap(b).unwrap_or_else(|b| (*b).clone()))
        })?;
        lock(&self.bundle_keys)
            .entry(Arc::as_ptr(&bundle) as usize)
            .or_insert_with(|| (Arc::clone(&bundle), key));
        Ok(bundle)
    }

    fn variant(
        &self,
        bundle: &TraceBundle,
        mode: Option<OverlapMode>,
    ) -> Result<Arc<TraceSet>, LabError> {
        // A bundle this session built is identified by its descriptor
        // digest. A foreign bundle's original is keyed by its records; its
        // overlapped variants also depend on the message metadata and the
        // chunking policy, which no key covers, so they are not kept.
        let key = match (self.bundle_digest(bundle), mode) {
            (Some(digest), _) => variant_key(digest, mode),
            (None, None) => variant_key(bundle.original().fingerprint(), None),
            (None, Some(_)) => return DirectPipeline.variant(bundle, mode),
        };
        self.store.trace_with(
            key,
            || self.disk.as_ref().and_then(|d| d.load_trace(key)),
            || {
                let built = match mode {
                    None => bundle.original().clone(),
                    Some(mode) => bundle.overlapped(mode)?,
                };
                if let Some(disk) = &self.disk {
                    disk.store_trace(key, &built);
                }
                Ok(built)
            },
        )
    }

    fn load_variant(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
        mode: Option<OverlapMode>,
    ) -> Option<Arc<TraceSet>> {
        let key = variant_key(bundle_key(app, class, overrides), mode);
        self.store
            .load_trace(key, || self.disk.as_ref().and_then(|d| d.load_trace(key)))
    }

    fn variant_program(
        &self,
        bundle: &TraceBundle,
        mode: OverlapMode,
    ) -> Result<Arc<CompiledTrace>, LabError> {
        // Keyed like `variant`: a foreign bundle's program is not kept.
        let Some(digest) = self.bundle_digest(bundle) else {
            return DirectPipeline.variant_program(bundle, mode);
        };
        self.program_at(variant_program_key(digest, mode), || {
            Ok(bundle.overlapped_program(mode)?)
        })
    }

    fn load_variant_program(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
        mode: OverlapMode,
    ) -> Option<Arc<CompiledTrace>> {
        let key = variant_program_key(bundle_key(app, class, overrides), mode);
        self.store
            .load_program(key, || self.disk.as_ref().and_then(|d| d.load_program(key)))
    }

    fn index(&self, trace: &Arc<TraceSet>) -> Result<Arc<TraceIndex>, LabError> {
        self.store
            .index(derived_key("artifact:index", self.trace_key(trace)), || {
                build_index(trace)
            })
    }

    fn compiled(
        &self,
        trace: &Arc<TraceSet>,
        index: &Arc<TraceIndex>,
    ) -> Result<Arc<CompiledTrace>, LabError> {
        let key = derived_key("artifact:compiled", self.trace_key(trace));
        self.program_at(key, || Ok(CompiledTrace::compile(trace, index)?))
    }

    fn compiled_standalone(&self, trace: &Arc<TraceSet>) -> Result<Arc<CompiledTrace>, LabError> {
        let key = derived_key("artifact:compiled", self.trace_key(trace));
        if let Some(prog) = self
            .store
            .load_program(key, || self.disk.as_ref().and_then(|d| d.load_program(key)))
        {
            return Ok(prog);
        }
        // Cold path: validate + compile through the caches (which also
        // writes the program through to disk).
        let index = self.index(trace)?;
        self.compiled(trace, &index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{PerturbSpec, PlatformSpec};
    use ovlsim_core::{Instr, MipsRate, RankTrace, Record};

    fn trace(instr: u64) -> Arc<TraceSet> {
        Arc::new(TraceSet::new(
            format!("t{instr}"),
            MipsRate::new(100).unwrap(),
            vec![RankTrace::from_records(vec![Record::Burst {
                instr: Instr::new(instr),
            }])],
        ))
    }

    #[test]
    fn trace_keys_are_fingerprints_memoized_once_per_address() {
        let session = Session::with_threads(4);
        let shared = [trace(1), trace(2)];
        let distinct: Vec<[Arc<TraceSet>; 2]> = (0..4).map(|t| [trace(10 + t), trace(1)]).collect();
        std::thread::scope(|scope| {
            for own in &distinct {
                let (session, shared) = (&session, &shared);
                scope.spawn(move || {
                    for _ in 0..50 {
                        for t in shared.iter().chain(own) {
                            assert_eq!(session.trace_key(t), t.fingerprint());
                        }
                    }
                });
            }
        });
        let memo = lock(&session.trace_keys);
        assert_eq!(memo.len(), shared.len() + 2 * distinct.len());
        for t in shared.iter().chain(distinct.iter().flatten()) {
            let (pinned, digest) = &memo[&(Arc::as_ptr(t) as usize)];
            assert!(Arc::ptr_eq(pinned, t));
            assert_eq!(*digest, t.fingerprint());
        }
    }

    #[test]
    fn analyzing_a_stored_source_builds_no_program() {
        let session = Session::with_threads(1);
        let source = TraceSource::Generated {
            app: "sweep3d".into(),
            class: ProblemClass::S,
            ranks: Some(4),
            iterations: Some(1),
            mode: None,
        };
        let analyze = AnalyzeRequest {
            source: source.clone(),
            platform: PlatformSpec::default(),
            perturb: PerturbSpec::default(),
        };
        session
            .replay(&ReplayRequest {
                source: source.clone(),
                platform: PlatformSpec::default(),
                perturb: PerturbSpec::default(),
                engine: ovlsim_lab::Engine::Compiled,
            })
            .unwrap();
        let stored = session.stats().programs;
        assert_eq!(stored.builds, 1);
        let (attribution, recorder) = session.analyze(&analyze).unwrap();
        let after = session.stats().programs;
        assert_eq!(after.builds, stored.builds, "analyze compiled a program");
        assert_eq!(after.hits, stored.hits + 1);

        // The same analysis as one that compiles its own program.
        let trace = session.trace(&source).unwrap();
        let index = build_index(&trace).unwrap();
        let platform = PlatformSpec::default().build().unwrap();
        let fresh = Attribution::analyze_with_recorder(&platform, &trace, &index).unwrap();
        assert_eq!(attribution, fresh.0);
        for r in 0..trace.rank_count() {
            assert_eq!(recorder.intervals(r), fresh.1.intervals(r));
        }
    }
}
