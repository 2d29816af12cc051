//! The content-addressed artifact store.
//!
//! Four shelves — trace bundles, trace variants, channel indexes, and
//! compiled replay programs — each mapping a stable content [`Digest`] to
//! a shared artifact. A shelf guarantees *once semantics per key*: the
//! first requester builds, every concurrent or later requester for the
//! same key blocks on (or finds) the finished artifact. That is what
//! makes `compiles == 1` observable when a server fans a thousand sweep
//! points over one trace.
//!
//! Hit/build counters are exposed through [`CacheStats`]; `compiles` in
//! particular is asserted by the serve integration tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ovlsim_core::{CompiledTrace, Digest, TraceIndex, TraceSet};
use ovlsim_tracer::TraceBundle;

/// Locks a mutex, recovering from poisoning: an artifact build that
/// panicked leaves its slot empty, so the next requester simply rebuilds.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A shareable per-key slot: `None` until the first builder fills it.
type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

/// One artifact family: digest-keyed slots with once-per-key building.
struct Shelf<T> {
    slots: Mutex<HashMap<Digest, Slot<T>>>,
    hits: AtomicU64,
    loads: AtomicU64,
    builds: AtomicU64,
}

impl<T> Default for Shelf<T> {
    fn default() -> Self {
        Shelf {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }
}

impl<T> Shelf<T> {
    /// Returns the artifact for `key`, physically building it at most
    /// once: an empty slot first consults `load` (a persistent backend;
    /// counted as a *load*, not a build) and only builds on a storage
    /// miss. The outer map lock is held only to find/insert the slot;
    /// load and build run under the slot's own lock, so concurrent
    /// requests for *different* keys proceed in parallel while requests
    /// for the *same* key serialize on one fill.
    fn get_or_build<E>(
        &self,
        key: Digest,
        load: impl FnOnce() -> Option<T>,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let slot = lock(&self.slots).entry(key).or_default().clone();
        let mut filled = lock(&slot);
        if let Some(artifact) = filled.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(artifact));
        }
        if let Some(loaded) = load() {
            let artifact = Arc::new(loaded);
            self.loads.fetch_add(1, Ordering::Relaxed);
            *filled = Some(Arc::clone(&artifact));
            return Ok(artifact);
        }
        // A failed build leaves the slot empty: the error propagates to
        // this requester and the next one retries.
        let artifact = Arc::new(build()?);
        self.builds.fetch_add(1, Ordering::Relaxed);
        *filled = Some(Arc::clone(&artifact));
        Ok(artifact)
    }

    /// Returns the artifact for `key` if it is in memory or `load` can
    /// supply it, without ever building. Used by pipeline load hooks to
    /// answer "can this be served without rebuilding?".
    fn get_or_load(&self, key: Digest, load: impl FnOnce() -> Option<T>) -> Option<Arc<T>> {
        let slot = lock(&self.slots).entry(key).or_default().clone();
        let mut filled = lock(&slot);
        if let Some(artifact) = filled.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(artifact));
        }
        let artifact = Arc::new(load()?);
        self.loads.fetch_add(1, Ordering::Relaxed);
        *filled = Some(Arc::clone(&artifact));
        Some(artifact)
    }

    fn counters(&self) -> ShelfStats {
        ShelfStats {
            hits: self.hits.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }
}

/// Hit/load/build counters of one shelf at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShelfStats {
    /// Requests served from an already-built in-memory artifact.
    pub hits: u64,
    /// Artifacts served from persistent storage (no rebuild).
    pub loads: u64,
    /// Artifacts physically built (cache misses that succeeded).
    pub builds: u64,
}

/// A point-in-time snapshot of every shelf's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Trace bundles (one per traced `app × class × overrides`).
    pub bundles: ShelfStats,
    /// Trace variants (original or overlap-transformed record streams).
    pub traces: ShelfStats,
    /// Channel indexes.
    pub indexes: ShelfStats,
    /// Compiled replay programs.
    pub programs: ShelfStats,
}

impl CacheStats {
    /// Number of trace compilations actually performed — the number the
    /// compile-once tests assert on.
    pub fn compiles(&self) -> u64 {
        self.programs.builds
    }

    /// Renders the stats as a deterministic JSON object (used verbatim in
    /// the serve `/status` response).
    pub fn to_json(&self) -> String {
        let shelf = |s: &ShelfStats| {
            format!(
                "{{\"hits\":{},\"loads\":{},\"builds\":{}}}",
                s.hits, s.loads, s.builds
            )
        };
        format!(
            "{{\"bundles\":{},\"traces\":{},\"indexes\":{},\"programs\":{},\"compiles\":{}}}",
            shelf(&self.bundles),
            shelf(&self.traces),
            shelf(&self.indexes),
            shelf(&self.programs),
            self.compiles()
        )
    }
}

/// The content-addressed artifact store backing a
/// [`Session`](crate::Session).
#[derive(Default)]
pub struct ArtifactStore {
    bundles: Shelf<TraceBundle>,
    traces: Shelf<TraceSet>,
    indexes: Shelf<TraceIndex>,
    programs: Shelf<CompiledTrace>,
}

impl ArtifactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace bundle for `key`, building it at most once.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (the slot stays empty).
    pub fn bundle<E>(
        &self,
        key: Digest,
        build: impl FnOnce() -> Result<TraceBundle, E>,
    ) -> Result<Arc<TraceBundle>, E> {
        self.bundles.get_or_build(key, || None, build)
    }

    /// The trace variant for `key`, building it at most once. An empty
    /// slot asks the persistent-storage hook `load` first (counted as a
    /// load, not a build) and only falls back to `build` on a storage
    /// miss.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (the slot stays empty).
    pub fn trace_with<E>(
        &self,
        key: Digest,
        load: impl FnOnce() -> Option<TraceSet>,
        build: impl FnOnce() -> Result<TraceSet, E>,
    ) -> Result<Arc<TraceSet>, E> {
        self.traces.get_or_build(key, load, build)
    }

    /// The trace variant for `key` if it is in memory or `load` yields
    /// it — never builds.
    pub fn load_trace(
        &self,
        key: Digest,
        load: impl FnOnce() -> Option<TraceSet>,
    ) -> Option<Arc<TraceSet>> {
        self.traces.get_or_load(key, load)
    }

    /// The channel index for `key`, building it at most once.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (the slot stays empty).
    pub fn index<E>(
        &self,
        key: Digest,
        build: impl FnOnce() -> Result<TraceIndex, E>,
    ) -> Result<Arc<TraceIndex>, E> {
        self.indexes.get_or_build(key, || None, build)
    }

    /// The compiled replay program for `key`, building it at most once,
    /// with a persistent-storage load hook (see
    /// [`ArtifactStore::trace_with`]).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (the slot stays empty).
    pub fn program_with<E>(
        &self,
        key: Digest,
        load: impl FnOnce() -> Option<CompiledTrace>,
        build: impl FnOnce() -> Result<CompiledTrace, E>,
    ) -> Result<Arc<CompiledTrace>, E> {
        self.programs.get_or_build(key, load, build)
    }

    /// The compiled program for `key` if it is in memory or `load`
    /// yields it — never builds.
    pub fn load_program(
        &self,
        key: Digest,
        load: impl FnOnce() -> Option<CompiledTrace>,
    ) -> Option<Arc<CompiledTrace>> {
        self.programs.get_or_load(key, load)
    }

    /// A consistent-enough snapshot of all counters (each counter is read
    /// atomically; the set is not a transaction).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bundles: self.bundles.counters(),
            traces: self.traces.counters(),
            indexes: self.indexes.counters(),
            programs: self.programs.counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicUsize;

    fn key(n: u64) -> Digest {
        Digest(n, !n)
    }

    fn tiny_trace(name: &str) -> TraceSet {
        TraceSet::new(
            name,
            ovlsim_core::MipsRate::new(1000).unwrap(),
            vec![ovlsim_core::RankTrace::new()],
        )
    }

    #[test]
    fn second_request_is_a_hit() {
        let store = ArtifactStore::new();
        let built = AtomicUsize::new(0);
        for _ in 0..3 {
            let t = store
                .trace_with::<Infallible>(
                    key(1),
                    || None,
                    || {
                        built.fetch_add(1, Ordering::Relaxed);
                        Ok(tiny_trace("a"))
                    },
                )
                .unwrap();
            assert_eq!(t.name(), "a");
        }
        assert_eq!(built.load(Ordering::Relaxed), 1);
        let stats = store.stats();
        assert_eq!(
            stats.traces,
            ShelfStats {
                hits: 2,
                loads: 0,
                builds: 1
            }
        );
    }

    #[test]
    fn failed_build_is_retried() {
        let store = ArtifactStore::new();
        let r = store.trace_with(key(2), || None, || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        let t = store
            .trace_with::<Infallible>(key(2), || None, || Ok(tiny_trace("b")))
            .unwrap();
        assert_eq!(t.name(), "b");
        assert_eq!(
            store.stats().traces,
            ShelfStats {
                hits: 0,
                loads: 0,
                builds: 1
            }
        );
    }

    #[test]
    fn storage_load_counts_as_load_not_build() {
        let store = ArtifactStore::new();
        let t = store
            .trace_with::<Infallible>(
                key(9),
                || Some(tiny_trace("persisted")),
                || panic!("a storage hit must not build"),
            )
            .unwrap();
        assert_eq!(t.name(), "persisted");
        // Second request is a plain memory hit.
        let again = store.load_trace(key(9), || None).unwrap();
        assert_eq!(again.name(), "persisted");
        assert_eq!(
            store.stats().traces,
            ShelfStats {
                hits: 1,
                loads: 1,
                builds: 0
            }
        );
        // A load miss without a builder stays a miss.
        assert!(store.load_trace(key(10), || None).is_none());
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let store = ArtifactStore::new();
        let built = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    store
                        .trace_with::<Infallible>(
                            key(3),
                            || None,
                            || {
                                built.fetch_add(1, Ordering::Relaxed);
                                // Widen the race window: the slot lock must
                                // still serialize to exactly one build.
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                Ok(tiny_trace("c"))
                            },
                        )
                        .unwrap();
                });
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1);
        let stats = store.stats();
        assert_eq!(stats.traces.builds, 1);
        assert_eq!(stats.traces.hits, 7);
    }

    #[test]
    fn stats_render_deterministic_json() {
        let store = ArtifactStore::new();
        store
            .program_with::<Infallible>(
                key(4),
                || None,
                || Ok(CompiledTrace::build(&tiny_trace("d")).unwrap()),
            )
            .unwrap();
        let json = store.stats().to_json();
        assert!(json.contains("\"programs\":{\"hits\":0,\"loads\":0,\"builds\":1}"));
        assert!(json.ends_with("\"compiles\":1}"));
    }
}
