//! The persistent artifact cache: digest-named `.ovlb` files under a
//! user-chosen `--cache-dir`.
//!
//! Layout is flat and self-describing: a trace variant with cache key
//! `d` lives at `trace-<d>.ovlb`, a compiled program at `prog-<d>.ovlb`
//! (32 lowercase hex digits each). Writes are atomic — the encoder's
//! bytes go to a `.tmp` sibling first, then a same-directory rename
//! publishes the entry, so a crash mid-write never leaves a partial file
//! under a live name. Loads re-verify the full `.ovlb` envelope
//! (version, section checksums, structural validation); an entry that
//! fails *any* check is quarantined — renamed to `<name>.quarantined` —
//! and reported as a miss, so the caller transparently rebuilds and the
//! next store replaces the entry. Corruption therefore costs one rebuild,
//! never a wrong answer and never a panic.
//!
//! All I/O is best-effort: a cache that cannot be read or written
//! degrades to building from scratch (with a warning on stderr), because
//! persistence is an optimization, not a correctness requirement.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ovlsim_core::codec::{
    decode_compiled_trace, decode_trace_set, encode_compiled_trace, encode_trace_set, EXTENSION,
};
use ovlsim_core::{CompiledTrace, Digest, TraceSet};

/// A directory of integrity-checked `.ovlb` artifacts.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    loads: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
}

/// Counters for one [`DiskCache`]: entries served, entries written, and
/// corrupt entries quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Artifacts successfully loaded (and verified) from disk.
    pub loads: u64,
    /// Artifacts written to disk.
    pub stores: u64,
    /// Corrupt or unreadable entries moved aside to `*.quarantined`.
    pub quarantined: u64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskCache {
            root,
            loads: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the load/store/quarantine counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    fn entry(&self, prefix: &str, key: Digest) -> PathBuf {
        self.root.join(format!("{prefix}-{key}.{EXTENSION}"))
    }

    /// The trace variant stored under `key`, if a verified entry exists.
    pub fn load_trace(&self, key: Digest) -> Option<TraceSet> {
        self.load(self.entry("trace", key), decode_trace_set)
    }

    /// The compiled program stored under `key`, if a verified entry
    /// exists.
    pub fn load_program(&self, key: Digest) -> Option<CompiledTrace> {
        self.load(self.entry("prog", key), decode_compiled_trace)
    }

    /// Persists a trace variant under `key` (atomic, best-effort).
    pub fn store_trace(&self, key: Digest, trace: &TraceSet) {
        self.store(self.entry("trace", key), encode_trace_set(trace));
    }

    /// Persists a compiled program under `key` (atomic, best-effort).
    pub fn store_program(&self, key: Digest, prog: &CompiledTrace) {
        self.store(self.entry("prog", key), encode_compiled_trace(prog));
    }

    fn load<T>(
        &self,
        path: PathBuf,
        decode: impl FnOnce(&[u8]) -> Result<T, ovlsim_core::codec::DecodeError>,
    ) -> Option<T> {
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!("warning: cache read {}: {e}", path.display());
                return None;
            }
        };
        match decode(&bytes) {
            Ok(value) => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Err(e) => {
                self.quarantine(&path, &e);
                None
            }
        }
    }

    fn store(&self, path: PathBuf, bytes: Vec<u8>) {
        // Same-directory temp + rename: the rename is atomic, so readers
        // only ever observe absent or complete entries. The temp name is
        // keyed like the entry, so concurrent writers of the same
        // artifact race benignly (both write identical bytes).
        let tmp = path.with_extension("tmp");
        let publish = fs::write(&tmp, &bytes).and_then(|()| fs::rename(&tmp, &path));
        match publish {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!("warning: cache write {}: {e}", path.display());
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// Moves a failed entry aside so it is never consulted again but
    /// stays available for post-mortems.
    fn quarantine(&self, path: &Path, reason: &dyn std::fmt::Display) {
        let mut target = path.as_os_str().to_os_string();
        target.push(".quarantined");
        match fs::rename(path, &target) {
            Ok(()) => eprintln!(
                "warning: quarantined corrupt cache entry {} ({reason})",
                path.display()
            ),
            // Losing the race to another quarantining thread (or the file
            // vanishing) still counts: the entry is gone either way.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!(
                    "warning: could not quarantine {} ({reason}): {e}; removing",
                    path.display()
                );
                let _ = fs::remove_file(path);
            }
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_core::{MipsRate, RankTrace, Record};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ovlsim-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_trace() -> TraceSet {
        TraceSet::new(
            "disk-test",
            MipsRate::new(500).unwrap(),
            vec![RankTrace::from_records(vec![
                Record::Burst {
                    instr: ovlsim_core::Instr::new(10),
                },
                Record::Barrier,
            ])],
        )
    }

    #[test]
    fn round_trips_both_artifact_kinds() {
        let dir = tmpdir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let key = Digest(7, 9);
        assert!(cache.load_trace(key).is_none());

        let trace = sample_trace();
        cache.store_trace(key, &trace);
        assert_eq!(cache.load_trace(key).unwrap(), trace);

        let prog = CompiledTrace::build(&trace).unwrap();
        cache.store_program(key, &prog);
        assert_eq!(cache.load_program(key).unwrap(), prog);

        assert_eq!(
            cache.stats(),
            DiskStats {
                loads: 2,
                stores: 2,
                quarantined: 0
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let dir = tmpdir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let key = Digest(1, 2);
        cache.store_trace(key, &sample_trace());

        let path = cache.entry("trace", key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert!(cache.load_trace(key).is_none());
        assert!(!path.exists());
        let quarantined: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".quarantined"))
            .collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(cache.stats().quarantined, 1);

        // The slot is a plain miss now; a rebuild re-stores cleanly.
        cache.store_trace(key, &sample_trace());
        assert!(cache.load_trace(key).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entries_are_quarantined() {
        let dir = tmpdir("truncate");
        let cache = DiskCache::open(&dir).unwrap();
        let key = Digest(3, 4);
        cache.store_trace(key, &sample_trace());
        let path = cache.entry("trace", key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(cache.load_trace(key).is_none());
        assert_eq!(cache.stats().quarantined, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_artifact_kind_is_rejected() {
        let dir = tmpdir("kind");
        let cache = DiskCache::open(&dir).unwrap();
        let key = Digest(5, 6);
        // A trace written where a program is expected must not decode.
        let trace = sample_trace();
        fs::write(cache.entry("prog", key), encode_trace_set(&trace)).unwrap();
        assert!(cache.load_program(key).is_none());
        assert_eq!(cache.stats().quarantined, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
