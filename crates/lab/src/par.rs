//! Deterministic fan-out of independent experiment work across threads.
//!
//! Every sweep point and every campaign grid point replays immutable
//! programs on its own `Simulator`, so they can run on any thread in any
//! order — only the *collection order* of results matters for
//! determinism. [`par_map_with`] preserves it: results come back indexed
//! by input position, so the output is byte-identical to the sequential
//! path no matter how the OS schedules the workers.
//!
//! A campaign run uses the pool twice: once over its app×class pairs,
//! each of which traces, synthesizes and compiles its own groups, and
//! then over its grid points, each of which replays.
//!
//! Controls:
//!
//! * `OVLSIM_THREADS=n` caps the worker count at runtime (`1` forces
//!   sequential execution — handy for scaling measurements),
//! * nested calls run sequentially (a per-thread guard), so an app-level
//!   fan-out containing per-point sweeps does not oversubscribe the
//!   machine with threads² workers.

use std::cell::Cell;

use crate::error::LabError;

thread_local! {
    /// Set inside worker threads: nested `par_map_with` calls run inline
    /// instead of spawning threads-of-threads.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Worker count for the next top-level fan-out: `OVLSIM_THREADS` if
/// set to a positive integer, else the machine's available parallelism.
///
/// # Errors
///
/// Returns [`LabError::InvalidThreadConfig`] when `OVLSIM_THREADS` is set
/// but is not a positive integer. The user explicitly asked for a worker
/// count; running with some *other* count (or serializing the whole run)
/// would silently invalidate whatever scaling measurement they were
/// after, so the misconfiguration surfaces as a hard error instead of a
/// fallback.
pub fn configured_threads() -> Result<usize, LabError> {
    let available = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("OVLSIM_THREADS") {
        Ok(v) => parse_threads(&v),
        Err(std::env::VarError::NotPresent) => Ok(available()),
        Err(std::env::VarError::NotUnicode(v)) => Err(LabError::InvalidThreadConfig {
            value: v.to_string_lossy().into_owned(),
        }),
    }
}

/// Parses an explicit `OVLSIM_THREADS` setting (split out so tests can
/// exercise the policy without racing on the process environment).
fn parse_threads(v: &str) -> Result<usize, LabError> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(LabError::InvalidThreadConfig {
            value: v.to_string(),
        }),
    }
}

/// Maps `f` over `items` on up to `threads` scoped threads, returning
/// results in input order. Runs sequentially when `threads` is 1 or when
/// called from inside another fan-out. Panics in `f` propagate to the
/// caller.
pub(crate) fn par_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 || IN_PARALLEL.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    // Work-stealing by atomic cursor: threads grab the next unclaimed
    // index, so an expensive item (low bandwidth → long replay) does not
    // leave the other workers idle behind a static partition.
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_PARALLEL.with(|c| c.set(true));
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(part) => collected.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_with(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_counts_agree() {
        let items: Vec<u64> = (0..37).collect();
        let seq = par_map_with(&items, 1, |&x| x * x + 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(par_map_with(&items, threads, |&x| x * x + 1), seq);
        }
    }

    #[test]
    fn nested_calls_run_inline() {
        let outer: Vec<u64> = (0..4).collect();
        let out = par_map_with(&outer, 4, |&x| {
            let inner: Vec<u64> = (0..8).collect();
            par_map_with(&inner, 4, move |&y| x * 100 + y)
        });
        for (x, row) in out.iter().enumerate() {
            assert_eq!(row.len(), 8);
            assert_eq!(row[3], x as u64 * 100 + 3);
        }
    }

    #[test]
    fn explicit_thread_counts_parse() {
        assert!(matches!(parse_threads("1"), Ok(1)));
        assert!(matches!(parse_threads(" 8 "), Ok(8)));
        for bad in ["", "0", "-2", "two", "3.5", "4threads"] {
            match parse_threads(bad) {
                Err(LabError::InvalidThreadConfig { value }) => assert_eq!(value, bad),
                other => panic!("OVLSIM_THREADS={bad:?} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = par_map_with(&[] as &[u64], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u64> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_with(&items, 4, |&x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
