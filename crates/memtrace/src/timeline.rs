//! Exact per-element instants stored as access-stream runs.
//!
//! A [`Timeline`] maps the elements of one buffer to the instant an access
//! stream touched them without keeping an instant per element. It holds
//! sorted, disjoint element runs, each pointing at the [`Stamps`] of the
//! stream that set it. A sequential or reverse stream stamps its k-th
//! visit in closed form; any other visit order keeps one instant table per
//! stream, shared by every run and snapshot that points at it.

use std::ops::Range;
use std::sync::Arc;

use ovlsim_core::Instr;

use crate::pattern::IndexPattern;

/// `n` visits uniformly spread over `instr` instructions from `start`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spread {
    start: Instr,
    instr: Instr,
    n: u64,
}

impl Spread {
    /// The spread of a stream of `n > 0` visits.
    pub(crate) fn new(start: Instr, instr: Instr, n: usize) -> Spread {
        debug_assert!(n > 0, "a stream visits at least one element");
        Spread {
            start,
            instr,
            n: n as u64,
        }
    }

    /// The instant of visit `k`: `start + (k+1)·instr/n`, exactly.
    pub(crate) fn visit(self, k: usize) -> Instr {
        let offset = (k as u128 + 1) * self.instr.get() as u128 / self.n as u128;
        self.start + Instr::new(offset as u64)
    }
}

/// How one access stream maps an element to its instant.
#[derive(Debug, Clone)]
pub(crate) enum Stamps {
    /// Element `e` is visit `e - first` (a sequential stream).
    Ascending { first: usize, spread: Spread },
    /// Element `e` is visit `last - e` (a reverse stream).
    Descending { last: usize, spread: Spread },
    /// Element `e` is stamped `instants[e - first]` (any other order).
    Table {
        first: usize,
        instants: Arc<[Instr]>,
    },
}

impl Stamps {
    /// The stamps of a stream visiting the non-empty element `range` in
    /// `pattern` order with visits spread as `spread`.
    ///
    /// # Panics
    ///
    /// Panics where [`IndexPattern::order`] does.
    pub(crate) fn stream(pattern: &IndexPattern, range: Range<usize>, spread: Spread) -> Stamps {
        match pattern {
            IndexPattern::Sequential => Stamps::Ascending {
                first: range.start,
                spread,
            },
            IndexPattern::Reverse => Stamps::Descending {
                last: range.end - 1,
                spread,
            },
            _ => {
                let mut instants = vec![Instr::ZERO; range.len()];
                for (k, rel) in pattern.order(range.len()).into_iter().enumerate() {
                    instants[rel] = spread.visit(k);
                }
                Stamps::Table {
                    first: range.start,
                    instants: instants.into(),
                }
            }
        }
    }

    fn at(&self, e: usize) -> Instr {
        match self {
            Stamps::Ascending { first, spread } => spread.visit(e - first),
            Stamps::Descending { last, spread } => spread.visit(last - e),
            Stamps::Table { first, instants } => instants[e - first],
        }
    }

    /// The latest instant over the non-empty elements `lo..hi`.
    fn max(&self, lo: usize, hi: usize) -> Instr {
        match self {
            Stamps::Ascending { .. } => self.at(hi - 1),
            Stamps::Descending { .. } => self.at(lo),
            Stamps::Table { first, instants } => instants[lo - first..hi - first]
                .iter()
                .copied()
                .max()
                .expect("a run holds at least one element"),
        }
    }

    /// The earliest instant over the non-empty elements `lo..hi`.
    fn min(&self, lo: usize, hi: usize) -> Instr {
        match self {
            Stamps::Ascending { .. } => self.at(lo),
            Stamps::Descending { .. } => self.at(hi - 1),
            Stamps::Table { first, instants } => instants[lo - first..hi - first]
                .iter()
                .copied()
                .min()
                .expect("a run holds at least one element"),
        }
    }
}

/// Elements `lo..hi` take their instants from `stamps`.
#[derive(Debug, Clone)]
struct Run {
    lo: usize,
    hi: usize,
    stamps: Stamps,
}

/// The instants of one buffer's elements; elements outside every run have
/// none. Equality is by value: two timelines are equal when they give every
/// element the same instant, however their runs are cut.
#[derive(Debug, Clone, Default)]
pub(crate) struct Timeline {
    runs: Vec<Run>,
}

impl Timeline {
    /// A timeline holding the given per-element instants.
    pub(crate) fn from_instants(instants: &[Option<Instr>]) -> Timeline {
        let mut runs = Vec::new();
        let mut lo = 0;
        for stretch in instants.chunk_by(|a, b| a.is_some() == b.is_some()) {
            let hi = lo + stretch.len();
            if stretch[0].is_some() {
                runs.push(Run {
                    lo,
                    hi,
                    stamps: Stamps::Table {
                        first: lo,
                        instants: stretch.iter().flatten().copied().collect(),
                    },
                });
            }
            lo = hi;
        }
        Timeline { runs }
    }

    /// Number of runs (the storage a snapshot clones).
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Gives every element of the non-empty `range` its instant from
    /// `stamps`, replacing whatever it had (a write).
    pub(crate) fn overwrite(&mut self, range: Range<usize>, stamps: Stamps) {
        let (i, j) = self.overlapping(&range);
        let left = (i < j && self.runs[i].lo < range.start).then(|| Run {
            lo: self.runs[i].lo,
            hi: range.start,
            stamps: self.runs[i].stamps.clone(),
        });
        let right = (i < j && self.runs[j - 1].hi > range.end).then(|| Run {
            lo: range.end,
            hi: self.runs[j - 1].hi,
            stamps: self.runs[j - 1].stamps.clone(),
        });
        let mid = Run {
            lo: range.start,
            hi: range.end,
            stamps,
        };
        self.runs
            .splice(i..j, left.into_iter().chain([mid]).chain(right));
    }

    /// Gives the elements of `range` that have no instant yet theirs from
    /// `stamps` (a read: the first read sticks).
    pub(crate) fn fill(&mut self, range: Range<usize>, stamps: Stamps) {
        let (mut at, _) = self.overlapping(&range);
        let mut cursor = range.start;
        while cursor < range.end {
            let gap_end = match self.runs.get(at) {
                Some(run) if run.lo < range.end => run.lo,
                _ => range.end,
            };
            if cursor < gap_end {
                let gap = Run {
                    lo: cursor,
                    hi: gap_end,
                    stamps: stamps.clone(),
                };
                self.runs.insert(at, gap);
                at += 1;
            }
            if gap_end == range.end {
                break;
            }
            cursor = self.runs[at].hi;
            at += 1;
        }
    }

    /// Forgets every instant.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
    }

    /// The instant of element `e`, if it has one.
    pub(crate) fn get(&self, e: usize) -> Option<Instr> {
        let i = self.runs.partition_point(|r| r.hi <= e);
        self.runs
            .get(i)
            .filter(|r| r.lo <= e)
            .map(|r| r.stamps.at(e))
    }

    /// The latest instant over the elements of `range`, if any has one.
    pub(crate) fn max(&self, range: Range<usize>) -> Option<Instr> {
        let (i, j) = self.overlapping(&range);
        self.runs[i..j]
            .iter()
            .map(|r| r.stamps.max(r.lo.max(range.start), r.hi.min(range.end)))
            .max()
    }

    /// The earliest instant over the elements of `range`, if any has one.
    pub(crate) fn min(&self, range: Range<usize>) -> Option<Instr> {
        let (i, j) = self.overlapping(&range);
        self.runs[i..j]
            .iter()
            .map(|r| r.stamps.min(r.lo.max(range.start), r.hi.min(range.end)))
            .min()
    }

    /// The runs `i..j` that share an element with `range`.
    fn overlapping(&self, range: &Range<usize>) -> (usize, usize) {
        let i = self.runs.partition_point(|r| r.hi <= range.start);
        let j = i + self.runs[i..].partition_point(|r| r.lo < range.end);
        (i, j)
    }

    /// Every element that has an instant, with it, in element order.
    fn instants(&self) -> impl Iterator<Item = (usize, Instr)> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (r.lo..r.hi).map(move |e| (e, r.stamps.at(e))))
    }
}

impl PartialEq for Timeline {
    fn eq(&self, other: &Timeline) -> bool {
        self.instants().eq(other.instants())
    }
}

impl Eq for Timeline {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(range: Range<usize>, start: u64, instr: u64) -> Stamps {
        let spread = Spread::new(Instr::new(start), Instr::new(instr), range.len());
        Stamps::stream(&IndexPattern::Sequential, range, spread)
    }

    fn values(t: &Timeline, n: usize) -> Vec<Option<u64>> {
        (0..n).map(|e| t.get(e).map(Instr::get)).collect()
    }

    #[test]
    fn overwrite_splits_the_runs_it_lands_inside() {
        let mut t = Timeline::default();
        t.overwrite(0..4, ascending(0..4, 0, 40));
        t.overwrite(1..3, ascending(1..3, 100, 20));
        assert_eq!(t.run_count(), 3);
        assert_eq!(
            values(&t, 5),
            [Some(10), Some(110), Some(120), Some(40), None]
        );
        assert_eq!(t.max(0..4), Some(Instr::new(120)));
        assert_eq!(t.min(1..4), Some(Instr::new(40)));
        assert_eq!(t.max(4..5), None);
    }

    #[test]
    fn fill_takes_only_the_gaps() {
        let mut t = Timeline::default();
        t.fill(2..3, ascending(2..3, 0, 5));
        t.fill(0..5, ascending(0..5, 10, 50));
        assert_eq!(t.run_count(), 3);
        assert_eq!(
            values(&t, 5),
            [Some(20), Some(30), Some(5), Some(50), Some(60)]
        );
        t.fill(0..5, ascending(0..5, 100, 5));
        assert_eq!(t.run_count(), 3, "a covered range adds no runs");
        t.clear();
        assert_eq!(values(&t, 2), [None, None]);
    }

    #[test]
    fn equality_is_by_value_not_by_runs() {
        let mut runs = Timeline::default();
        runs.overwrite(0..4, ascending(0..4, 0, 40));
        runs.overwrite(2..4, ascending(2..4, 20, 20));
        let table = Timeline::from_instants(&[10, 20, 30, 40].map(|t| Some(Instr::new(t))));
        assert_eq!(runs.run_count(), 2);
        assert_eq!(table.run_count(), 1);
        assert_eq!(runs, table);
        let mut later = runs.clone();
        later.overwrite(3..4, ascending(3..4, 40, 1));
        assert_ne!(later, table, "same elements, one later instant");
        let gap = Timeline::from_instants(&[Some(Instr::new(10)), None]);
        assert_ne!(gap, table);
        assert_eq!(gap.run_count(), 1);
    }
}
