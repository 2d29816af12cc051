//! Compact request tracking for the replay hot path.
//!
//! A rank rarely has more than a handful of outstanding non-blocking
//! requests, so the `BTreeMap<u32, ReqState>` / `BTreeSet<u32>` pair the
//! original engine used paid pointer-chasing tree costs for what is almost
//! always a few words of data. Compiled programs resolve request ids to
//! dense per-rank slots of [`ReqState`], and a [`ReqGroup`] keeps up to
//! [`REQ_INLINE`] unsatisfied slots of a wait-set inline on the stack
//! before spilling to a heap vector — a `WaitAll` over a typical chunk
//! fan-out allocates nothing.

use ovlsim_core::Time;

/// State of one outstanding non-blocking request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqState {
    /// Posted, not yet completed.
    InFlight,
    /// Completed at the recorded time by the recorded transfer (the
    /// engine's transfer-table index, kept so wait intervals can be
    /// attributed to the last-completing request's channel).
    Done {
        /// Completion time.
        at: Time,
        /// Index of the completing transfer in the engine's table.
        tid: usize,
    },
}

/// How many request ids a [`ReqGroup`] holds before spilling to the heap.
pub(crate) const REQ_INLINE: usize = 8;

/// The unsatisfied remainder of a wait-set, stored inline when small.
///
/// Equality is derived (order- and representation-sensitive); it is only
/// used by debug assertions that never compare two `Reqs` blockers, so set
/// semantics are not required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReqGroup {
    /// Up to [`REQ_INLINE`] ids on the stack; slots `len..` are zero.
    Inline { len: u8, buf: [u32; REQ_INLINE] },
    /// Spilled: an unordered heap vector.
    Heap(Vec<u32>),
}

impl ReqGroup {
    pub(crate) fn new() -> Self {
        ReqGroup::Inline {
            len: 0,
            buf: [0; REQ_INLINE],
        }
    }

    pub(crate) fn push(&mut self, req: u32) {
        match self {
            ReqGroup::Inline { len, buf } => {
                if (*len as usize) < REQ_INLINE {
                    buf[*len as usize] = req;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(req);
                    *self = ReqGroup::Heap(v);
                }
            }
            ReqGroup::Heap(v) => v.push(req),
        }
    }

    pub(crate) fn contains(&self, req: u32) -> bool {
        self.as_slice().contains(&req)
    }

    /// Removes one occurrence of `req`; returns whether it was present.
    pub(crate) fn remove(&mut self, req: u32) -> bool {
        match self {
            ReqGroup::Inline { len, buf } => {
                let n = *len as usize;
                match buf[..n].iter().position(|&id| id == req) {
                    Some(pos) => {
                        buf[pos] = buf[n - 1];
                        buf[n - 1] = 0; // keep vacated slots zeroed
                        *len -= 1;
                        true
                    }
                    None => false,
                }
            }
            ReqGroup::Heap(v) => match v.iter().position(|&id| id == req) {
                Some(pos) => {
                    v.swap_remove(pos);
                    true
                }
                None => false,
            },
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            ReqGroup::Inline { len, .. } => *len as usize,
            ReqGroup::Heap(v) => v.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            ReqGroup::Inline { len, buf } => &buf[..*len as usize],
            ReqGroup::Heap(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_stays_inline_up_to_limit() {
        let mut g = ReqGroup::new();
        for i in 0..REQ_INLINE as u32 {
            g.push(i);
        }
        assert!(matches!(g, ReqGroup::Inline { .. }));
        assert_eq!(g.len(), REQ_INLINE);
        g.push(99);
        assert!(matches!(g, ReqGroup::Heap(_)));
        assert_eq!(g.len(), REQ_INLINE + 1);
        assert!(g.contains(99));
        assert!(g.contains(0));
    }

    #[test]
    fn group_remove_tracks_membership() {
        let mut g = ReqGroup::new();
        for i in [5u32, 9, 12] {
            g.push(i);
        }
        assert!(g.remove(9));
        assert!(!g.remove(9));
        assert!(!g.contains(9));
        assert!(g.contains(5) && g.contains(12));
        assert!(g.remove(5));
        assert!(g.remove(12));
        assert!(g.is_empty());
    }

    #[test]
    fn spilled_group_removes() {
        let mut g = ReqGroup::new();
        for i in 0..20u32 {
            g.push(i);
        }
        for i in (0..20u32).rev() {
            assert!(g.remove(i), "missing {i}");
        }
        assert!(g.is_empty());
    }
}
