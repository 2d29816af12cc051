//! Production and consumption profiles.
//!
//! A *production profile* snapshots, for every element of a send buffer,
//! the instruction instant at which it was last written before the send —
//! i.e. when that element's final value was *produced*. A *consumption
//! profile* records for every element of a receive buffer the instant of
//! its first read after the receive — when the data is first *needed*.
//! The overlap transform queries these at chunk granularity: a chunk can be
//! sent once its latest-produced element is ready, and must have arrived by
//! the time its earliest-consumed element is read.
//!
//! A snapshot stores the recorder's access-stream runs rather than one
//! instant per element, so taking one costs the number of runs, and a
//! chunk query costs one step per run it overlaps (a scan of the table's
//! slice for strided, shuffled and explicit streams).

use std::ops::Range;

use ovlsim_core::Instr;

use crate::timeline::Timeline;

/// The instants of a buffer of `elements` elements of `elem_bytes` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Instants {
    elem_bytes: u32,
    elements: usize,
    timeline: Timeline,
}

impl Instants {
    fn new(elem_bytes: u32, timestamps: Vec<Option<Instr>>) -> Self {
        assert!(elem_bytes > 0, "element size must be positive");
        Instants {
            elem_bytes,
            elements: timestamps.len(),
            timeline: Timeline::from_instants(&timestamps),
        }
    }

    fn byte_len(&self) -> u64 {
        self.elements as u64 * self.elem_bytes as u64
    }

    /// The elements the byte range `[start, end)` touches.
    fn element_span(&self, byte_range: Range<u64>) -> Range<usize> {
        assert!(
            byte_range.start < byte_range.end,
            "byte range must be non-empty"
        );
        assert!(
            byte_range.end <= self.byte_len(),
            "byte range {}..{} exceeds buffer of {} bytes",
            byte_range.start,
            byte_range.end,
            self.byte_len()
        );
        let lo = (byte_range.start / self.elem_bytes as u64) as usize;
        let hi = byte_range.end.div_ceil(self.elem_bytes as u64) as usize;
        lo..hi
    }
}

/// When each element of a send buffer was last written.
///
/// A snapshot holds the recorder's access-stream runs, not one instant per
/// element; equality compares the instants element by element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductionProfile(Instants);

impl ProductionProfile {
    /// Creates a profile from raw per-element timestamps.
    pub fn new(elem_bytes: u32, timestamps: Vec<Option<Instr>>) -> Self {
        ProductionProfile(Instants::new(elem_bytes, timestamps))
    }

    /// A profile of `elements` elements over a recorded timeline.
    pub(crate) fn from_timeline(elem_bytes: u32, elements: usize, timeline: Timeline) -> Self {
        ProductionProfile(Instants {
            elem_bytes,
            elements,
            timeline,
        })
    }

    /// Number of access-stream runs the snapshot holds.
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.0.timeline.run_count()
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u32 {
        self.0.elem_bytes
    }

    /// Buffer size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.0.byte_len()
    }

    /// Last-write instant of one element (`None` = never written, i.e. the
    /// data pre-existed and is ready from the start).
    pub fn element_timestamp(&self, element: usize) -> Option<Instr> {
        self.0.timeline.get(element)
    }

    /// The instant at which the byte range `[start, end)` is fully
    /// produced: the max last-write instant over its elements, or
    /// `Instr::ZERO` if no element in the range was ever written.
    ///
    /// # Panics
    ///
    /// Panics if the byte range exceeds the buffer or is empty.
    pub fn ready_at(&self, byte_range: Range<u64>) -> Instr {
        let span = self.0.element_span(byte_range);
        self.0.timeline.max(span).unwrap_or(Instr::ZERO)
    }

    /// The instant at which the whole buffer is fully produced.
    pub fn fully_ready_at(&self) -> Instr {
        self.ready_at(0..self.byte_len())
    }

    /// Cumulative readiness: for each of `points` evenly spaced byte
    /// prefixes, the fraction of the interval `[start, end]` by which that
    /// prefix is fully produced: a production CDF
    /// (`examples/pattern_study.rs` prints its quartiles).
    pub fn readiness_cdf(&self, start: Instr, end: Instr, points: usize) -> Vec<f64> {
        assert!(points >= 1, "need at least one point");
        let span = end.get().saturating_sub(start.get()).max(1);
        (1..=points)
            .map(|i| {
                let bytes = self.byte_len() * i as u64 / points as u64;
                if bytes == 0 {
                    return 0.0;
                }
                let t = self.ready_at(0..bytes);
                let rel = t.get().saturating_sub(start.get());
                (rel as f64 / span as f64).min(1.0)
            })
            .collect()
    }
}

/// When each element of a receive buffer was first read.
///
/// A snapshot holds the recorder's access-stream runs, not one instant per
/// element; equality compares the instants element by element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumptionProfile(Instants);

impl ConsumptionProfile {
    /// Creates a profile from raw per-element timestamps.
    pub fn new(elem_bytes: u32, timestamps: Vec<Option<Instr>>) -> Self {
        ConsumptionProfile(Instants::new(elem_bytes, timestamps))
    }

    /// A profile of `elements` elements over a recorded timeline.
    pub(crate) fn from_timeline(elem_bytes: u32, elements: usize, timeline: Timeline) -> Self {
        ConsumptionProfile(Instants {
            elem_bytes,
            elements,
            timeline,
        })
    }

    /// Number of access-stream runs the snapshot holds.
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.0.timeline.run_count()
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u32 {
        self.0.elem_bytes
    }

    /// Buffer size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.0.byte_len()
    }

    /// First-read instant of one element (`None` = never read).
    pub fn element_timestamp(&self, element: usize) -> Option<Instr> {
        self.0.timeline.get(element)
    }

    /// The instant at which the byte range `[start, end)` is first needed:
    /// the min first-read instant over its elements, or `None` if the range
    /// is never read (its wait can be deferred arbitrarily).
    ///
    /// # Panics
    ///
    /// Panics if the byte range exceeds the buffer or is empty.
    pub fn needed_at(&self, byte_range: Range<u64>) -> Option<Instr> {
        let span = self.0.element_span(byte_range);
        self.0.timeline.min(span)
    }

    /// The earliest instant any element of the buffer is read.
    pub fn first_needed_at(&self) -> Option<Instr> {
        self.needed_at(0..self.byte_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[u64]) -> Vec<Option<Instr>> {
        v.iter().map(|&x| Some(Instr::new(x))).collect()
    }

    #[test]
    fn production_ready_at_is_max_over_range() {
        let p = ProductionProfile::new(4, ts(&[10, 40, 20, 30]));
        // Elements are 4 bytes each.
        assert_eq!(p.ready_at(0..4), Instr::new(10));
        assert_eq!(p.ready_at(0..8), Instr::new(40));
        assert_eq!(p.ready_at(8..16), Instr::new(30));
        assert_eq!(p.fully_ready_at(), Instr::new(40));
        assert_eq!(p.byte_len(), 16);
    }

    #[test]
    fn production_partial_element_rounds_out() {
        let p = ProductionProfile::new(4, ts(&[10, 40]));
        // Bytes 0..5 touch element 1, so readiness includes it.
        assert_eq!(p.ready_at(0..5), Instr::new(40));
        // Bytes 2..4 lie within element 0.
        assert_eq!(p.ready_at(2..4), Instr::new(10));
    }

    #[test]
    fn never_written_is_ready_from_start() {
        let p = ProductionProfile::new(4, vec![None, Some(Instr::new(9))]);
        assert_eq!(p.ready_at(0..4), Instr::ZERO);
        assert_eq!(p.ready_at(0..8), Instr::new(9));
        assert_eq!(p.element_timestamp(0), None);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn out_of_range_query_panics() {
        let p = ProductionProfile::new(4, ts(&[1]));
        p.ready_at(0..5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        let p = ProductionProfile::new(4, ts(&[1]));
        p.ready_at(2..2);
    }

    #[test]
    fn consumption_needed_at_is_min_over_range() {
        let c = ConsumptionProfile::new(8, ts(&[100, 50, 70]));
        assert_eq!(c.needed_at(0..8), Some(Instr::new(100)));
        assert_eq!(c.needed_at(0..24), Some(Instr::new(50)));
        assert_eq!(c.first_needed_at(), Some(Instr::new(50)));
    }

    #[test]
    fn never_read_range_is_none() {
        let c = ConsumptionProfile::new(8, vec![None, None, Some(Instr::new(5))]);
        assert_eq!(c.needed_at(0..16), None);
        assert_eq!(c.needed_at(0..24), Some(Instr::new(5)));
    }

    #[test]
    fn readiness_cdf_sequential() {
        // 4 elements produced at 25/50/75/100 over interval [0,100]:
        // sequential production gives a linear CDF.
        let p = ProductionProfile::new(1, ts(&[25, 50, 75, 100]));
        let cdf = p.readiness_cdf(Instr::ZERO, Instr::new(100), 4);
        assert_eq!(cdf, vec![0.25, 0.50, 0.75, 1.00]);
    }

    #[test]
    fn readiness_cdf_packed_tail() {
        // All elements produced at the very end: CDF pinned near 1.
        let p = ProductionProfile::new(1, ts(&[99, 99, 100, 100]));
        let cdf = p.readiness_cdf(Instr::ZERO, Instr::new(100), 2);
        assert!(cdf.iter().all(|&f| f >= 0.99));
    }

    #[test]
    fn readiness_cdf_clamps_outside_interval() {
        let p = ProductionProfile::new(1, ts(&[500]));
        let cdf = p.readiness_cdf(Instr::ZERO, Instr::new(100), 1);
        assert_eq!(cdf, vec![1.0]);
    }
}
