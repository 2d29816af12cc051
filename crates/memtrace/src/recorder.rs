//! The virtual instrumentation recorder.

use std::error::Error;
use std::fmt;

use ovlsim_core::{BufferId, Instr};

use crate::kernel::{AccessKind, Kernel};
use crate::profile::{ConsumptionProfile, ProductionProfile};
use crate::timeline::{Spread, Stamps, Timeline};

/// Errors produced by the [`MemTracer`] recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecorderError {
    /// An operation referenced a buffer id that was never registered with
    /// this recorder (e.g. a handle from a different [`MemTracer`]).
    UnregisteredBuffer {
        /// The offending buffer id.
        buf: BufferId,
    },
}

impl fmt::Display for RecorderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecorderError::UnregisteredBuffer { buf } => {
                write!(f, "{buf} was not registered with this recorder")
            }
        }
    }
}

impl Error for RecorderError {}

/// Metadata for a registered communication buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferInfo {
    name: String,
    bytes: u64,
    elem_bytes: u32,
}

impl BufferInfo {
    /// Human-readable buffer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u32 {
        self.elem_bytes
    }

    /// Number of elements.
    pub fn elements(&self) -> usize {
        (self.bytes / self.elem_bytes as u64) as usize
    }
}

/// Handle for a pending "first write after this instant" observation.
///
/// The tracing tool arms a watch on a send buffer right after a send; the
/// first subsequent write marks where the buffer is reused, which is where
/// the overlap transform must wait for the chunked sends to complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteWatch(usize);

#[derive(Debug)]
struct BufferState {
    info: BufferInfo,
    last_write: Timeline,
    first_read: Timeline,
    /// Watches on this buffer that no write has tripped yet.
    armed: Vec<WriteWatch>,
}

/// The virtual instruction clock plus per-buffer load/store recording —
/// `ovlsim`'s stand-in for "each process running on its own Valgrind
/// virtual machine".
///
/// # Example
///
/// ```
/// use ovlsim_core::Instr;
/// use ovlsim_memtrace::{AccessKind, IndexPattern, Kernel, MemTracer};
///
/// let mut mt = MemTracer::new();
/// let buf = mt.register("face", 64, 8);
/// mt.advance(Instr::new(100)); // opaque compute
/// let k = Kernel::builder()
///     .phase(Instr::new(80))
///     .access(buf, AccessKind::Write, IndexPattern::Sequential)
///     .build();
/// mt.execute(&k);
/// assert_eq!(mt.now(), Instr::new(180));
/// let prof = mt.snapshot_production(buf);
/// assert_eq!(prof.fully_ready_at(), Instr::new(180));
/// ```
#[derive(Debug, Default)]
pub struct MemTracer {
    buffers: Vec<BufferState>,
    /// The first write each watch observed, indexed by [`WriteWatch`].
    watches: Vec<Option<Instr>>,
    clock: Instr,
}

impl MemTracer {
    /// Creates a recorder with clock at zero and no buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a communication buffer of `bytes` bytes with elements of
    /// `elem_bytes` bytes (the recording granularity).
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`, `elem_bytes == 0`, or `bytes` is not a
    /// multiple of `elem_bytes`.
    pub fn register(&mut self, name: impl Into<String>, bytes: u64, elem_bytes: u32) -> BufferId {
        assert!(bytes > 0, "buffer size must be positive");
        assert!(elem_bytes > 0, "element size must be positive");
        assert!(
            bytes.is_multiple_of(elem_bytes as u64),
            "buffer size {bytes} is not a multiple of element size {elem_bytes}"
        );
        let id = BufferId::new(self.buffers.len() as u32);
        self.buffers.push(BufferState {
            info: BufferInfo {
                name: name.into(),
                bytes,
                elem_bytes,
            },
            last_write: Timeline::default(),
            first_read: Timeline::default(),
            armed: Vec::new(),
        });
        id
    }

    /// Metadata of a registered buffer.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not registered with this recorder.
    pub fn buffer_info(&self, buf: BufferId) -> &BufferInfo {
        &self.state(buf).info
    }

    /// The current virtual instruction instant.
    pub fn now(&self) -> Instr {
        self.clock
    }

    /// Advances the clock by `instr` without touching any buffer (opaque
    /// computation).
    pub fn advance(&mut self, instr: Instr) {
        self.clock += instr;
    }

    /// Executes a kernel: advances the clock phase by phase and records
    /// each access stream, whose k-th of n visits lands at
    /// `phase start + (k+1)·phase instructions/n`. A write stream takes over
    /// the production instants of its element range and trips the buffer's
    /// armed watches at its first visit; a read stream gives its instants
    /// only to elements not yet read since the last
    /// [`MemTracer::reset_consumption`]. Each stream is recorded as one run
    /// of its range, not per element.
    ///
    /// # Panics
    ///
    /// Panics if the kernel touches an unregistered buffer or an element
    /// range outside a buffer.
    pub fn execute(&mut self, kernel: &Kernel) {
        for phase in kernel.phases() {
            let phase_start = self.clock;
            let phase_instr = phase.instr;
            for access in &phase.accesses {
                let idx = access.buffer.index();
                assert!(
                    idx < self.buffers.len(),
                    "kernel touches unregistered {}",
                    access.buffer
                );
                let elements = self.buffers[idx].info.elements();
                let range = access.elements.clone().unwrap_or(0..elements);
                assert!(
                    range.end <= elements,
                    "access range {}..{} exceeds {} of {} elements",
                    range.start,
                    range.end,
                    access.buffer,
                    elements
                );
                if range.is_empty() {
                    continue;
                }
                let spread = Spread::new(phase_start, phase_instr, range.len());
                let stamps = Stamps::stream(&access.pattern, range.clone(), spread);
                let state = &mut self.buffers[idx];
                match access.kind {
                    AccessKind::Write => {
                        state.last_write.overwrite(range, stamps);
                        // A single write in the phase suffices to trip
                        // watches; use the stream's earliest visit.
                        for WriteWatch(w) in state.armed.drain(..) {
                            self.watches[w] = Some(spread.visit(0));
                        }
                    }
                    AccessKind::Read => state.first_read.fill(range, stamps),
                }
            }
            self.clock += phase_instr;
        }
    }

    /// Snapshots the production profile (last-write instants) of a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not registered.
    pub fn snapshot_production(&self, buf: BufferId) -> ProductionProfile {
        self.try_snapshot_production(buf)
            .unwrap_or_else(|_| panic!("unregistered {buf}"))
    }

    /// Fallible [`MemTracer::snapshot_production`].
    ///
    /// # Errors
    ///
    /// Returns [`RecorderError::UnregisteredBuffer`] if `buf` was not
    /// registered.
    pub fn try_snapshot_production(
        &self,
        buf: BufferId,
    ) -> Result<ProductionProfile, RecorderError> {
        let s = self.try_state(buf)?;
        Ok(ProductionProfile::from_timeline(
            s.info.elem_bytes,
            s.info.elements(),
            s.last_write.clone(),
        ))
    }

    /// Clears the first-read tracking of a buffer; called by the tracer at
    /// each receive so the next snapshot reflects consumption *of this
    /// message*.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not registered.
    pub fn reset_consumption(&mut self, buf: BufferId) {
        self.try_reset_consumption(buf)
            .unwrap_or_else(|_| panic!("unregistered {buf}"));
    }

    /// Fallible [`MemTracer::reset_consumption`].
    ///
    /// # Errors
    ///
    /// Returns [`RecorderError::UnregisteredBuffer`] if `buf` was not
    /// registered.
    pub fn try_reset_consumption(&mut self, buf: BufferId) -> Result<(), RecorderError> {
        self.try_state_mut(buf)?.first_read.clear();
        Ok(())
    }

    /// Snapshots the consumption profile (first-read instants since the
    /// last [`MemTracer::reset_consumption`]) of a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not registered.
    pub fn snapshot_consumption(&self, buf: BufferId) -> ConsumptionProfile {
        self.try_snapshot_consumption(buf)
            .unwrap_or_else(|_| panic!("unregistered {buf}"))
    }

    /// Fallible [`MemTracer::snapshot_consumption`].
    ///
    /// # Errors
    ///
    /// Returns [`RecorderError::UnregisteredBuffer`] if `buf` was not
    /// registered.
    pub fn try_snapshot_consumption(
        &self,
        buf: BufferId,
    ) -> Result<ConsumptionProfile, RecorderError> {
        let s = self.try_state(buf)?;
        Ok(ConsumptionProfile::from_timeline(
            s.info.elem_bytes,
            s.info.elements(),
            s.first_read.clone(),
        ))
    }

    /// Arms a watch that reports the first write to `buf` from now on.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not registered.
    pub fn watch_first_write(&mut self, buf: BufferId) -> WriteWatch {
        self.try_watch_first_write(buf)
            .unwrap_or_else(|_| panic!("unregistered {buf}"))
    }

    /// Fallible [`MemTracer::watch_first_write`].
    ///
    /// # Errors
    ///
    /// Returns [`RecorderError::UnregisteredBuffer`] if `buf` was not
    /// registered.
    pub fn try_watch_first_write(&mut self, buf: BufferId) -> Result<WriteWatch, RecorderError> {
        let id = WriteWatch(self.watches.len());
        self.try_state_mut(buf)?.armed.push(id);
        self.watches.push(None);
        Ok(id)
    }

    /// The instant of the first write observed by `watch`, if any yet.
    pub fn watch_result(&self, watch: WriteWatch) -> Option<Instr> {
        self.watches[watch.0]
    }

    fn try_state(&self, buf: BufferId) -> Result<&BufferState, RecorderError> {
        self.buffers
            .get(buf.index())
            .ok_or(RecorderError::UnregisteredBuffer { buf })
    }

    fn try_state_mut(&mut self, buf: BufferId) -> Result<&mut BufferState, RecorderError> {
        self.buffers
            .get_mut(buf.index())
            .ok_or(RecorderError::UnregisteredBuffer { buf })
    }

    fn state(&self, buf: BufferId) -> &BufferState {
        self.try_state(buf)
            .unwrap_or_else(|_| panic!("unregistered {buf}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IndexPattern;

    #[test]
    fn register_validates() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 64, 8);
        assert_eq!(mt.buffer_info(b).elements(), 8);
        assert_eq!(mt.buffer_info(b).name(), "a");
        assert_eq!(mt.buffer_info(b).bytes(), 64);
        assert_eq!(mt.buffer_info(b).elem_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_buffer_rejected() {
        MemTracer::new().register("a", 65, 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_buffer_rejected() {
        MemTracer::new().register("a", 0, 8);
    }

    #[test]
    fn sequential_write_timestamps_spread_over_phase() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 40, 10); // 4 elements
        let k = Kernel::builder()
            .phase(Instr::new(100))
            .access(b, AccessKind::Write, IndexPattern::Sequential)
            .build();
        mt.execute(&k);
        let p = mt.snapshot_production(b);
        assert_eq!(p.element_timestamp(0), Some(Instr::new(25)));
        assert_eq!(p.element_timestamp(1), Some(Instr::new(50)));
        assert_eq!(p.element_timestamp(2), Some(Instr::new(75)));
        assert_eq!(p.element_timestamp(3), Some(Instr::new(100)));
        assert_eq!(mt.now(), Instr::new(100));
    }

    #[test]
    fn reverse_write_means_first_element_done_last() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 4, 1);
        let k = Kernel::builder()
            .phase(Instr::new(100))
            .access(b, AccessKind::Write, IndexPattern::Reverse)
            .build();
        mt.execute(&k);
        let p = mt.snapshot_production(b);
        // Element 3 visited first (t=25), element 0 last (t=100).
        assert_eq!(p.element_timestamp(3), Some(Instr::new(25)));
        assert_eq!(p.element_timestamp(0), Some(Instr::new(100)));
        // First chunk (bytes 0..2) not ready until t=100.
        assert_eq!(p.ready_at(0..2), Instr::new(100));
    }

    #[test]
    fn first_read_sticks_until_reset() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 4, 1);
        let read = Kernel::builder()
            .phase(Instr::new(10))
            .access(b, AccessKind::Read, IndexPattern::Sequential)
            .build();
        mt.execute(&read);
        let first = mt.snapshot_consumption(b);
        mt.execute(&read); // second read at later times
        let again = mt.snapshot_consumption(b);
        assert_eq!(first, again, "first read is sticky");
        mt.reset_consumption(b);
        mt.execute(&read);
        let after = mt.snapshot_consumption(b);
        assert!(after.first_needed_at().unwrap() > first.first_needed_at().unwrap());
    }

    #[test]
    fn later_write_overwrites_production_time() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 4, 1);
        let w = Kernel::builder()
            .phase(Instr::new(100))
            .access(b, AccessKind::Write, IndexPattern::Sequential)
            .build();
        mt.execute(&w);
        mt.execute(&w);
        let p = mt.snapshot_production(b);
        // Second execution: element 0 written at 100 + 25.
        assert_eq!(p.element_timestamp(0), Some(Instr::new(125)));
    }

    #[test]
    fn subrange_access_only_touches_range() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 8, 1);
        let k = Kernel::builder()
            .phase(Instr::new(40))
            .access_range(b, AccessKind::Write, IndexPattern::Sequential, Some(2..6))
            .build();
        mt.execute(&k);
        let p = mt.snapshot_production(b);
        assert_eq!(p.element_timestamp(0), None);
        assert_eq!(p.element_timestamp(2), Some(Instr::new(10)));
        assert_eq!(p.element_timestamp(5), Some(Instr::new(40)));
        assert_eq!(p.element_timestamp(7), None);
    }

    #[test]
    fn watch_reports_first_write_only_after_arming() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 4, 1);
        let other = mt.register("o", 4, 1);
        let w = Kernel::builder()
            .phase(Instr::new(100))
            .access(b, AccessKind::Write, IndexPattern::Sequential)
            .access(other, AccessKind::Read, IndexPattern::Sequential)
            .build();
        mt.execute(&w);
        let watch = mt.watch_first_write(b);
        let untouched = mt.watch_first_write(other);
        assert_eq!(mt.watch_result(watch), None);
        mt.execute(&w);
        // First write of the second execution happens at 100 + 25.
        assert_eq!(mt.watch_result(watch), Some(Instr::new(125)));
        // Result is sticky: further writes don't move it.
        mt.execute(&w);
        assert_eq!(mt.watch_result(watch), Some(Instr::new(125)));
        // Writes to another buffer and reads trip nothing.
        assert_eq!(mt.watch_result(untouched), None);
    }

    /// Snapshots hold access-stream runs, not one instant per element: a
    /// million-element buffer written by a sequential main loop and a
    /// trailing pack pass, then read by a leading unpack pass and the main
    /// loop, snapshots as at most two runs, a thousand times over.
    #[test]
    fn snapshots_hold_runs_not_elements() {
        const ELEMENTS: usize = 1_000_000;
        let mut mt = MemTracer::new();
        let b = mt.register("halo", ELEMENTS as u64 * 8, 8);
        let tail = Some(ELEMENTS / 2..ELEMENTS);
        let head = Some(0..ELEMENTS / 2);
        let produce = Kernel::builder()
            .phase(Instr::new(900_000_000))
            .access(b, AccessKind::Write, IndexPattern::Sequential)
            .phase(Instr::new(100_000_000))
            .access_range(b, AccessKind::Write, IndexPattern::Sequential, tail)
            .build();
        let consume = Kernel::builder()
            .phase(Instr::new(50_000_000))
            .access_range(b, AccessKind::Read, IndexPattern::Sequential, head)
            .phase(Instr::new(950_000_000))
            .access(b, AccessKind::Read, IndexPattern::Sequential)
            .build();
        mt.execute(&produce);
        mt.execute(&consume);
        let production: Vec<_> = (0..1000).map(|_| mt.snapshot_production(b)).collect();
        let consumption: Vec<_> = (0..1000).map(|_| mt.snapshot_consumption(b)).collect();
        assert!(production.iter().all(|p| p.run_count() <= 2));
        assert!(consumption.iter().all(|c| c.run_count() <= 2));
        let (p, c) = (&production[999], &consumption[999]);
        assert_eq!(p.element_timestamp(0), Some(Instr::new(900)));
        assert_eq!(p.ready_at(0..8), Instr::new(900));
        assert_eq!(p.fully_ready_at(), Instr::new(1_000_000_000));
        assert_eq!(c.first_needed_at(), Some(Instr::new(1_000_000_100)));
        assert_eq!(
            c.element_timestamp(ELEMENTS - 1),
            Some(Instr::new(2_000_000_000))
        );
    }

    #[test]
    fn opaque_advance_moves_clock_only() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 4, 1);
        mt.advance(Instr::new(500));
        assert_eq!(mt.now(), Instr::new(500));
        assert_eq!(mt.snapshot_production(b).fully_ready_at(), Instr::ZERO);
    }

    #[test]
    fn zero_instruction_phase_timestamps_at_phase_start() {
        let mut mt = MemTracer::new();
        let b = mt.register("a", 4, 1);
        mt.advance(Instr::new(10));
        let k = Kernel::builder()
            .phase(Instr::ZERO)
            .access(b, AccessKind::Write, IndexPattern::Sequential)
            .build();
        mt.execute(&k);
        let p = mt.snapshot_production(b);
        assert_eq!(p.fully_ready_at(), Instr::new(10));
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unknown_buffer_panics() {
        let mt = MemTracer::new();
        mt.buffer_info(BufferId::new(3));
    }

    #[test]
    fn unknown_buffer_surfaces_as_recorder_error() {
        let mut mt = MemTracer::new();
        let ghost = BufferId::new(3);
        let expected = RecorderError::UnregisteredBuffer { buf: ghost };
        assert_eq!(mt.try_snapshot_production(ghost).unwrap_err(), expected);
        assert_eq!(mt.try_snapshot_consumption(ghost).unwrap_err(), expected);
        assert_eq!(mt.try_reset_consumption(ghost).unwrap_err(), expected);
        assert_eq!(mt.try_watch_first_write(ghost).unwrap_err(), expected);
        let msg = format!("{expected}");
        assert!(msg.contains("not registered"), "got: {msg}");
        // A registered buffer goes through the fallible paths cleanly.
        let b = mt.register("a", 8, 4);
        assert!(mt.try_snapshot_production(b).is_ok());
        assert!(mt.try_snapshot_consumption(b).is_ok());
        assert!(mt.try_reset_consumption(b).is_ok());
        let watch = mt.try_watch_first_write(b).unwrap();
        assert_eq!(mt.watch_result(watch), None);
    }
}
