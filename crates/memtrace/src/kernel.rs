//! Declarative compute-kernel descriptions.
//!
//! An application model does not execute real arithmetic; it *describes*
//! each compute loop as a [`Kernel`]: an ordered list of [`Phase`]s, each
//! with an instruction cost and a set of buffer accesses whose elements are
//! visited in a given [`IndexPattern`] order, uniformly spread over the
//! phase's instructions. The recorder turns these descriptions into
//! production/consumption instants — the same information the paper
//! extracts with Valgrind load/store tracking. It keeps each access
//! stream as one run over its element range, from which every element's
//! instant follows exactly.

use ovlsim_core::{BufferId, Instr};

use crate::pattern::IndexPattern;

/// Whether an access reads or writes the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The kernel reads the buffer (consumption).
    Read,
    /// The kernel writes the buffer (production).
    Write,
}

/// One buffer access stream within a phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferAccess {
    /// Which buffer is touched.
    pub buffer: BufferId,
    /// Read or write.
    pub kind: AccessKind,
    /// Element visit order.
    pub pattern: IndexPattern,
    /// Optional sub-range of elements touched (`None` = whole buffer).
    pub elements: Option<std::ops::Range<usize>>,
}

/// A contiguous stretch of computation with uniform buffer-access streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Instruction cost of this phase.
    pub instr: Instr,
    /// Buffer accesses performed during the phase.
    pub accesses: Vec<BufferAccess>,
}

/// A compute kernel: an ordered list of phases.
///
/// Build with [`Kernel::builder`]:
///
/// ```
/// use ovlsim_core::{BufferId, Instr};
/// use ovlsim_memtrace::{AccessKind, IndexPattern, Kernel};
///
/// let buf = BufferId::new(0);
/// let k = Kernel::builder()
///     .phase(Instr::new(900)) // main loop: writes spread over the phase
///     .access(buf, AccessKind::Write, IndexPattern::Sequential)
///     .phase(Instr::new(100)) // trailing fix-up pass
///     .access(buf, AccessKind::Write, IndexPattern::Sequential)
///     .build();
/// assert_eq!(k.total_instr(), Instr::new(1000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Kernel {
    phases: Vec<Phase>,
}

impl Kernel {
    /// Starts building a kernel.
    pub fn builder() -> KernelBuilder {
        KernelBuilder::default()
    }

    /// The phases in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total instruction cost over all phases.
    pub fn total_instr(&self) -> Instr {
        self.phases.iter().map(|p| p.instr).sum()
    }
}

/// Builder for [`Kernel`]; see [`Kernel::builder`].
#[derive(Debug, Clone, Default)]
pub struct KernelBuilder {
    phases: Vec<Phase>,
}

impl KernelBuilder {
    /// Appends a phase of `instr` instructions; subsequent
    /// [`KernelBuilder::access`] calls attach to this phase.
    pub fn phase(mut self, instr: Instr) -> Self {
        self.phases.push(Phase {
            instr,
            accesses: Vec::new(),
        });
        self
    }

    /// Attaches a whole-buffer access stream to the current phase.
    ///
    /// # Panics
    ///
    /// Panics if called before any [`KernelBuilder::phase`].
    pub fn access(self, buffer: BufferId, kind: AccessKind, pattern: IndexPattern) -> Self {
        self.access_range(buffer, kind, pattern, None)
    }

    /// Attaches an access stream over an element sub-range to the current
    /// phase (`None` = whole buffer).
    ///
    /// # Panics
    ///
    /// Panics if called before any [`KernelBuilder::phase`].
    pub fn access_range(
        mut self,
        buffer: BufferId,
        kind: AccessKind,
        pattern: IndexPattern,
        elements: Option<std::ops::Range<usize>>,
    ) -> Self {
        let phase = self
            .phases
            .last_mut()
            .expect("call .phase(..) before .access(..)");
        phase.accesses.push(BufferAccess {
            buffer,
            kind,
            pattern,
            elements,
        });
        self
    }

    /// Finishes the kernel.
    pub fn build(self) -> Kernel {
        Kernel {
            phases: self.phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_attaches_accesses_to_last_phase() {
        let buf = BufferId::new(1);
        let k = Kernel::builder()
            .phase(Instr::new(10))
            .phase(Instr::new(20))
            .access(buf, AccessKind::Read, IndexPattern::Sequential)
            .build();
        assert_eq!(k.phases().len(), 2);
        assert!(k.phases()[0].accesses.is_empty());
        assert_eq!(k.phases()[1].accesses.len(), 1);
        assert_eq!(k.total_instr(), Instr::new(30));
    }

    #[test]
    #[should_panic(expected = "before .access")]
    fn access_without_phase_panics() {
        let _ =
            Kernel::builder().access(BufferId::new(0), AccessKind::Read, IndexPattern::Sequential);
    }

    #[test]
    fn access_range_stored() {
        let buf = BufferId::new(0);
        let k = Kernel::builder()
            .phase(Instr::new(10))
            .access_range(buf, AccessKind::Write, IndexPattern::Reverse, Some(2..5))
            .build();
        assert_eq!(k.phases()[0].accesses[0].elements, Some(2..5));
    }
}
