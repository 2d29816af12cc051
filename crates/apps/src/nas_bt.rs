//! NAS Parallel Benchmarks BT: block-tridiagonal ADI solver.
//!
//! # Model
//!
//! BT runs on a square process grid and performs, per time step, three
//! alternating-direction implicit (ADI) sweeps (x, y, z). Each sweep is a
//! large block-tridiagonal solve followed by a boundary exchange with the
//! two neighbors in the sweep direction (the z sweep is mapped onto the x
//! neighbors with distinct tags, matching the multi-partition layout's
//! communication volume).
//!
//! # Access patterns
//!
//! The real code copies each outgoing face into a contiguous send buffer
//! with a tight pack loop immediately before `MPI_Isend`, and unpacks the
//! received halo right after the wait — so production concentrates in the
//! trailing ~3% of each sweep and consumption in the leading ~3% of the
//! next. That is exactly the pattern the paper finds to make real-trace
//! automatic overlap "negligible"; the linear mode recovers the ideal
//! spread and the paper's ≈30% intermediate-bandwidth speedup.

use ovlsim_core::{Instr, Rank, Tag};
use ovlsim_tracer::{Application, TraceContext, TraceError};

use crate::class::ProblemClass;
use crate::decomp::Grid2d;
use crate::error::AppConfigError;
use crate::halo::{exchange, HaloLeg};
use crate::kernels::{consumer_kernel, producer_kernel, ConsumptionShape, ProductionShape};

/// The NAS-BT application model. Build with [`NasBt::builder`].
///
/// # Example
///
/// ```
/// use ovlsim_apps::NasBt;
/// use ovlsim_tracer::{Application, TracingSession};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = NasBt::builder().ranks(4).iterations(2).build()?;
/// let bundle = TracingSession::new(&app).run()?;
/// assert!(bundle.original().total_p2p_send_bytes() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NasBt {
    grid: Grid2d,
    iterations: usize,
    sweep_instr: u64,
    face_bytes: u64,
    pack_fraction: f64,
    unpack_fraction: f64,
}

impl NasBt {
    /// Starts building a NAS-BT model.
    pub fn builder() -> NasBtBuilder {
        NasBtBuilder::default()
    }

    /// The process grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Bytes per face message.
    pub fn face_bytes(&self) -> u64 {
        self.face_bytes
    }
}

impl Application for NasBt {
    fn name(&self) -> &str {
        "nas-bt"
    }

    fn ranks(&self) -> usize {
        self.grid.ranks()
    }

    fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
        // Per sweep direction: outgoing and incoming halo buffers toward
        // the two neighbors of that direction.
        let mut bufs = Vec::new();
        for sweep in ["x", "y", "z"] {
            let mk = |ctx: &mut TraceContext, what: &str, side: &str| {
                ctx.register_buffer(format!("{sweep}-{what}-{side}"), self.face_bytes, 8)
            };
            bufs.push((
                [mk(ctx, "out", "lo"), mk(ctx, "out", "hi")],
                [mk(ctx, "in", "lo"), mk(ctx, "in", "hi")],
            ));
        }

        for _iter in 0..self.iterations {
            for (sweep_idx, (outs, ins)) in bufs.iter().enumerate() {
                // z sweep reuses the x-direction neighbors (multi-partition
                // communication volume) under distinct tags.
                let (lo, hi) = match sweep_idx {
                    1 => (self.grid.north(rank), self.grid.south(rank)),
                    _ => (self.grid.west(rank), self.grid.east(rank)),
                };
                let tag = Tag::new(sweep_idx as u64);

                // The ADI solve for this direction produces the outgoing
                // faces; the real code fills the contiguous send buffers
                // with a pack loop at the very end (production tail).
                let unpack_instr =
                    ((self.sweep_instr as f64) * self.unpack_fraction).round() as u64;
                let solve = producer_kernel(
                    Instr::new(self.sweep_instr - unpack_instr),
                    &outs[..],
                    ProductionShape::Tail {
                        fraction: self.pack_fraction,
                    },
                );
                ctx.kernel(&solve);

                let mut sends = Vec::new();
                let mut recvs = Vec::new();
                if let Some(peer) = lo {
                    sends.push(HaloLeg {
                        peer,
                        buffer: outs[0],
                        tag,
                    });
                    recvs.push(HaloLeg {
                        peer,
                        buffer: ins[0],
                        tag,
                    });
                }
                if let Some(peer) = hi {
                    sends.push(HaloLeg {
                        peer,
                        buffer: outs[1],
                        tag,
                    });
                    recvs.push(HaloLeg {
                        peer,
                        buffer: ins[1],
                        tag,
                    });
                }
                exchange(ctx, &sends, &recvs)?;

                // The unpack loop drains the receive buffers immediately
                // after the waits — the consumption pattern that defeats
                // late chunk waits in the real trace.
                let unpack = consumer_kernel(
                    Instr::new(unpack_instr.max(1)),
                    &ins[..],
                    ConsumptionShape::Spread,
                );
                ctx.kernel(&unpack);
            }
            // Residual norm.
            ctx.allreduce(8);
        }
        Ok(())
    }
}

/// Builder for [`NasBt`].
///
/// Defaults: 16 ranks (4×4), 4 iterations, 2 000 000 instructions per
/// sweep, 76 800-byte faces, 3% pack/unpack passes.
#[derive(Debug, Clone)]
pub struct NasBtBuilder {
    class: ProblemClass,
    pub(crate) ranks: usize,
    pub(crate) iterations: usize,
    sweep_instr: u64,
    face_bytes: u64,
    pack_fraction: f64,
    unpack_fraction: f64,
}

impl Default for NasBtBuilder {
    fn default() -> Self {
        NasBtBuilder {
            class: ProblemClass::default(),
            ranks: 16,
            iterations: 4,
            sweep_instr: 2_000_000,
            face_bytes: 76_800,
            pack_fraction: 0.03,
            unpack_fraction: 0.03,
        }
    }
}

impl NasBtBuilder {
    /// Sets the rank count (must be a perfect square, as in NAS BT).
    pub fn ranks(&mut self, ranks: usize) -> &mut Self {
        self.ranks = ranks;
        self
    }

    /// Sets the number of time steps.
    pub fn iterations(&mut self, iterations: usize) -> &mut Self {
        self.iterations = iterations;
        self
    }

    /// Sets the instructions per ADI sweep.
    pub fn sweep_instr(&mut self, instr: u64) -> &mut Self {
        self.sweep_instr = instr;
        self
    }

    /// Sets the face message size in bytes (must be a multiple of 8).
    pub fn face_bytes(&mut self, bytes: u64) -> &mut Self {
        self.face_bytes = bytes;
        self
    }

    /// Sets the pack-pass fraction.
    pub fn pack_fraction(&mut self, fraction: f64) -> &mut Self {
        self.pack_fraction = fraction;
        self
    }

    /// Sets the unpack-pass fraction.
    pub fn unpack_fraction(&mut self, fraction: f64) -> &mut Self {
        self.unpack_fraction = fraction;
        self
    }

    /// Applies a NAS-style problem class: scales compute volume and
    /// message sizes together (class A = the calibrated defaults).
    pub fn class(&mut self, class: ProblemClass) -> &mut Self {
        self.class = class;
        self
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Fails unless `ranks` is a perfect square and all parameters are in
    /// range.
    pub fn build(&self) -> Result<NasBt, AppConfigError> {
        let grid = Grid2d::square(self.ranks).ok_or(AppConfigError::BadRankCount {
            ranks: self.ranks,
            requirement: "NAS BT requires a perfect-square rank count",
        })?;
        if self.sweep_instr == 0 || self.iterations == 0 {
            return Err(AppConfigError::BadParameter {
                name: "sweep_instr/iterations",
                requirement: "must be positive",
            });
        }
        if self.face_bytes == 0 || !self.face_bytes.is_multiple_of(8) {
            return Err(AppConfigError::BadParameter {
                name: "face_bytes",
                requirement: "must be a positive multiple of 8",
            });
        }
        for (name, f) in [
            ("pack_fraction", self.pack_fraction),
            ("unpack_fraction", self.unpack_fraction),
        ] {
            if !(f > 0.0 && f < 1.0) {
                return Err(AppConfigError::BadParameter {
                    name: if name == "pack_fraction" {
                        "pack_fraction"
                    } else {
                        "unpack_fraction"
                    },
                    requirement: "must be in (0, 1)",
                });
            }
        }
        Ok(NasBt {
            grid,
            iterations: self.iterations,
            sweep_instr: self.class.scale_instr(self.sweep_instr),
            face_bytes: self.class.scale_bytes(self.face_bytes),
            pack_fraction: self.pack_fraction,
            unpack_fraction: self.unpack_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_tracer::TracingSession;

    #[test]
    fn requires_square_rank_count() {
        assert!(NasBt::builder().ranks(15).build().is_err());
        assert!(NasBt::builder().ranks(16).build().is_ok());
        assert!(NasBt::builder().ranks(1).build().is_ok());
    }

    #[test]
    fn traces_all_modes() {
        let app = NasBt::builder().ranks(4).iterations(2).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        bundle.overlapped_real();
        bundle.overlapped_linear();
    }

    #[test]
    fn production_is_packed_tail() {
        let app = NasBt::builder().ranks(4).iterations(1).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        let send = bundle.metas()[0].sends.first().expect("sends exist");
        let prof = send.production.as_ref().unwrap();
        // First chunk only ready in the last ~3% of the sweep window: its
        // ready instant is within 4% of the full-production instant.
        let first = prof.ready_at(0..1024).get() as f64;
        let full = prof.fully_ready_at().get() as f64;
        assert!(first >= full * 0.96, "pack loop should finalize late");
    }

    #[test]
    fn parameter_validation() {
        assert!(NasBt::builder().face_bytes(100).build().is_err()); // not /8
        assert!(NasBt::builder().sweep_instr(0).build().is_err());
        assert!(NasBt::builder().pack_fraction(0.0).build().is_err());
    }

    #[test]
    fn interior_rank_exchanges_in_three_directions() {
        let app = NasBt::builder().ranks(16).iterations(1).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        // Rank 5 = (1,1) interior on a 4x4 grid: x sweep 2 msgs, y sweep
        // 2 msgs, z sweep 2 msgs.
        let sends = &bundle.metas()[5].sends;
        assert_eq!(sends.len(), 6);
    }
}
