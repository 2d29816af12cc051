//! Sweep3D: a wavefront (pipelined) discrete-ordinates transport kernel.
//!
//! # Model
//!
//! The 3-D grid is decomposed over a 2-D process grid; each rank owns a
//! column of `planes` k-planes. For each of the four octant pairs the sweep
//! travels diagonally across the process grid: a rank receives its upstream
//! x/y faces, computes plane by plane, and forwards downstream faces — the
//! classic software pipeline whose fill time dominates at scale.
//!
//! # Access patterns
//!
//! * **Consumption** looks plane-by-plane, but the implementation copies
//!   the received faces into working arrays before the sweep begins, so
//!   the measured first-read of every byte is immediate (head).
//! * **Production** is plane-by-plane too, *but* Sweep3D ends each block
//!   with a flux-fixup pass that rewrites the outgoing faces; with the
//!   fix-up enabled (the measured, real behaviour) every face byte's last
//!   write lands in the final few percent of the kernel, so chunks only
//!   become ready at the end — automatic overlap gets nothing. The linear
//!   (ideal) pattern instead lets the transform forward each plane as it is
//!   produced, collapsing the pipeline fill and yielding the paper's
//!   largest speedups (≈160% at intermediate bandwidth).

use ovlsim_core::{Instr, Rank, Tag};
use ovlsim_memtrace::{AccessKind, IndexPattern, Kernel};
use ovlsim_tracer::{Application, TraceContext, TraceError};

use crate::class::ProblemClass;
use crate::decomp::Grid2d;
use crate::error::AppConfigError;

/// The Sweep3D application model. Build with [`Sweep3d::builder`].
///
/// # Example
///
/// ```
/// use ovlsim_apps::Sweep3d;
/// use ovlsim_tracer::{Application, TracingSession};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app = Sweep3d::builder().ranks(4).planes(8).build()?;
/// let bundle = TracingSession::new(&app).run()?;
/// assert_eq!(bundle.original().rank_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sweep3d {
    grid: Grid2d,
    iterations: usize,
    planes: usize,
    plane_instr: u64,
    plane_face_bytes: u64,
    source_instr: u64,
    fixup_fraction: f64,
    flux_fixup: bool,
}

impl Sweep3d {
    /// Starts building a Sweep3D model.
    pub fn builder() -> Sweep3dBuilder {
        Sweep3dBuilder::default()
    }

    /// The process grid.
    pub fn grid(&self) -> Grid2d {
        self.grid
    }

    /// Face bytes per message (planes × per-plane slice).
    pub fn message_bytes(&self) -> u64 {
        self.planes as u64 * self.plane_face_bytes
    }

    fn octants() -> [(i32, i32); 4] {
        [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    }

    fn upstream(&self, rank: Rank, dx: i32, dy: i32) -> (Option<Rank>, Option<Rank>) {
        let x = if dx > 0 {
            self.grid.west(rank)
        } else {
            self.grid.east(rank)
        };
        let y = if dy > 0 {
            self.grid.north(rank)
        } else {
            self.grid.south(rank)
        };
        (x, y)
    }

    fn downstream(&self, rank: Rank, dx: i32, dy: i32) -> (Option<Rank>, Option<Rank>) {
        let x = if dx > 0 {
            self.grid.east(rank)
        } else {
            self.grid.west(rank)
        };
        let y = if dy > 0 {
            self.grid.south(rank)
        } else {
            self.grid.north(rank)
        };
        (x, y)
    }
}

impl Application for Sweep3d {
    fn name(&self) -> &str {
        "sweep3d"
    }

    fn ranks(&self) -> usize {
        self.grid.ranks()
    }

    fn run(&self, rank: Rank, ctx: &mut TraceContext) -> Result<(), TraceError> {
        let k = self.planes;
        let face = self.plane_face_bytes;
        let msg_bytes = self.message_bytes();
        let elem = u32::try_from(face).expect("validated plane slice fits u32");

        // One buffer set per direction; reused across octants/iterations.
        let in_x = ctx.register_buffer("in-x", msg_bytes, elem);
        let in_y = ctx.register_buffer("in-y", msg_bytes, elem);
        let out_x = ctx.register_buffer("out-x", msg_bytes, elem);
        let out_y = ctx.register_buffer("out-y", msg_bytes, elem);

        for _iter in 0..self.iterations {
            for (oct, (dx, dy)) in Self::octants().iter().enumerate() {
                let tag_x = Tag::new((oct * 2) as u64);
                let tag_y = Tag::new((oct * 2 + 1) as u64);
                let (up_x, up_y) = self.upstream(rank, *dx, *dy);
                let (down_x, down_y) = self.downstream(rank, *dx, *dy);

                // Source/scattering update: per-octant work every rank
                // performs before its sweep can start (not pipelined).
                ctx.compute(Instr::new(self.source_instr));

                if let Some(peer) = up_x {
                    ctx.recv(peer, in_x, tag_x)?;
                }
                if let Some(peer) = up_y {
                    ctx.recv(peer, in_y, tag_y)?;
                }

                // The real code first copies the received faces into its
                // working arrays (PHIIB/PHJIB unpack) — an immediate,
                // whole-buffer consumption that defeats late chunk waits.
                let unpack = ((k as u64 * self.plane_instr) as f64 * 0.03)
                    .round()
                    .max(1.0) as u64;
                let mut b = Kernel::builder()
                    .phase(Instr::new(unpack))
                    .access(in_x, AccessKind::Read, IndexPattern::Sequential)
                    .access(in_y, AccessKind::Read, IndexPattern::Sequential);
                // Plane-by-plane sweep: plane p writes slice p of the
                // outgoing faces as it completes.
                for p in 0..k {
                    b = b
                        .phase(Instr::new(self.plane_instr))
                        .access_range(
                            out_x,
                            AccessKind::Write,
                            IndexPattern::Sequential,
                            Some(p..p + 1),
                        )
                        .access_range(
                            out_y,
                            AccessKind::Write,
                            IndexPattern::Sequential,
                            Some(p..p + 1),
                        );
                }
                if self.flux_fixup {
                    // The fix-up pass rewrites both outgoing faces at the
                    // very end of the block: the real production pattern.
                    let fixup =
                        ((k as u64 * self.plane_instr) as f64 * self.fixup_fraction).round() as u64;
                    b = b
                        .phase(Instr::new(fixup.max(1)))
                        .access(out_x, AccessKind::Write, IndexPattern::Sequential)
                        .access(out_y, AccessKind::Write, IndexPattern::Sequential);
                }
                ctx.kernel(&b.build());

                // Downstream forwarding: post both sends, then wait — the
                // sender blocks here until the faces have left the node
                // (the real code's blocking-send semantics).
                let hx = match down_x {
                    Some(peer) => Some(ctx.isend(peer, out_x, tag_x)?),
                    None => None,
                };
                let hy = match down_y {
                    Some(peer) => Some(ctx.isend(peer, out_y, tag_y)?),
                    None => None,
                };
                if let Some(h) = hx {
                    ctx.wait_send(h)?;
                }
                if let Some(h) = hy {
                    ctx.wait_send(h)?;
                }
            }
            // Convergence check.
            ctx.allreduce(8);
        }
        Ok(())
    }
}

/// Builder for [`Sweep3d`].
///
/// Defaults: 16 ranks (4×4), 1 iteration, 16 planes of 50 000 instructions
/// each, 8 KiB face slice per plane (128 KiB messages), a 3 400 000
/// instruction per-octant source update, 5% flux fix-up enabled.
#[derive(Debug, Clone)]
pub struct Sweep3dBuilder {
    class: ProblemClass,
    pub(crate) ranks: usize,
    pub(crate) iterations: usize,
    planes: usize,
    plane_instr: u64,
    plane_face_bytes: u64,
    source_instr: u64,
    fixup_fraction: f64,
    flux_fixup: bool,
}

impl Default for Sweep3dBuilder {
    fn default() -> Self {
        Sweep3dBuilder {
            class: ProblemClass::default(),
            ranks: 16,
            iterations: 1,
            planes: 16,
            plane_instr: 50_000,
            plane_face_bytes: 8_192,
            source_instr: 3_400_000,
            fixup_fraction: 0.05,
            flux_fixup: true,
        }
    }
}

impl Sweep3dBuilder {
    /// Sets the rank count (any positive count; the grid is the most
    /// nearly square factorization).
    pub fn ranks(&mut self, ranks: usize) -> &mut Self {
        self.ranks = ranks;
        self
    }

    /// Sets the number of full sweep iterations.
    pub fn iterations(&mut self, iterations: usize) -> &mut Self {
        self.iterations = iterations;
        self
    }

    /// Sets the k-planes per block (also the natural chunk count).
    pub fn planes(&mut self, planes: usize) -> &mut Self {
        self.planes = planes;
        self
    }

    /// Sets the instructions per plane.
    pub fn plane_instr(&mut self, instr: u64) -> &mut Self {
        self.plane_instr = instr;
        self
    }

    /// Sets the outgoing face bytes per plane.
    pub fn plane_face_bytes(&mut self, bytes: u64) -> &mut Self {
        self.plane_face_bytes = bytes;
        self
    }

    /// Sets the per-octant source/scattering compute (not pipelined).
    pub fn source_instr(&mut self, instr: u64) -> &mut Self {
        self.source_instr = instr;
        self
    }

    /// Enables or disables the flux fix-up pass (the real-pattern tail).
    pub fn flux_fixup(&mut self, enabled: bool) -> &mut Self {
        self.flux_fixup = enabled;
        self
    }

    /// Sets the fix-up pass size as a fraction of the block kernel.
    pub fn fixup_fraction(&mut self, fraction: f64) -> &mut Self {
        self.fixup_fraction = fraction;
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
    /// Fails if any parameter is zero / out of range.
    pub fn build(&self) -> Result<Sweep3d, AppConfigError> {
        if self.ranks == 0 {
            return Err(AppConfigError::BadRankCount {
                ranks: self.ranks,
                requirement: "must be positive",
            });
        }
        if self.planes == 0 || self.plane_instr == 0 || self.plane_face_bytes == 0 {
            return Err(AppConfigError::BadParameter {
                name: "planes/plane_instr/plane_face_bytes",
                requirement: "must be positive",
            });
        }
        if self.plane_face_bytes > u32::MAX as u64 {
            return Err(AppConfigError::BadParameter {
                name: "plane_face_bytes",
                requirement: "must fit in u32",
            });
        }
        if !(0.0..1.0).contains(&self.fixup_fraction) || self.fixup_fraction <= 0.0 {
            return Err(AppConfigError::BadParameter {
                name: "fixup_fraction",
                requirement: "must be in (0, 1)",
            });
        }
        if self.iterations == 0 {
            return Err(AppConfigError::BadParameter {
                name: "iterations",
                requirement: "must be positive",
            });
        }
        Ok(Sweep3d {
            grid: Grid2d::near_square(self.ranks),
            iterations: self.iterations,
            planes: self.planes,
            plane_instr: self.class.scale_instr(self.plane_instr),
            plane_face_bytes: self.class.scale_bytes(self.plane_face_bytes),
            source_instr: self.class.scale_instr(self.source_instr),
            fixup_fraction: self.fixup_fraction,
            flux_fixup: self.flux_fixup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlsim_tracer::TracingSession;

    #[test]
    fn traces_and_validates() {
        let app = Sweep3d::builder().ranks(4).planes(4).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        assert_eq!(bundle.original().rank_count(), 4);
        // Interior comms exist: total p2p bytes > 0.
        assert!(bundle.original().total_p2p_send_bytes() > 0);
        // Both overlapped variants validate.
        bundle.overlapped_real();
        bundle.overlapped_linear();
    }

    #[test]
    fn corner_rank_has_no_upstream_in_first_octant() {
        let app = Sweep3d::builder().ranks(9).build().unwrap();
        // Rank 0 is the NW corner: octant (+1,+1) has no upstream.
        let (ux, uy) = app.upstream(Rank::new(0), 1, 1);
        assert_eq!((ux, uy), (None, None));
        let (dx, dy) = app.downstream(Rank::new(0), 1, 1);
        assert!(dx.is_some() && dy.is_some());
    }

    #[test]
    fn fixup_makes_production_late() {
        use ovlsim_tracer::TracingSession;
        let app = Sweep3d::builder().ranks(4).planes(8).build().unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        // Find a send with a production profile and confirm the first
        // chunk is only ready near the end of its window.
        let meta = &bundle.metas()[0];
        let send = meta.sends.first().expect("rank 0 sends");
        let prof = send.production.as_ref().unwrap();
        let first_plane_ready = prof.ready_at(0..app.plane_face_bytes);
        let full_ready = prof.fully_ready_at();
        // With fix-up, the first plane's slice is rewritten at the end:
        // within 6% of the full production instant.
        assert!(
            first_plane_ready.get() as f64 >= full_ready.get() as f64 * 0.94,
            "first plane ready at {first_plane_ready}, full at {full_ready}"
        );
    }

    #[test]
    fn no_fixup_production_is_spread() {
        let app = Sweep3d::builder()
            .ranks(4)
            .planes(8)
            .flux_fixup(false)
            .build()
            .unwrap();
        let bundle = TracingSession::new(&app).run().unwrap();
        let meta = &bundle.metas()[0];
        let send = meta.sends.first().expect("rank 0 sends");
        let prof = send.production.as_ref().unwrap();
        let first = prof.ready_at(0..app.plane_face_bytes).get();
        let full = prof.fully_ready_at().get();
        // Without the fix-up, plane 0's slice is final after the first
        // plane: roughly (planes-1) plane-times before full production.
        let spread = full - first;
        assert!(
            spread >= 7 * 50_000 * 9 / 10,
            "first plane should be ready ~7 planes early, spread = {spread}"
        );
    }

    #[test]
    fn builder_validation() {
        assert!(Sweep3d::builder().ranks(0).build().is_err());
        assert!(Sweep3d::builder().planes(0).build().is_err());
        assert!(Sweep3d::builder().iterations(0).build().is_err());
        assert!(Sweep3d::builder().fixup_fraction(1.5).build().is_err());
        assert!(Sweep3d::builder().ranks(6).build().is_ok()); // 3x2 grid
    }

    #[test]
    fn message_bytes_consistent() {
        let app = Sweep3d::builder()
            .planes(10)
            .plane_face_bytes(1000)
            .build()
            .unwrap();
        assert_eq!(app.message_bytes(), 10_000);
    }
}
