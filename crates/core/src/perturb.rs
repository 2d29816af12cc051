//! Deterministic perturbation model: seeded OS noise, stragglers,
//! heterogeneous node speeds, link degradation/jitter, and transient link
//! faults.
//!
//! The paper's question — how much can overlap buy? — is answered by the
//! clean replay engines on a perfectly quiet machine. A
//! [`PerturbationModel`] layered onto a [`Platform`](crate::Platform)
//! asks the follow-up: *how much of that gain survives a realistic one?*
//! Every effect is derived from coordinate hashes
//! ([`rng::hash_counters`](crate::rng::hash_counters)) instead of mutable
//! RNG state, so the same seed gives the same perturbed execution
//! regardless of replay engine, event interleaving, or worker count:
//!
//! * **OS noise** — each compute burst `i` of rank `r` is stretched by a
//!   factor in `[1, 1 + level)` drawn from `hash(seed, NOISE, r, i)`.
//! * **Stragglers** — a set of ranks whose bursts are additionally
//!   multiplied by a fixed slowdown.
//! * **Heterogeneous nodes** — a per-node CPU speed multiplier list
//!   (cycled by node index), generalizing the platform's scalar
//!   `cpu_ratio`.
//! * **Link degradation** — each directed rank pair's wire occupancy is
//!   stretched by a stable factor in `[1, 1 + degradation)` drawn from
//!   `hash(seed, LINK, src, dst)`.
//! * **Latency jitter** — each message adds an extra flight delay in
//!   `[0, jitter)` drawn from `hash(seed, JITTER, src, dst, tag, seq)`,
//!   where `seq` is the message's per-channel send ordinal (an
//!   engine-invariant counter: one sender per channel, FIFO order).
//! * **Faults** — each directed link is down during periodic windows of
//!   length `downtime` every `period`, phase-shifted per link by
//!   `hash(seed, FAULT, src, dst)`; a transfer that becomes ready while
//!   its link is down launches when the window ends.
//!
//! Compute effects key on raw rank/node numbers and per-rank burst
//! ordinals; link effects key on raw `(src, dst)` rank pairs — never on
//! engine-internal ids — which is what makes all three replay engines
//! bit-identical under any seeded perturbation.

use crate::error::CoreError;
use crate::rng::{hash_counters, unit_f64};
use crate::time::Time;

/// Stream tags keeping the perturbation axes statistically independent.
const STREAM_NOISE: u64 = 1;
const STREAM_LINK: u64 = 2;
const STREAM_JITTER: u64 = 3;
const STREAM_FAULT: u64 = 4;

/// A seeded, fully deterministic description of how a platform deviates
/// from the clean machine model. The module-level docs describe the
/// effect axes and their seeding scheme.
///
/// The default value (and [`PerturbationModel::new`] before any `with_*`
/// call) is the **identity**: every replay is bit-identical to one
/// without a model attached.
///
/// # Example
///
/// ```
/// use ovlsim_core::{PerturbationModel, Time};
///
/// # fn main() -> Result<(), ovlsim_core::CoreError> {
/// let model = PerturbationModel::new(42)
///     .with_noise(0.1)?
///     .with_stragglers(&[0], 2.0)?
///     .with_faults(Time::from_us(200), Time::from_us(20))?;
/// assert!(!model.is_identity());
/// // Identical coordinates always give identical factors.
/// assert_eq!(model.burst_factor(1.0, 3, 0, 17), model.burst_factor(1.0, 3, 0, 17));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbationModel {
    seed: u64,
    noise_level: f64,
    straggler_slowdown: f64,
    stragglers: Vec<u32>,
    node_speeds: Vec<f64>,
    link_degradation: f64,
    latency_jitter: Time,
    fault_period: Time,
    fault_downtime: Time,
}

impl Default for PerturbationModel {
    fn default() -> Self {
        PerturbationModel::new(0)
    }
}

impl PerturbationModel {
    /// Creates the identity model carrying `seed` (no effect until a
    /// `with_*` method switches an axis on).
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        PerturbationModel {
            seed,
            noise_level: 0.0,
            straggler_slowdown: 1.0,
            stragglers: Vec::new(),
            node_speeds: Vec::new(),
            link_degradation: 0.0,
            latency_jitter: Time::ZERO,
            fault_period: Time::ZERO,
            fault_downtime: Time::ZERO,
        }
    }

    /// The model's seed.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the OS-noise level: each burst stretches by a factor in
    /// `[1, 1 + level)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPerturbation`] unless `level` is finite and
    /// non-negative.
    pub fn with_noise(mut self, level: f64) -> Result<Self, CoreError> {
        if !level.is_finite() || level < 0.0 {
            return Err(CoreError::InvalidPerturbation {
                param: "noise level",
                value: level,
            });
        }
        self.noise_level = level;
        Ok(self)
    }

    /// Marks `ranks` as stragglers whose bursts are multiplied by
    /// `slowdown` (deduplicated; order irrelevant).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPerturbation`] unless `slowdown` is finite and
    /// at least 1.
    pub fn with_stragglers(mut self, ranks: &[u32], slowdown: f64) -> Result<Self, CoreError> {
        if !slowdown.is_finite() || slowdown < 1.0 {
            return Err(CoreError::InvalidPerturbation {
                param: "straggler slowdown",
                value: slowdown,
            });
        }
        let mut sorted = ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.stragglers = sorted;
        self.straggler_slowdown = slowdown;
        Ok(self)
    }

    /// Sets per-node CPU speed multipliers, cycled by node index (node `n`
    /// runs at `speeds[n % len]` times the platform's `cpu_ratio`). An
    /// empty list means homogeneous nodes.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPerturbation`] unless every speed is finite and
    /// strictly positive.
    pub fn with_node_speeds(mut self, speeds: &[f64]) -> Result<Self, CoreError> {
        for &s in speeds {
            if !s.is_finite() || s <= 0.0 {
                return Err(CoreError::InvalidPerturbation {
                    param: "node speed",
                    value: s,
                });
            }
        }
        self.node_speeds = speeds.to_vec();
        Ok(self)
    }

    /// Sets the per-link degradation level: each directed link's wire
    /// occupancy stretches by a stable factor in `[1, 1 + degradation)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPerturbation`] unless `degradation` is finite
    /// and non-negative.
    pub fn with_link_degradation(mut self, degradation: f64) -> Result<Self, CoreError> {
        if !degradation.is_finite() || degradation < 0.0 {
            return Err(CoreError::InvalidPerturbation {
                param: "link degradation",
                value: degradation,
            });
        }
        self.link_degradation = degradation;
        Ok(self)
    }

    /// Sets the per-message latency jitter bound: each inter-node message
    /// adds an extra flight delay in `[0, jitter)`.
    #[must_use]
    pub fn with_latency_jitter(mut self, jitter: Time) -> Self {
        self.latency_jitter = jitter;
        self
    }

    /// Enables transient link faults: every directed link is down during
    /// windows of `downtime` every `period`, phase-shifted per link.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPerturbation`] unless
    /// `0 < downtime < period`.
    pub fn with_faults(mut self, period: Time, downtime: Time) -> Result<Self, CoreError> {
        if period.is_zero() || downtime.is_zero() || downtime >= period {
            return Err(CoreError::InvalidPerturbation {
                param: "fault window",
                value: downtime.as_ps() as f64,
            });
        }
        self.fault_period = period;
        self.fault_downtime = downtime;
        Ok(self)
    }

    /// The OS-noise level (`0.0` when off).
    #[must_use]
    pub const fn noise_level(&self) -> f64 {
        self.noise_level
    }

    /// The per-link degradation level (`0.0` when off).
    #[must_use]
    pub const fn link_degradation(&self) -> f64 {
        self.link_degradation
    }

    /// The per-message latency jitter bound ([`Time::ZERO`] when off).
    #[must_use]
    pub const fn latency_jitter(&self) -> Time {
        self.latency_jitter
    }

    /// True when the model perturbs nothing: replays with it attached are
    /// bit-identical to clean replays.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        !self.has_compute_effects() && !self.has_link_effects() && !self.has_faults()
    }

    /// True when any compute-side axis is active (noise, stragglers,
    /// heterogeneous nodes).
    #[must_use]
    pub fn has_compute_effects(&self) -> bool {
        self.noise_level > 0.0
            || !self.node_speeds.is_empty()
            || (self.straggler_slowdown > 1.0 && !self.stragglers.is_empty())
    }

    /// True when any wire-side axis is active (degradation or jitter).
    #[must_use]
    pub fn has_link_effects(&self) -> bool {
        self.link_degradation > 0.0 || !self.latency_jitter.is_zero()
    }

    /// True when transient link faults are active.
    #[must_use]
    pub fn has_faults(&self) -> bool {
        !self.fault_period.is_zero()
    }

    /// The combined duration factor for compute burst `burst_index` of
    /// `rank` on `node`, folded over the platform's `1 / cpu_ratio`.
    ///
    /// The multiply order is fixed (cpu ratio, node speed, straggler,
    /// noise) and shared by every engine, so per-burst rounding through
    /// [`Time::scale_f64`] is bit-identical across them. Equals
    /// [`burst_prefactor`](Self::burst_prefactor) times
    /// [`noise_factor`](Self::noise_factor) — engines on a hot path hoist
    /// the prefactor per rank and draw only the noise term per burst.
    #[inline]
    #[must_use]
    pub fn burst_factor(&self, inv_cpu_ratio: f64, rank: u32, node: u32, burst_index: u64) -> f64 {
        let f = self.burst_prefactor(inv_cpu_ratio, rank, node);
        if self.noise_level > 0.0 {
            f * self.noise_factor(rank, burst_index)
        } else {
            f
        }
    }

    /// The burst-index-independent part of
    /// [`burst_factor`](Self::burst_factor): cpu ratio, node speed and
    /// straggler slowdown folded in the engine-shared multiply order.
    /// Constant per rank, so replay engines hoist it out of the event
    /// loop.
    #[inline]
    #[must_use]
    pub fn burst_prefactor(&self, inv_cpu_ratio: f64, rank: u32, node: u32) -> f64 {
        let mut f = inv_cpu_ratio;
        if !self.node_speeds.is_empty() {
            f /= self.node_speeds[node as usize % self.node_speeds.len()];
        }
        if self.straggler_slowdown > 1.0 && self.stragglers.binary_search(&rank).is_ok() {
            f *= self.straggler_slowdown;
        }
        f
    }

    /// The OS-noise stretch of compute burst `burst_index` of `rank`
    /// (`1.0` when noise is off).
    #[inline]
    #[must_use]
    pub fn noise_factor(&self, rank: u32, burst_index: u64) -> f64 {
        if self.noise_level <= 0.0 {
            return 1.0;
        }
        let u = unit_f64(hash_counters(
            self.seed,
            &[STREAM_NOISE, u64::from(rank), burst_index],
        ));
        1.0 + self.noise_level * u
    }

    /// The stable wire-occupancy stretch factor of the directed link
    /// `src -> dst` (1.0 when degradation is off).
    #[inline]
    #[must_use]
    pub fn link_factor(&self, src: u32, dst: u32) -> f64 {
        if self.link_degradation <= 0.0 {
            return 1.0;
        }
        let u = unit_f64(hash_counters(
            self.seed,
            &[STREAM_LINK, u64::from(src), u64::from(dst)],
        ));
        1.0 + self.link_degradation * u
    }

    /// The extra flight delay of message number `seq` on the channel
    /// `(src, dst, tag)` ([`Time::ZERO`] when jitter is off).
    #[inline]
    #[must_use]
    pub fn latency_jitter_for(&self, src: u32, dst: u32, tag: u64, seq: u64) -> Time {
        if self.latency_jitter.is_zero() {
            return Time::ZERO;
        }
        let u = unit_f64(hash_counters(
            self.seed,
            &[STREAM_JITTER, u64::from(src), u64::from(dst), tag, seq],
        ));
        self.latency_jitter.scale_f64(u)
    }

    /// If the directed link `src -> dst` is down at `at`, the instant its
    /// current outage window ends; `None` when the link is up (or faults
    /// are off).
    #[inline]
    #[must_use]
    pub fn outage_end(&self, src: u32, dst: u32, at: Time) -> Option<Time> {
        if self.fault_period.is_zero() {
            return None;
        }
        let p = self.fault_period.as_ps();
        let d = self.fault_downtime.as_ps();
        let off = hash_counters(self.seed, &[STREAM_FAULT, u64::from(src), u64::from(dst)]) % p;
        // Position within the link's period, with the window at [0, d).
        let q = ((u128::from(at.as_ps()) + u128::from(p) - u128::from(off)) % u128::from(p)) as u64;
        (q < d).then(|| Time::from_ps(at.as_ps() + (d - q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_identity() {
        let m = PerturbationModel::default();
        assert!(m.is_identity());
        assert!(!m.has_compute_effects());
        assert!(!m.has_link_effects());
        assert!(!m.has_faults());
        assert_eq!(m.burst_factor(0.5, 0, 0, 0), 0.5);
        assert_eq!(m.link_factor(0, 1), 1.0);
        assert_eq!(m.latency_jitter_for(0, 1, 0, 0), Time::ZERO);
        assert_eq!(m.outage_end(0, 1, Time::from_us(3)), None);
    }

    #[test]
    fn validation_rejects_out_of_domain_values() {
        let m = || PerturbationModel::new(1);
        assert!(m().with_noise(-0.1).is_err());
        assert!(m().with_noise(f64::NAN).is_err());
        assert!(m().with_stragglers(&[0], 0.5).is_err());
        assert!(m().with_stragglers(&[0], f64::INFINITY).is_err());
        assert!(m().with_node_speeds(&[1.0, 0.0]).is_err());
        assert!(m().with_node_speeds(&[-1.0]).is_err());
        assert!(m().with_link_degradation(-0.2).is_err());
        assert!(m()
            .with_faults(Time::from_us(10), Time::from_us(10))
            .is_err());
        assert!(m().with_faults(Time::ZERO, Time::ZERO).is_err());
        assert!(m().with_faults(Time::from_us(10), Time::from_us(1)).is_ok());
    }

    #[test]
    fn noise_stretches_within_bounds_and_depends_on_coordinates() {
        let m = PerturbationModel::new(7).with_noise(0.25).unwrap();
        assert!(m.has_compute_effects());
        let f = m.burst_factor(1.0, 2, 0, 5);
        assert!((1.0..1.25).contains(&f));
        // Different burst, rank or seed moves the draw.
        assert_ne!(f, m.burst_factor(1.0, 2, 0, 6));
        assert_ne!(f, m.burst_factor(1.0, 3, 0, 5));
        let other = PerturbationModel::new(8).with_noise(0.25).unwrap();
        assert_ne!(f, other.burst_factor(1.0, 2, 0, 5));
        // Identical coordinates are bit-identical (counter-based, no
        // draw-order dependence).
        assert_eq!(f, m.burst_factor(1.0, 2, 0, 5));
    }

    #[test]
    fn stragglers_and_node_speeds_compose_deterministically() {
        let m = PerturbationModel::new(3)
            .with_stragglers(&[1, 1, 4], 2.0)
            .unwrap()
            .with_node_speeds(&[1.0, 0.5])
            .unwrap();
        // Rank 1 on node 0 (full speed): only the straggler factor.
        assert_eq!(m.burst_factor(1.0, 1, 0, 0), 2.0);
        // Rank 0 on node 1 (half speed): only the node factor.
        assert_eq!(m.burst_factor(1.0, 0, 1, 0), 2.0);
        // Node speeds cycle.
        assert_eq!(m.burst_factor(1.0, 0, 2, 0), 1.0);
        // Straggler slowdown of exactly 1.0 is the identity.
        let id = PerturbationModel::new(3)
            .with_stragglers(&[1], 1.0)
            .unwrap();
        assert!(!id.has_compute_effects());
    }

    #[test]
    fn link_factor_is_stable_per_link() {
        let m = PerturbationModel::new(5)
            .with_link_degradation(0.5)
            .unwrap();
        assert!(m.has_link_effects());
        let f01 = m.link_factor(0, 1);
        let f10 = m.link_factor(1, 0);
        assert!((1.0..1.5).contains(&f01));
        assert_ne!(f01, f10, "directed links degrade independently");
        assert_eq!(f01, m.link_factor(0, 1));
    }

    #[test]
    fn jitter_is_bounded_and_per_message() {
        let m = PerturbationModel::new(5).with_latency_jitter(Time::from_us(10));
        assert!(m.has_link_effects());
        let j0 = m.latency_jitter_for(0, 1, 0, 0);
        let j1 = m.latency_jitter_for(0, 1, 0, 1);
        assert!(j0 < Time::from_us(10));
        assert_ne!(j0, j1, "messages draw independent jitter");
        assert_eq!(j0, m.latency_jitter_for(0, 1, 0, 0));
    }

    #[test]
    fn outage_windows_are_periodic_and_phase_shifted() {
        let period = Time::from_us(100);
        let down = Time::from_us(10);
        let m = PerturbationModel::new(11)
            .with_faults(period, down)
            .unwrap();
        assert!(m.has_faults());
        // Scan one period: the link must be down for exactly `down` worth
        // of 1 us steps, in one contiguous (mod period) window.
        let mut down_steps = 0;
        for us in 0..100 {
            if let Some(end) = m.outage_end(0, 1, Time::from_us(us)) {
                down_steps += 1;
                assert!(end > Time::from_us(us));
                assert!(end <= Time::from_us(us) + down);
                // The window end reported from inside the window is the
                // point where the link reports up again.
                assert_eq!(m.outage_end(0, 1, end), None);
            }
        }
        assert_eq!(down_steps, 10);
        // The same instant one period later is in the same state.
        let a = m.outage_end(0, 1, Time::from_us(3));
        let b = m.outage_end(0, 1, Time::from_us(103));
        assert_eq!(a.is_some(), b.is_some());
        // Different links are phase-shifted (with overwhelming
        // probability for this seed).
        let phases: Vec<bool> = (0..8)
            .map(|dst| m.outage_end(0, dst, Time::from_us(3)).is_some())
            .collect();
        assert!(
            phases.iter().any(|&p| p) || phases.iter().any(|&p| !p),
            "trivially true; documents the probe"
        );
    }

    #[test]
    fn model_equality_and_clone() {
        let a = PerturbationModel::new(1).with_noise(0.1).unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, PerturbationModel::new(2).with_noise(0.1).unwrap());
    }
}
