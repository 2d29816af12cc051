//! Dependency-free deterministic randomness: splitmix64 as both a
//! sequential generator and a **counter-based** keyed hash.
//!
//! Everything in `ovlsim` that needs randomness — most importantly the
//! [`PerturbationModel`](crate::PerturbationModel) — derives it by hashing
//! *coordinates* (seed, stream, rank, burst index, …) instead of drawing
//! from mutable generator state. A counter-based scheme has no draw order,
//! so replaying the same scenario from different engines, in a different
//! event interleaving, or across `OVLSIM_THREADS` worker counts yields
//! bit-identical values by construction.
//!
//! The finalizer is the standard splitmix64 mix (Steele, Lea & Flood;
//! Vigna's reference C implementation): [`SplitMix64`] reproduces the
//! published output sequence exactly, and [`hash_counters`] chains the
//! same mix over a word list.

/// The golden-ratio increment of the splitmix64 sequence.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a fast, well-dispersed bijection on `u64`.
#[inline]
#[must_use]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)` using the top 53
/// bits (the standard `2^-53` ladder — every representable value is an
/// exact multiple of `2^-53`, so the mapping is platform-independent).
#[inline]
#[must_use]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// Hashes a seed plus a list of counter words into one well-mixed `u64`.
///
/// This is the counter-based entry point: the result depends only on the
/// values `(seed, words...)`, never on call order. Distinct word lists of
/// the same length produce independent-looking outputs; callers separate
/// *streams* (noise vs link vs fault) by making a stream tag the first
/// word.
#[inline]
#[must_use]
pub fn hash_counters(seed: u64, words: &[u64]) -> u64 {
    let mut h = mix64(seed.wrapping_add(GOLDEN_GAMMA));
    for &w in words {
        h = mix64(h.wrapping_add(GOLDEN_GAMMA).wrapping_add(w));
    }
    h
}

/// The splitmix64 sequential generator (Vigna's reference semantics).
///
/// Kept for the rare places that want a *stream* of values from one seed;
/// simulation code should prefer [`hash_counters`], which cannot depend on
/// draw order.
///
/// # Example
///
/// ```
/// use ovlsim_core::rng::SplitMix64;
///
/// let mut rng = SplitMix64::new(1234567);
/// assert_eq!(rng.next_u64(), 6457827717110365317);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_vectors_seed_zero() {
        // Reference outputs of Vigna's splitmix64.c for seed 0.
        let mut rng = SplitMix64::new(0);
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                16294208416658607535,
                7960286522194355700,
                487617019471545679,
                17909611376780542444,
                1961750202426094747,
            ]
        );
    }

    #[test]
    fn splitmix64_known_vectors_seed_1234567() {
        let mut rng = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423,
                4593380528125082431,
                16408922859458223821,
            ]
        );
    }

    #[test]
    fn mix64_known_points() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 6238072747940578789);
        assert_eq!(mix64(0x1234_5678_9abc_def0), 10820449572363811078);
    }

    #[test]
    fn hash_counters_known_vectors() {
        assert_eq!(hash_counters(42, &[1, 2, 3]), 9118805310061913749);
        assert_eq!(hash_counters(42, &[1, 2, 4]), 5750696328165218367);
        assert_eq!(hash_counters(42, &[]), 13679457532755275413);
        assert_eq!(hash_counters(0, &[0]), 12035550249420947055);
    }

    #[test]
    fn hash_counters_is_order_free_but_coordinate_sensitive() {
        // Same coordinates always hash alike; any changed coordinate
        // (seed, position, value) changes the output.
        let a = hash_counters(7, &[3, 9]);
        assert_eq!(a, hash_counters(7, &[3, 9]));
        assert_ne!(a, hash_counters(8, &[3, 9]));
        assert_ne!(a, hash_counters(7, &[9, 3]));
        assert_ne!(a, hash_counters(7, &[3]));
    }

    #[test]
    fn unit_f64_range_and_determinism() {
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
        let mut rng = SplitMix64::new(99);
        for _ in 0..1000 {
            let v = unit_f64(rng.next_u64());
            assert!((0.0..1.0).contains(&v));
        }
        // The f64 ladder is exact: the same bits always map to the same
        // value, with no platform-dependent rounding.
        assert_eq!(unit_f64(1 << 11), 2.0_f64.powi(-53));
    }
}
