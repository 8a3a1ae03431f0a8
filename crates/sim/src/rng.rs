//! Deterministic random-number generation for the simulator.
//!
//! Reproducibility is a hard requirement: the paper's Figure 8 reports means
//! of 30 trials with confidence intervals, and regenerating the figure must
//! give the same numbers run after run, on any platform. We therefore
//! implement xoshiro256** directly (public-domain algorithm by Blackman &
//! Vigna) rather than depend on `rand`'s generator selection, and expose
//! *stream splitting* so every independent stochastic component (each link's
//! loss process, each receiver's coin flips) draws from its own substream —
//! adding a component never perturbs the draws of existing ones.

/// A xoshiro256** generator. Deterministic, fast, and good enough for
/// discrete-event simulation (not cryptographic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed from a single 64-bit value (expanded through SplitMix64, the
    /// recommended seeding procedure).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        // All-zero state is invalid (fixed point); SplitMix64 cannot emit
        // four zeros from any seed, but guard anyway.
        let s = if s == [0, 0, 0, 0] { [1, 2, 3, 4] } else { s };
        SimRng { s }
    }

    /// Derive an independent substream for component `stream`. Streams
    /// derived from the same base with different ids are de-correlated by
    /// mixing the id into the seed material.
    pub fn split(&self, stream: u64) -> SimRng {
        // Hash the current state with the stream id through SplitMix64.
        let mix = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47);
        SimRng::seed_from_u64(mix ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform double in `[0, 1)` (53-bit precision).
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// One draw against a [`bernoulli_threshold`]: `true` iff the draw's
    /// top 53 bits (the integer [`SimRng::unit`] scales by `2^-53`) fall
    /// below `t`.
    #[inline]
    pub(crate) fn below_threshold(&mut self, t: u64) -> bool {
        (self.next_u64() >> 11) < t
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire-style rejection-free mapping is fine at simulation quality.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The integer form of [`SimRng::bernoulli`] for `p` strictly inside
/// `(0, 1)`: `rng.bernoulli(p)` and `rng.below_threshold(bernoulli_threshold(p))`
/// give the same answer from the same single draw.
///
/// `unit()` is a 53-bit integer `k` times `2^-53`, and scaling `p` by the
/// power of two `2^53` is exact, so `unit() < p` holds exactly when
/// `k < p·2^53`, that is when `k < ceil(p·2^53)`. For `p` in `(0, 1)` the
/// threshold lies in `[1, 2^53]`. A NaN `p` maps to 0, a test no draw
/// passes, just as `unit() < NaN` is false.
pub(crate) fn bernoulli_threshold(p: f64) -> u64 {
    // Saturating float-to-int: NaN becomes 0; in-range values are exact.
    (p * (1u64 << 53) as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut rng = SimRng::seed_from_u64(4);
        for p in [0.0, 0.05, 0.5, 0.95, 1.0] {
            let n = 50_000;
            let hits = (0..n).filter(|_| rng.bernoulli(p)).count();
            let freq = hits as f64 / n as f64;
            assert!((freq - p).abs() < 0.01, "p={p}, freq={freq}");
        }
    }

    #[test]
    fn below_stays_in_bounds_and_covers() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues hit");
    }

    #[test]
    fn split_streams_are_decorrelated_and_stable() {
        let base = SimRng::seed_from_u64(9);
        let mut s1 = base.split(1);
        let mut s1_again = base.split(1);
        let mut s2 = base.split(2);
        let mut matches = 0;
        for _ in 0..64 {
            let a = s1.next_u64();
            assert_eq!(a, s1_again.next_u64(), "same stream id, same draws");
            if a == s2.next_u64() {
                matches += 1;
            }
        }
        assert_eq!(matches, 0, "streams 1 and 2 must differ");
    }

    #[test]
    fn splitting_is_independent_of_parent_consumption() {
        // split() reads the state but does not advance it.
        let base = SimRng::seed_from_u64(11);
        let s_before = base.split(5);
        let parent = base.clone();
        let mut parent2 = parent.clone();
        let _ = parent2.next_u64();
        let s_after = base.split(5);
        assert_eq!(s_before, s_after);
    }
}
