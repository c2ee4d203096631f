//! Deterministic pseudo-random number generation.
//!
//! Every experiment in the reproduction is seeded, so that the tables and
//! figures regenerated by the bench harness are exactly repeatable.  The
//! generator is an xoshiro256** core seeded through SplitMix64, the standard
//! construction recommended by the xoshiro authors.  It is *not* a
//! cryptographic generator; the electronic-cash crate documents its own,
//! separate unforgeability assumptions.

/// A deterministic, seedable pseudo-random number generator.
///
/// The generator is cheap to clone (four `u64` words of state), which the
/// simulator uses to derive independent per-site streams from a master seed.
///
/// # Examples
///
/// ```
/// use tacoma_util::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step, used for seeding and for deriving sub-streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state }
    }

    /// Derives an independent sub-stream, e.g. one per simulated site.
    ///
    /// The derivation mixes the label into the parent state through
    /// SplitMix64 so that distinct labels give uncorrelated streams while the
    /// parent generator is left untouched.
    pub fn derive(&self, label: u64) -> Self {
        let mut sm = self.state[0]
            ^ self.state[1].rotate_left(17)
            ^ self.state[2].rotate_left(31)
            ^ self.state[3].rotate_left(47)
            ^ label.wrapping_mul(0xA076_1D64_78BD_642F);
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state }
    }

    /// Returns the next 64 random bits (xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire's method: rejection in the low word keeps the result unbiased.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64 requires lo <= hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 significant bits, the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Returns an exponentially distributed value with the given mean.
    ///
    /// Used by workload generators for Poisson-like arrival processes.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Returns a bounded-Pareto distributed value on `[lo, hi]` with shape
    /// `alpha`.
    ///
    /// Heavy-tailed job and message sizes are the realistic regime for
    /// open-system workloads: most arrivals are small, but the tail carries
    /// most of the work.  The bounded variant keeps every sample inside
    /// `[lo, hi]`, so a single draw can never exceed the configured ceiling —
    /// which is what makes saturation experiments reproducible instead of
    /// dominated by one astronomically unlucky sample.  Sampling is by
    /// inverse CDF from one uniform draw, so it is exactly as deterministic
    /// as [`DetRng::next_f64`].
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0`, `lo <= 0`, or `lo > hi`.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0, "bounded_pareto shape must be positive");
        assert!(lo > 0.0, "bounded_pareto lower bound must be positive");
        assert!(lo <= hi, "bounded_pareto requires lo <= hi");
        if lo == hi {
            return lo;
        }
        let u = self.next_f64();
        // Inverse CDF of the bounded Pareto: F(x) = (1 - (lo/x)^a) / (1 - (lo/hi)^a).
        let ratio = (lo / hi).powf(alpha);
        let x = lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
        x.clamp(lo, hi)
    }

    /// Returns an approximately normally distributed value (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn derive_is_stable_and_independent() {
        let parent = DetRng::new(99);
        let mut c1 = parent.derive(1);
        let mut c1b = parent.derive(1);
        let mut c2 = parent.derive(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DetRng::new(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = DetRng::new(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_u64_inclusive_endpoints() {
        let mut rng = DetRng::new(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = rng.range_u64(10, 13);
            assert!((10..=13).contains(&v));
            lo_seen |= v == 10;
            hi_seen |= v == 13;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(21);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut rng = DetRng::new(17);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits} hits for p=0.25");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = DetRng::new(23);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((3.6..4.4).contains(&mean), "mean {mean} too far from 4.0");
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_skews_low() {
        let mut rng = DetRng::new(19);
        let (lo, hi) = (256.0, 65_536.0);
        let mut below_median_bound = 0usize;
        for _ in 0..5_000 {
            let v = rng.bounded_pareto(1.3, lo, hi);
            assert!((lo..=hi).contains(&v), "sample {v} escaped [{lo}, {hi}]");
            if v < 2.0 * lo {
                below_median_bound += 1;
            }
        }
        // Heavy tail, light body: most samples sit near the floor.
        assert!(
            below_median_bound > 2_500,
            "only {below_median_bound}/5000 samples were under 2*lo"
        );
    }

    #[test]
    fn bounded_pareto_degenerate_interval_is_constant() {
        let mut rng = DetRng::new(4);
        assert_eq!(rng.bounded_pareto(2.0, 7.0, 7.0), 7.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = DetRng::new(2);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert!(rng.choose(&[42]).is_some());
    }
}
