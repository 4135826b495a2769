//! Deterministic pseudo-random number generation.
//!
//! Experiments must be byte-stable across machines and dependency upgrades,
//! so instead of `rand::rngs::StdRng` (whose algorithm is explicitly *not*
//! stability-guaranteed) we ship our own xoshiro256++ implementation seeded
//! through SplitMix64, exactly as recommended by the xoshiro authors.
//! [`SimRng`] carries its own distribution toolkit (uniform, normal,
//! Poisson, geometric, shuffling) so no external RNG crate is needed
//! anywhere in the workspace.

/// SplitMix64 step — used to expand a 64-bit seed into xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable, reproducible xoshiro256++ generator.
///
/// ```
/// use flower_sim::SimRng;
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream. Each `(seed, label)` pair gives
    /// a distinct deterministic stream; used to hand every simulated
    /// component (workload, service noise, controller jitter, ...) its own
    /// RNG so adding a component never perturbs the draws of another.
    pub fn fork(&self, label: u64) -> Self {
        // Mix the label into the current state through SplitMix64 so forks
        // with different labels are decorrelated.
        let [s0, _, _, s3] = self.s;
        let mut sm = s0 ^ s3 ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // Slice-pattern destructuring: infallible on the fixed [u64; 4]
        // state, so the scrambler has no indexing panic paths at all.
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of entropy.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`. Panics if `lo > hi` (debug builds)
    /// via the arithmetic producing a NaN-free but inverted range check.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform range inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift rejection
    /// method (unbiased). Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        // Lemire 2019: unbiased bounded integers without division in the
        // common case.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn int_range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "int_range inverted: [{lo}, {hi}]");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// Standard normal draw (Marsaglia polar method).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = self.uniform(-1.0, 1.0);
            let v = self.uniform(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0, "negative std_dev");
        mean + std_dev * self.standard_normal()
    }

    /// Exponential draw with the given rate parameter `lambda` (> 0).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        // 1 - U is in (0, 1], so ln never sees zero.
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Poisson draw with mean `lambda >= 0`.
    ///
    /// Uses Knuth's product method for small means and a normal
    /// approximation (continuity-corrected, clamped at zero) for large
    /// means, which is standard practice for simulation workload
    /// generators.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "invalid Poisson mean {lambda}"
        );
        // lint:allow(float-eq-zero): exact-zero sentinel — any positive mean, however small, takes the sampling path
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let draw = self.normal(lambda, lambda.sqrt());
            draw.round().max(0.0) as u64
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Geometric draw: number of Bernoulli(p) trials up to and including
    /// the first success (support `1, 2, ...`). Panics unless `0 < p <= 1`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric p must be in (0, 1]");
        if p >= 1.0 {
            return 1;
        }
        let u = 1.0 - self.next_f64(); // in (0, 1]
        (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let root = SimRng::seed(99);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::seed(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn poisson_mean_matches() {
        let mut rng = SimRng::seed(5);
        for &lambda in &[0.5, 4.0, 25.0, 200.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.sqrt() * 0.15 + 0.05,
                "lambda={lambda}, mean={mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = SimRng::seed(5);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed(13);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed(17);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn geometric_mean() {
        let mut rng = SimRng::seed(19);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.geometric(0.25) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
        assert_eq!(rng.geometric(1.0), 1);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed(29);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(37);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn int_range_inclusive() {
        let mut rng = SimRng::seed(41);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.int_range(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi);
    }
}
