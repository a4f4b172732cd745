//! Seeded randomness utilities.
//!
//! Every stochastic element of the simulation (latency jitter, WAN bandwidth
//! variability, workload generation) draws from a [`DetRng`] seeded at
//! simulation start, so experiment runs are exactly reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random number generator for simulations.
///
/// Wraps [`SmallRng`] with convenience samplers used across the Cloud4Home
/// crates. Two `DetRng`s constructed with the same seed produce identical
/// streams.
///
/// # Examples
///
/// ```
/// use c4h_simnet::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Forks an independent generator whose stream is derived from this one.
    ///
    /// Forking lets subsystems own private RNGs without coupling their draw
    /// counts: consuming extra samples in one subsystem does not perturb the
    /// others.
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed(self.inner.gen())
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform: lo {lo} > hi {hi}");
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_u64: empty range {lo}..{hi}");
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli sample: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen_bool(p)
    }

    /// A multiplicative jitter factor in `[1 - spread, 1 + spread]`.
    ///
    /// Used to perturb latencies and bandwidths; `spread` is clamped to
    /// `[0, 0.99]` so the factor stays positive.
    pub fn jitter_factor(&mut self, spread: f64) -> f64 {
        let s = spread.clamp(0.0, 0.99);
        self.uniform(1.0 - s, 1.0 + s + f64::EPSILON)
    }

    /// A heavy-tailed positive sample with the given `median` value.
    ///
    /// Approximates a log-normal by exponentiating a uniform spread; used for
    /// WAN bandwidth availability, which the paper reports as highly variable
    /// (average 1.5 Mbps against a 6.5 Mbps maximum).
    pub fn heavy_tail(&mut self, median: f64, sigma: f64) -> f64 {
        // Sum of three uniforms approximates a normal (Irwin–Hall).
        let n = (self.uniform(-1.0, 1.0) + self.uniform(-1.0, 1.0) + self.uniform(-1.0, 1.0))
            / 3.0_f64.sqrt();
        median * (sigma * n).exp()
    }

    /// Raw access to the underlying [`Rng`] for samplers not covered above.
    pub fn raw(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

/// Zipf-like popularity over `n` items with exponent `s`: item `k` (0-based)
/// has weight `(k + 1)^-s`.
///
/// The weights and their sum are computed once, so a draw costs one uniform
/// draw and a walk down the table to the chosen rank — O(rank), not O(n)
/// `powf` calls. Draws are inverse-CDF sampling over the truncated harmonic
/// distribution: one `uniform(0, total)` draw, then the weights subtracted
/// in rank order until the remainder falls below the next weight.
///
/// # Examples
///
/// ```
/// use c4h_simnet::{DetRng, Zipf};
///
/// let popularity = Zipf::new(100, 0.9);
/// let mut rng = DetRng::seed(42);
/// let rank = popularity.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    weights: Vec<f64>,
    total: f64,
}

impl Zipf {
    /// Builds the table of `n` weights `k^-s`, `k = 1..=n`, and their sum,
    /// added in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total = weights.iter().sum();
        Zipf { weights, total }
    }

    /// Draws a 0-based rank. Consumes exactly one `uniform` draw from `rng`.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        self.rank_of(rng.uniform(0.0, self.total))
    }

    /// The rank a draw `u` in `[0, total)` selects; a remainder that
    /// rounding leaves past the last weight selects the last rank.
    fn rank_of(&self, mut u: f64) -> usize {
        for (rank, &w) in self.weights.iter().enumerate() {
            if u < w {
                return rank;
            }
            u -= w;
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
        }
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut a1 = DetRng::seed(7);
        let mut a2 = DetRng::seed(7);
        let mut f1 = a1.fork();
        let mut f2 = a2.fork();
        assert_eq!(f1.uniform(0.0, 1.0), f2.uniform(0.0, 1.0));
        // Consuming from the fork does not perturb the parent.
        let _ = f1.uniform(0.0, 1.0);
        assert_eq!(a1.uniform(0.0, 1.0), a2.uniform(0.0, 1.0));
    }

    #[test]
    fn jitter_factor_stays_in_band() {
        let mut r = DetRng::seed(1);
        for _ in 0..1000 {
            let f = r.jitter_factor(0.3);
            assert!((0.7..=1.3 + 1e-9).contains(&f), "factor {f} out of band");
        }
    }

    #[test]
    fn heavy_tail_is_positive_and_centered() {
        let mut r = DetRng::seed(2);
        let samples: Vec<f64> = (0..5000).map(|_| r.heavy_tail(1.5, 0.8)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((1.0..2.2).contains(&median), "median {median}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut r = DetRng::seed(3);
        let zipf = Zipf::new(10, 1.0);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[4], "rank 0 should dominate: {counts:?}");
        assert!(
            counts[4] > counts[9],
            "rank 4 should beat rank 9: {counts:?}"
        );
    }

    #[test]
    fn uniform_degenerate_range() {
        let mut r = DetRng::seed(4);
        assert_eq!(r.uniform(2.0, 2.0), 2.0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
    }
}

/// [`Zipf`] against the per-draw loop it replaced.
#[cfg(test)]
mod zipf_oracle {
    use proptest::prelude::*;

    use super::{DetRng, Zipf};

    /// `DetRng::zipf` as it was before the table, verbatim but for the
    /// draw: `draw(h)` stands for `self.uniform(0.0, h)`. Returns the rank
    /// and the total it drew under.
    fn per_draw_zipf(n: usize, s: f64, draw: impl FnOnce(f64) -> f64) -> (usize, f64) {
        assert!(n > 0, "zipf over empty domain");
        // Inverse-CDF sampling over the truncated harmonic distribution.
        let h: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let mut u = draw(h);
        for k in 1..=n {
            let w = (k as f64).powf(-s);
            if u < w {
                return (k - 1, h);
            }
            u -= w;
        }
        (n - 1, h)
    }

    /// The exponents named for the oracle, beside random ones.
    const EXPONENTS: [f64; 7] = [0.0, 0.5, 0.9, 1.0, 1.2, 2.0, 8.0];

    fn exponent() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0..EXPONENTS.len()).prop_map(|i| EXPONENTS[i]),
            0.0..10.0f64,
        ]
    }

    /// Draws `u` on which a chain of subtractions is likely to go wrong:
    /// the first weight exactly (the `<` boundary), zero, the largest values
    /// below the total (where rounding can carry the remainder past the
    /// last weight), the running sums of the first weights, and one uniform
    /// point.
    fn edge_draws(zipf: &Zipf, frac: f64) -> Vec<f64> {
        let below_total = |ulps: u64| f64::from_bits(zipf.total.to_bits() - ulps);
        let mut draws = vec![0.0, zipf.weights[0], frac * zipf.total];
        draws.extend((1..=4).map(below_total));
        let mut sum = 0.0;
        for &w in zipf.weights.iter().take(8) {
            sum += w;
            if sum < zipf.total {
                draws.push(sum);
            }
        }
        draws
    }

    /// Cases per run: CI's release step runs the full count, debug builds
    /// (tier-1) a short one.
    const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 1024 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn zipf_oracle_streams_match_the_per_draw_loop(
            n in 1..3_001usize,
            s in exponent(),
            seed in any::<u64>(),
            draws in 1..48usize,
        ) {
            let zipf = Zipf::new(n, s);
            let mut table = DetRng::seed(seed);
            let mut per_draw = DetRng::seed(seed);
            for d in 0..draws {
                let (want, total) = per_draw_zipf(n, s, |h| per_draw.uniform(0.0, h));
                prop_assert_eq!(zipf.total.to_bits(), total.to_bits(), "total, n {} s {}", n, s);
                prop_assert_eq!(zipf.sample(&mut table), want, "draw {}, n {} s {}", d, n, s);
                prop_assert_eq!(
                    table.uniform(0.0, 1.0).to_bits(),
                    per_draw.uniform(0.0, 1.0).to_bits(),
                    "stream position after draw {}", d
                );
            }
        }

        #[test]
        fn zipf_oracle_edge_draws_pick_the_same_rank(
            n in 1..3_001usize,
            s in exponent(),
            frac in 0.0..1.0f64,
        ) {
            let zipf = Zipf::new(n, s);
            for u in edge_draws(&zipf, frac) {
                let (want, _) = per_draw_zipf(n, s, |_| u);
                prop_assert_eq!(zipf.rank_of(u), want, "u {:e}, n {} s {}", u, n, s);
            }
        }
    }

    /// Rounding can leave the remainder of a draw just below the total
    /// past the last weight; both samplers then pick the last rank.
    #[test]
    fn zipf_oracle_rounding_falls_back_to_the_last_rank() {
        let mut fallbacks = 0;
        for n in 2..400 {
            let zipf = Zipf::new(n, 0.9);
            for ulps in 1..=4 {
                let u = f64::from_bits(zipf.total.to_bits() - ulps);
                let (want, _) = per_draw_zipf(n, 0.9, |_| u);
                assert_eq!(zipf.rank_of(u), want, "n {n}, {ulps} ulps below");
                let rest = zipf.weights[..n - 1].iter().fold(u, |r, w| r - w);
                if rest >= zipf.weights[n - 1] {
                    assert_eq!(want, n - 1);
                    fallbacks += 1;
                }
            }
        }
        assert!(fallbacks > 0, "no draw reached the fallback");
    }
}
