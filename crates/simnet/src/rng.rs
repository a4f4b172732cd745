//! Seeded randomness utilities.
//!
//! Every stochastic element of the simulation (latency jitter, WAN bandwidth
//! variability, workload generation) draws from a [`DetRng`] seeded at
//! simulation start, so experiment runs are exactly reproducible.

/// A deterministic random number generator for simulations: splitmix64.
///
/// This is the one definition of the seeded stream behind every figure,
/// golden digest and benchmark input of the reproduction. Two `DetRng`s
/// constructed with the same seed produce identical streams.
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
    state: u64,
}

/// The splitmix64 increment (the golden ratio in 64 bits); also the seed's
/// pre-scramble, so that small consecutive seeds diverge quickly.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut rng = DetRng {
            state: seed ^ GAMMA,
        };
        rng.next();
        rng
    }

    /// Next 64 random bits: one splitmix64 step.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits of the next draw.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Forks an independent generator whose stream is derived from this one.
    ///
    /// Forking lets subsystems own private RNGs without coupling their draw
    /// counts: consuming extra samples in one subsystem does not perturb the
    /// others.
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed(self.next())
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
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_u64: empty range {lo}..{hi}");
        lo + self.next() % (hi - lo)
    }

    /// Bernoulli sample: `true` with probability `p` (clamped to `[0, 1]`).
    /// Draws nothing when `p` is at or past either end.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "chance: p is NaN");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
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
        let mut twin = DetRng::seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
        assert!(!r.chance(-1.0)); // clamped

        // Certain outcomes draw nothing.
        assert_eq!(r.uniform_u64(0, 1000), twin.uniform_u64(0, 1000));
    }

    #[test]
    fn chance_respects_the_probability() {
        let mut r = DetRng::seed(2);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = DetRng::seed(1);
        for _ in 0..1000 {
            let x = r.uniform_u64(3, 17);
            assert!((3..17).contains(&x), "{x}");
            let f = r.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&f), "{f}");
            assert_eq!(r.uniform_u64(9, 10), 9);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_integer_range_panics() {
        DetRng::seed(1).uniform_u64(5, 5);
    }

    #[test]
    #[should_panic(expected = "p is NaN")]
    fn nan_chance_panics() {
        DetRng::seed(1).chance(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "lo 2 > hi 1")]
    fn reversed_float_range_panics() {
        DetRng::seed(1).uniform(2.0, 1.0);
    }

    /// The first 8 draws of every sampler for seeds 0 and 2011, as bits:
    /// every figure, golden digest and benchmark input pin comes from this
    /// stream, so a change to it fails here by name.
    #[test]
    fn stream_is_pinned() {
        type Sampler = fn(&mut DetRng) -> u64;
        let samplers: [(&str, Sampler); 7] = [
            ("next", |r| r.uniform_u64(0, u64::MAX)),
            ("fork", |r| r.fork().uniform_u64(0, u64::MAX)),
            ("uniform", |r| r.uniform(-3.0, 5.0).to_bits()),
            ("uniform_u64", |r| r.uniform_u64(10, 1000)),
            ("chance", |r| u64::from(r.chance(0.3))),
            ("jitter_factor", |r| r.jitter_factor(0.2).to_bits()),
            ("heavy_tail", |r| r.heavy_tail(1.5, 0.8).to_bits()),
        ];
        let pins: [[[u64; 8]; 7]; 2] = [
            [
                [
                    0x06c4_5d18_8009_454f,
                    0xf88b_b8a8_724c_81ec,
                    0x1b39_896a_51a8_749b,
                    0x53cb_9f0c_747e_a2ea,
                    0x2c82_9abe_1f45_32e1,
                    0xc584_133a_c916_ab3c,
                    0x3ee5_7890_41c9_8ac3,
                    0xf3b8_488c_368c_b0a6,
                ],
                [
                    0x0cf9_6360_b0fa_1860,
                    0x3231_f8d8_d6d8_3962,
                    0x9393_dd16_56cb_cc0b,
                    0x5fb9_2247_b7bb_dbf1,
                    0x6fc4_76ee_82e5_326d,
                    0x7125_f138_f60b_7ece,
                    0xe3a2_1f12_167b_8bcd,
                    0x9eb8_688a_386d_113b,
                ],
                [
                    0xc006_4ee8_b9df_fdb0,
                    0x4013_1177_150e_4990,
                    0xc001_319d_a56b_95e4,
                    0xbfd8_68c1_e717_02c0,
                    0xbff9_beb2_a0f0_5d68,
                    0x4009_6104_ceb2_45aa,
                    0xbff0_8d43_b7df_1b3c,
                    0x4012_7709_1186_d196,
                ],
                [209, 134, 347, 850, 573, 180, 459, 930],
                [1, 0, 1, 0, 1, 0, 1, 0],
                [
                    0x3fe9_f037_dad3_33aa,
                    0x3ff3_037e_3769_41ea,
                    0x3fea_f613_abb7_486c,
                    0x3fed_ca2e_5a39_0656,
                    0x3feb_d354_8981_9043,
                    0x3ff1_bce6_e178_3a2b,
                    0x3fec_beac_6d9c_e3ae,
                    0x3ff2_e49b_69e7_c385,
                ],
                [
                    0x3ff0_a45d_a9c1_b556,
                    0x3ff3_748f_689b_ee5e,
                    0x3ffa_2e83_c52b_f031,
                    0x4000_6e26_f665_8505,
                    0x3ffd_4a26_9cb2_b122,
                    0x4000_08ba_4820_863a,
                    0x400c_bbde_c9d1_f2de,
                    0x3ffe_cd05_4693_0aeb,
                ],
            ],
            [
                [
                    0xda05_e211_1e0b_1167,
                    0x3968_412b_1c2d_f8ee,
                    0x9f14_1577_f519_ca88,
                    0x7595_202f_4765_693d,
                    0x6370_52f5_bcd2_92e1,
                    0x32bc_21f1_c091_791c,
                    0x94b7_be1c_77d9_f45b,
                    0xb768_551c_1cc6_4c17,
                ],
                [
                    0x2581_131d_b123_01c0,
                    0x785c_9d94_dae6_609e,
                    0xc620_22d4_c60d_de5b,
                    0xfee5_debd_1854_aa81,
                    0x353f_2fdc_d813_d536,
                    0x6fe4_0f31_cf7b_da86,
                    0xaac3_80ef_b2c8_96f4,
                    0x1841_1765_aa5d_2288,
                ],
                [
                    0x400e_8178_8447_82c4,
                    0xbff3_4bdf_6a71_e904,
                    0x3fff_8a0a_bbfa_8ce4,
                    0x3fe5_9520_2f47_6568,
                    0x3fbb_8297_ade6_9480,
                    0xbff6_a1ef_071f_b744,
                    0x3ffa_5bdf_0e3b_ecf8,
                    0x4005_da15_4707_3192,
                ],
                [187, 58, 142, 543, 237, 288, 405, 225],
                [0, 1, 0, 0, 0, 1, 0, 0],
                [
                    0x3ff2_4025_a6d3_f37b,
                    0x3fec_7869_a88e_3580,
                    0x3ff0_c6e6_efcc_870c,
                    0x3fef_7aa8_025d_2b79,
                    0x3fee_926a_8c49_70ee,
                    0x3fec_2301_b27c_d414,
                    0x3ff0_8497_f3e9_6573,
                    0x3ff1_629b_ba4d_84f6,
                ],
                [
                    0x3ffc_cc53_e29d_2bf6,
                    0x3fef_8e29_95a2_13fe,
                    0x3ffc_cd3c_741a_ddd8,
                    0x3ffc_ba0e_d829_dccc,
                    0x4006_5697_0c96_c312,
                    0x3ff4_5a37_2ab3_6073,
                    0x3ff3_03b7_80ac_02cd,
                    0x3fe8_9216_1286_2c5a,
                ],
            ],
        ];
        for (seed, pins) in [0, 2011].into_iter().zip(pins) {
            for ((name, sampler), want) in samplers.into_iter().zip(pins) {
                let mut r = DetRng::seed(seed);
                let got: Vec<u64> = (0..8).map(|_| sampler(&mut r)).collect();
                assert_eq!(got, want, "seed {seed}, {name}");
            }
        }
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
