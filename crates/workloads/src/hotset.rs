//! Hotset-drift fetch schedule.
//!
//! Adaptive placement earns its keep when popularity *moves*: a small hot
//! set of objects absorbs most fetches for a while, then interest drifts
//! to a different slice of the catalog and the old favorites go cold.
//! Static replication must provision every object for its hottest moment;
//! an adaptive plane can follow the heat — growing copies under the
//! current hot set, shrinking (or erasure-coding) the abandoned one.
//!
//! [`hotset_fetches`] draws that schedule deterministically: the run is
//! split into phases, each phase focuses a contiguous window of the
//! catalog and a single *focus client* who issues most of the fetches
//! (reader locality, so replica placement has somewhere to aim). Same
//! seed, same schedule.

use std::time::Duration;

use c4h_simnet::DetRng;

/// Configuration for the hotset-drift schedule generator.
#[derive(Debug, Clone, PartialEq)]
pub struct HotsetConfig {
    /// Total number of objects in the catalog.
    pub catalog: usize,
    /// Size of the hot window active during any one phase.
    pub hot: usize,
    /// Number of drift phases; the hot window advances by `hot` objects
    /// (mod `catalog`) at each phase boundary.
    pub phases: usize,
    /// Length of each phase.
    pub phase_len: Duration,
    /// Mean fetch arrival rate (per second) while a phase is active.
    pub fetch_hz: f64,
    /// Number of fetching clients; phase `p` focuses client `p % clients`.
    pub clients: usize,
    /// Probability a fetch targets the current hot window (the rest land
    /// uniformly anywhere in the catalog).
    pub hot_bias: f64,
    /// Probability a fetch is issued by the phase's focus client (the
    /// rest come from a uniform client).
    pub reader_bias: f64,
}

impl HotsetConfig {
    /// A small drifting-hotset mix: `catalog` objects, a hot window of
    /// `hot`, one phase per window position, 90 % hot-biased fetches with
    /// 70 % reader locality.
    pub fn drifting(catalog: usize, hot: usize, phases: usize, phase_len: Duration) -> Self {
        HotsetConfig {
            catalog,
            hot,
            phases,
            phase_len,
            fetch_hz: 1.0,
            clients: 5,
            hot_bias: 0.9,
            reader_bias: 0.7,
        }
    }

    /// The catalog window that is hot during phase `p`.
    pub fn hot_window(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let base = (p * self.hot) % self.catalog.max(1);
        (0..self.hot.min(self.catalog)).map(move |i| (base + i) % self.catalog)
    }
}

/// One scheduled fetch: client `client` asks for catalog object `object`
/// at offset `at` from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotsetFetch {
    /// Offset from the start of the schedule.
    pub at: Duration,
    /// Issuing client index in `[0, clients)`.
    pub client: usize,
    /// Catalog index of the fetched object.
    pub object: usize,
}

/// Draws the full drifting-hotset fetch schedule, sorted by arrival time.
///
/// Interarrival gaps are exponential at `fetch_hz`; each fetch picks the
/// hot window with probability `hot_bias` (uniform within it) and the
/// phase's focus client with probability `reader_bias`. Deterministic in
/// `(config, seed)`.
pub fn hotset_fetches(config: &HotsetConfig, seed: u64) -> Vec<HotsetFetch> {
    let mut rng = DetRng::seed(seed ^ 0x4F54_5345);
    let mut out = Vec::new();
    if config.catalog == 0 || config.hot == 0 || config.clients == 0 {
        return out;
    }
    let mut t = 0.0f64;
    let horizon = config.phase_len.as_secs_f64() * config.phases as f64;
    loop {
        // Exponential gap via inverse CDF on a uniform draw.
        let u = rng.uniform(f64::EPSILON, 1.0);
        t += -u.ln() / config.fetch_hz.max(1e-9);
        if t >= horizon {
            break;
        }
        let phase = ((t / config.phase_len.as_secs_f64()) as usize).min(config.phases - 1);
        let object = if rng.chance(config.hot_bias) {
            let base = (phase * config.hot) % config.catalog;
            let i = rng.uniform_u64(0, config.hot.min(config.catalog) as u64) as usize;
            (base + i) % config.catalog
        } else {
            rng.uniform_u64(0, config.catalog as u64) as usize
        };
        let client = if rng.chance(config.reader_bias) {
            phase % config.clients
        } else {
            rng.uniform_u64(0, config.clients as u64) as usize
        };
        out.push(HotsetFetch {
            at: Duration::from_secs_f64(t),
            client,
            object,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = HotsetConfig::drifting(32, 4, 3, Duration::from_secs(60));
        assert_eq!(hotset_fetches(&cfg, 7), hotset_fetches(&cfg, 7));
        assert_ne!(hotset_fetches(&cfg, 7), hotset_fetches(&cfg, 8));
    }

    #[test]
    fn fetches_are_sorted_and_bounded() {
        let cfg = HotsetConfig::drifting(32, 4, 3, Duration::from_secs(60));
        let fetches = hotset_fetches(&cfg, 11);
        assert!(!fetches.is_empty());
        let horizon = Duration::from_secs(180);
        for w in fetches.windows(2) {
            assert!(w[0].at <= w[1].at, "schedule must be time-ordered");
        }
        for f in &fetches {
            assert!(f.at < horizon);
            assert!(f.object < cfg.catalog);
            assert!(f.client < cfg.clients);
        }
    }

    #[test]
    fn hot_bias_concentrates_on_the_window() {
        let mut cfg = HotsetConfig::drifting(64, 4, 1, Duration::from_secs(600));
        cfg.fetch_hz = 2.0;
        let fetches = hotset_fetches(&cfg, 13);
        let hot: Vec<usize> = cfg.hot_window(0).collect();
        let in_hot = fetches.iter().filter(|f| hot.contains(&f.object)).count();
        // 90 % bias over a 4/64 window: the hot share must dominate.
        assert!(
            in_hot * 10 >= fetches.len() * 7,
            "only {in_hot}/{} fetches hit the hot window",
            fetches.len()
        );
    }

    #[test]
    fn every_object_and_client_is_drawn() {
        let cfg = HotsetConfig::drifting(32, 4, 3, Duration::from_secs(600));
        let fetches = hotset_fetches(&cfg, 11);
        for p in 0..cfg.phases {
            for object in cfg.hot_window(p) {
                assert!(
                    fetches.iter().any(|f| f.object == object),
                    "hot object {object} of phase {p} never fetched"
                );
            }
        }
        assert!(
            fetches.iter().any(|f| f.object == cfg.catalog - 1),
            "the last catalog object is never fetched"
        );
        for client in 0..cfg.clients {
            assert!(
                fetches.iter().any(|f| f.client == client),
                "client {client} never fetches"
            );
        }
    }

    #[test]
    fn one_object_windows_and_one_client_draw_without_panicking() {
        let mut cfg = HotsetConfig::drifting(8, 1, 2, Duration::from_secs(60));
        let fetches = hotset_fetches(&cfg, 3);
        assert!(fetches.iter().any(|f| f.object == 0));
        cfg.catalog = 1;
        cfg.clients = 1;
        let fetches = hotset_fetches(&cfg, 5);
        assert!(!fetches.is_empty());
        assert!(fetches.iter().all(|f| f.object == 0 && f.client == 0));
    }

    #[test]
    fn window_drifts_across_phases() {
        let cfg = HotsetConfig::drifting(32, 4, 3, Duration::from_secs(60));
        let w0: Vec<usize> = cfg.hot_window(0).collect();
        let w1: Vec<usize> = cfg.hot_window(1).collect();
        assert_eq!(w0, vec![0, 1, 2, 3]);
        assert_eq!(w1, vec![4, 5, 6, 7]);
    }
}
