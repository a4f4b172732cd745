//! Network fault-model primitives.
//!
//! Two deterministic building blocks for fault-injection experiments:
//!
//! * [`GilbertElliott`] — the classic two-state Markov loss model producing
//!   *bursty* packet loss: long stretches of clean delivery punctuated by
//!   loss bursts, as observed on residential broadband links. All state
//!   transitions draw from the caller's [`DetRng`], so a seeded run replays
//!   the exact same burst pattern.
//! * [`Partition`] — a reachability cut over [`Addr`]es. Addresses are split
//!   into disjoint groups; traffic crosses the cut only within one group.
//!   Addresses not named by any group share an implicit remainder group, so
//!   a partition isolating one node needs to list only that node.

use std::collections::BTreeSet;

use crate::rng::DetRng;
use crate::topology::Addr;

/// Two-state Gilbert–Elliott bursty loss model.
///
/// The chain sits in a *good* or *bad* state; each delivery first advances
/// the chain, then drops the message with the state's loss probability.
/// The expected burst length is `1 / p_exit_burst` deliveries and the
/// stationary fraction of time spent in the bad state is
/// `p_enter_burst / (p_enter_burst + p_exit_burst)`.
///
/// # Examples
///
/// ```
/// use c4h_simnet::{DetRng, GilbertElliott};
///
/// // ~10% mean loss arriving in bursts of ~8 consecutive deliveries.
/// let mut ge = GilbertElliott::bursty(0.10, 8.0);
/// let mut rng = DetRng::seed(7);
/// let dropped = (0..10_000).filter(|_| ge.step(&mut rng)).count();
/// assert!((600..1600).contains(&dropped), "dropped {dropped}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-delivery probability of entering a loss burst (good → bad).
    pub p_enter_burst: f64,
    /// Per-delivery probability of leaving a loss burst (bad → good).
    pub p_exit_burst: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
    in_burst: bool,
}

impl GilbertElliott {
    /// Creates a model from raw transition and loss probabilities, each
    /// clamped to `[0, 1]`. The chain starts in the good state.
    pub fn new(p_enter_burst: f64, p_exit_burst: f64, loss_good: f64, loss_bad: f64) -> Self {
        GilbertElliott {
            p_enter_burst: p_enter_burst.clamp(0.0, 1.0),
            p_exit_burst: p_exit_burst.clamp(0.0, 1.0),
            loss_good: loss_good.clamp(0.0, 1.0),
            loss_bad: loss_bad.clamp(0.0, 1.0),
            in_burst: false,
        }
    }

    /// Creates the common simplified model (lossless good state, fully lossy
    /// bad state) with the given stationary `mean_loss` fraction and expected
    /// burst length in deliveries.
    ///
    /// `mean_loss` is clamped to `[0, 0.95]` and `mean_burst_len` to at
    /// least 1.
    pub fn bursty(mean_loss: f64, mean_burst_len: f64) -> Self {
        let mean_loss = mean_loss.clamp(0.0, 0.95);
        let p_exit = 1.0 / mean_burst_len.max(1.0);
        // Stationary P(bad) = p_enter / (p_enter + p_exit) = mean_loss.
        let p_enter = if mean_loss > 0.0 {
            mean_loss * p_exit / (1.0 - mean_loss)
        } else {
            0.0
        };
        GilbertElliott::new(p_enter, p_exit, 0.0, 1.0)
    }

    /// Whether the chain currently sits in its loss-burst state.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// The stationary mean loss fraction implied by the parameters.
    pub fn mean_loss(&self) -> f64 {
        let denom = self.p_enter_burst + self.p_exit_burst;
        let p_bad = if denom > 0.0 {
            self.p_enter_burst / denom
        } else {
            0.0
        };
        p_bad * self.loss_bad + (1.0 - p_bad) * self.loss_good
    }

    /// Advances the chain by one delivery and reports whether that delivery
    /// is lost.
    pub fn step(&mut self, rng: &mut DetRng) -> bool {
        let flip = if self.in_burst {
            rng.chance(self.p_exit_burst)
        } else {
            rng.chance(self.p_enter_burst)
        };
        if flip {
            self.in_burst = !self.in_burst;
        }
        let p_loss = if self.in_burst {
            self.loss_bad
        } else {
            self.loss_good
        };
        rng.chance(p_loss)
    }
}

/// A reachability cut splitting addresses into isolated groups.
///
/// Two addresses are connected iff they fall in the same group. Addresses
/// listed in no group share an implicit remainder group (index
/// `groups.len()`), so small partitions only need to enumerate the minority
/// side. An address is always connected to itself.
///
/// # Examples
///
/// ```
/// use c4h_simnet::{Addr, Partition};
///
/// let cut = Partition::new(vec![vec![Addr::new(5)]]);
/// assert!(!cut.connected(Addr::new(0), Addr::new(5)));
/// assert!(cut.connected(Addr::new(0), Addr::new(1))); // both unlisted
/// assert!(cut.connected(Addr::new(5), Addr::new(5)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partition {
    groups: Vec<BTreeSet<Addr>>,
}

impl Partition {
    /// Builds a partition from explicit address groups. An address listed in
    /// several groups belongs to the first that names it.
    pub fn new(groups: Vec<Vec<Addr>>) -> Self {
        Partition {
            groups: groups
                .into_iter()
                .map(|g| g.into_iter().collect())
                .collect(),
        }
    }

    /// The group index an address belongs to; unlisted addresses share the
    /// implicit remainder group `self.groups.len()`.
    pub fn group_of(&self, a: Addr) -> usize {
        self.groups
            .iter()
            .position(|g| g.contains(&a))
            .unwrap_or(self.groups.len())
    }

    /// Whether traffic may flow between the two addresses.
    pub fn connected(&self, a: Addr, b: Addr) -> bool {
        a == b || self.group_of(a) == self.group_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_hits_mean_loss() {
        let mut ge = GilbertElliott::bursty(0.10, 8.0);
        assert!((ge.mean_loss() - 0.10).abs() < 1e-9);
        let mut rng = DetRng::seed(11);
        let n = 50_000;
        let dropped = (0..n).filter(|_| ge.step(&mut rng)).count();
        let frac = dropped as f64 / n as f64;
        assert!((0.06..0.14).contains(&frac), "loss fraction {frac}");
    }

    #[test]
    fn losses_arrive_in_bursts() {
        // With mean burst length 16, consecutive drops should be far more
        // common than under independent loss at the same rate.
        let mut ge = GilbertElliott::bursty(0.10, 16.0);
        let mut rng = DetRng::seed(3);
        let outcomes: Vec<bool> = (0..50_000).map(|_| ge.step(&mut rng)).collect();
        let drops = outcomes.iter().filter(|&&d| d).count();
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        // Independent 10% loss would give pairs ≈ drops * 0.1.
        assert!(
            pairs as f64 > drops as f64 * 0.5,
            "pairs {pairs} vs drops {drops}: loss is not bursty"
        );
    }

    #[test]
    fn same_seed_same_burst_pattern() {
        let mut a = GilbertElliott::bursty(0.2, 4.0);
        let mut b = a;
        let mut ra = DetRng::seed(9);
        let mut rb = DetRng::seed(9);
        for _ in 0..1000 {
            assert_eq!(a.step(&mut ra), b.step(&mut rb));
        }
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut ge = GilbertElliott::bursty(0.0, 8.0);
        let mut rng = DetRng::seed(4);
        assert!((0..1000).all(|_| !ge.step(&mut rng)));
    }

    #[test]
    fn partition_semantics() {
        let cut = Partition::new(vec![vec![Addr::new(1), Addr::new(2)], vec![Addr::new(3)]]);
        assert!(cut.connected(Addr::new(1), Addr::new(2)));
        assert!(!cut.connected(Addr::new(1), Addr::new(3)));
        assert!(!cut.connected(Addr::new(2), Addr::new(4)));
        // Unlisted addresses form the remainder group.
        assert!(cut.connected(Addr::new(4), Addr::new(5)));
        // Self-connectivity always holds.
        assert!(cut.connected(Addr::new(3), Addr::new(3)));
        assert!(Partition::default().connected(Addr::new(1), Addr::new(2)));
    }
}
