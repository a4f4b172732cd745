//! Adaptive store placement — the paper's learning extension.
//!
//! "In our current implementation, these policies are represented as a set
//! of statically encoded rules. Our future work will explore opportunities
//! to associate learning methods and support dynamic adaptations."
//!
//! [`AdaptivePlacement`] is that extension: it keeps exponentially weighted
//! throughput estimates for home and cloud placements from the operation
//! reports the application already receives, and derives a concrete
//! [`StorePolicy`] per object by predicting which placement completes
//! sooner — biased toward the home cloud when space permits, and spilling
//! to the cloud when the home estimate says local space pressure or
//! degraded LAN conditions make it slower. Because it learns from observed
//! completions, it tracks changing network conditions (the paper's open
//! issue (iv)) without reconfiguration.

use c4h_simnet::Sym;

use crate::object::Object;
use crate::policy::StorePolicy;
use crate::report::OpReport;

/// Exponentially weighted moving average of an observed rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaRate {
    bps: f64,
    alpha: f64,
    samples: u64,
}

impl EwmaRate {
    /// Creates an estimator with a prior rate (bytes/second).
    pub fn with_prior(prior_bps: f64, alpha: f64) -> Self {
        assert!(prior_bps > 0.0, "prior rate must be positive");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        EwmaRate {
            bps: prior_bps,
            alpha,
            samples: 0,
        }
    }

    /// Folds in one observation.
    pub fn observe(&mut self, bytes: u64, secs: f64) {
        if secs <= 0.0 || bytes == 0 {
            return;
        }
        let rate = bytes as f64 / secs;
        self.bps = self.alpha * rate + (1.0 - self.alpha) * self.bps;
        self.samples += 1;
    }

    /// The current rate estimate, bytes/second.
    pub fn bps(&self) -> f64 {
        self.bps
    }

    /// Number of observations folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Predicted seconds to move `bytes` at the current estimate.
    pub fn predict_secs(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bps
    }
}

/// Per-peer bandwidth estimates learned from completed transfers.
///
/// Every finished fetch stripe, single-source fetch flow, and replica
/// fan-out flow feeds the sender's observed rate into this table; fetch
/// source ranking and hedging decisions then query it. Peers are keyed by
/// their raw network address (so the cloud endpoint participates too) and
/// unseen peers answer with the shared prior, which keeps ranking neutral
/// — and therefore identical to the old metadata order — until real
/// observations arrive.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerBandwidth {
    prior_bps: f64,
    alpha: f64,
    peers: std::collections::BTreeMap<u64, EwmaRate>,
}

impl PeerBandwidth {
    /// Creates a table where unknown peers estimate at `prior_bps`.
    pub fn new(prior_bps: f64, alpha: f64) -> Self {
        assert!(prior_bps > 0.0, "prior rate must be positive");
        PeerBandwidth {
            prior_bps,
            alpha,
            peers: std::collections::BTreeMap::new(),
        }
    }

    /// Folds one completed transfer from `peer` into its estimate.
    pub fn observe(&mut self, peer: u64, bytes: u64, secs: f64) {
        self.peers
            .entry(peer)
            .or_insert_with(|| EwmaRate::with_prior(self.prior_bps, self.alpha))
            .observe(bytes, secs);
    }

    /// The current estimate for `peer` in bytes/second.
    pub fn bps(&self, peer: u64) -> f64 {
        self.peers.get(&peer).map_or(self.prior_bps, |e| e.bps())
    }

    /// Predicted seconds for `peer` to deliver `bytes`.
    pub fn predict_secs(&self, peer: u64, bytes: u64) -> f64 {
        bytes as f64 / self.bps(peer)
    }

    /// The peer's coarse bandwidth class relative to the prior: `0` for
    /// anything within ~4× of nominal, negative for each ~16× step below,
    /// positive above. Estimates trained on live traffic wobble by small
    /// factors (contention, loss bursts, slow-start); genuine segment
    /// differences — a WAN-limited holder versus a LAN one — span orders
    /// of magnitude. Ranking on the class instead of the raw estimate
    /// keeps noise from reordering equal-class peers while still demoting
    /// holders that are categorically slower.
    pub fn class(&self, peer: u64) -> i64 {
        ((self.bps(peer) / self.prior_bps).log2() / 4.0).round() as i64
    }

    /// Observations recorded for `peer`.
    pub fn samples(&self, peer: u64) -> u64 {
        self.peers.get(&peer).map_or(0, EwmaRate::samples)
    }

    /// Forgets everything learned about `peer`, dropping it back to the
    /// shared prior. Called when the peer crashes: a rejoined node comes
    /// back on unknown hardware/link conditions, and ranking it on
    /// pre-crash estimates would either starve it (stale slow estimate) or
    /// stampede it (stale fast estimate) until enough fresh transfers
    /// happened to wash the history out.
    pub fn reset(&mut self, peer: u64) {
        self.peers.remove(&peer);
    }
}

/// Per-object fetch-heat estimates for the adaptive placement plane.
///
/// Every completed fetch folds an instantaneous rate sample (the inverse
/// of the gap since the object's previous fetch) into a per-object EWMA
/// and remembers the most recent reader nodes. The placement pass reads
/// the decayed rate — the estimate capped by the rate implied by the time
/// since the *last* fetch, so an object that stops being read cools down
/// without needing further events — and grows, shrinks, or erasure-codes
/// the object's copies accordingly.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectHeat {
    alpha: f64,
    // Keyed by interned name. `Sym` orders by resolved string content, so
    // iteration (`names`) walks the same lexicographic order the old
    // `String`-keyed map did — the placement pass's scan order is part of
    // the byte-determinism contract.
    entries: std::collections::BTreeMap<Sym, HeatEntry>,
}

/// One object's heat state.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatEntry {
    /// EWMA of instantaneous fetch rate, fetches per second.
    rate_per_sec: f64,
    /// Virtual timestamp of the most recent fetch, nanoseconds.
    last_fetch_ns: u64,
    /// Most recent distinct reader nodes, newest first (bounded).
    readers: Vec<usize>,
    /// Total fetches observed.
    fetches: u64,
}

/// How many recent distinct readers each object remembers.
const READERS_KEPT: usize = 4;

impl ObjectHeat {
    /// Creates an empty tracker with EWMA smoothing factor `alpha`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        ObjectHeat {
            alpha,
            entries: std::collections::BTreeMap::new(),
        }
    }

    /// Folds one completed fetch of `name` by `reader` at `now_ns` into
    /// the object's estimate.
    pub fn observe_fetch(&mut self, name: Sym, reader: usize, now_ns: u64) {
        let entry = self.entries.entry(name).or_insert(HeatEntry {
            rate_per_sec: 0.0,
            last_fetch_ns: now_ns,
            readers: Vec::new(),
            fetches: 0,
        });
        if entry.fetches > 0 {
            let gap_s = (now_ns.saturating_sub(entry.last_fetch_ns) as f64 / 1e9).max(1e-3);
            let sample = 1.0 / gap_s;
            entry.rate_per_sec = self.alpha * sample + (1.0 - self.alpha) * entry.rate_per_sec;
        }
        entry.last_fetch_ns = now_ns;
        entry.fetches += 1;
        entry.readers.retain(|&r| r != reader);
        entry.readers.insert(0, reader);
        entry.readers.truncate(READERS_KEPT);
    }

    /// The object's decayed fetch rate in fetches per minute at `now_ns`:
    /// the EWMA estimate, capped by the rate the silence since the last
    /// fetch already disproves. Unknown objects answer 0 (stone cold).
    pub fn rate_per_min(&self, name: Sym, now_ns: u64) -> f64 {
        let Some(e) = self.entries.get(&name) else {
            return 0.0;
        };
        if e.fetches < 2 {
            // One fetch fixes a timestamp but no interval: no rate
            // estimate exists yet, and a just-stored object reads as cold.
            return 0.0;
        }
        let idle_s = (now_ns.saturating_sub(e.last_fetch_ns) as f64 / 1e9).max(1e-3);
        e.rate_per_sec.min(1.0 / idle_s) * 60.0
    }

    /// Recent distinct readers of `name`, newest first.
    pub fn recent_readers(&self, name: Sym) -> &[usize] {
        self.entries
            .get(&name)
            .map_or(&[], |e| e.readers.as_slice())
    }

    /// Fetches observed for `name`.
    pub fn fetches(&self, name: Sym) -> u64 {
        self.entries.get(&name).map_or(0, |e| e.fetches)
    }

    /// Drops an object's state (deletes / EC conversions).
    pub fn forget(&mut self, name: Sym) {
        self.entries.remove(&name);
    }

    /// Objects currently tracked, in name order.
    pub fn names(&self) -> impl Iterator<Item = Sym> + '_ {
        self.entries.keys().copied()
    }
}

/// A placement learner deriving store policies from observed completions.
///
/// # Examples
///
/// ```
/// use cloud4home::{AdaptivePlacement, Object, StorePolicy};
///
/// let mut learner = AdaptivePlacement::new();
/// let obj = Object::synthetic("x", 1, 4 << 20, "doc");
/// // With the default priors the home cloud wins for ordinary objects.
/// assert_eq!(learner.policy_for(&obj), StorePolicy::ForceHome);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePlacement {
    home: EwmaRate,
    cloud: EwmaRate,
    /// Prefer the cloud once the home estimate is this many times slower.
    cloud_bias: f64,
}

impl Default for AdaptivePlacement {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptivePlacement {
    /// Creates a learner with priors matching the testbed's nominal rates
    /// (≈10 MB/s home, ≈0.15 MB/s cloud).
    pub fn new() -> Self {
        AdaptivePlacement {
            home: EwmaRate::with_prior(10.0e6, 0.3),
            cloud: EwmaRate::with_prior(0.15e6, 0.3),
            cloud_bias: 1.0,
        }
    }

    /// Creates a learner with explicit priors (bytes/second).
    pub fn with_priors(home_bps: f64, cloud_bps: f64) -> Self {
        AdaptivePlacement {
            home: EwmaRate::with_prior(home_bps, 0.3),
            cloud: EwmaRate::with_prior(cloud_bps, 0.3),
            cloud_bias: 1.0,
        }
    }

    /// Current `(home, cloud)` throughput estimates in bytes/second.
    pub fn estimates_bps(&self) -> (f64, f64) {
        (self.home.bps(), self.cloud.bps())
    }

    /// Folds a completed store or fetch report into the estimates.
    ///
    /// Failed operations are ignored; service executions should not be fed
    /// in (their time is compute, not transfer).
    pub fn observe(&mut self, report: &OpReport) {
        let Ok(out) = &report.outcome else { return };
        let secs = report.total().as_secs_f64();
        if out.via_cloud {
            self.cloud.observe(out.bytes, secs);
        } else {
            self.home.observe(out.bytes, secs);
        }
    }

    /// Derives the placement for one object: whichever placement predicts
    /// the sooner completion, with privacy overriding everything (private
    /// objects never leave the home cloud).
    pub fn policy_for(&self, object: &Object) -> StorePolicy {
        if object.stays_home() {
            return StorePolicy::ForceHome;
        }
        let bytes = object.size_bytes();
        let home = self.home.predict_secs(bytes);
        let cloud = self.cloud.predict_secs(bytes) * self.cloud_bias;
        if cloud < home {
            StorePolicy::ForceCloud
        } else {
            StorePolicy::ForceHome
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Breakdown, OpId, OpOutput};
    use c4h_simnet::SimTime;
    use std::time::Duration;

    fn report(bytes: u64, secs: u64, via_cloud: bool) -> OpReport {
        OpReport {
            id: OpId(1),
            kind: "store",
            object: "x".into(),
            submitted: SimTime::ZERO,
            completed: SimTime::ZERO + Duration::from_secs(secs),
            breakdown: Breakdown::default(),
            retries: 0,
            failovers: 0,
            partial_replication: 0,
            critical_path: crate::report::PathAttribution::default(),
            stages: Vec::new(),
            ledger: Vec::new(),
            outcome: Ok(OpOutput {
                bytes,
                via_cloud,
                exec_target: None,
                summary: None,
                listing: None,
            }),
        }
    }

    #[test]
    fn ewma_converges_toward_observations() {
        let mut e = EwmaRate::with_prior(1.0e6, 0.5);
        for _ in 0..20 {
            e.observe(10 << 20, 1.0); // ~10.5 MB/s observed
        }
        assert!(
            e.bps() > 9.0e6,
            "estimate {:.0} should approach 10 MB/s",
            e.bps()
        );
        assert_eq!(e.samples(), 20);
        // Degenerate observations are ignored.
        e.observe(0, 1.0);
        e.observe(100, 0.0);
        assert_eq!(e.samples(), 20);
    }

    #[test]
    fn default_learner_prefers_home() {
        let learner = AdaptivePlacement::new();
        let obj = Object::synthetic("x", 1, 8 << 20, "avi");
        assert_eq!(learner.policy_for(&obj), StorePolicy::ForceHome);
    }

    #[test]
    fn learner_switches_when_home_degrades() {
        // Start with a wrong prior: home looks slower than the cloud.
        let mut learner = AdaptivePlacement::with_priors(0.01e6, 0.5e6);
        let obj = Object::synthetic("x", 1, 8 << 20, "avi");
        assert_eq!(learner.policy_for(&obj), StorePolicy::ForceCloud);
        // Observed home operations are actually fast; cloud ones slow.
        for _ in 0..10 {
            learner.observe(&report(8 << 20, 1, false)); // 8 MB/s home
            learner.observe(&report(8 << 20, 60, true)); // 0.13 MB/s cloud
        }
        assert_eq!(
            learner.policy_for(&obj),
            StorePolicy::ForceHome,
            "estimates {:?} should have flipped the decision",
            learner.estimates_bps()
        );
    }

    #[test]
    fn privacy_overrides_learning() {
        // Even with a learner convinced the cloud is faster…
        let learner = AdaptivePlacement::with_priors(0.001e6, 100.0e6);
        let song = Object::synthetic("s.mp3", 1, 1 << 20, "mp3");
        assert_eq!(learner.policy_for(&song), StorePolicy::ForceHome);
        let secret = Object::synthetic("x", 1, 1 << 20, "doc").private();
        assert_eq!(learner.policy_for(&secret), StorePolicy::ForceHome);
    }

    #[test]
    fn failed_reports_are_ignored() {
        let mut learner = AdaptivePlacement::new();
        let before = learner.estimates_bps();
        let mut r = report(1 << 20, 1, true);
        r.outcome = Err(crate::report::OpError::NotFound("x".into()));
        learner.observe(&r);
        assert_eq!(learner.estimates_bps(), before);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_prior_is_rejected() {
        EwmaRate::with_prior(0.0, 0.5);
    }

    #[test]
    fn peer_table_answers_prior_until_observed() {
        let mut t = PeerBandwidth::new(2.0e6, 0.5);
        assert_eq!(t.bps(7), 2.0e6);
        assert_eq!(t.samples(7), 0);
        for _ in 0..10 {
            t.observe(7, 8 << 20, 1.0); // ~8.4 MB/s
        }
        assert!(t.bps(7) > 7.0e6, "estimate {:.0} should rise", t.bps(7));
        assert_eq!(t.samples(7), 10);
        // Other peers are unaffected.
        assert_eq!(t.bps(9), 2.0e6);
        // Predictions scale with the estimate.
        assert!(t.predict_secs(7, 8 << 20) < t.predict_secs(9, 8 << 20));
    }

    #[test]
    fn reset_drops_peer_back_to_prior() {
        let mut t = PeerBandwidth::new(10.0e6, 0.5);
        for _ in 0..10 {
            t.observe(3, 100 << 10, 1.0); // ~0.1 MB/s: a WAN-class peer
        }
        assert!(t.class(3) < 0);
        assert_eq!(t.samples(3), 10);
        t.reset(3);
        assert_eq!(t.bps(3), 10.0e6, "back to the shared prior");
        assert_eq!(t.class(3), 0);
        assert_eq!(t.samples(3), 0);
        // Resetting an unknown peer is a no-op, not a panic.
        t.reset(99);
    }

    #[test]
    fn object_heat_tracks_rate_and_readers() {
        let mut h = ObjectHeat::new(0.5);
        assert_eq!(h.rate_per_min(Sym::from("x"), 0), 0.0);
        let s = 1_000_000_000u64;
        // One fetch per second from rotating readers.
        for i in 0..10u64 {
            h.observe_fetch(Sym::from("x"), (i % 3) as usize, i * s);
        }
        let rate = h.rate_per_min(Sym::from("x"), 10 * s);
        assert!(
            (50.0..=70.0).contains(&rate),
            "1/s steady fetching should read ≈60/min, got {rate}"
        );
        assert_eq!(h.fetches(Sym::from("x")), 10);
        // Readers newest-first, deduplicated.
        assert_eq!(h.recent_readers(Sym::from("x")), &[0, 2, 1]);
        // A different object is untouched.
        assert_eq!(h.rate_per_min(Sym::from("y"), 10 * s), 0.0);
    }

    #[test]
    fn object_heat_decays_with_silence() {
        let mut h = ObjectHeat::new(0.5);
        let s = 1_000_000_000u64;
        for i in 0..10u64 {
            h.observe_fetch(Sym::from("x"), 0, i * s);
        }
        let hot = h.rate_per_min(Sym::from("x"), 10 * s);
        // Ten minutes of silence must cool the estimate without any
        // further events — the decay cap, not the EWMA, answers.
        let cold = h.rate_per_min(Sym::from("x"), (10 + 600) * s);
        assert!(
            cold < 0.2,
            "after 10 min idle, rate {cold} should be ≪ 1/min"
        );
        assert!(cold < hot / 100.0);
        h.forget(Sym::from("x"));
        assert_eq!(h.fetches(Sym::from("x")), 0);
    }

    #[test]
    fn single_fetch_reads_cold() {
        let mut h = ObjectHeat::new(0.3);
        h.observe_fetch(Sym::from("x"), 1, 5_000_000_000);
        assert_eq!(h.rate_per_min(Sym::from("x"), 5_000_000_001), 0.0);
        assert_eq!(h.recent_readers(Sym::from("x")), &[1]);
    }

    #[test]
    fn bandwidth_class_ignores_noise_but_flags_slow_segments() {
        let mut t = PeerBandwidth::new(10.0e6, 1.0);
        // Unseen peers and peers within a few × of nominal share class 0.
        assert_eq!(t.class(1), 0);
        t.observe(1, 3 << 20, 1.0); // ~3 MB/s: contended, same class
        assert_eq!(t.class(1), 0);
        // A WAN-limited holder (~0.2 MB/s) is categorically slower.
        t.observe(2, 200 << 10, 1.0);
        assert!(t.class(2) < 0, "class {} should drop", t.class(2));
        assert!(t.class(2) < t.class(1));
    }
}
