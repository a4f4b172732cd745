//! Overload protection: admission control, SLO-driven load shedding, retry
//! budgets, and circuit breakers.
//!
//! The plane closes the loop from the health plane's sliding-window SLOs to
//! runtime behavior. Four mechanisms compose, all gated on one switch
//! ([`OverloadConfig::enabled`](crate::OverloadConfig)):
//!
//! - **Token-bucket admission** per op kind caps the sustained rate the
//!   gateway accepts, with a configurable burst.
//! - A **shed controller** turns SLO-window breaches into a rejection
//!   probability: each breach ramps it by a step, each healthy completion
//!   decays it, and tenants above their fair share of inflight work shed at
//!   double the current probability so one hot tenant cannot starve others.
//! - **Retry budgets** — a leaky bucket per node — bound total retry
//!   amplification (DHT retries, fetch backoff retries, repair starts).
//!   An exhausted budget fails the retry deterministically instead of
//!   riding the 60 s operation deadline down.
//! - **Circuit breakers** per path (peer address or the cloud uplink) move
//!   closed → open after consecutive recorded failures, block traffic for a
//!   cooldown, then allow half-open probes whose outcome closes or reopens
//!   the breaker.
//!
//! Determinism: with the plane disabled nothing here runs and no RNG is
//! drawn, so default-config runs are byte-identical to builds without the
//! plane. With it enabled, the only randomness is the shed coin flip, drawn
//! from a dedicated generator seeded from `config.seed` xor a fixed salt —
//! independent of the simulation's main stream, so enabling the plane never
//! perturbs network jitter, and same-seed runs stay byte-identical.

use std::collections::BTreeMap;

use c4h_simnet::{Addr, DetRng, Sym};
use c4h_telemetry::{ArgValue, CauseKind, LEDGER_NONE};

use crate::config::Config;
use crate::report::OpId;
use crate::runtime::{Cloud4Home, CLOUD_ADDR, RUNTIME_TRACK};

/// Millitokens per whole token: buckets meter in 1/1000ths so slow refill
/// rates accrue without floating point.
const MILLI: u64 = 1_000;

/// Salt xor-ed into the master seed for the plane's private RNG stream.
const RNG_SALT: u64 = 0x4F56_4C44_5348_4544; // "OVLDSHED"

/// A token bucket over virtual time with integer millitoken accounting.
///
/// Starts full. `rate_per_sec == 0` means the bucket never refills (the
/// initial burst is all it ever grants).
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    capacity_milli: u64,
    tokens_milli: u64,
    rate_milli_per_sec: u64,
    refilled_at_ns: u64,
}

impl TokenBucket {
    pub(crate) fn new(capacity: u32, rate_per_sec: u32) -> Self {
        let capacity_milli = u64::from(capacity) * MILLI;
        TokenBucket {
            capacity_milli,
            tokens_milli: capacity_milli,
            rate_milli_per_sec: u64::from(rate_per_sec) * MILLI,
            refilled_at_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        if self.rate_milli_per_sec == 0 {
            return;
        }
        let elapsed = now_ns.saturating_sub(self.refilled_at_ns);
        let add =
            (u128::from(elapsed) * u128::from(self.rate_milli_per_sec) / 1_000_000_000) as u64;
        if add == 0 {
            return;
        }
        self.tokens_milli = (self.tokens_milli + add).min(self.capacity_milli);
        // Advance the refill clock only by the time the granted millitokens
        // represent, so fractional remainders carry over instead of being
        // lost to truncation.
        let consumed_ns =
            (u128::from(add) * 1_000_000_000 / u128::from(self.rate_milli_per_sec)) as u64;
        self.refilled_at_ns = self.refilled_at_ns.saturating_add(consumed_ns).min(now_ns);
    }

    /// Takes one whole token if available.
    pub(crate) fn try_take(&mut self, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens_milli >= MILLI {
            self.tokens_milli -= MILLI;
            true
        } else {
            false
        }
    }

    /// Whole tokens currently available.
    pub(crate) fn tokens(&self) -> u64 {
        self.tokens_milli / MILLI
    }
}

/// The SLO-breach-driven rejection-probability controller.
#[derive(Debug, Clone)]
pub(crate) struct ShedController {
    drop_permille: u32,
    step: u32,
    decay: u32,
    max: u32,
    /// Total breaches observed (feeds `shed` shell output).
    pub(crate) breaches: u64,
}

impl ShedController {
    fn new(step: u32, decay: u32, max: u32) -> Self {
        ShedController {
            drop_permille: 0,
            step,
            decay,
            max: max.min(1000),
            breaches: 0,
        }
    }

    fn on_breach(&mut self) {
        self.breaches += 1;
        self.drop_permille = (self.drop_permille + self.step).min(self.max);
    }

    fn on_healthy(&mut self) {
        self.drop_permille = self.drop_permille.saturating_sub(self.decay);
    }

    pub(crate) fn permille(&self) -> u32 {
        self.drop_permille
    }
}

/// Circuit-breaker position for one path (a peer or the cloud uplink).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are counted.
    Closed,
    /// Tripped: traffic is blocked until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probe traffic is allowed; the first success closes
    /// the breaker, the first failure reopens it.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// One path's breaker: closed → open on consecutive failures, open →
/// half-open after a cooldown, half-open → closed on a probe success or
/// back to open on a probe failure.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    state: BreakerState,
    failures: u32,
    threshold: u32,
    cooldown_ns: u64,
    opened_at_ns: u64,
    /// How many times this breaker has tripped open.
    pub(crate) trips: u64,
}

impl CircuitBreaker {
    fn new(threshold: u32, cooldown_ns: u64) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            failures: 0,
            threshold: threshold.max(1),
            cooldown_ns,
            opened_at_ns: 0,
            trips: 0,
        }
    }

    /// Whether traffic may use the path now, transitioning open → half-open
    /// once the cooldown has elapsed.
    fn allow(&mut self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now_ns >= self.opened_at_ns.saturating_add(self.cooldown_ns) {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Read-only variant of [`allow`](Self::allow) for ranking contexts
    /// that hold a shared borrow.
    fn would_allow(&self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => now_ns >= self.opened_at_ns.saturating_add(self.cooldown_ns),
        }
    }

    /// Records a success; returns `true` if this closed a non-closed
    /// breaker.
    fn on_success(&mut self) -> bool {
        self.failures = 0;
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            true
        } else {
            false
        }
    }

    /// Records a failure; returns `true` if this tripped the breaker open.
    fn on_failure(&mut self, now_ns: u64) -> bool {
        match self.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at_ns = now_ns;
                self.failures = self.threshold;
                self.trips += 1;
                true
            }
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at_ns = now_ns;
                    self.trips += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    pub(crate) fn failures(&self) -> u32 {
        self.failures
    }
}

/// Admission verdict for one submitted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitDecision {
    /// The op proceeds; its tenant's inflight count was incremented.
    Admitted,
    /// The op is rejected with the named reason (`"tenant_cap"`, `"slo"`,
    /// or `"rate"`).
    Shed(&'static str),
}

/// The stable numeric code of a shed reason, for compact causal-ledger
/// events (`0` = unknown).
pub(crate) fn shed_reason_code(reason: &str) -> u64 {
    match reason {
        "tenant_cap" => 1,
        "slo" => 2,
        "rate" => 3,
        _ => 0,
    }
}

/// The runtime's aggregate overload state. All entry points are no-ops (or
/// unconditional allows) while `enabled` is false.
#[derive(Debug)]
pub(crate) struct OverloadPlane {
    pub(crate) enabled: bool,
    rng: DetRng,
    admit_rate: u32,
    admit_burst: u32,
    admit: BTreeMap<&'static str, TokenBucket>,
    shed: ShedController,
    tenant_cap: u64,
    tenant_inflight: BTreeMap<usize, u64>,
    total_inflight: u64,
    retry: Vec<TokenBucket>,
    breaker_failures: u32,
    breaker_cooldown_ns: u64,
    breakers: BTreeMap<u64, CircuitBreaker>,
}

impl OverloadPlane {
    pub(crate) fn new(config: &Config) -> Self {
        let o = &config.overload;
        let retry = (0..config.nodes.len())
            .map(|_| TokenBucket::new(o.retry_budget, o.retry_refill_per_sec))
            .collect();
        OverloadPlane {
            enabled: o.enabled,
            rng: DetRng::seed(config.seed ^ RNG_SALT),
            admit_rate: o.admit_rate,
            admit_burst: o.admit_burst,
            admit: BTreeMap::new(),
            shed: ShedController::new(
                o.shed_step_permille,
                o.shed_decay_permille,
                o.shed_max_permille,
            ),
            tenant_cap: u64::from(o.tenant_max_inflight),
            tenant_inflight: BTreeMap::new(),
            total_inflight: 0,
            retry,
            breaker_failures: o.breaker_failures,
            breaker_cooldown_ns: o.breaker_cooldown_ms.saturating_mul(1_000_000),
            breakers: BTreeMap::new(),
        }
    }

    /// Decides admission for one op. Order matters: the tenant cap is
    /// checked first (no token spent on a capped tenant), then the shed
    /// controller (an SLO-driven drop must not burn an admission token),
    /// then the rate bucket.
    pub(crate) fn admit(
        &mut self,
        kind: &'static str,
        tenant: usize,
        now_ns: u64,
    ) -> AdmitDecision {
        if !self.enabled {
            return AdmitDecision::Admitted;
        }
        let inflight = self.tenant_inflight.get(&tenant).copied().unwrap_or(0);
        if self.tenant_cap > 0 && inflight >= self.tenant_cap {
            return AdmitDecision::Shed("tenant_cap");
        }
        let permille = self.shed.permille();
        if permille > 0 {
            // A tenant holding more than its fair share of inflight work
            // sheds at double the controller's probability.
            let active = self.tenant_inflight.values().filter(|&&v| v > 0).count() as u64;
            let hot = active > 0 && inflight.saturating_mul(active) > self.total_inflight;
            let effective = if hot {
                (permille * 2).min(self.shed.max)
            } else {
                permille
            };
            if self.rng.uniform_u64(0, 1000) < u64::from(effective) {
                return AdmitDecision::Shed("slo");
            }
        }
        if self.admit_rate > 0 {
            let bucket = self
                .admit
                .entry(kind)
                .or_insert_with(|| TokenBucket::new(self.admit_burst, self.admit_rate));
            if !bucket.try_take(now_ns) {
                return AdmitDecision::Shed("rate");
            }
        }
        *self.tenant_inflight.entry(tenant).or_insert(0) += 1;
        self.total_inflight += 1;
        AdmitDecision::Admitted
    }

    /// Whole admission tokens currently available, one row per op kind
    /// that has been rate-checked at least once. Sorted by kind (the map
    /// is a `BTreeMap`), so introspection output is deterministic.
    pub(crate) fn admit_token_rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.admit.iter().map(|(k, b)| (*k, b.tokens()))
    }

    /// Marks an admitted op complete, releasing its tenant slot.
    pub(crate) fn tenant_done(&mut self, tenant: usize) {
        if !self.enabled {
            return;
        }
        if let Some(v) = self.tenant_inflight.get_mut(&tenant) {
            *v = v.saturating_sub(1);
        }
        self.total_inflight = self.total_inflight.saturating_sub(1);
    }

    /// Feeds the shed controller one completed-op observation.
    pub(crate) fn observe_completion(&mut self, breached: bool) {
        if !self.enabled {
            return;
        }
        if breached {
            self.shed.on_breach();
        } else {
            self.shed.on_healthy();
        }
    }

    /// Takes one retry token from `node`'s budget; always `true` while the
    /// plane is disabled.
    pub(crate) fn retry_allowed(&mut self, node: usize, now_ns: u64) -> bool {
        if !self.enabled {
            return true;
        }
        self.retry[node].try_take(now_ns)
    }

    /// Whether the breaker for `addr` blocks traffic now. May transition an
    /// open breaker to half-open (the probe path).
    pub(crate) fn breaker_blocks(&mut self, addr: u64, now_ns: u64) -> bool {
        if !self.enabled {
            return false;
        }
        match self.breakers.get_mut(&addr) {
            Some(b) => !b.allow(now_ns),
            None => false,
        }
    }

    /// Read-only breaker check for ranking/filtering contexts.
    pub(crate) fn breaker_would_block(&self, addr: u64, now_ns: u64) -> bool {
        if !self.enabled {
            return false;
        }
        self.breakers
            .get(&addr)
            .is_some_and(|b| !b.would_allow(now_ns))
    }

    /// Records a successful transfer on `addr`'s path; returns `true` when
    /// this closed a previously open/half-open breaker.
    pub(crate) fn record_success(&mut self, addr: u64) -> bool {
        if !self.enabled {
            return false;
        }
        match self.breakers.get_mut(&addr) {
            Some(b) => b.on_success(),
            None => false,
        }
    }

    /// Records a failed transfer on `addr`'s path; returns `true` when this
    /// tripped the breaker open.
    pub(crate) fn record_failure(&mut self, addr: u64, now_ns: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let threshold = self.breaker_failures;
        let cooldown = self.breaker_cooldown_ns;
        self.breakers
            .entry(addr)
            .or_insert_with(|| CircuitBreaker::new(threshold, cooldown))
            .on_failure(now_ns)
    }

    /// Current rejection probability, permille.
    pub(crate) fn shed_permille(&self) -> u32 {
        self.shed.permille()
    }

    /// Total SLO breaches the controller has absorbed.
    pub(crate) fn breaches(&self) -> u64 {
        self.shed.breaches
    }

    /// Count of breakers currently blocking traffic (state `Open`).
    pub(crate) fn breakers_open(&self) -> usize {
        self.breakers
            .values()
            .filter(|b| b.state() == BreakerState::Open)
            .count()
    }

    /// Admitted-but-incomplete ops across all tenants.
    pub(crate) fn inflight(&self) -> u64 {
        self.total_inflight
    }

    /// Per-tenant inflight rows, sorted by tenant index.
    pub(crate) fn tenant_rows(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.tenant_inflight.iter().map(|(&t, &v)| (t, v))
    }

    /// Per-path breaker rows, sorted by address.
    pub(crate) fn breaker_rows(&self) -> impl Iterator<Item = (u64, &CircuitBreaker)> + '_ {
        self.breakers.iter().map(|(&a, b)| (a, b))
    }

    /// Remaining whole retry tokens for `node`.
    pub(crate) fn retry_tokens(&self, node: usize) -> u64 {
        self.retry.get(node).map_or(0, TokenBucket::tokens)
    }
}

impl Cloud4Home {
    /// A human-readable admission/shedding summary: whether the overload
    /// plane is active, the shed controller's current rejection
    /// probability, breach and rejection totals, and per-tenant inflight
    /// rows. Integer-only formatting, deterministic per seed.
    pub fn shed_text(&self) -> String {
        let mut out = self.report_header("shed");
        if !self.overload.enabled {
            out.push_str("overload plane disabled\n");
            return out;
        }
        out.push_str(&format!(
            "drop_permille={} breaches={} shed={} inflight={}\n",
            self.overload.shed_permille(),
            self.overload.breaches(),
            self.stats.ops_shed,
            self.overload.inflight(),
        ));
        out.push_str(&format!(
            "retry_budget_denied={}\n",
            self.stats.retry_budget_denied
        ));
        for (tenant, inflight) in self.overload.tenant_rows() {
            let name = self.nodes.get(tenant).map_or("?", |n| n.name.as_str());
            out.push_str(&format!(
                "tenant {name} inflight={inflight} retry_tokens={}\n",
                self.overload.retry_tokens(tenant)
            ));
        }
        out
    }

    /// A human-readable circuit-breaker summary: one row per path that has
    /// recorded at least one failure, with its state, consecutive-failure
    /// count, and trip total. Integer-only formatting, deterministic per
    /// seed.
    pub fn breaker_text(&self) -> String {
        let mut out = self.report_header("breakers");
        if !self.overload.enabled {
            out.push_str("overload plane disabled\n");
            return out;
        }
        let mut any = false;
        for (addr, b) in self.overload.breaker_rows() {
            any = true;
            let path = self.path_name(Addr::new(addr));
            out.push_str(&format!(
                "{path} state={} failures={} trips={}\n",
                b.state(),
                b.failures(),
                b.trips,
            ));
        }
        if !any {
            out.push_str("no paths have recorded failures\n");
        }
        out.push_str(&format!(
            "open={} trips_total={} fast_fails={}\n",
            self.overload.breakers_open(),
            self.stats.breaker_trips,
            self.stats.breaker_fast_fails,
        ));
        out
    }

    // ------------------------------------------------------------------
    // The runtime's hooks (all no-ops while the plane is disabled)
    // ------------------------------------------------------------------

    /// Human name of a breaker path address: a node name or the cloud
    /// uplink. Returns the interned name, so the common cases (known
    /// node, cloud) never allocate; an unknown address formats once and
    /// its interned fallback is reused from then on.
    fn path_name(&self, addr: Addr) -> Sym {
        if addr == CLOUD_ADDR {
            return Sym::new("cloud-uplink");
        }
        // Node `i` sits at address `i`, all below the cloud's.
        let node = usize::try_from(addr.raw())
            .ok()
            .and_then(|i| self.nodes.get(i));
        match node {
            Some(n) => n.name_sym,
            None => Sym::new(&format!("addr-{}", addr.raw())),
        }
    }

    /// Counts and traces one breaker transition or fast-fail on `addr`'s
    /// path.
    fn note_breaker(&self, name: &'static str, addr: Addr) {
        let path = self.path_name(addr);
        self.telemetry.add(name, 1);
        self.telemetry.instant_args(
            "overload",
            name,
            RUNTIME_TRACK,
            self.now().as_nanos(),
            [("path", ArgValue::from(path.as_str()))],
        );
    }

    /// Records a successful transfer on a path, closing its breaker when a
    /// half-open probe just succeeded.
    pub(crate) fn breaker_success(&mut self, addr: Addr) {
        if self.overload.record_success(addr.raw()) {
            self.note_breaker("breaker.close", addr);
        }
    }

    /// Records a failed transfer on a path, tripping its breaker open after
    /// the configured consecutive-failure threshold.
    pub(crate) fn breaker_failure(&mut self, addr: Addr) {
        let now_ns = self.now().as_nanos();
        if self.overload.record_failure(addr.raw(), now_ns) {
            self.stats.breaker_trips += 1;
            self.ledger_bg(CauseKind::BreakerTrip, addr.raw(), 0);
            self.note_breaker("breaker.trip", addr);
        }
    }

    /// Whether `addr`'s breaker currently blocks traffic for `op`. Counts
    /// and traces the fast-fail when it does (and stamps a `breaker.skip`
    /// event on the op's causal ledger); may move an open breaker to
    /// half-open (the deterministic probe path).
    pub(crate) fn breaker_blocks_path(&mut self, addr: Addr, op: OpId) -> bool {
        let now_ns = self.now().as_nanos();
        if !self.overload.breaker_blocks(addr.raw(), now_ns) {
            return false;
        }
        self.stats.breaker_fast_fails += 1;
        self.ledger_op(op, CauseKind::BreakerSkip, LEDGER_NONE, addr.raw(), 0);
        self.note_breaker("breaker.fast_fail", addr);
        true
    }

    /// Takes one retry token from `node`'s budget, tracing the denial when
    /// the bucket is dry. Always grants while the plane is disabled.
    pub(crate) fn retry_budget_take(
        &mut self,
        node: usize,
        site: &'static str,
        object: Sym,
    ) -> bool {
        let now_ns = self.now().as_nanos();
        if self.overload.retry_allowed(node, now_ns) {
            return true;
        }
        self.stats.retry_budget_denied += 1;
        self.telemetry.add("retry.budget_denied", 1);
        self.telemetry.instant_args(
            "overload",
            "retry.budget_denied",
            RUNTIME_TRACK,
            now_ns,
            [
                ("site", ArgValue::from(site)),
                ("node", ArgValue::from(self.nodes[node].name_sym.as_str())),
                ("object", ArgValue::from(object.as_str())),
            ],
        );
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    const SEC: u64 = 1_000_000_000;

    fn enabled_config() -> Config {
        let mut c = Config::paper_testbed(9);
        c.overload.enabled = true;
        c
    }

    #[test]
    fn token_bucket_grants_burst_then_meters_refill() {
        let mut b = TokenBucket::new(2, 1); // burst 2, 1 token/s
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0), "burst exhausted");
        assert!(!b.try_take(SEC / 2), "half a token is not a token");
        assert!(b.try_take(SEC), "one second refills one token");
        // Fractional accrual carries over instead of truncating away.
        assert!(b.try_take(2 * SEC));
        assert!(!b.try_take(2 * SEC));
    }

    #[test]
    fn token_bucket_without_refill_never_recovers() {
        let mut b = TokenBucket::new(1, 0);
        assert!(b.try_take(0));
        assert!(!b.try_take(100 * SEC));
    }

    #[test]
    fn shed_controller_ramps_and_decays() {
        let mut s = ShedController::new(100, 10, 250);
        assert_eq!(s.permille(), 0);
        s.on_breach();
        s.on_breach();
        assert_eq!(s.permille(), 200);
        s.on_breach();
        assert_eq!(s.permille(), 250, "clamped at max");
        for _ in 0..30 {
            s.on_healthy();
        }
        assert_eq!(s.permille(), 0, "decays to zero, never below");
        assert_eq!(s.breaches, 3);
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut b = CircuitBreaker::new(2, SEC);
        assert!(b.allow(0));
        assert!(!b.on_failure(0));
        assert!(b.on_failure(0), "second failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(SEC / 2), "blocked during cooldown");
        assert!(b.allow(SEC), "cooldown elapsed: half-open probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.on_success(), "probe success closes");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(1, SEC);
        assert!(b.on_failure(0));
        assert!(b.allow(SEC));
        assert!(b.on_failure(SEC), "probe failure re-trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(SEC + SEC / 2), "new cooldown restarts the clock");
        assert_eq!(b.trips, 2);
    }

    #[test]
    fn disabled_plane_is_inert() {
        let mut c = Config::paper_testbed(9);
        c.overload.enabled = false;
        let mut p = OverloadPlane::new(&c);
        assert_eq!(p.admit("store", 0, 0), AdmitDecision::Admitted);
        assert!(p.retry_allowed(0, 0));
        assert!(!p.breaker_blocks(42, 0));
        assert!(!p.record_failure(42, 0));
        assert_eq!(p.inflight(), 0, "disabled admission tracks nothing");
        assert_eq!(p.breakers_open(), 0);
    }

    #[test]
    fn tenant_cap_rejects_only_the_hot_tenant() {
        let mut c = enabled_config();
        c.overload.tenant_max_inflight = 2;
        let mut p = OverloadPlane::new(&c);
        assert_eq!(p.admit("store", 0, 0), AdmitDecision::Admitted);
        assert_eq!(p.admit("store", 0, 0), AdmitDecision::Admitted);
        assert_eq!(p.admit("store", 0, 0), AdmitDecision::Shed("tenant_cap"));
        assert_eq!(
            p.admit("store", 1, 0),
            AdmitDecision::Admitted,
            "other tenants unaffected"
        );
        p.tenant_done(0);
        assert_eq!(p.admit("store", 0, 0), AdmitDecision::Admitted);
    }

    #[test]
    fn shed_probability_doubles_for_over_share_tenants() {
        let mut c = enabled_config();
        c.overload.shed_step_permille = 400;
        c.overload.shed_max_permille = 1000;
        let mut p = OverloadPlane::new(&c);
        // Tenant 0 grabs eight inflight slots against tenant 1's one —
        // far over the fair share of a two-tenant mix — then the
        // controller ramps. (A sole tenant holding everything is *at*
        // fair share, not over it, and sheds at the base rate.)
        for _ in 0..8 {
            assert_eq!(p.admit("fetch", 0, 0), AdmitDecision::Admitted);
        }
        assert_eq!(p.admit("fetch", 1, 0), AdmitDecision::Admitted);
        p.observe_completion(true); // 400 permille
        let trials = 2_000;
        let mut hot = 0;
        let mut cold = 0;
        for _ in 0..trials {
            // Tenant 0 is far over fair share: sheds at 800 permille.
            if p.admit("fetch", 0, 0) == AdmitDecision::Shed("slo") {
                hot += 1;
            } else {
                p.tenant_done(0);
            }
            // A fresh tenant sheds at the base 400 permille.
            if p.admit("fetch", 99, 0) == AdmitDecision::Shed("slo") {
                cold += 1;
            } else {
                p.tenant_done(99);
            }
        }
        assert!(
            hot > cold + trials / 10,
            "hot tenant must shed markedly more: hot={hot} cold={cold}"
        );
    }

    #[test]
    fn same_seed_plane_makes_identical_decisions() {
        let run = || {
            let mut p = OverloadPlane::new(&enabled_config());
            p.observe_completion(true);
            p.observe_completion(true);
            (0..200)
                .map(|i| p.admit("fetch", i % 3, i as u64 * 1_000_000) == AdmitDecision::Admitted)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retry_budget_exhausts_then_refills() {
        let mut c = enabled_config();
        c.overload.retry_budget = 2;
        c.overload.retry_refill_per_sec = 1;
        let mut p = OverloadPlane::new(&c);
        assert!(p.retry_allowed(0, 0));
        assert!(p.retry_allowed(0, 0));
        assert!(!p.retry_allowed(0, 0), "budget exhausted");
        assert!(p.retry_allowed(1, 0), "budgets are per node");
        assert!(p.retry_allowed(0, SEC), "refill restores one token");
        assert_eq!(p.retry_tokens(0), 0);
    }
}
