//! Network topology: sites, shared segments, routes, and latency models.
//!
//! The Cloud4Home testbed has two *sites* — the home and the public cloud —
//! joined by asymmetric wireless uplink/downlink segments. Nodes attach to a
//! site; a [`Route`] between two sites names the ordered shared segments a
//! bulk transfer traverses, the control-message latency model, the TCP
//! profile bulk flows use, and the bandwidth-variability of the path.

use crate::hash::FxHashMap;
use std::fmt;
use std::time::Duration;

use crate::rng::DetRng;
use crate::tcp::TcpProfile;

/// The address of an endpoint attached to the network.
///
/// Addresses are opaque 64-bit identifiers; the Cloud4Home runtime assigns
/// one per node (home devices, cloud gateway, cloud storage/compute
/// endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw identifier.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw identifier.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr:{}", self.0)
    }
}

/// Identifier of a shared bandwidth segment within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentId(pub(crate) usize);

/// Identifier of a site within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(pub(crate) usize);

/// A shared bandwidth resource (an Ethernet LAN, a wireless uplink, …).
///
/// Concurrent flows crossing the same segment share its capacity max-min
/// fairly; this is what produces the contention effects of the paper's
/// Figure 6.
#[derive(Debug, Clone)]
pub struct Segment {
    name: String,
    capacity_bps: f64,
}

impl Segment {
    /// The segment's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in bytes/second.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }
}

/// Latency model for control messages on a route: a base propagation delay
/// perturbed by a multiplicative jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Median one-way delay.
    pub base: Duration,
    /// Multiplicative jitter spread (e.g. `0.2` → ±20 %).
    pub jitter: f64,
}

impl LatencyModel {
    /// Samples a one-way delay.
    pub fn sample(&self, rng: &mut DetRng) -> Duration {
        self.base.mul_f64(rng.jitter_factor(self.jitter))
    }
}

/// A directed route between two sites.
#[derive(Debug, Clone)]
pub struct Route {
    /// Shared segments traversed, in order.
    pub segments: Vec<SegmentId>,
    /// One-way control message latency.
    pub latency: LatencyModel,
    /// TCP behaviour of bulk flows on this route.
    pub tcp: TcpProfile,
    /// Log-scale sigma of the per-flow bandwidth availability factor
    /// (0 = stable link). The factor multiplies the flow's TCP rate caps.
    pub bandwidth_sigma: f64,
    /// Median of the per-flow bandwidth availability factor.
    pub bandwidth_median: f64,
}

impl Route {
    /// Samples the bandwidth availability factor for a new flow.
    ///
    /// The factor is clamped to `[0.05, 1.0]`: a flow can never exceed the
    /// nominal TCP caps, and never fully starves.
    pub fn sample_bandwidth_factor(&self, rng: &mut DetRng) -> f64 {
        if self.bandwidth_sigma <= 0.0 {
            return self.bandwidth_median.clamp(0.05, 1.0);
        }
        rng.heavy_tail(self.bandwidth_median, self.bandwidth_sigma)
            .clamp(0.05, 1.0)
    }
}

/// The complete static description of the simulated network.
///
/// Built once per experiment via [`TopologyBuilder`]; the
/// [`FlowNet`](crate::flow::FlowNet) consumes it to simulate bulk transfers,
/// and the runtime uses it to sample control-message latencies.
///
/// # Examples
///
/// ```
/// use c4h_simnet::{Topology, Addr, LatencyModel, TcpProfile};
/// use std::time::Duration;
///
/// let mut b = Topology::builder();
/// let lan = b.segment("lan", 10_000_000.0);
/// let home = b.site("home");
/// b.route(
///     home,
///     home,
///     vec![lan],
///     LatencyModel { base: Duration::from_micros(300), jitter: 0.1 },
///     TcpProfile::constant_rate(8_000_000.0),
///     1.0,
///     0.0,
/// );
/// let mut topo = b.build();
/// topo.attach(Addr::new(1), home);
/// topo.attach(Addr::new(2), home);
/// assert!(topo.route_between(Addr::new(1), Addr::new(2)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    segments: Vec<Segment>,
    site_names: Vec<String>,
    routes: FxHashMap<(SiteId, SiteId), Route>,
    attachments: FxHashMap<Addr, SiteId>,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Attaches an endpoint address to a site.
    ///
    /// # Panics
    ///
    /// Panics if the site does not exist in this topology.
    pub fn attach(&mut self, addr: Addr, site: SiteId) {
        assert!(site.0 < self.site_names.len(), "unknown site {site:?}");
        self.attachments.insert(addr, site);
    }

    /// The site an address is attached to, if any.
    pub fn site_of(&self, addr: Addr) -> Option<SiteId> {
        self.attachments.get(&addr).copied()
    }

    /// The segment table.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Looks up a segment.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.0]
    }

    /// The route between the sites of two attached addresses.
    ///
    /// Returns `None` if either address is unattached or no route exists
    /// between their sites. Endpoints on the same node (identical address)
    /// have no route; such transfers are local and handled by the VM-channel
    /// model instead.
    pub fn route_between(&self, src: Addr, dst: Addr) -> Option<&Route> {
        let s = self.site_of(src)?;
        let d = self.site_of(dst)?;
        self.routes.get(&(s, d))
    }

    /// The route between two sites.
    pub fn route(&self, src: SiteId, dst: SiteId) -> Option<&Route> {
        self.routes.get(&(src, dst))
    }

    /// Mutable access to a route, for modeling changing network conditions
    /// (e.g. degrading the wireless uplink mid-experiment). Flows already in
    /// flight keep their sampled parameters; new flows and analytic
    /// estimates see the updated route.
    pub fn route_mut(&mut self, src: SiteId, dst: SiteId) -> Option<&mut Route> {
        self.routes.get_mut(&(src, dst))
    }

    /// All declared (src, dst) site pairs with routes.
    pub fn route_pairs(&self) -> Vec<(SiteId, SiteId)> {
        self.routes.keys().copied().collect()
    }

    /// Samples a one-way control-message latency between two addresses.
    ///
    /// Returns `None` when no route exists (e.g. unattached endpoint).
    pub fn message_latency(&self, src: Addr, dst: Addr, rng: &mut DetRng) -> Option<Duration> {
        if src == dst {
            // Same node: loopback, negligible but non-zero.
            return Some(Duration::from_micros(20));
        }
        self.route_between(src, dst).map(|r| r.latency.sample(rng))
    }

    /// The physical bottleneck capacity (bytes/second) along the route
    /// between two addresses, ignoring contention — used for analytic
    /// estimates.
    pub fn bottleneck_bps(&self, src: Addr, dst: Addr) -> Option<f64> {
        let route = self.route_between(src, dst)?;
        route
            .segments
            .iter()
            .map(|&s| self.segments[s.0].capacity_bps)
            .fold(None, |acc: Option<f64>, c| {
                Some(acc.map_or(c, |a| a.min(c)))
            })
            .or(Some(f64::INFINITY))
    }
}

/// Incremental builder for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    segments: Vec<Segment>,
    site_names: Vec<String>,
    routes: FxHashMap<(SiteId, SiteId), Route>,
}

impl TopologyBuilder {
    /// Declares a shared bandwidth segment and returns its id.
    pub fn segment(&mut self, name: &str, capacity_bps: f64) -> SegmentId {
        assert!(capacity_bps > 0.0, "segment capacity must be positive");
        self.segments.push(Segment {
            name: name.to_owned(),
            capacity_bps,
        });
        SegmentId(self.segments.len() - 1)
    }

    /// Declares a site and returns its id.
    pub fn site(&mut self, name: &str) -> SiteId {
        self.site_names.push(name.to_owned());
        SiteId(self.site_names.len() - 1)
    }

    /// Declares the directed route `src → dst`.
    ///
    /// `bandwidth_median`/`bandwidth_sigma` parameterize per-flow bandwidth
    /// availability (see [`Route::sample_bandwidth_factor`]).
    #[allow(clippy::too_many_arguments)]
    pub fn route(
        &mut self,
        src: SiteId,
        dst: SiteId,
        segments: Vec<SegmentId>,
        latency: LatencyModel,
        tcp: TcpProfile,
        bandwidth_median: f64,
        bandwidth_sigma: f64,
    ) -> &mut Self {
        for s in &segments {
            assert!(s.0 < self.segments.len(), "unknown segment {s:?}");
        }
        self.routes.insert(
            (src, dst),
            Route {
                segments,
                latency,
                tcp,
                bandwidth_sigma,
                bandwidth_median,
            },
        );
        self
    }

    /// Finalizes the topology. Endpoints are attached afterwards with
    /// [`Topology::attach`].
    pub fn build(self) -> Topology {
        Topology {
            segments: self.segments,
            site_names: self.site_names,
            routes: self.routes,
            attachments: FxHashMap::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_site_topology() -> (Topology, SiteId, SiteId) {
        let mut b = Topology::builder();
        let lan = b.segment("lan", 1000.0);
        let up = b.segment("up", 100.0);
        let home = b.site("home");
        let cloud = b.site("cloud");
        let lat = LatencyModel {
            base: Duration::from_millis(1),
            jitter: 0.0,
        };
        b.route(
            home,
            home,
            vec![lan],
            lat,
            TcpProfile::constant_rate(900.0),
            1.0,
            0.0,
        );
        b.route(
            home,
            cloud,
            vec![lan, up],
            lat,
            TcpProfile::constant_rate(90.0),
            1.0,
            0.0,
        );
        (b.build(), home, cloud)
    }

    #[test]
    fn routes_resolve_between_attached_addrs() {
        let (mut t, home, cloud) = two_site_topology();
        t.attach(Addr::new(1), home);
        t.attach(Addr::new(2), cloud);
        assert!(t.route_between(Addr::new(1), Addr::new(2)).is_some());
        // No reverse route was declared.
        assert!(t.route_between(Addr::new(2), Addr::new(1)).is_none());
        // Unattached address has no route.
        assert!(t.route_between(Addr::new(1), Addr::new(9)).is_none());
    }

    #[test]
    fn bottleneck_is_min_segment_capacity() {
        let (mut t, home, cloud) = two_site_topology();
        t.attach(Addr::new(1), home);
        t.attach(Addr::new(2), cloud);
        assert_eq!(t.bottleneck_bps(Addr::new(1), Addr::new(2)), Some(100.0));
    }

    #[test]
    fn loopback_latency_is_tiny() {
        let (mut t, home, _) = two_site_topology();
        t.attach(Addr::new(1), home);
        let mut rng = DetRng::seed(0);
        let d = t
            .message_latency(Addr::new(1), Addr::new(1), &mut rng)
            .unwrap();
        assert!(d < Duration::from_millis(1));
    }

    #[test]
    fn latency_jitter_spreads_samples() {
        let m = LatencyModel {
            base: Duration::from_millis(10),
            jitter: 0.5,
        };
        let mut rng = DetRng::seed(9);
        let samples: Vec<Duration> = (0..100).map(|_| m.sample(&mut rng)).collect();
        let min = samples.iter().min().unwrap();
        let max = samples.iter().max().unwrap();
        assert!(*min >= Duration::from_millis(5));
        assert!(*max <= Duration::from_millis(15) + Duration::from_micros(1));
        assert!(max > min);
    }

    #[test]
    fn stable_route_factor_is_median() {
        let (t, _, _) = {
            let (t, h, c) = two_site_topology();
            (t, h, c)
        };
        let route = t.route(SiteId(0), SiteId(0)).unwrap();
        let mut rng = DetRng::seed(1);
        assert_eq!(route.sample_bandwidth_factor(&mut rng), 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn attaching_to_unknown_site_panics() {
        let (mut t, _, _) = two_site_topology();
        t.attach(Addr::new(1), SiteId(99));
    }

    #[test]
    #[should_panic(expected = "unknown segment")]
    fn route_with_unknown_segment_panics() {
        let mut b = Topology::builder();
        let home = b.site("home");
        b.route(
            home,
            home,
            vec![SegmentId(5)],
            LatencyModel {
                base: Duration::ZERO,
                jitter: 0.0,
            },
            TcpProfile::constant_rate(1.0),
            1.0,
            0.0,
        );
    }
}
