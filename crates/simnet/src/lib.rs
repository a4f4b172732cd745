//! Deterministic discrete-event network substrate for the Cloud4Home
//! reproduction.
//!
//! The ICDCS'11 Cloud4Home paper evaluates its VStore++ prototype on a
//! physical testbed: Atom netbooks and a desktop on a 95.5 Mbps home LAN,
//! reaching Amazon EC2/S3 over a variable campus wireless network. This
//! crate replaces that physical substrate with a deterministic simulation
//! that preserves the properties the experiments depend on:
//!
//! * **Virtual time** ([`SimTime`], [`EventQueue`]) — every latency and
//!   transfer advances a virtual clock, so runs are exactly reproducible
//!   under a seed.
//! * **Fluid-flow bandwidth sharing** ([`FlowNet`]) — bulk transfers are
//!   flows over shared segments with max-min fair allocation, reproducing
//!   contention between concurrent accesses (paper Figure 6).
//! * **Phase-based TCP model** ([`TcpProfile`]) — per-flow rate caps that
//!   ramp up (window growth) and degrade after a sustained-byte threshold
//!   (ISP traffic shaping / receiver page-cache exhaustion), reproducing the
//!   throughput-vs-object-size curve of Figure 5 and the cost scaling of
//!   Table I.
//! * **Topology description** ([`Topology`]) — sites, shared segments,
//!   routes with latency models and bandwidth variability.
//! * **Calibrated presets** ([`presets`]) — the paper testbed's numbers.
//! * **Fault primitives** ([`GilbertElliott`], [`Partition`]) — bursty
//!   per-route loss and reachability cuts for deterministic
//!   fault-injection experiments.
//!
//! # Examples
//!
//! Simulate one home-LAN object transfer on the paper's testbed:
//!
//! ```
//! use c4h_simnet::presets::paper_testbed;
//! use c4h_simnet::{Addr, DetRng, FlowNet, SimTime};
//!
//! let mut tb = paper_testbed();
//! tb.topology.attach(Addr::new(1), tb.home);
//! tb.topology.attach(Addr::new(2), tb.home);
//!
//! let mut net = FlowNet::new(tb.topology);
//! let mut rng = DetRng::seed(42);
//! net.start_flow(SimTime::ZERO, Addr::new(1), Addr::new(2), 1 << 20, &mut rng)?;
//! let (mut done_at, mut events) = (SimTime::ZERO, Vec::new());
//! while let Some(t) = net.next_event() {
//!     net.advance_into(t, &mut events);
//!     if !events.is_empty() {
//!         done_at = t;
//!     }
//! }
//! // A 1 MiB home transfer lands near Table I's ~103 ms.
//! assert!(done_at.as_millis_f64() > 50.0 && done_at.as_millis_f64() < 200.0);
//! # Ok::<(), c4h_simnet::NetError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fault;
mod flow;
pub mod hash;
pub mod intern;
pub mod presets;
pub mod queue;
mod rng;
mod tcp;
mod time;
mod topology;

pub use fault::{GilbertElliott, Partition};
pub use flow::{
    ChunkSpec, FlowCounters, FlowEvent, FlowId, FlowNet, FlowProgress, NetError, SegmentLoad,
    NET_TRACK_BASE,
};
pub use hash::{FxHashMap, FxHashSet};
pub use intern::{Sym, SymMap, SymSet};
pub use queue::EventQueue;
pub use rng::{DetRng, Zipf};
pub use tcp::{mbps, mib, SustainedCap, TcpProfile};
pub use time::{duration_from_secs_f64, SimTime};
pub use topology::{
    Addr, LatencyModel, Route, Segment, SegmentId, SiteId, Topology, TopologyBuilder,
};
