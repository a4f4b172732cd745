//! Scriptable, seeded fault injection for the Cloud4Home runtime.
//!
//! The paper's evaluation assumes a cooperative, mostly healthy home cloud;
//! this module adds the machinery to test everything else. A [`FaultPlan`]
//! is a schedule of [`FaultEvent`]s over *virtual* time: node crashes and
//! rejoins, network partitions, WAN-degradation episodes, bursty
//! (Gilbert–Elliott) message loss, and slow-node gray failures. Plans are
//! injected with [`crate::Cloud4Home::inject_faults`] and applied as the
//! simulation clock reaches each offset, so a given seed replays the exact
//! same failure trace.

use std::time::Duration;

use c4h_simnet::{Addr, GilbertElliott, Partition};
use c4h_telemetry::{Arg, ArgValue};

use crate::config::NodeId;
use crate::runtime::{Cloud4Home, Event, CLOUD_ADDR, RUNTIME_TRACK};

/// One fault (or recovery) action applied to the running home cloud.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Abruptly crash a node: in-flight flows through it abort and no
    /// graceful metadata handoff happens. Equivalent to
    /// [`crate::Cloud4Home::crash_node`].
    Crash(NodeId),
    /// Bring a crashed (or departed) node back through a live peer. Ignored
    /// if no live peer exists at that instant.
    Rejoin(NodeId),
    /// Split the home cloud into isolated groups; messages and new flows
    /// crossing the cut are dropped. Nodes not listed in any group share an
    /// implicit remainder group, so isolating one node needs only
    /// `vec![vec![node]]`. The cloud uplink stays with the group holding
    /// the gateway node.
    Partition(Vec<Vec<NodeId>>),
    /// Remove any active partition.
    Heal,
    /// A WAN-degradation episode: scale the home↔cloud route quality by
    /// `factor` (`1.0` restores the calibrated baseline).
    WanDegrade(f64),
    /// Bursty per-route message loss driven by a two-state Gilbert–Elliott
    /// chain per directed node pair. `mean_loss == 0.0` disables it.
    BurstyLoss {
        /// Stationary mean loss fraction, e.g. `0.10` for 10 %.
        mean_loss: f64,
        /// Expected burst length in consecutive deliveries.
        mean_burst_len: f64,
    },
    /// Gray failure: multiply a node's message-processing delay by `factor`
    /// without killing it (`1.0` clears the throttle).
    SlowNode {
        /// The throttled node.
        node: NodeId,
        /// Processing-delay multiplier, clamped to at least `1.0`.
        factor: f64,
    },
}

/// A deterministic schedule of [`FaultEvent`]s over virtual time.
///
/// Offsets are relative to the instant the plan is injected into the
/// runtime. Events sharing an offset apply in insertion order.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use cloud4home::{FaultEvent, FaultPlan, NodeId};
///
/// let plan = FaultPlan::new()
///     .at(Duration::from_secs(5), FaultEvent::Crash(NodeId(3)))
///     .at(Duration::from_secs(10), FaultEvent::Partition(vec![vec![NodeId(5)]]))
///     .at(Duration::from_secs(40), FaultEvent::Heal);
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(Duration, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `event` at `offset` after injection time (builder style).
    #[must_use]
    pub fn at(mut self, offset: Duration, event: FaultEvent) -> Self {
        self.events.push((offset, event));
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events sorted by offset (stable, so ties keep insertion order).
    pub(crate) fn into_sorted_events(self) -> Vec<(Duration, FaultEvent)> {
        let mut events = self.events;
        events.sort_by_key(|(offset, _)| *offset);
        events
    }
}

impl Cloud4Home {
    /// Schedules a [`FaultPlan`]'s events relative to the current virtual
    /// time. Events fire as the clock reaches each offset, deterministically
    /// under the run seed; plans may be layered by calling this repeatedly.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        for (offset, event) in plan.into_sorted_events() {
            self.queue.schedule_in(offset, Event::Fault(event));
        }
        self.ensure_tick();
    }

    /// Marks one fault (or recovery) where a post-mortem will look for it:
    /// an instant on the runtime track and — while recording — a line in
    /// the flight recorder's fault notes.
    pub(crate) fn note_fault(
        &mut self,
        name: &'static str,
        args: impl IntoIterator<Item = Arg>,
        text: impl FnOnce() -> String,
    ) {
        let now = self.now().as_nanos();
        self.telemetry
            .instant_args("fault", name, RUNTIME_TRACK, now, args);
        if self.telemetry.enabled() {
            self.health.flight.note_fault(now, text());
        }
    }

    /// Applies one fault (or recovery) action immediately.
    pub fn apply_fault(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Crash(id) => {
                if self.nodes[id.0].alive {
                    self.crash_node(id);
                }
            }
            FaultEvent::Rejoin(id) => {
                if !self.nodes[id.0].alive {
                    // Ignored when no live seed exists, per the event's
                    // documented semantics.
                    let _ = self.rejoin_node(id);
                }
            }
            FaultEvent::Partition(groups) => {
                let gateway_group = self.gateway().map(|g| self.nodes[g.0].addr).map(|addr| {
                    groups
                        .iter()
                        .position(|g| g.iter().any(|id| self.nodes[id.0].addr == addr))
                });
                let mut addr_groups: Vec<Vec<Addr>> = groups
                    .iter()
                    .map(|g| g.iter().map(|id| self.nodes[id.0].addr).collect())
                    .collect();
                // The cloud uplink runs through the gateway: the cloud
                // endpoint lands in the gateway's group (the implicit
                // remainder group when the gateway is unlisted).
                if let Some(Some(idx)) = gateway_group {
                    addr_groups[idx].push(CLOUD_ADDR);
                }
                // `groups`: explicit groups as "addr,addr|addr,..."; every
                // unlisted address forms the implicit remainder group.
                let desc: String = addr_groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|a| a.raw().to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect::<Vec<_>>()
                    .join("|");
                let args = [("groups", ArgValue::from(desc.clone()))];
                self.note_fault("fault.partition", args, || format!("partition {desc}"));
                let cut = Partition::new(addr_groups);
                self.transport.set_partition(cut.clone());
                self.abort_flows(
                    |src, dst| !cut.connected(src, dst),
                    "network partition severed the transfer",
                );
                self.ensure_tick();
            }
            FaultEvent::Heal => {
                self.note_fault("fault.heal", [], || "heal".to_owned());
                self.transport.set_partition(Partition::default());
            }
            FaultEvent::WanDegrade(factor) => {
                let factor = factor.clamp(0.05, 1.0);
                let permille = (factor * 1000.0) as u64;
                let args = [("factor_permille", ArgValue::from(permille))];
                self.note_fault("fault.wan_degrade", args, || {
                    format!("wan_degrade {permille}")
                });
                self.set_wan_quality(factor);
            }
            FaultEvent::BurstyLoss {
                mean_loss,
                mean_burst_len,
            } => {
                let loss_permille = (mean_loss * 1000.0) as u64;
                let args = [
                    ("mean_loss_permille", ArgValue::from(loss_permille)),
                    (
                        "mean_burst_len_x1000",
                        ArgValue::from((mean_burst_len * 1000.0) as u64),
                    ),
                ];
                self.note_fault("fault.bursty_loss", args, || {
                    format!("bursty_loss {loss_permille}")
                });
                self.transport.set_bursty(
                    (mean_loss > 0.0).then(|| GilbertElliott::bursty(mean_loss, mean_burst_len)),
                );
            }
            FaultEvent::SlowNode { node, factor } => {
                let factor = factor.max(1.0);
                let name = self.nodes[node.0].name_sym;
                let args = [
                    ("node", ArgValue::from(name.as_str())),
                    ("factor_permille", ArgValue::from((factor * 1000.0) as u64)),
                ];
                self.note_fault("fault.slow_node", args, || format!("slow_node {name}"));
                self.transport.set_slow_factor(node.0, factor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_offset_stably() {
        let plan = FaultPlan::new()
            .at(Duration::from_secs(9), FaultEvent::Heal)
            .at(Duration::from_secs(2), FaultEvent::Crash(NodeId(1)))
            .at(Duration::from_secs(2), FaultEvent::Rejoin(NodeId(1)));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        let sorted = plan.into_sorted_events();
        assert_eq!(sorted[0].1, FaultEvent::Crash(NodeId(1)));
        assert_eq!(sorted[1].1, FaultEvent::Rejoin(NodeId(1)));
        assert_eq!(sorted[2].1, FaultEvent::Heal);
    }

    #[test]
    fn empty_plan() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new().len(), 0);
    }
}
