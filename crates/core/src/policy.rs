//! Placement and routing policies.
//!
//! "Store operations provide strong controls – via policies – over where
//! data is stored … the target location for the store operation is
//! determined via the policy associated with the store" — and request
//! routing takes a policy parameter too: "requests are routed to target
//! nodes depending on overall service performance, vs. achieving balanced
//! resource utilization or improved battery lives for portable devices."
//!
//! In the paper these are "a set of statically encoded rules";
//! [`StorePolicy`] and [`RoutePolicy`] encode the rule sets the evaluation
//! exercises. [`StorePolicy::classify`] is a pure function from object
//! attributes to a [`PlacementClass`]; the decision engine then picks the
//! concrete node within the class.

use crate::object::Object;

/// The coarse placement target a store policy selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementClass {
    /// The storing node's own mandatory bin (spilling to peers when full).
    LocalFirst,
    /// A home-cloud node's voluntary bin, chosen by the decision engine.
    HomePeer,
    /// The remote public cloud.
    RemoteCloud,
}

/// Statically encoded store-placement rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StorePolicy {
    /// The default: the node's mandatory bin, spilling to voluntary peer
    /// space, then to the cloud.
    #[default]
    MandatoryFirst,
    /// Route objects at or above the threshold to the remote cloud, smaller
    /// ones to the home cloud (the surveillance example stores images "on a
    /// desktop in the home cloud vs. in the remote cloud based on their
    /// size").
    SizeThreshold {
        /// Objects of at least this many bytes go to the cloud.
        cloud_at_bytes: u64,
    },
    /// Privacy rule from Figure 6: private data (`.mp3` in the paper) stays
    /// home; shareable data goes to the remote cloud.
    Privacy,
    /// Pin to the home cloud regardless of attributes.
    ForceHome,
    /// Pin to the remote cloud regardless of attributes.
    ForceCloud,
}

impl StorePolicy {
    /// Applies the rule set to an object.
    pub fn classify(&self, object: &Object) -> PlacementClass {
        match self {
            StorePolicy::MandatoryFirst => PlacementClass::LocalFirst,
            StorePolicy::SizeThreshold { cloud_at_bytes } => {
                if object.size_bytes() >= *cloud_at_bytes {
                    PlacementClass::RemoteCloud
                } else {
                    PlacementClass::LocalFirst
                }
            }
            StorePolicy::Privacy => {
                if object.stays_home() {
                    PlacementClass::LocalFirst
                } else {
                    PlacementClass::RemoteCloud
                }
            }
            StorePolicy::ForceHome => PlacementClass::LocalFirst,
            StorePolicy::ForceCloud => PlacementClass::RemoteCloud,
        }
    }

    /// Whether the policy permits spilling to the remote cloud when home
    /// space runs out.
    pub fn may_spill_to_cloud(&self) -> bool {
        !matches!(self, StorePolicy::Privacy | StorePolicy::ForceHome)
    }
}

/// What the adaptive placement pass should do with one object this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveAction {
    /// Heat sits between the bands (or the object is already where its
    /// band wants it): leave placement alone.
    Hold,
    /// Hot and below the ceiling: add one full copy toward recent readers.
    Grow,
    /// Cold and above the floor: drop one full copy.
    Shrink,
    /// Cold, at the floor, and big enough to be worth striping: convert
    /// the full copies to (k, m) erasure-coded stripes.
    Erasure,
}

impl AdaptiveAction {
    /// A stable short label for metrics and causal-ledger annotations.
    pub fn label(self) -> &'static str {
        match self {
            AdaptiveAction::Hold => "hold",
            AdaptiveAction::Grow => "grow",
            AdaptiveAction::Shrink => "shrink",
            AdaptiveAction::Erasure => "erasure",
        }
    }
}

/// Derives the adaptive action for one fully-replicated object from its
/// decayed fetch heat, current copy count, and size. Pure, so the band
/// semantics are testable without a runtime: one step per pass (grow and
/// shrink move by a single copy, letting the EWMA re-observe between
/// steps), and erasure conversion only fires once shrinking has already
/// reached the floor — a cooling object walks down the band before it
/// gives up its full copies.
pub fn adaptive_action(
    rate_per_min: f64,
    copies: usize,
    size_bytes: u64,
    cfg: &crate::config::AdaptiveConfig,
) -> AdaptiveAction {
    if rate_per_min >= cfg.hot_per_min && copies < cfg.replication_max {
        return AdaptiveAction::Grow;
    }
    if rate_per_min <= cfg.cold_per_min {
        if copies > cfg.replication_min {
            return AdaptiveAction::Shrink;
        }
        if cfg.ec_threshold_bytes > 0 && size_bytes >= cfg.ec_threshold_bytes {
            return AdaptiveAction::Erasure;
        }
    }
    AdaptiveAction::Hold
}

/// The decision policy for routing process requests
/// (`chimeraGetDecision`'s `policy` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Minimize estimated completion time (movement + queueing + execution).
    #[default]
    Performance,
    /// Prefer lightly loaded nodes to balance utilization.
    Balanced,
    /// Avoid battery-powered nodes unless nothing else qualifies.
    BatterySaver,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Object;

    fn obj(size: u64, content_type: &str, private: bool) -> Object {
        let mut o = Object::synthetic("t", 1, size, content_type);
        o.private = private;
        o
    }

    #[test]
    fn default_is_mandatory_first() {
        assert_eq!(StorePolicy::default(), StorePolicy::MandatoryFirst);
        assert_eq!(
            StorePolicy::MandatoryFirst.classify(&obj(1, "avi", false)),
            PlacementClass::LocalFirst
        );
    }

    #[test]
    fn size_threshold_splits_by_size() {
        let p = StorePolicy::SizeThreshold {
            cloud_at_bytes: 10 << 20,
        };
        assert_eq!(
            p.classify(&obj(5 << 20, "jpeg", false)),
            PlacementClass::LocalFirst
        );
        assert_eq!(
            p.classify(&obj(10 << 20, "jpeg", false)),
            PlacementClass::RemoteCloud
        );
        assert_eq!(
            p.classify(&obj(50 << 20, "jpeg", false)),
            PlacementClass::RemoteCloud
        );
    }

    #[test]
    fn privacy_keeps_mp3_and_private_home() {
        let p = StorePolicy::Privacy;
        assert_eq!(
            p.classify(&obj(5 << 20, "mp3", false)),
            PlacementClass::LocalFirst
        );
        assert_eq!(
            p.classify(&obj(5 << 20, "avi", true)),
            PlacementClass::LocalFirst
        );
        assert_eq!(
            p.classify(&obj(5 << 20, "avi", false)),
            PlacementClass::RemoteCloud
        );
        assert!(!p.may_spill_to_cloud());
    }

    #[test]
    fn forced_policies_ignore_attributes() {
        assert_eq!(
            StorePolicy::ForceCloud.classify(&obj(1, "mp3", true)),
            PlacementClass::RemoteCloud
        );
        assert_eq!(
            StorePolicy::ForceHome.classify(&obj(1 << 30, "avi", false)),
            PlacementClass::LocalFirst
        );
        assert!(!StorePolicy::ForceHome.may_spill_to_cloud());
        assert!(StorePolicy::MandatoryFirst.may_spill_to_cloud());
    }

    #[test]
    fn route_policy_default_is_performance() {
        assert_eq!(RoutePolicy::default(), RoutePolicy::Performance);
    }

    #[test]
    fn adaptive_bands_grow_shrink_and_convert() {
        let cfg = crate::config::AdaptiveConfig {
            enabled: true,
            ..Default::default()
        };
        // Defaults: min 1, max 3, hot ≥ 4/min, cold ≤ 0.5/min, EC ≥ 1 MiB.
        let small = 64 << 10;
        let big = 4 << 20;

        // Hot objects grow until the ceiling, one copy per pass.
        assert_eq!(adaptive_action(10.0, 1, small, &cfg), AdaptiveAction::Grow);
        assert_eq!(adaptive_action(10.0, 2, small, &cfg), AdaptiveAction::Grow);
        assert_eq!(adaptive_action(10.0, 3, small, &cfg), AdaptiveAction::Hold);

        // Lukewarm heat holds everywhere in the band.
        assert_eq!(adaptive_action(2.0, 1, big, &cfg), AdaptiveAction::Hold);
        assert_eq!(adaptive_action(2.0, 3, big, &cfg), AdaptiveAction::Hold);

        // Cold objects walk down to the floor before converting.
        assert_eq!(adaptive_action(0.1, 3, big, &cfg), AdaptiveAction::Shrink);
        assert_eq!(adaptive_action(0.1, 2, big, &cfg), AdaptiveAction::Shrink);
        assert_eq!(adaptive_action(0.1, 1, big, &cfg), AdaptiveAction::Erasure);
        // Small cold objects at the floor just stay on full copies.
        assert_eq!(adaptive_action(0.1, 1, small, &cfg), AdaptiveAction::Hold);

        // The threshold-0 sentinel disables conversion entirely.
        let mut no_ec = cfg.clone();
        no_ec.ec_threshold_bytes = 0;
        assert_eq!(adaptive_action(0.1, 1, big, &no_ec), AdaptiveAction::Hold);
    }
}
