//! # Cloud4Home / VStore++
//!
//! A from-scratch reproduction of **"Cloud4Home — Enhancing Data Services
//! with @Home Clouds"** (Kannan, Gavrilovska, Schwan; ICDCS 2011).
//!
//! Cloud4Home aggregates *@home* devices (netbooks, desktops) and
//! *@datacenter* resources (S3/EC2-style public clouds) into one fungible
//! data-service fabric. Its realization, **VStore++**, is a virtualized
//! object store whose operations — `store`, `fetch`, `process`, and
//! `fetch+process` — are transparently placed across home nodes and the
//! remote cloud, guided by a DHT-based metadata/resource layer built over a
//! Chimera-style structured overlay.
//!
//! This crate is the system's top: it composes the substrate crates
//! ([`c4h_simnet`], [`c4h_chimera`], [`c4h_kvstore`], [`c4h_vmm`],
//! [`c4h_resources`], [`c4h_services`], [`c4h_cloud`]) into a deterministic
//! virtual-time deployment, [`Cloud4Home`], against which applications and
//! the experiment harness submit operations.
//!
//! ## Quick start
//!
//! ```
//! use cloud4home::{Cloud4Home, Config, NodeId, Object, RoutePolicy, ServiceKind, StorePolicy};
//!
//! // The paper's testbed: five Atom netbooks + one desktop + EC2/S3.
//! let mut home = Cloud4Home::new(Config::paper_testbed(7));
//!
//! // Store a surveillance image from netbook 0, keeping it in the home
//! // cloud because it is small.
//! let image = Object::synthetic("camera/front/img-001.jpg", 1, 512 * 1024, "jpeg");
//! let op = home.store_object(
//!     NodeId(0),
//!     image,
//!     StorePolicy::SizeThreshold { cloud_at_bytes: 20 << 20 },
//!     true,
//! );
//! home.run_until_complete(op).expect_ok();
//!
//! // Run face detection on it, letting the decision engine pick the
//! // execution site from live resource records.
//! let op = home.process_object(
//!     NodeId(0),
//!     "camera/front/img-001.jpg",
//!     ServiceKind::FaceDetect,
//!     RoutePolicy::Performance,
//! );
//! let report = home.run_until_complete(op);
//! let out = report.expect_ok();
//! assert!(out.exec_target.is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod background;
mod config;
mod decision;
mod ec;
mod explain;
mod fault;
mod health;
mod object;
mod ops;
mod overload;
mod policy;
mod replicas;
mod report;
mod runtime;
mod transfers;
mod transport;
mod worklist;

pub use adaptive::{AdaptivePlacement, EwmaRate, ObjectHeat, PeerBandwidth};
pub use c4h_kvstore::Acl;
pub use c4h_telemetry::{
    ArgValue, CauseKind, DagEdge, EventRec, Histogram, InstantRec, LedgerEvent, OpLedger, Recorder,
    Snapshot, SpanRec, LEDGER_NONE,
};
pub use config::{
    AdaptiveConfig, CloudSpec, Config, NodeId, NodeSpec, OverloadConfig, ServiceKind, TimingConfig,
};
pub use decision::{choose, estimate_exec, meets_minimum, Candidate, LOCATE_TIME};
pub use ec::{gf_inv, gf_mul, ErasureCode};
pub use fault::{FaultEvent, FaultPlan};
pub use object::{synth_bytes, Blob, Object, SAMPLE_WINDOW};
pub use ops::{ExecTarget, Placement};
pub use overload::BreakerState;
pub use policy::{adaptive_action, AdaptiveAction, PlacementClass, RoutePolicy, StorePolicy};
pub use report::{Breakdown, CausalEvent, OpError, OpId, OpOutput, OpReport, PathAttribution};
pub use runtime::{ChurnError, Cloud4Home, RunStats};
