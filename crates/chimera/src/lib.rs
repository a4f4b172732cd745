//! A Chimera-style structured peer-to-peer overlay and DHT, built from
//! scratch for the Cloud4Home reproduction.
//!
//! The paper's metadata and resource-management layer is "a distributed
//! key-value store … based on a distributed hash table (DHT), built on top
//! of the Chimera peer-to-peer system", a lightweight structured overlay
//! providing prefix routing in the style of Tapestry and Pastry. This crate
//! reimplements that overlay as a *sans-io state machine*:
//!
//! * [`Key`] — the 40-bit hashed key space ("every object's key is a 40 bit
//!   hash value generated by the object name");
//! * [`RbTree`] — the red-black tree giving each node its ordered "logical
//!   tree view" of the membership;
//! * [`RoutingTable`] / [`LeafSet`] — Pastry-style prefix routing plus ring
//!   neighbours;
//! * [`ChimeraNode`] — join/leave/failure handling with key redistribution,
//!   and DHT `put`/`get` with [`OverwritePolicy`] semantics, path caching,
//!   and fixed-factor replication.
//!
//! Being sans-io, a node never touches a socket: it consumes [`Envelope`]s
//! and emits them through [`ChimeraNode::poll_send`]. The Cloud4Home runtime
//! binds nodes to the simulated network; unit tests drive them directly.
//!
//! # Examples
//!
//! A three-node overlay exercised without any transport:
//!
//! ```
//! use c4h_chimera::{ChimeraConfig, ChimeraNode, DhtEvent, Key, OverwritePolicy};
//! use c4h_simnet::SimTime;
//!
//! let now = SimTime::ZERO;
//! let ids: Vec<Key> = ["a", "b", "c"].iter().map(|n| Key::from_name(n)).collect();
//! let mut nodes: Vec<ChimeraNode> = ids
//!     .iter()
//!     .map(|&id| ChimeraNode::new(id, ChimeraConfig::default()))
//!     .collect();
//! nodes[0].bootstrap(now);
//! nodes[1].join_via(ids[0], now);
//! nodes[2].join_via(ids[0], now);
//!
//! // Pump until quiescent.
//! fn pump(nodes: &mut Vec<ChimeraNode>) {
//!     let now = SimTime::ZERO;
//!     loop {
//!         let mut moved = false;
//!         for i in 0..nodes.len() {
//!             while let Some(env) = nodes[i].poll_send() {
//!                 moved = true;
//!                 let j = nodes.iter().position(|n| n.id() == env.to).unwrap();
//!                 nodes[j].handle(env, now);
//!             }
//!         }
//!         if !moved {
//!             break;
//!         }
//!     }
//! }
//! pump(&mut nodes);
//! assert!(nodes.iter().all(|n| n.is_joined()));
//!
//! // Store a record from node 2 and read it back from node 1.
//! let key = Key::from_name("camera/front-door/img-001");
//! nodes[2].put(key, b"metadata".to_vec(), OverwritePolicy::Overwrite, now)?;
//! pump(&mut nodes);
//! nodes[1].get(key, now)?;
//! pump(&mut nodes);
//! let got = std::iter::from_fn(|| nodes[1].poll_event()).find_map(|e| match e {
//!     DhtEvent::GetCompleted { value, .. } => Some(value),
//!     _ => None,
//! });
//! assert_eq!(got.unwrap().unwrap().latest(), b"metadata");
//! # Ok::<(), c4h_chimera::DhtError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod key;
mod messages;
mod node;
mod rbtree;
#[cfg(test)]
mod rbtree_oracle;
mod routing;
mod store;

pub use key::{root_of, Key, KeyHasher, KEY_BITS, KEY_DIGITS, KEY_MASK};
pub use messages::{Envelope, Message, ReqId};
pub use node::{ChimeraConfig, ChimeraNode, DhtError, DhtEvent, NodeStats};
pub use rbtree::{Iter as RbIter, RbTree, Seek as RbSeek};
pub use routing::{route, LeafSet, NextHop, RoutingTable, ROW_WIDTH};
pub use store::{LocalStore, MetaCache, OverwritePolicy, PutError, StoredValue};
