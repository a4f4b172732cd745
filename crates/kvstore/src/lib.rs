//! The typed metadata layer of the VStore++ key-value store.
//!
//! The Cloud4Home metadata and resource-management layer "is organized as a
//! key-value store where unique keys correspond to object names, service
//! names, and … node identifiers. This allows us to maintain a uniform
//! interface for access and manipulation of meta information regarding
//! objects, services, and infrastructure available in the VStore++ cloud."
//!
//! This crate supplies the typed half of that design:
//!
//! * [`Record`] and its schemas — [`ObjectMeta`] (with a [`Location`] that
//!   "can map to a node in the local home cloud or to a remote cloud"),
//!   [`ServiceRecord`], and [`ResourceRecord`];
//! * a hand-rolled binary wire format ([`WireWriter`] / [`WireReader`]) so
//!   DHT values are compact, deterministic bytes;
//! * the key-derivation scheme ([`object_key`], [`service_key`],
//!   [`node_resource_key`]) mapping names into the 40-bit Chimera key space.
//!
//! Transport is deliberately out of scope: the Cloud4Home runtime stores
//! encoded records through [`c4h_chimera::ChimeraNode`]'s `put`/`get`. So
//! are metrics: the runtime counts the encodes and decodes it makes
//! (`kvstore.record_encodes`, `kvstore.record_decodes`), and this crate
//! depends on no recorder.
//!
//! # Examples
//!
//! ```
//! use c4h_kvstore::{object_key, Location, ObjectMeta, Record};
//! use c4h_chimera::Key;
//!
//! let meta = ObjectMeta {
//!     name: "videos/trip.avi".into(),
//!     size_bytes: 24 << 20,
//!     content_type: "avi".into(),
//!     tags: vec!["vacation".into()],
//!     location: Location::Home { node: Key::from_name("desktop") },
//!     private: false,
//!     owner: Key::from_name("desktop"),
//!     acl: c4h_kvstore::Acl::Public,
//!     created_at_ns: 0,
//!     replicas: Vec::new(),
//!     ec: None,
//! };
//! let key = object_key(meta.name.as_str());
//! let bytes = Record::Object(meta.clone()).encode();
//! let decoded = Record::decode(&bytes)?;
//! assert_eq!(decoded.as_object(), Some(&meta));
//! let _ = key;
//! # Ok::<(), c4h_kvstore::WireError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod keys;
mod records;
mod wire;

pub use keys::{directory_key, node_resource_key, object_key, parent_dir, service_key, stripe_key};
pub use records::{
    stripe_checksum, stripe_checksums, Acl, DirEntry, EcLayout, Location, ObjectMeta, Record,
    ResourceRecord, ServiceRecord, StripeRecord, SCHEMA_VERSION,
};
pub use wire::{WireError, WireReader, WireWriter};
