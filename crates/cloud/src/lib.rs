//! Public-cloud substrate for the Cloud4Home reproduction.
//!
//! "A key component of VStore++ is its ability to interface the home cloud
//! infrastructure with remote public clouds … to provide access to shared
//! state or services available in the public cloud, or to transparently
//! increase the storage or computational resources available in the home
//! cloud." The paper uses Amazon S3 for storage and EC2 for computation.
//! This crate is the storage side: [`S3Store`] — buckets and keyed objects
//! with `s3://bucket/key` addressing ([`S3Url`]), generic over the payload
//! representation, charging only provider-side request latency
//! ([`REQUEST_LATENCY`]); the WAN model charges the bytes. The compute side
//! is the runtime's cloud spec (the paper's extra-large 5 × 2.9 GHz / 14 GB
//! instance), executing under the same `c4h_vmm` cost model as home nodes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod s3;

pub use s3::{S3Error, S3Object, S3Store, S3Url, REQUEST_LATENCY};
