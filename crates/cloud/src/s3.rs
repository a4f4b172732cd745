//! The S3-like remote object store.
//!
//! VStore++'s public-cloud interface module wraps "the Amazon S3 interface
//! which is a blocking call that uses a TCP/IP-based data transfer
//! mechanism"; object locations in the metadata layer are S3 URLs ("URL
//! location of object in users S3 storage bucket is stored as value").
//!
//! [`S3Store`] reproduces the storage semantics: named buckets, key-value
//! objects, and `s3://bucket/key` URL addressing. It is generic over the payload type so
//! the Cloud4Home runtime can store its compact blob descriptors instead of
//! materialized buffers. Transfer *timing* is not modeled here — the
//! simulated WAN charges the bytes; this type charges only the provider-side
//! request processing latency.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use c4h_simnet::Sym;

/// An `s3://bucket/key` object address: two interned strings, so copying
/// an address copies eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct S3Url {
    /// The bucket name.
    pub bucket: Sym,
    /// The object key within the bucket.
    pub key: Sym,
}

impl S3Url {
    /// Builds a URL from its parts.
    pub fn new(bucket: &str, key: &str) -> Self {
        S3Url {
            bucket: Sym::new(bucket),
            key: Sym::new(key),
        }
    }

    /// Parses an `s3://bucket/key` string.
    ///
    /// Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        let rest = s.strip_prefix("s3://")?;
        let (bucket, key) = rest.split_once('/')?;
        if bucket.is_empty() || key.is_empty() {
            return None;
        }
        Some(S3Url::new(bucket, key))
    }
}

impl fmt::Display for S3Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s3://{}/{}", self.bucket, self.key)
    }
}

/// Errors returned by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S3Error {
    /// The bucket does not exist.
    NoSuchBucket(String),
    /// The object does not exist.
    NoSuchKey(S3Url),
    /// Creating a bucket that already exists.
    BucketExists(String),
}

impl fmt::Display for S3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S3Error::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            S3Error::NoSuchKey(u) => write!(f, "no such key: {u}"),
            S3Error::BucketExists(b) => write!(f, "bucket already exists: {b}"),
        }
    }
}

impl std::error::Error for S3Error {}

/// A stored object: the payload plus provider metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct S3Object<T> {
    /// The payload.
    pub payload: T,
    /// Declared payload size in bytes (used for billing and transfer
    /// charging).
    pub size_bytes: u64,
}

/// The provider-side request processing latency charged per operation,
/// on top of WAN transfer time.
pub const REQUEST_LATENCY: Duration = Duration::from_millis(35);

/// An S3-like bucket store, generic over the payload representation.
///
/// # Examples
///
/// ```
/// use c4h_cloud::{S3Store, S3Url};
///
/// let mut s3: S3Store<Vec<u8>> = S3Store::new();
/// s3.create_bucket("home-bucket")?;
/// let url = s3.put("home-bucket", "videos/trip.avi", vec![1, 2, 3], 3)?;
/// assert_eq!(url.to_string(), "s3://home-bucket/videos/trip.avi");
/// let obj = s3.get(&url)?;
/// assert_eq!(obj.payload, vec![1, 2, 3]);
/// # Ok::<(), c4h_cloud::S3Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct S3Store<T> {
    /// Bucket name → object key → object.
    buckets: BTreeMap<Sym, BTreeMap<Sym, S3Object<T>>>,
}

impl<T> Default for S3Store<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> S3Store<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        S3Store {
            buckets: BTreeMap::new(),
        }
    }

    /// Creates a bucket.
    ///
    /// # Errors
    ///
    /// [`S3Error::BucketExists`] if the name is taken.
    pub fn create_bucket(&mut self, name: &str) -> Result<(), S3Error> {
        let name = Sym::new(name);
        if self.buckets.contains_key(&name) {
            return Err(S3Error::BucketExists(name.to_string()));
        }
        self.buckets.insert(name, BTreeMap::new());
        Ok(())
    }

    /// Stores an object, overwriting any previous version, and returns its
    /// URL.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`] if the bucket is missing.
    pub fn put(
        &mut self,
        bucket: &str,
        key: &str,
        payload: T,
        size_bytes: u64,
    ) -> Result<S3Url, S3Error> {
        self.put_at(S3Url::new(bucket, key), payload, size_bytes)
    }

    /// [`S3Store::put`] at an address already interned.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`] if the bucket is missing.
    pub fn put_at(&mut self, url: S3Url, payload: T, size_bytes: u64) -> Result<S3Url, S3Error> {
        let b = self
            .buckets
            .get_mut(&url.bucket)
            .ok_or_else(|| S3Error::NoSuchBucket(url.bucket.to_string()))?;
        b.insert(
            url.key,
            S3Object {
                payload,
                size_bytes,
            },
        );
        Ok(url)
    }

    /// Retrieves an object.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`] / [`S3Error::NoSuchKey`] when absent.
    pub fn get(&self, url: &S3Url) -> Result<&S3Object<T>, S3Error> {
        let b = self
            .buckets
            .get(&url.bucket)
            .ok_or_else(|| S3Error::NoSuchBucket(url.bucket.to_string()))?;
        b.get(&url.key).ok_or(S3Error::NoSuchKey(*url))
    }

    /// Deletes an object, returning it.
    ///
    /// # Errors
    ///
    /// [`S3Error::NoSuchBucket`] / [`S3Error::NoSuchKey`] when absent.
    pub fn delete(&mut self, url: &S3Url) -> Result<S3Object<T>, S3Error> {
        let b = self
            .buckets
            .get_mut(&url.bucket)
            .ok_or_else(|| S3Error::NoSuchBucket(url.bucket.to_string()))?;
        b.remove(&url.key).ok_or(S3Error::NoSuchKey(*url))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_bucket() -> S3Store<Vec<u8>> {
        let mut s = S3Store::new();
        s.create_bucket("b").unwrap();
        s
    }

    #[test]
    fn url_parse_and_display_roundtrip() {
        let url = S3Url::parse("s3://bkt/path/to/obj.avi").unwrap();
        assert_eq!(url.bucket, "bkt");
        assert_eq!(url.key, "path/to/obj.avi");
        assert_eq!(url.to_string(), "s3://bkt/path/to/obj.avi");
        assert_eq!(S3Url::parse("http://x/y"), None);
        assert_eq!(S3Url::parse("s3://no-key"), None);
        assert_eq!(S3Url::parse("s3:///key"), None);
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut s = store_with_bucket();
        let url = s.put("b", "k", vec![9, 9], 2).unwrap();
        assert_eq!(s.get(&url).unwrap().payload, vec![9, 9]);
        assert_eq!(s.delete(&url).unwrap().payload, vec![9, 9]);
        assert_eq!(s.get(&url).unwrap_err(), S3Error::NoSuchKey(url));
    }

    #[test]
    fn missing_bucket_errors() {
        let mut s: S3Store<Vec<u8>> = S3Store::new();
        assert_eq!(
            s.put("ghost", "k", vec![], 0).unwrap_err(),
            S3Error::NoSuchBucket("ghost".into())
        );
        assert_eq!(
            s.get(&S3Url::new("ghost", "k")).unwrap_err(),
            S3Error::NoSuchBucket("ghost".into())
        );
    }

    #[test]
    fn duplicate_bucket_rejected() {
        let mut s = store_with_bucket();
        assert_eq!(
            s.create_bucket("b").unwrap_err(),
            S3Error::BucketExists("b".into())
        );
    }

    #[test]
    fn overwrite_replaces_payload() {
        let mut s = store_with_bucket();
        let url = s.put("b", "k", vec![1], 1).unwrap();
        s.put("b", "k", vec![2, 2], 2).unwrap();
        let obj = s.get(&url).unwrap();
        assert_eq!((obj.payload.clone(), obj.size_bytes), (vec![2, 2], 2));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(S3Error::NoSuchBucket("x".into()).to_string().contains('x'));
        let url = S3Url::new("b", "k");
        assert!(S3Error::NoSuchKey(url).to_string().contains("s3://b/k"));
    }
}
