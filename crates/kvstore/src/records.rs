//! The record schemas of the VStore++ metadata layer.
//!
//! The paper keeps three kinds of entries in one key-value store, giving "a
//! uniform interface for access and manipulation of meta information
//! regarding objects, services, and infrastructure":
//!
//! * [`ObjectMeta`] — "serialized data containing object location and
//!   metadata, such as tags, access information, etc. The location field can
//!   map to a node in the local home cloud or to a remote cloud."
//! * [`ServiceRecord`] — "a string identifying the nodes where the service
//!   is currently available" plus the associated service policy.
//! * [`ResourceRecord`] — per-node resource usage published periodically by
//!   the monitoring utility.
//!
//! All three encode to the hand-rolled wire format in [`crate::wire`].

use std::sync::Arc;

use c4h_chimera::Key;
use c4h_simnet::Sym;

use crate::wire::{encode_shared, WireError, WireReader, WireWriter};

/// Schema version stamped into every encoded record.
pub const SCHEMA_VERSION: u8 = 1;

const TAG_OBJECT: u8 = 1;
const TAG_SERVICE: u8 = 2;
const TAG_RESOURCE: u8 = 3;
const TAG_STRIPE: u8 = 4;

const LOC_HOME: u8 = 0;
const LOC_CLOUD: u8 = 1;

const ACL_PUBLIC: u8 = 0;
const ACL_OWNER_ONLY: u8 = 1;
const ACL_NODES: u8 = 2;

/// Who may read (fetch or process) an object.
///
/// The paper lists "richer access control methods and policies" as the most
/// notable open issue; this is the reproduction's implementation of that
/// extension: per-object reader lists enforced by the VStore++ daemon on
/// every fetch and process operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Acl {
    /// Any node in the home cloud may read.
    #[default]
    Public,
    /// Only the storing node may read.
    OwnerOnly,
    /// Only the listed nodes (by overlay key) and the owner may read.
    Nodes(Vec<Key>),
}

impl Acl {
    /// Whether `reader` may access an object owned by `owner`.
    pub fn permits(&self, reader: Key, owner: Key) -> bool {
        match self {
            Acl::Public => true,
            Acl::OwnerOnly => reader == owner,
            Acl::Nodes(list) => reader == owner || list.contains(&reader),
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        match self {
            Acl::Public => {
                w.tag(ACL_PUBLIC);
            }
            Acl::OwnerOnly => {
                w.tag(ACL_OWNER_ONLY);
            }
            Acl::Nodes(list) => {
                w.tag(ACL_NODES).u64(list.len() as u64);
                for k in list {
                    w.u64(k.raw());
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.tag()? {
            ACL_PUBLIC => Ok(Acl::Public),
            ACL_OWNER_ONLY => Ok(Acl::OwnerOnly),
            ACL_NODES => {
                let n = r.u64()? as usize;
                let mut list = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    list.push(Key::from_raw(r.u64()?));
                }
                Ok(Acl::Nodes(list))
            }
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

/// Where an object's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// A node in the home cloud, by overlay key.
    Home {
        /// The owning node's overlay ID.
        node: Key,
    },
    /// A remote public cloud object, by URL ("URL location of object in
    /// users S3 storage bucket is stored as value").
    Cloud {
        /// The object URL, e.g. `s3://home-bucket/videos/trip.avi`
        /// (interned; written to the wire as its string).
        url: Sym,
    },
}

impl Location {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Location::Home { node } => {
                w.tag(LOC_HOME).u64(node.raw());
            }
            Location::Cloud { url } => {
                w.tag(LOC_CLOUD).string(url.as_str());
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.tag()? {
            LOC_HOME => Ok(Location::Home {
                node: Key::from_raw(r.u64()?),
            }),
            LOC_CLOUD => Ok(Location::Cloud {
                url: Sym::from(r.str_ref()?),
            }),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

/// Erasure-coding layout of an object whose bytes live as (k, m) stripes
/// instead of full copies.
///
/// Encoded as an *optional trailing extension* of the object record: a
/// record without the extension is byte-identical to one written before
/// the layout existed, so fully-replicated objects — the only kind the
/// default configuration ever produces — keep their exact pre-extension
/// wire size (`kvstore.record_bytes` histograms included), and old
/// readers of non-EC records need no migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcLayout {
    /// Data stripe count.
    pub k: u32,
    /// Parity stripe count.
    pub m: u32,
    /// Bytes per stripe (`ceil(size_bytes / k)`, zero-padded).
    pub stripe_len: u64,
    /// Stripe holders in row order: `holders[i]` stores row `i` of the
    /// code (rows `0..k` data, `k..k+m` parity). Length `k + m`.
    pub holders: Vec<Key>,
}

impl EcLayout {
    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.k);
        w.u32(self.m);
        w.u64(self.stripe_len);
        w.u64(self.holders.len() as u64);
        for h in &self.holders {
            w.u64(h.raw());
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let k = r.u32()?;
        let m = r.u32()?;
        let stripe_len = r.u64()?;
        let n = r.u64()? as usize;
        let mut holders = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            holders.push(Key::from_raw(r.u64()?));
        }
        Ok(EcLayout {
            k,
            m,
            stripe_len,
            holders,
        })
    }
}

/// Metadata for one stored object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMeta {
    /// The object's user-visible name (hashed to form its key). Interned:
    /// copying metadata between nodes copies four bytes, and the name
    /// resolves to `&str` only at the wire boundary below — the encoded
    /// bytes are identical to the historical `String`-keyed format.
    pub name: Sym,
    /// Object size in bytes.
    pub size_bytes: u64,
    /// Content type, e.g. `"mp3"`, `"avi"`, `"jpeg"` (interned, like
    /// `name`).
    pub content_type: Sym,
    /// Free-form tags ("tags that define its context").
    pub tags: Vec<String>,
    /// Where the bytes live.
    pub location: Location,
    /// Whether the object is private (privacy policies keep private data in
    /// the home cloud).
    pub private: bool,
    /// The storing node's overlay key (the object's owner principal).
    pub owner: Key,
    /// Who may fetch or process the object.
    pub acl: Acl,
    /// Creation time, virtual nanoseconds.
    pub created_at_ns: u64,
    /// Home-cloud nodes holding extra copies of the object's bytes, in
    /// replica order. Empty when the object is unreplicated or cloud-hosted.
    pub replicas: Vec<Key>,
    /// Erasure-coding layout when the object's bytes live as (k, m)
    /// stripes instead of full copies. `None` (the overwhelmingly common
    /// case) encodes to exactly the pre-extension wire bytes.
    pub ec: Option<EcLayout>,
}

impl ObjectMeta {
    fn encode_body(&self, w: &mut WireWriter) {
        w.string(self.name.as_str());
        w.u64(self.size_bytes);
        w.string(self.content_type.as_str());
        w.u64(self.tags.len() as u64);
        for t in &self.tags {
            w.string(t);
        }
        self.location.encode(w);
        w.bool(self.private);
        w.u64(self.owner.raw());
        self.acl.encode(w);
        w.u64(self.created_at_ns);
        w.u64(self.replicas.len() as u64);
        for rep in &self.replicas {
            w.u64(rep.raw());
        }
        // Trailing extension: emitted only when present, so non-EC records
        // stay byte-identical to the pre-extension encoding.
        if let Some(ec) = &self.ec {
            ec.encode(w);
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let name = Sym::from(r.str_ref()?);
        let size_bytes = r.u64()?;
        let content_type = Sym::from(r.str_ref()?);
        let n_tags = r.u64()? as usize;
        let mut tags = Vec::with_capacity(n_tags.min(1024));
        for _ in 0..n_tags {
            tags.push(r.string()?);
        }
        let location = Location::decode(r)?;
        let private = r.bool()?;
        let owner = Key::from_raw(r.u64()?);
        let acl = Acl::decode(r)?;
        let created_at_ns = r.u64()?;
        let n_replicas = r.u64()? as usize;
        let mut replicas = Vec::with_capacity(n_replicas.min(1024));
        for _ in 0..n_replicas {
            replicas.push(Key::from_raw(r.u64()?));
        }
        // The EC layout is a trailing extension: its presence is exactly
        // "bytes remain after the fixed body".
        let ec = if r.remaining() > 0 {
            Some(EcLayout::decode(r)?)
        } else {
            None
        };
        Ok(ObjectMeta {
            name,
            size_bytes,
            content_type,
            tags,
            location,
            private,
            owner,
            acl,
            created_at_ns,
            replicas,
            ec,
        })
    }
}

/// One erasure-coded stripe's metadata entry.
///
/// Each stripe of an erasure-coded object gets its own record under
/// [`stripe_key`](crate::stripe_key), so the repair daemon can locate and
/// verify individual stripes without re-reading the whole object record,
/// and a reconstructed stripe republishes only its own entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeRecord {
    /// The parent object's name (interned; resolved to `&str` only when
    /// encoding, keeping the wire bytes identical to the `String` era).
    pub object: Sym,
    /// Code row of this stripe: `0..k` data, `k..k+m` parity.
    pub row: u32,
    /// Stripe payload length in bytes.
    pub len: u64,
    /// The home-cloud node holding the stripe's bytes.
    pub holder: Key,
    /// FNV-1a digest of the stripe bytes, for repair-time verification.
    pub checksum: u64,
}

impl StripeRecord {
    fn encode_body(&self, w: &mut WireWriter) {
        w.string(self.object.as_str());
        w.u32(self.row);
        w.u64(self.len);
        w.u64(self.holder.raw());
        w.u64(self.checksum);
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let object = Sym::from(r.str_ref()?);
        let row = r.u32()?;
        let len = r.u64()?;
        let holder = Key::from_raw(r.u64()?);
        let checksum = r.u64()?;
        Ok(StripeRecord {
            object,
            row,
            len,
            holder,
            checksum,
        })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Rows [`stripe_checksums`] folds in one pass, one FNV chain each.
const FNV_LANES: usize = 8;

/// FNV-1a 64-bit digest of stripe bytes (the checksum a [`StripeRecord`]
/// carries).
pub fn stripe_checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`stripe_checksum`] of every row, in row order, without allocating.
///
/// FNV-1a is one serial chain of multiplies per row, so one row at a time
/// runs at multiply latency. Here up to [`FNV_LANES`] rows advance
/// together, one byte of each per step over their common length (then each
/// row's tail alone): the chains are independent, so their multiplies
/// overlap, and each chain still sees exactly its own row's bytes in order
/// — the same value per row.
pub fn stripe_checksums<R: AsRef<[u8]>>(rows: &[R]) -> impl Iterator<Item = u64> + '_ {
    rows.chunks(FNV_LANES).flat_map(|group| {
        let mut h = [0; FNV_LANES];
        // One width per group size, so each chain lives in a register.
        match group.len() {
            1 => fnv1a_lanes::<1, R>(group, &mut h),
            2 => fnv1a_lanes::<2, R>(group, &mut h),
            3 => fnv1a_lanes::<3, R>(group, &mut h),
            4 => fnv1a_lanes::<4, R>(group, &mut h),
            5 => fnv1a_lanes::<5, R>(group, &mut h),
            6 => fnv1a_lanes::<6, R>(group, &mut h),
            7 => fnv1a_lanes::<7, R>(group, &mut h),
            _ => fnv1a_lanes::<FNV_LANES, R>(group, &mut h),
        }
        h.into_iter().take(group.len())
    })
}

/// FNV-1a of the `N` rows into `out[..N]`: the common length eight bytes
/// of every row per step, then each row's tail alone.
fn fnv1a_lanes<const N: usize, R: AsRef<[u8]>>(rows: &[R], out: &mut [u64; FNV_LANES]) {
    let rows: [&[u8]; N] = std::array::from_fn(|l| rows[l].as_ref());
    let common = rows.iter().map(|r| r.len()).min().unwrap_or(0) / 8 * 8;
    let mut h = [FNV_OFFSET; N];
    for at in (0..common).step_by(8) {
        let words: [[u8; 8]; N] =
            std::array::from_fn(|l| rows[l][at..at + 8].try_into().expect("eight bytes"));
        for b in 0..8 {
            for (h, word) in h.iter_mut().zip(&words) {
                *h = (*h ^ word[b] as u64).wrapping_mul(FNV_PRIME);
            }
        }
    }
    for ((out, h), row) in out.iter_mut().zip(h).zip(rows) {
        *out = fnv1a(h, &row[common..]);
    }
}

/// Availability record for one deployed service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRecord {
    /// The service name, e.g. `"face-detect"` (interned; written to the
    /// wire as its string, like the policy).
    pub name: Sym,
    /// The service identifier ("unique keys derived from the service name
    /// and identifier").
    pub service_id: u32,
    /// Nodes currently providing the service (home-cloud overlay keys).
    pub providers: Vec<Key>,
    /// Whether the service is also deployed in the remote cloud.
    pub cloud_available: bool,
    /// Name of the service policy governing placement.
    pub policy: Sym,
}

impl ServiceRecord {
    fn encode_body(&self, w: &mut WireWriter) {
        w.string(self.name.as_str());
        w.u32(self.service_id);
        w.u64(self.providers.len() as u64);
        for p in &self.providers {
            w.u64(p.raw());
        }
        w.bool(self.cloud_available);
        w.string(self.policy.as_str());
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let name = Sym::from(r.str_ref()?);
        let service_id = r.u32()?;
        let n = r.u64()? as usize;
        let mut providers = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            providers.push(Key::from_raw(r.u64()?));
        }
        let cloud_available = r.bool()?;
        let policy = Sym::from(r.str_ref()?);
        Ok(ServiceRecord {
            name,
            service_id,
            providers,
            cloud_available,
            policy,
        })
    }
}

/// A node's published resource usage.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceRecord {
    /// The reporting node's overlay key.
    pub node: Key,
    /// Runnable-load average normalized per core (0.0 = idle, 1.0 = one
    /// saturating task per core).
    pub cpu_load: f64,
    /// Free memory in MiB.
    pub mem_free_mib: u64,
    /// Available upstream bandwidth, bytes/second.
    pub bandwidth_up_bps: f64,
    /// Available downstream bandwidth, bytes/second.
    pub bandwidth_down_bps: f64,
    /// Battery percentage for portable devices (`None` = mains powered).
    pub battery_pct: Option<f64>,
    /// Free space in the mandatory bin, MiB.
    pub mandatory_free_mib: u64,
    /// Free space in the voluntary bin, MiB.
    pub voluntary_free_mib: u64,
    /// When the sample was taken, virtual nanoseconds.
    pub updated_at_ns: u64,
}

impl ResourceRecord {
    fn encode_body(&self, w: &mut WireWriter) {
        w.u64(self.node.raw());
        w.f64(self.cpu_load);
        w.u64(self.mem_free_mib);
        w.f64(self.bandwidth_up_bps);
        w.f64(self.bandwidth_down_bps);
        match self.battery_pct {
            Some(b) => {
                w.bool(true).f64(b);
            }
            None => {
                w.bool(false);
            }
        }
        w.u64(self.mandatory_free_mib);
        w.u64(self.voluntary_free_mib);
        w.u64(self.updated_at_ns);
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let node = Key::from_raw(r.u64()?);
        let cpu_load = r.f64()?;
        let mem_free_mib = r.u64()?;
        let bandwidth_up_bps = r.f64()?;
        let bandwidth_down_bps = r.f64()?;
        let battery_pct = if r.bool()? { Some(r.f64()?) } else { None };
        let mandatory_free_mib = r.u64()?;
        let voluntary_free_mib = r.u64()?;
        let updated_at_ns = r.u64()?;
        Ok(ResourceRecord {
            node,
            cpu_load,
            mem_free_mib,
            bandwidth_up_bps,
            bandwidth_down_bps,
            battery_pct,
            mandatory_free_mib,
            voluntary_free_mib,
            updated_at_ns,
        })
    }
}

/// One version in a directory's entry chain: an object appearing in (or a
/// tombstone removing it from) a directory listing.
///
/// Directory chains are the metadata layer's use of the `Chain` overwrite
/// policy: "updates to Chimera have an overwrite policy value that
/// determines if … newer version of metadata is to be added by chaining".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// The full object name (interned).
    pub name: Sym,
    /// `true` when this version removes the name from the listing.
    pub tombstone: bool,
}

impl DirEntry {
    /// Serializes the entry into one exactly sized shared allocation.
    pub fn encode(&self) -> Arc<[u8]> {
        encode_shared(|w| {
            w.bool(self.tombstone).string(self.name.as_str());
        })
    }

    /// Parses an entry.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let tombstone = r.bool()?;
        let name = Sym::from(r.str_ref()?);
        r.finish()?;
        Ok(DirEntry { name, tombstone })
    }

    /// Folds a chain of encoded entries (oldest first) into the live
    /// listing, applying tombstones in order.
    pub fn fold_listing<'a, I>(versions: I) -> Vec<Sym>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut live: Vec<Sym> = Vec::new();
        for v in versions {
            let Ok(entry) = DirEntry::decode(v) else {
                continue;
            };
            if entry.tombstone {
                live.retain(|n| *n != entry.name);
            } else if !live.contains(&entry.name) {
                live.push(entry.name);
            }
        }
        live
    }
}

/// Any record storable in the metadata key-value store.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Object metadata.
    Object(ObjectMeta),
    /// Service availability.
    Service(ServiceRecord),
    /// Node resource usage.
    Resource(ResourceRecord),
    /// One erasure-coded stripe's metadata.
    Stripe(StripeRecord),
}

impl Record {
    /// Serializes the record to its wire form: one allocation of exactly
    /// the encoded length, shared by every copy the DHT makes of it.
    pub fn encode(&self) -> Arc<[u8]> {
        encode_shared(|w| match self {
            Record::Object(o) => {
                w.tag(TAG_OBJECT).tag(SCHEMA_VERSION);
                o.encode_body(w);
            }
            Record::Service(s) => {
                w.tag(TAG_SERVICE).tag(SCHEMA_VERSION);
                s.encode_body(w);
            }
            Record::Resource(r) => {
                w.tag(TAG_RESOURCE).tag(SCHEMA_VERSION);
                r.encode_body(w);
            }
            Record::Stripe(s) => {
                w.tag(TAG_STRIPE).tag(SCHEMA_VERSION);
                s.encode_body(w);
            }
        })
    }

    /// Parses a record from its wire form.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for malformed, truncated, or
    /// unknown-schema input.
    pub fn decode(bytes: &[u8]) -> Result<Record, WireError> {
        let mut r = WireReader::new(bytes);
        let tag = r.tag()?;
        let version = r.tag()?;
        if version != SCHEMA_VERSION {
            return Err(WireError::UnknownTag(version));
        }
        let record = match tag {
            TAG_OBJECT => Record::Object(ObjectMeta::decode_body(&mut r)?),
            TAG_SERVICE => Record::Service(ServiceRecord::decode_body(&mut r)?),
            TAG_RESOURCE => Record::Resource(ResourceRecord::decode_body(&mut r)?),
            TAG_STRIPE => Record::Stripe(StripeRecord::decode_body(&mut r)?),
            t => return Err(WireError::UnknownTag(t)),
        };
        r.finish()?;
        Ok(record)
    }

    /// The object metadata, if this is an object record.
    pub fn as_object(&self) -> Option<&ObjectMeta> {
        match self {
            Record::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The service record, if this is a service record.
    pub fn as_service(&self) -> Option<&ServiceRecord> {
        match self {
            Record::Service(s) => Some(s),
            _ => None,
        }
    }

    /// The stripe record, if this is a stripe record.
    pub fn as_stripe(&self) -> Option<&StripeRecord> {
        match self {
            Record::Stripe(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_object() -> ObjectMeta {
        ObjectMeta {
            name: "camera/front/img-17.jpg".into(),
            size_bytes: 2 * 1024 * 1024,
            content_type: "jpeg".into(),
            tags: vec!["surveillance".into(), "front-door".into()],
            location: Location::Home {
                node: Key::from_name("desktop"),
            },
            private: true,
            owner: Key::from_name("netbook-0"),
            acl: Acl::Public,
            created_at_ns: 123_456_789,
            replicas: vec![Key::from_name("netbook-2")],
            ec: None,
        }
    }

    #[test]
    fn object_record_roundtrips() {
        let rec = Record::Object(sample_object());
        let decoded = Record::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        assert!(decoded.as_object().is_some());
        assert!(decoded.as_service().is_none());
    }

    #[test]
    fn cloud_location_roundtrips() {
        let mut o = sample_object();
        o.location = Location::Cloud {
            url: "s3://home-bucket/img-17.jpg".into(),
        };
        let rec = Record::Object(o);
        assert_eq!(Record::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn service_record_roundtrips() {
        let rec = Record::Service(ServiceRecord {
            name: "face-detect".into(),
            service_id: 11,
            providers: vec![Key::from_name("s1"), Key::from_name("s2")],
            cloud_available: true,
            policy: "performance".into(),
        });
        assert_eq!(Record::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn resource_record_roundtrips_with_and_without_battery() {
        let mut r = ResourceRecord {
            node: Key::from_name("netbook-1"),
            cpu_load: 0.35,
            mem_free_mib: 412,
            bandwidth_up_bps: 500_000.0,
            bandwidth_down_bps: 900_000.0,
            battery_pct: Some(62.0),
            mandatory_free_mib: 900,
            voluntary_free_mib: 4_000,
            updated_at_ns: 42,
        };
        let rec = Record::Resource(r.clone());
        assert_eq!(Record::decode(&rec.encode()).unwrap(), rec);
        r.battery_pct = None;
        let rec = Record::Resource(r);
        assert_eq!(Record::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let err = Record::decode(&[99, SCHEMA_VERSION]).unwrap_err();
        assert_eq!(err, WireError::UnknownTag(99));
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut bytes = Record::Object(sample_object()).encode().to_vec();
        bytes[1] = 99;
        assert_eq!(
            Record::decode(&bytes).unwrap_err(),
            WireError::UnknownTag(99)
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Extension-free record kinds still reject trailing garbage
        // outright…
        let mut bytes = Record::Service(ServiceRecord {
            name: "face-detect".into(),
            service_id: 11,
            providers: vec![],
            cloud_available: false,
            policy: "performance".into(),
        })
        .encode()
        .to_vec();
        bytes.push(0);
        assert!(matches!(
            Record::decode(&bytes).unwrap_err(),
            WireError::TrailingBytes(1)
        ));
        // …while an object record treats trailing bytes as the EC
        // extension, so garbage there surfaces as a malformed extension
        // rather than silently decoding.
        let mut bytes = Record::Object(sample_object()).encode().to_vec();
        bytes.push(0);
        assert!(Record::decode(&bytes).is_err());
    }

    #[test]
    fn truncation_is_rejected_not_panicking() {
        let bytes = Record::Object(sample_object()).encode();
        for cut in 0..bytes.len() {
            assert!(Record::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn encoded_records_are_compact() {
        // Metadata entries should be small enough for cheap DHT messages.
        let bytes = Record::Object(sample_object()).encode();
        assert!(bytes.len() < 128, "object record is {} bytes", bytes.len());
    }

    fn sample_layout() -> EcLayout {
        EcLayout {
            k: 3,
            m: 2,
            stripe_len: 700 << 10,
            holders: (0..5)
                .map(|i| Key::from_name(&format!("holder-{i}")))
                .collect(),
        }
    }

    #[test]
    fn ec_layout_roundtrips_as_trailing_extension() {
        let mut o = sample_object();
        o.ec = Some(sample_layout());
        let rec = Record::Object(o.clone());
        let decoded = Record::decode(&rec.encode()).unwrap();
        assert_eq!(decoded.as_object().unwrap().ec, Some(sample_layout()));
        assert_eq!(decoded, rec);
    }

    #[test]
    fn non_ec_records_are_byte_identical_to_pre_extension_encoding() {
        // The layout is a *trailing* extension: an object without one must
        // encode to exactly the bytes a pre-extension writer produced.
        // Re-derive those bytes by hand from the wire primitives.
        let o = sample_object();
        assert!(o.ec.is_none());
        let mut w = WireWriter::new();
        w.tag(TAG_OBJECT).tag(SCHEMA_VERSION);
        w.string(o.name.as_str());
        w.u64(o.size_bytes);
        w.string(o.content_type.as_str());
        w.u64(o.tags.len() as u64);
        for t in &o.tags {
            w.string(t);
        }
        match &o.location {
            Location::Home { node } => {
                w.tag(LOC_HOME).u64(node.raw());
            }
            Location::Cloud { url } => {
                w.tag(LOC_CLOUD).string(url.as_str());
            }
        }
        w.bool(o.private);
        w.u64(o.owner.raw());
        w.tag(ACL_PUBLIC);
        w.u64(o.created_at_ns);
        w.u64(o.replicas.len() as u64);
        for rep in &o.replicas {
            w.u64(rep.raw());
        }
        assert_eq!(*Record::Object(o).encode(), *w.into_bytes());
    }

    #[test]
    fn stripe_record_roundtrips() {
        let rec = Record::Stripe(StripeRecord {
            object: "videos/trip.avi".into(),
            row: 4,
            len: 700 << 10,
            holder: Key::from_name("netbook-3"),
            checksum: stripe_checksum(b"stripe bytes"),
        });
        let decoded = Record::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        assert!(decoded.as_stripe().is_some());
        assert!(decoded.as_object().is_none());
    }

    #[test]
    fn truncated_ec_extension_is_rejected() {
        let mut o = sample_object();
        o.ec = Some(sample_layout());
        let bytes = Record::Object(o).encode();
        for cut in 1..24 {
            assert!(
                Record::decode(&bytes[..bytes.len() - cut]).is_err(),
                "cut {cut} bytes"
            );
        }
    }

    /// Regression for the interning migration: `Sym`-keyed records must
    /// serialize byte-identically to the historical `String`-keyed wire
    /// format. The expected buffers are hand-written with the raw wire
    /// primitives exactly as the pre-`Sym` encoder emitted them.
    #[test]
    fn sym_keyed_records_match_string_keyed_wire_format() {
        // Stripe record: name field first, as a length-prefixed string.
        let rec = Record::Stripe(StripeRecord {
            object: "videos/trip.avi".into(),
            row: 4,
            len: 700 << 10,
            holder: Key::from_name("netbook-3"),
            checksum: 0xDEAD_BEEF,
        });
        let mut w = WireWriter::new();
        w.tag(TAG_STRIPE).tag(SCHEMA_VERSION);
        w.string("videos/trip.avi"); // the old `w.string(&self.object)`
        w.u32(4);
        w.u64(700 << 10);
        w.u64(Key::from_name("netbook-3").raw());
        w.u64(0xDEAD_BEEF);
        assert_eq!(*rec.encode(), *w.into_bytes());

        // Directory entry: tombstone byte then the name string.
        let entry = DirEntry {
            name: "camera/front/img-17.jpg".into(),
            tombstone: false,
        };
        let mut w = WireWriter::new();
        w.bool(false).string("camera/front/img-17.jpg");
        assert_eq!(*entry.encode(), *w.into_bytes());
    }

    #[test]
    fn stripe_checksum_is_stable_fnv() {
        assert_eq!(stripe_checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(stripe_checksum(b"a"), stripe_checksum(b"b"));
    }
}

/// The interleaved [`stripe_checksums`] against per-row [`stripe_checksum`]
/// (CI runs these by name: `kernel_oracle`).
#[cfg(test)]
mod kernel_oracle {
    use super::*;
    use proptest::prelude::*;

    fn rows_of(lens: &[usize], seed: u64) -> Vec<Vec<u8>> {
        let mut x = seed | 1;
        let mut byte = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        lens.iter()
            .map(|&n| (0..n).map(|_| byte()).collect())
            .collect()
    }

    fn serial(rows: &[Vec<u8>]) -> Vec<u64> {
        rows.iter().map(|r| stripe_checksum(r)).collect()
    }

    #[test]
    fn stripe_checksums_match_serial_fnv_at_the_edges() {
        let shapes: [&[usize]; 7] = [
            &[],
            &[0],
            &[0, 0, 0],
            &[21_846; 5],
            &[7, 0, 3, 64],
            &[100; FNV_LANES],
            &[33; FNV_LANES * 2 + 3],
        ];
        for lens in shapes {
            let rows = rows_of(lens, lens.len() as u64);
            let got: Vec<u64> = stripe_checksums(&rows).collect();
            assert_eq!(got, serial(&rows), "row lengths {lens:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn stripe_checksums_match_serial_fnv(
            lens in proptest::collection::vec(0usize..300, 0..20),
            equal in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Half the cases equal-length (the encoder's shape), half ragged.
            let lens: Vec<usize> = if equal {
                lens.iter().map(|_| lens.first().copied().unwrap_or(0)).collect()
            } else {
                lens
            };
            let rows = rows_of(&lens, seed);
            let got: Vec<u64> = stripe_checksums(&rows).collect();
            prop_assert_eq!(got, serial(&rows));
        }
    }
}
#[cfg(test)]
mod acl_tests {
    use super::*;

    #[test]
    fn acl_permits_semantics() {
        let owner = Key::from_name("owner");
        let friend = Key::from_name("friend");
        let stranger = Key::from_name("stranger");
        assert!(Acl::Public.permits(stranger, owner));
        assert!(Acl::OwnerOnly.permits(owner, owner));
        assert!(!Acl::OwnerOnly.permits(friend, owner));
        let restricted = Acl::Nodes(vec![friend]);
        assert!(restricted.permits(friend, owner));
        assert!(restricted.permits(owner, owner), "owner always reads");
        assert!(!restricted.permits(stranger, owner));
    }

    #[test]
    fn acl_variants_roundtrip_in_object_records() {
        for acl in [
            Acl::Public,
            Acl::OwnerOnly,
            Acl::Nodes(vec![Key::from_name("a"), Key::from_name("b")]),
        ] {
            let rec = Record::Object(ObjectMeta {
                name: "x".into(),
                size_bytes: 1,
                content_type: "doc".into(),
                tags: vec![],
                location: Location::Home {
                    node: Key::from_name("n"),
                },
                private: false,
                owner: Key::from_name("n"),
                acl: acl.clone(),
                created_at_ns: 0,
                replicas: Vec::new(),
                ec: None,
            });
            let decoded = Record::decode(&rec.encode()).unwrap();
            assert_eq!(decoded.as_object().unwrap().acl, acl);
        }
    }

    #[test]
    fn default_acl_is_public() {
        assert_eq!(Acl::default(), Acl::Public);
    }
}
#[cfg(test)]
mod dir_tests {
    use super::*;

    #[test]
    fn dir_entry_roundtrips() {
        let e = DirEntry {
            name: "a/b.txt".into(),
            tombstone: false,
        };
        assert_eq!(DirEntry::decode(&e.encode()).unwrap(), e);
        let t = DirEntry {
            name: "a/b.txt".into(),
            tombstone: true,
        };
        assert_eq!(DirEntry::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn fold_listing_applies_tombstones_in_order() {
        let adds: Vec<Arc<[u8]>> = ["a", "b", "a", "c"]
            .iter()
            .map(|n| {
                DirEntry {
                    name: (*n).into(),
                    tombstone: false,
                }
                .encode()
            })
            .collect();
        let del = DirEntry {
            name: "b".into(),
            tombstone: true,
        }
        .encode();
        let readd = DirEntry {
            name: "b".into(),
            tombstone: false,
        }
        .encode();
        let mut chain: Vec<&[u8]> = adds.iter().map(|a| &**a).collect();
        chain.push(&del);
        assert_eq!(
            DirEntry::fold_listing(chain.iter().copied()),
            vec!["a", "c"]
        );
        chain.push(&readd);
        assert_eq!(
            DirEntry::fold_listing(chain.iter().copied()),
            vec!["a", "c", "b"]
        );
    }

    #[test]
    fn fold_listing_skips_garbage_versions() {
        let good = DirEntry {
            name: "x".into(),
            tombstone: false,
        }
        .encode();
        let chain: Vec<&[u8]> = vec![b"\xFF\xFF garbage", &good];
        assert_eq!(DirEntry::fold_listing(chain.into_iter()), vec!["x"]);
    }
}

/// The encoder as it was before encodes went through one reused buffer: a
/// fresh [`WireWriter`] grown from empty per record, kept verbatim as the
/// oracle for [`Record::encode`] and [`DirEntry::encode`] (CI runs these by
/// name: `record_oracle`).
#[cfg(test)]
mod record_oracle {
    use super::*;
    use proptest::prelude::*;

    fn grown_record(record: &Record) -> Vec<u8> {
        let mut w = WireWriter::new();
        match record {
            Record::Object(o) => {
                w.tag(TAG_OBJECT).tag(SCHEMA_VERSION);
                o.encode_body(&mut w);
            }
            Record::Service(s) => {
                w.tag(TAG_SERVICE).tag(SCHEMA_VERSION);
                s.encode_body(&mut w);
            }
            Record::Resource(r) => {
                w.tag(TAG_RESOURCE).tag(SCHEMA_VERSION);
                r.encode_body(&mut w);
            }
            Record::Stripe(s) => {
                w.tag(TAG_STRIPE).tag(SCHEMA_VERSION);
                s.encode_body(&mut w);
            }
        }
        w.into_bytes()
    }

    fn grown_entry(entry: &DirEntry) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.bool(entry.tombstone).string(entry.name.as_str());
        w.into_bytes()
    }

    /// A xorshift stream: one seed draws one record of any shape.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Lengths up to 300 bytes, so length prefixes take one and two
        /// bytes, with multi-byte characters, capitals, spaces and URL
        /// punctuation mixed in.
        fn string(&mut self) -> String {
            let len = match self.below(4) {
                0 => 0,
                1 | 2 => self.below(24),
                _ => self.below(300),
            };
            (0..len)
                .map(|_| match self.below(16) {
                    0 => 'é',
                    1 => '/',
                    2 => ' ',
                    3 => ':',
                    4 => char::from(b'A' + self.below(26) as u8),
                    _ => char::from(b'a' + self.below(26) as u8),
                })
                .collect()
        }

        fn sym(&mut self) -> Sym {
            Sym::from(self.string().as_str())
        }

        fn keys(&mut self, max: u64) -> Vec<Key> {
            let n = self.below(max + 1);
            (0..n).map(|_| Key::from_raw(self.next())).collect()
        }

        /// Any double, NaNs and infinities included.
        fn f64(&mut self) -> f64 {
            match self.below(4) {
                0 => f64::from_bits(self.next()),
                _ => (self.next() % 1_000_000) as f64 / 7.0,
            }
        }

        fn u64(&mut self) -> u64 {
            // Varints of every width.
            self.next() >> self.below(64)
        }

        fn record(&mut self) -> Record {
            match self.below(4) {
                0 => Record::Object(ObjectMeta {
                    name: Sym::from(self.string().as_str()),
                    size_bytes: self.u64(),
                    content_type: self.sym(),
                    tags: (0..self.below(20)).map(|_| self.string()).collect(),
                    location: if self.below(2) == 0 {
                        Location::Home {
                            node: Key::from_raw(self.next()),
                        }
                    } else {
                        Location::Cloud { url: self.sym() }
                    },
                    private: self.below(2) == 0,
                    owner: Key::from_raw(self.next()),
                    acl: match self.below(3) {
                        0 => Acl::Public,
                        1 => Acl::OwnerOnly,
                        _ => Acl::Nodes(self.keys(40)),
                    },
                    created_at_ns: self.u64(),
                    replicas: self.keys(40),
                    ec: (self.below(2) == 0).then(|| EcLayout {
                        k: self.below(16) as u32,
                        m: self.below(16) as u32,
                        stripe_len: self.u64(),
                        holders: self.keys(24),
                    }),
                }),
                1 => Record::Service(ServiceRecord {
                    name: self.sym(),
                    service_id: self.next() as u32,
                    providers: self.keys(40),
                    cloud_available: self.below(2) == 0,
                    policy: self.sym(),
                }),
                2 => Record::Resource(ResourceRecord {
                    node: Key::from_raw(self.next()),
                    cpu_load: self.f64(),
                    mem_free_mib: self.u64(),
                    bandwidth_up_bps: self.f64(),
                    bandwidth_down_bps: self.f64(),
                    battery_pct: (self.below(2) == 0).then(|| self.f64()),
                    mandatory_free_mib: self.u64(),
                    voluntary_free_mib: self.u64(),
                    updated_at_ns: self.u64(),
                }),
                _ => Record::Stripe(StripeRecord {
                    object: Sym::from(self.string().as_str()),
                    row: self.next() as u32,
                    len: self.u64(),
                    holder: Key::from_raw(self.next()),
                    checksum: self.next(),
                }),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Runs of records of every kind, encoded back to back the way a
        /// node publishes them: each must be the bytes a fresh grown writer
        /// makes, whatever the record before it left behind.
        #[test]
        fn encodes_match_the_grown_writer(seed in any::<u64>(), n in 1usize..12) {
            let mut gen = Gen(seed | 1);
            for _ in 0..n {
                let record = gen.record();
                let bytes = record.encode();
                prop_assert_eq!(&bytes[..], &grown_record(&record)[..]);
                prop_assert_eq!(bytes.len(), grown_record(&record).len());
                let entry = DirEntry {
                    name: Sym::from(gen.string().as_str()),
                    tombstone: gen.below(2) == 0,
                };
                prop_assert_eq!(&entry.encode()[..], &grown_entry(&entry)[..]);
            }
        }
    }

    /// The fixed shapes the workloads publish, whatever the random stream
    /// happens to draw.
    #[test]
    fn published_shapes_match_the_grown_writer() {
        let mut gen = Gen(0x5EED);
        let resource = |battery| {
            Record::Resource(ResourceRecord {
                node: Key::from_name("netbook-1"),
                cpu_load: 0.35,
                mem_free_mib: 412,
                bandwidth_up_bps: 500_000.0,
                bandwidth_down_bps: 900_000.0,
                battery_pct: battery,
                mandatory_free_mib: 900,
                voluntary_free_mib: 4_000,
                updated_at_ns: 600_000_000_000,
            })
        };
        let mut records = vec![resource(Some(62.0)), resource(None)];
        records.extend((0..64).map(|_| gen.record()));
        for record in &records {
            assert_eq!(&record.encode()[..], &grown_record(record)[..]);
        }
    }

    /// The object, location and service records as they were before their
    /// strings were interned — types, encoders and decoders verbatim — as
    /// the oracle for the `Sym` fields: the wire bytes and the `Debug` text
    /// of a record must not tell the two apart.
    mod string_era {
        use super::super::{Acl, EcLayout, LOC_CLOUD, LOC_HOME};
        use crate::wire::{WireError, WireReader, WireWriter};
        use c4h_chimera::Key;
        use c4h_simnet::Sym;

        /// Where an object's bytes currently live.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Location {
            /// A node in the home cloud, by overlay key.
            Home {
                /// The owning node's overlay ID.
                node: Key,
            },
            /// A remote public cloud object, by URL.
            Cloud {
                /// The object URL.
                url: String,
            },
        }

        impl Location {
            fn encode(&self, w: &mut WireWriter) {
                match self {
                    Location::Home { node } => {
                        w.tag(LOC_HOME).u64(node.raw());
                    }
                    Location::Cloud { url } => {
                        w.tag(LOC_CLOUD).string(url);
                    }
                }
            }

            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                match r.tag()? {
                    LOC_HOME => Ok(Location::Home {
                        node: Key::from_raw(r.u64()?),
                    }),
                    LOC_CLOUD => Ok(Location::Cloud { url: r.string()? }),
                    t => Err(WireError::UnknownTag(t)),
                }
            }
        }

        /// Metadata for one stored object.
        #[derive(Debug, Clone, PartialEq)]
        pub struct ObjectMeta {
            pub name: Sym,
            pub size_bytes: u64,
            pub content_type: String,
            pub tags: Vec<String>,
            pub location: Location,
            pub private: bool,
            pub owner: Key,
            pub acl: Acl,
            pub created_at_ns: u64,
            pub replicas: Vec<Key>,
            pub ec: Option<EcLayout>,
        }

        impl ObjectMeta {
            pub fn encode_body(&self, w: &mut WireWriter) {
                w.string(self.name.as_str());
                w.u64(self.size_bytes);
                w.string(&self.content_type);
                w.u64(self.tags.len() as u64);
                for t in &self.tags {
                    w.string(t);
                }
                self.location.encode(w);
                w.bool(self.private);
                w.u64(self.owner.raw());
                self.acl.encode(w);
                w.u64(self.created_at_ns);
                w.u64(self.replicas.len() as u64);
                for rep in &self.replicas {
                    w.u64(rep.raw());
                }
                if let Some(ec) = &self.ec {
                    ec.encode(w);
                }
            }

            pub fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let name = Sym::from(r.str_ref()?);
                let size_bytes = r.u64()?;
                let content_type = r.string()?;
                let n_tags = r.u64()? as usize;
                let mut tags = Vec::with_capacity(n_tags.min(1024));
                for _ in 0..n_tags {
                    tags.push(r.string()?);
                }
                let location = Location::decode(r)?;
                let private = r.bool()?;
                let owner = Key::from_raw(r.u64()?);
                let acl = Acl::decode(r)?;
                let created_at_ns = r.u64()?;
                let n_replicas = r.u64()? as usize;
                let mut replicas = Vec::with_capacity(n_replicas.min(1024));
                for _ in 0..n_replicas {
                    replicas.push(Key::from_raw(r.u64()?));
                }
                let ec = if r.remaining() > 0 {
                    Some(EcLayout::decode(r)?)
                } else {
                    None
                };
                Ok(ObjectMeta {
                    name,
                    size_bytes,
                    content_type,
                    tags,
                    location,
                    private,
                    owner,
                    acl,
                    created_at_ns,
                    replicas,
                    ec,
                })
            }
        }

        /// Availability record for one deployed service.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct ServiceRecord {
            pub name: String,
            pub service_id: u32,
            pub providers: Vec<Key>,
            pub cloud_available: bool,
            pub policy: String,
        }

        impl ServiceRecord {
            pub fn encode_body(&self, w: &mut WireWriter) {
                w.string(&self.name);
                w.u32(self.service_id);
                w.u64(self.providers.len() as u64);
                for p in &self.providers {
                    w.u64(p.raw());
                }
                w.bool(self.cloud_available);
                w.string(&self.policy);
            }

            pub fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let name = r.string()?;
                let service_id = r.u32()?;
                let n = r.u64()? as usize;
                let mut providers = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    providers.push(Key::from_raw(r.u64()?));
                }
                let cloud_available = r.bool()?;
                let policy = r.string()?;
                Ok(ServiceRecord {
                    name,
                    service_id,
                    providers,
                    cloud_available,
                    policy,
                })
            }
        }
    }

    /// One `String`-era record and its interned twin.
    enum Twin {
        Object(Box<string_era::ObjectMeta>, Box<ObjectMeta>),
        Service(string_era::ServiceRecord, ServiceRecord),
    }

    impl Gen {
        /// A `String`-era object or service record of any shape, and the
        /// same record with its strings interned.
        fn twin(&mut self) -> Twin {
            if self.below(3) == 0 {
                let old = string_era::ServiceRecord {
                    name: self.string(),
                    service_id: self.next() as u32,
                    providers: self.keys(40),
                    cloud_available: self.below(2) == 0,
                    policy: self.string(),
                };
                let new = ServiceRecord {
                    name: Sym::from(old.name.as_str()),
                    service_id: old.service_id,
                    providers: old.providers.clone(),
                    cloud_available: old.cloud_available,
                    policy: Sym::from(old.policy.as_str()),
                };
                return Twin::Service(old, new);
            }
            let Record::Object(shape) = (loop {
                let r = self.record();
                if matches!(r, Record::Object(_)) {
                    break r;
                }
            }) else {
                unreachable!("the loop breaks on an object");
            };
            let (location, old_location) = match self.below(2) {
                0 => {
                    let node = Key::from_raw(self.next());
                    (Location::Home { node }, string_era::Location::Home { node })
                }
                _ => {
                    let url = match self.below(2) {
                        0 => format!("s3://{}/{}", self.string(), self.string()),
                        _ => self.string(),
                    };
                    (
                        Location::Cloud {
                            url: Sym::from(url.as_str()),
                        },
                        string_era::Location::Cloud { url },
                    )
                }
            };
            let content_type = self.string();
            let old = string_era::ObjectMeta {
                name: shape.name,
                size_bytes: shape.size_bytes,
                content_type: content_type.clone(),
                tags: shape.tags.clone(),
                location: old_location,
                private: shape.private,
                owner: shape.owner,
                acl: shape.acl.clone(),
                created_at_ns: shape.created_at_ns,
                replicas: shape.replicas.clone(),
                ec: shape.ec.clone(),
            };
            let new = ObjectMeta {
                content_type: Sym::from(content_type.as_str()),
                location,
                ..shape
            };
            Twin::Object(Box::new(old), Box::new(new))
        }
    }

    /// The `String`-era record writer: a fresh writer, header, body.
    fn string_era_bytes(twin: &Twin) -> Vec<u8> {
        let mut w = WireWriter::new();
        match twin {
            Twin::Object(old, _) => {
                w.tag(TAG_OBJECT).tag(SCHEMA_VERSION);
                old.encode_body(&mut w);
            }
            Twin::Service(old, _) => {
                w.tag(TAG_SERVICE).tag(SCHEMA_VERSION);
                old.encode_body(&mut w);
            }
        }
        w.into_bytes()
    }

    /// The `String`-era record reader: header, body, nothing left over.
    fn string_era_decode<T>(
        bytes: &[u8],
        tag: u8,
        body: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut r = WireReader::new(bytes);
        assert_eq!(r.tag()?, tag, "the record's kind");
        assert_eq!(r.tag()?, SCHEMA_VERSION);
        let value = body(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Interned object and service records against their `String`-era
        /// twins: the same bytes, each decoder reads the other's bytes back
        /// to the twin of what was written, and the same `Debug` text.
        #[test]
        fn interned_records_match_the_string_era(seed in any::<u64>(), n in 1usize..12) {
            let mut gen = Gen(seed | 1);
            for _ in 0..n {
                let twin = gen.twin();
                let old_bytes = string_era_bytes(&twin);
                match &twin {
                    Twin::Object(old, new) => {
                        let bytes = Record::Object((**new).clone()).encode();
                        prop_assert_eq!(&bytes[..], &old_bytes[..]);
                        let read = Record::decode(&old_bytes).expect("new reads old");
                        prop_assert_eq!(read.as_object(), Some(&**new));
                        let back = string_era_decode(&bytes, TAG_OBJECT, |r| {
                            string_era::ObjectMeta::decode_body(r)
                        });
                        prop_assert_eq!(back.as_ref(), Ok(&**old));
                        prop_assert_eq!(format!("{new:?}"), format!("{old:?}"));
                        prop_assert_eq!(
                            format!("{:?}", new.location),
                            format!("{:?}", old.location)
                        );
                    }
                    Twin::Service(old, new) => {
                        let bytes = Record::Service(new.clone()).encode();
                        prop_assert_eq!(&bytes[..], &old_bytes[..]);
                        let read = Record::decode(&old_bytes).expect("new reads old");
                        prop_assert_eq!(read.as_service(), Some(new));
                        let back = string_era_decode(&bytes, TAG_SERVICE, |r| {
                            string_era::ServiceRecord::decode_body(r)
                        });
                        prop_assert_eq!(back.as_ref(), Ok(old));
                        prop_assert_eq!(format!("{new:?}"), format!("{old:?}"));
                    }
                }
            }
        }
    }
}
