//! The VStore++ object model.
//!
//! VStore++ "is a virtualized storage service exposing an object-based file
//! system interface … Internally, it uses a standard file system to
//! represent objects, using a one-to-one mapping of objects to files."
//! An [`Object`] pairs a unique name with a payload [`Blob`] and the
//! metadata (content type, tags, privacy) that placement policies act on.
//!
//! Payloads come in three forms: [`Blob::Inline`] carries real bytes (small
//! objects, service outputs), while [`Blob::Synthetic`] describes a large
//! deterministic payload by seed and length so multi-hundred-megabyte
//! experiment datasets never have to be materialized. Service kernels run
//! on a deterministic sample window of synthetic blobs; cost models use the
//! declared length. An erasure-coded stripe is a [`Blob::Row`]: the recipe
//! for one code row over another blob's sample window, whose bytes are
//! computed only where they are read.

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

use c4h_kvstore::Acl;
use c4h_simnet::Sym;

use crate::ec::ErasureCode;

/// Maximum sample window generated from a synthetic blob for service
/// kernels.
pub const SAMPLE_WINDOW: usize = 64 * 1024;

/// An object payload.
#[derive(Clone, PartialEq, Eq)]
pub enum Blob {
    /// Real bytes held in memory, shared by every copy of the blob.
    Inline(Arc<[u8]>),
    /// A deterministic synthetic payload described by `(seed, len)`.
    Synthetic {
        /// Content seed; equal seeds produce equal content.
        seed: u64,
        /// Payload length in bytes.
        len: u64,
    },
    /// One row of an erasure code over another blob, kept as its recipe.
    Row(CodeRow),
}

impl Blob {
    /// An inline blob from bytes.
    pub fn inline(bytes: impl Into<Arc<[u8]>>) -> Self {
        Blob::Inline(bytes.into())
    }

    /// A synthetic blob of `len` bytes with deterministic content.
    pub fn synthetic(seed: u64, len: u64) -> Self {
        Blob::Synthetic { seed, len }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Blob::Inline(b) => b.len() as u64,
            Blob::Synthetic { len, .. } => *len,
            Blob::Row(row) => row.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A deterministic byte window for service kernels: inline blobs return
    /// their full content (up to `max`), synthetic blobs generate their
    /// first `min(max, len)` bytes, code rows compute their bytes.
    pub fn sample(&self, max: usize) -> Vec<u8> {
        match self {
            Blob::Inline(b) => b[..b.len().min(max)].to_vec(),
            Blob::Synthetic { seed, len } => {
                let n = (*len).min(max as u64) as usize;
                synth_bytes(*seed, n)
            }
            Blob::Row(row) => {
                let mut bytes = row.bytes();
                bytes.truncate(max);
                bytes
            }
        }
    }

    /// The recipe of a stripe; `None` for any other payload.
    pub(crate) fn code_row(&self) -> Option<&CodeRow> {
        match self {
            Blob::Row(row) => Some(row),
            _ => None,
        }
    }

    /// A content digest combining length and sampled bytes; equal blobs have
    /// equal digests.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.len();
        for b in self.sample(4096) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Inline payloads print as their first 32 bytes, escaped, so the `Debug`
/// text of a deployment does not dump object contents.
impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blob::Inline(b) => f.debug_tuple("Inline").field(&Prefix(b)).finish(),
            Blob::Synthetic { seed, len } => f
                .debug_struct("Synthetic")
                .field("seed", seed)
                .field("len", len)
                .finish(),
            Blob::Row(row) => f.debug_tuple("Row").field(row).finish(),
        }
    }
}

/// The bounded `b"…"` rendering of an inline payload.
struct Prefix<'a>(&'a [u8]);

impl fmt::Debug for Prefix<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHOWN: usize = 32;
        let shown = &self.0[..self.0.len().min(SHOWN)];
        let ellipsis = if self.0.len() > SHOWN { "…" } else { "" };
        write!(f, "b\"{}{ellipsis}\"", shown.escape_ascii())
    }
}

/// Row `row` of the systematic `(k, m)` [`ErasureCode`] over the sample
/// window of `source`: what a stripe holder keeps in place of the row's
/// bytes. Every row of one conversion shares its source through one `Arc`;
/// `k + m ≤ 255`, so the code and the row fit in a byte each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeRow {
    source: Arc<Blob>,
    k: u8,
    m: u8,
    row: u8,
}

impl CodeRow {
    /// Row `row` of the `(k, m)` code over `source`.
    ///
    /// # Panics
    ///
    /// Panics when `k + m > 255` or `row ≥ k + m`.
    pub(crate) fn new(source: Arc<Blob>, k: usize, m: usize, row: usize) -> Self {
        assert!(
            k + m <= 255 && row < k + m,
            "row {row} of a ({k}, {m}) code"
        );
        CodeRow {
            source,
            k: k as u8,
            m: m as u8,
            row: row as u8,
        }
    }

    /// Row `row` of the same code over the same source.
    pub(crate) fn with_row(&self, row: usize) -> Self {
        CodeRow::new(Arc::clone(&self.source), self.k.into(), self.m.into(), row)
    }

    /// The blob the row is computed from.
    pub(crate) fn source(&self) -> &Blob {
        &self.source
    }

    /// The row's length: that of one stripe of the source's sample window,
    /// as [`ErasureCode::stripe_len`] gives it.
    pub(crate) fn len(&self) -> u64 {
        let window = self.source.len().min(SAMPLE_WINDOW as u64);
        window.div_ceil(self.k.into()).max(1)
    }

    /// The row's bytes, computed from scratch: row `row` of
    /// [`ErasureCode::encode`] over the source's sample window.
    pub(crate) fn bytes(&self) -> Vec<u8> {
        let code = ErasureCode::new(self.k.into(), self.m.into());
        let mut padded = self.source.sample(SAMPLE_WINDOW);
        code.pad(&mut padded);
        self.bytes_over(&code, &self.source, &padded).into_owned()
    }

    /// The row's bytes read off `padded`, the sample window of `source`
    /// [`ErasureCode::pad`]ded for `code`, the row's own code: a data row
    /// of `source` borrows its slice, a parity row of `source` is computed
    /// from the slices, and a row over any other source is computed from
    /// scratch.
    pub(crate) fn bytes_over<'a>(
        &self,
        code: &ErasureCode,
        source: &Blob,
        padded: &'a [u8],
    ) -> Cow<'a, [u8]> {
        debug_assert_eq!((code.k(), code.m()), (self.k.into(), self.m.into()));
        if *self.source != *source {
            return Cow::Owned(self.bytes());
        }
        let (row, sl) = (usize::from(self.row), padded.len() / code.k());
        if row < code.k() {
            return Cow::Borrowed(&padded[row * sl..(row + 1) * sl]);
        }
        let mut out = vec![0; sl];
        code.encode_row(padded, row, &mut out);
        Cow::Owned(out)
    }
}

/// The longest flat run [`synth_bytes`] draws, and the width of the one
/// store it writes each run with.
const SPLAT: usize = 32;

/// Deterministic synthetic content: textured pseudo-media bytes (short runs
/// of similar values, like flat regions in imagery) from an xorshift stream.
///
/// Each run is written as one fixed [`SPLAT`]-byte store and the cursor
/// advances by the run's length, so the next run overwrites the overhang;
/// `SPLAT` bytes of slack past `len` take the last run's, and are cut off.
pub fn synth_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len + SPLAT];
    // Scramble the seed so that nearby seeds produce unrelated streams.
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    if x == 0 {
        x = 0x2545_F491_4F6C_DD1D;
    }
    let mut at = 0;
    while at < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out[at..at + SPLAT].fill((x >> 24) as u8);
        at += 1 + ((x >> 8) & 0x1F) as usize; // flat runs of 1..=SPLAT
    }
    out.truncate(len);
    out
}

/// A named object with its payload and policy-relevant metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// The unique object name (interned; hashed into the metadata key).
    pub name: Sym,
    /// The payload.
    pub blob: Blob,
    /// Content type, e.g. `"jpeg"`, `"avi"`, `"mp3"` (interned, like the
    /// name: a store's metadata copies it as four bytes).
    pub content_type: Sym,
    /// Context tags.
    pub tags: Vec<String>,
    /// Whether privacy policies must keep this object in the home cloud.
    pub private: bool,
    /// Who may fetch or process the object.
    pub acl: Acl,
}

impl Object {
    /// Creates an object with an inline payload.
    pub fn new(name: &str, bytes: impl Into<Arc<[u8]>>, content_type: &str) -> Self {
        Object {
            name: Sym::from(name),
            blob: Blob::inline(bytes),
            content_type: Sym::from(content_type),
            tags: Vec::new(),
            private: false,
            acl: Acl::Public,
        }
    }

    /// Creates an object with a synthetic payload of `len` bytes.
    pub fn synthetic(name: &str, seed: u64, len: u64, content_type: &str) -> Self {
        Object {
            name: Sym::from(name),
            blob: Blob::synthetic(seed, len),
            content_type: Sym::from(content_type),
            tags: Vec::new(),
            private: false,
            acl: Acl::Public,
        }
    }

    /// Builder-style: restricts who may read the object.
    pub fn with_acl(mut self, acl: Acl) -> Self {
        self.acl = acl;
        self
    }

    /// Builder-style: marks the object private.
    pub fn private(mut self) -> Self {
        self.private = true;
        self
    }

    /// Builder-style: adds a tag.
    pub fn with_tag(mut self, tag: &str) -> Self {
        self.tags.push(tag.to_owned());
        self
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.blob.len()
    }

    /// The privacy placement rule (Figure 6): private objects, and music
    /// (`.mp3` in the paper), never leave the home cloud.
    pub fn stays_home(&self) -> bool {
        static MP3: OnceLock<Sym> = OnceLock::new();
        self.private || self.content_type == *MP3.get_or_init(|| Sym::new("mp3"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_blob_reports_its_bytes() {
        let b = Blob::inline(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.sample(10), vec![1, 2, 3]);
        assert_eq!(b.sample(2), vec![1, 2]);
    }

    #[test]
    fn inline_debug_shows_a_bounded_prefix() {
        let long = Blob::inline(vec![b'a'; 100]);
        let want = format!("Inline(b\"{}…\")", "a".repeat(32));
        assert_eq!(format!("{long:?}"), want);
        let short = Blob::inline(&b"hi\n\xff"[..]);
        assert_eq!(format!("{short:?}"), r#"Inline(b"hi\n\xff")"#);
        let synthetic = Blob::synthetic(1, 2);
        assert_eq!(format!("{synthetic:?}"), "Synthetic { seed: 1, len: 2 }");
    }

    #[test]
    fn synthetic_blob_is_deterministic() {
        let a = Blob::synthetic(42, 1 << 20);
        let b = Blob::synthetic(42, 1 << 20);
        assert_eq!(a.sample(1024), b.sample(1024));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), Blob::synthetic(43, 1 << 20).digest());
    }

    #[test]
    fn synthetic_blob_never_materializes_full_length() {
        let huge = Blob::synthetic(7, 100 << 20);
        assert_eq!(huge.len(), 100 << 20);
        let sample = huge.sample(SAMPLE_WINDOW);
        assert_eq!(sample.len(), SAMPLE_WINDOW);
    }

    #[test]
    fn synth_content_has_texture() {
        let bytes = synth_bytes(1, 10_000);
        // Runs exist (compressible) but content is not constant.
        let distinct: std::collections::HashSet<u8> = bytes.iter().copied().collect();
        assert!(distinct.len() > 16, "content too flat");
        let runs = bytes.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs > 1000, "content should have flat runs, got {runs}");
    }

    #[test]
    fn object_builders_compose() {
        let o = Object::synthetic("music/song.mp3", 1, 4 << 20, "mp3")
            .private()
            .with_tag("music");
        assert!(o.private);
        assert_eq!(o.tags, vec!["music"]);
        assert_eq!(o.size_bytes(), 4 << 20);
        let o2 = Object::new("note.txt", &b"hi"[..], "txt");
        assert_eq!(o2.size_bytes(), 2);
        assert!(!o2.private);
    }

    #[test]
    fn empty_blob_is_empty() {
        assert!(Blob::inline(Vec::new()).is_empty());
        assert!(Blob::synthetic(1, 0).is_empty());
        assert_eq!(Blob::synthetic(1, 0).sample(100).len(), 0);
    }
}

/// The run-splat [`synth_bytes`] against the byte-at-a-time loop it
/// replaced, and every row a [`CodeRow`] computes against the full
/// [`ErasureCode::encode`] it stands for (CI runs these by name:
/// `kernel_oracle`).
#[cfg(test)]
mod kernel_oracle {
    use super::*;
    use proptest::prelude::*;

    /// The pre-splat generator, verbatim: one push per byte.
    fn synth_bytes_bytewise(seed: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        if x == 0 {
            x = 0x2545_F491_4F6C_DD1D;
        }
        let mut current = 128u8;
        let mut run = 0u32;
        while out.len() < len {
            if run == 0 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                current = (x >> 24) as u8;
                run = 1 + ((x >> 8) & 0x1F) as u32;
            }
            out.push(current);
            run -= 1;
        }
        out
    }

    fn fnv(bytes: &[u8]) -> u64 {
        c4h_kvstore::stripe_checksum(bytes)
    }

    #[test]
    fn synth_bytes_matches_the_bytewise_loop_at_the_edges() {
        let lens = [
            0,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            SAMPLE_WINDOW - 1,
            SAMPLE_WINDOW,
        ];
        for seed in [0, 1, 7, 42, 0x5EED_0000, u64::MAX] {
            for len in lens.into_iter().chain([SAMPLE_WINDOW + 1]) {
                let got = synth_bytes(seed, len);
                assert_eq!(got.len(), len);
                assert!(
                    got == synth_bytes_bytewise(seed, len),
                    "seed {seed} len {len}"
                );
            }
        }
    }

    #[test]
    fn synth_bytes_of_seed_7_is_pinned() {
        // A changed byte fails here by name, before any golden digest.
        assert_eq!(fnv(&synth_bytes(7, 64 * 1024)), 0xf662_7396_f2f2_38ad);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn synth_bytes_matches_the_bytewise_loop(seed in any::<u64>(), len in 0usize..5000) {
            prop_assert!(synth_bytes(seed, len) == synth_bytes_bytewise(seed, len));
        }
    }

    /// A source length of one shape: 0, 1, below `k`, not a multiple of
    /// `k`, exactly the sample window, or above it.
    fn source_len(shape: u8, k: usize, n: usize) -> usize {
        match shape {
            0 => 0,
            1 => 1,
            2 => n % k,
            3 => (n % 5000) / k * k + 1 + n % (k - 1).max(1),
            4 => SAMPLE_WINDOW,
            _ => SAMPLE_WINDOW + 1 + n % 5000,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn code_rows_match_the_full_encode(
            k in 1usize..=8,
            m in 1usize..=4,
            shape in 0u8..6,
            n in any::<usize>(),
            seed in any::<u64>(),
            inline in any::<bool>(),
        ) {
            prop_assume!(k + m <= 12);
            let len = source_len(shape, k, n);
            let source = if inline {
                Blob::inline(synth_bytes(seed, len))
            } else {
                Blob::synthetic(seed, len as u64)
            };
            let code = ErasureCode::new(k, m);
            let mut padded = source.sample(SAMPLE_WINDOW);
            let stripes = code.encode(&padded);
            code.pad(&mut padded);
            let stranger = Blob::synthetic(seed ^ 1, len as u64);
            let shared = Arc::new(source.clone());
            for (row, want) in stripes.iter().enumerate() {
                let recipe = CodeRow::new(Arc::clone(&shared), k, m, row);
                prop_assert_eq!(recipe.len(), want.len() as u64, "row {} of {} bytes", row, len);
                prop_assert!(recipe.bytes() == *want, "row {} of {} bytes", row, len);
                let over = recipe.bytes_over(&code, &source, &padded);
                prop_assert!(*over == **want, "row {} read off the window", row);
                let foreign = recipe.bytes_over(&code, &stranger, &[]);
                prop_assert!(*foreign == **want, "row {} beside another source", row);
                let blob = Blob::Row(recipe);
                prop_assert!(blob.sample(SAMPLE_WINDOW) == *want);
                prop_assert_eq!(blob.len(), want.len() as u64);
            }
        }
    }
}
