//! The modified eDonkey access trace.
//!
//! The paper drives its data-placement experiments with the eDonkey
//! peer-to-peer dataset, reshaped as follows: "we modify it by combining
//! clients into smaller sets (emulating 6 clients) that each access a large
//! number of files (1300 in total), performing repeated accesses across
//! these files. The percentage of store vs. fetch operations is set to 60%
//! and 40%, respectively." Files carry identifiers, sizes, and context tags,
//! and are classified into "small (1-10 MB), medium (10-20 MB), large
//! (20-50 MB), and super-large (50-100 MB) buckets".
//!
//! [`generate`] reproduces that synthetic workload deterministically from a
//! seed: Zipf-popular files, interleaved per-client operations, and the
//! guarantee that a file's first operation is always a store.

use std::time::Duration;

use c4h_simnet::{DetRng, Zipf};

/// The paper's object-size classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeBucket {
    /// 1–10 MB.
    Small,
    /// 10–20 MB.
    Medium,
    /// 20–50 MB.
    Large,
    /// 50–100 MB.
    SuperLarge,
}

impl SizeBucket {
    /// All buckets, ascending.
    pub const ALL: [SizeBucket; 4] = [
        SizeBucket::Small,
        SizeBucket::Medium,
        SizeBucket::Large,
        SizeBucket::SuperLarge,
    ];

    /// The byte range `[lo, hi)` of this bucket.
    pub fn range_bytes(self) -> (u64, u64) {
        const MB: u64 = 1024 * 1024;
        match self {
            SizeBucket::Small => (MB, 10 * MB),
            SizeBucket::Medium => (10 * MB, 20 * MB),
            SizeBucket::Large => (20 * MB, 50 * MB),
            SizeBucket::SuperLarge => (50 * MB, 100 * MB),
        }
    }

    /// The bucket a size falls into (sizes below 1 MB count as `Small`,
    /// above 100 MB as `SuperLarge`).
    pub fn classify(bytes: u64) -> SizeBucket {
        for b in SizeBucket::ALL {
            let (_, hi) = b.range_bytes();
            if bytes < hi {
                return b;
            }
        }
        SizeBucket::SuperLarge
    }
}

/// Content kind of a trace file (drives content-type tags and the privacy
/// policy: the paper's Figure 6 policy "stores private data (in our case all
/// .mp3 files) locally and shareable data … remotely").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Music — treated as private.
    Mp3,
    /// Video container.
    Avi,
    /// Mobile video.
    Mp4,
    /// Still image.
    Jpeg,
    /// Documents and archives.
    Doc,
}

impl FileKind {
    /// The content-type string stored in object metadata.
    pub fn content_type(self) -> &'static str {
        match self {
            FileKind::Mp3 => "mp3",
            FileKind::Avi => "avi",
            FileKind::Mp4 => "mp4",
            FileKind::Jpeg => "jpeg",
            FileKind::Doc => "doc",
        }
    }

    /// Whether the paper's privacy policy classifies this kind as private.
    pub fn is_private(self) -> bool {
        matches!(self, FileKind::Mp3)
    }
}

/// One file in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FileSpec {
    /// Unique object name.
    pub name: String,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Content kind.
    pub kind: FileKind,
    /// Context tags (the eDonkey dataset describes files with tags).
    pub tags: Vec<String>,
    /// Deterministic content seed for payload synthesis.
    pub content_seed: u64,
}

/// Operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Store the file into VStore++.
    Store,
    /// Fetch the file.
    Fetch,
}

/// One operation in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Issuing client (0-based).
    pub client: usize,
    /// Store or fetch.
    pub op: OpKind,
    /// Index into [`Trace::files`].
    pub file: usize,
    /// Client think time before issuing this operation (the eDonkey dataset
    /// tags "each access … with a client ID and time"; closed-loop replays
    /// honour the gaps).
    pub think: Duration,
}

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of emulated clients (the paper uses 6).
    pub clients: usize,
    /// Number of distinct files (the paper uses 1300).
    pub files: usize,
    /// Number of operations to generate.
    pub operations: usize,
    /// Probability an operation is a store (the paper uses 0.6).
    pub store_fraction: f64,
    /// Zipf exponent of file popularity.
    pub zipf_exponent: f64,
    /// Weights over [`SizeBucket::ALL`] for file sizes.
    pub bucket_weights: [f64; 4],
    /// Restrict all sizes to this range (overrides buckets when set) —
    /// Figure 6 uses "only … objects with the 'optimal' data size … 10-25 MB".
    pub size_override: Option<(u64, u64)>,
    /// Fraction of files that are private `.mp3`s.
    pub mp3_fraction: f64,
    /// Mean client think time between operations (exponential-ish); zero
    /// disables pacing.
    pub mean_think: Duration,
}

impl TraceConfig {
    /// The paper's base configuration: 6 clients, 1300 files, 60 % stores.
    pub fn paper_default(operations: usize) -> Self {
        TraceConfig {
            clients: 6,
            files: 1300,
            operations,
            store_fraction: 0.6,
            zipf_exponent: 0.9,
            bucket_weights: [0.45, 0.25, 0.2, 0.1],
            size_override: None,
            mp3_fraction: 0.35,
            mean_think: Duration::from_secs(2),
        }
    }

    /// Figure 6's configuration: optimal-sized (10–25 MB) objects only.
    pub fn fig6(operations: usize) -> Self {
        const MB: u64 = 1024 * 1024;
        TraceConfig {
            size_override: Some((10 * MB, 25 * MB)),
            ..TraceConfig::paper_default(operations)
        }
    }
}

/// A generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The file population.
    pub files: Vec<FileSpec>,
    /// The operation sequence.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Fraction of operations that are stores.
    pub fn store_fraction(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.ops.iter().filter(|o| o.op == OpKind::Store).count() as f64 / self.ops.len() as f64
    }

    /// Total bytes across the file population.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size_bytes).sum()
    }

    /// Files in a given size bucket.
    pub fn files_in_bucket(&self, bucket: SizeBucket) -> Vec<usize> {
        self.files
            .iter()
            .enumerate()
            .filter(|(_, f)| SizeBucket::classify(f.size_bytes) == bucket)
            .map(|(i, _)| i)
            .collect()
    }
}

const KINDS: [FileKind; 4] = [FileKind::Avi, FileKind::Mp4, FileKind::Jpeg, FileKind::Doc];

/// Generates a deterministic trace from the configuration and seed.
///
/// Invariants: every file's first operation is a store (a fetch of a
/// never-stored file is rewritten), clients are drawn uniformly, file
/// popularity is Zipf-distributed.
///
/// # Panics
///
/// Panics if `clients` or `files` is zero.
///
/// # Examples
///
/// ```
/// use c4h_workloads::{generate, TraceConfig};
///
/// let trace = generate(&TraceConfig::paper_default(1000), 42);
/// assert_eq!(trace.files.len(), 1300);
/// assert_eq!(trace.ops.len(), 1000);
/// // Most of a short trace is first accesses, which are forced stores, so
/// // the fraction sits above the configured 0.6.
/// let sf = trace.store_fraction();
/// assert!((0.6..0.9).contains(&sf), "store fraction {sf}");
/// ```
pub fn generate(config: &TraceConfig, seed: u64) -> Trace {
    assert!(config.clients > 0, "need at least one client");
    assert!(config.files > 0, "need at least one file");
    let mut rng = DetRng::seed(seed);

    let mut files = Vec::with_capacity(config.files);
    for i in 0..config.files {
        let kind = if rng.chance(config.mp3_fraction) {
            FileKind::Mp3
        } else {
            KINDS[rng.uniform_u64(0, KINDS.len() as u64) as usize]
        };
        let size_bytes = match config.size_override {
            Some((lo, hi)) => rng.uniform_u64(lo, hi),
            None => {
                let total: f64 = config.bucket_weights.iter().sum();
                let mut pick = rng.uniform(0.0, total);
                let mut bucket = SizeBucket::SuperLarge;
                for (b, w) in SizeBucket::ALL.iter().zip(config.bucket_weights) {
                    if pick < w {
                        bucket = *b;
                        break;
                    }
                    pick -= w;
                }
                let (lo, hi) = bucket.range_bytes();
                rng.uniform_u64(lo, hi)
            }
        };
        files.push(FileSpec {
            name: format!(
                "edonkey/{}/file-{i:05}.{}",
                kind.content_type(),
                kind.content_type()
            ),
            size_bytes,
            kind,
            tags: vec![format!("topic-{}", i % 17), kind.content_type().to_owned()],
            content_seed: rng.uniform_u64(0, u64::MAX - 1),
        });
    }

    let popularity = Zipf::new(config.files, config.zipf_exponent);
    let mut stored = vec![false; config.files];
    let mut ops = Vec::with_capacity(config.operations);
    for _ in 0..config.operations {
        let file = popularity.sample(&mut rng);
        let client = rng.uniform_u64(0, config.clients as u64) as usize;
        let mut op = if rng.chance(config.store_fraction) {
            OpKind::Store
        } else {
            OpKind::Fetch
        };
        if !stored[file] {
            op = OpKind::Store;
        }
        stored[file] = stored[file] || op == OpKind::Store;
        let think = if config.mean_think.is_zero() {
            Duration::ZERO
        } else {
            // Exponential via inverse CDF, clamped to 10x the mean.
            let u: f64 = rng.uniform(1e-6, 1.0);
            let secs = -config.mean_think.as_secs_f64() * u.ln();
            Duration::from_secs_f64(secs.min(config.mean_think.as_secs_f64() * 10.0))
        };
        ops.push(TraceOp {
            client,
            op,
            file,
            think,
        });
    }

    Trace { files, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = TraceConfig::paper_default(500);
        assert_eq!(generate(&config, 7), generate(&config, 7));
        assert_ne!(generate(&config, 7), generate(&config, 8));
    }

    #[test]
    fn first_access_to_every_file_is_a_store() {
        let trace = generate(&TraceConfig::paper_default(2000), 3);
        let mut seen = std::collections::HashSet::new();
        for op in &trace.ops {
            if seen.insert(op.file) {
                assert_eq!(
                    op.op,
                    OpKind::Store,
                    "first op on file {} must store",
                    op.file
                );
            }
        }
    }

    #[test]
    fn store_fraction_is_near_configured() {
        let trace = generate(&TraceConfig::paper_default(5000), 11);
        let sf = trace.store_fraction();
        // First-access rewrites push it slightly above 0.6.
        assert!((0.55..0.8).contains(&sf), "store fraction {sf}");
    }

    #[test]
    fn sizes_respect_buckets() {
        let trace = generate(&TraceConfig::paper_default(10), 1);
        for f in &trace.files {
            assert!(f.size_bytes >= 1024 * 1024, "{} too small", f.name);
            assert!(f.size_bytes < 100 * 1024 * 1024, "{} too large", f.name);
        }
        // All four buckets are populated in a 1300-file population.
        for b in SizeBucket::ALL {
            assert!(
                !trace.files_in_bucket(b).is_empty(),
                "bucket {b:?} unpopulated"
            );
        }
    }

    #[test]
    fn fig6_override_bounds_sizes() {
        let trace = generate(&TraceConfig::fig6(10), 5);
        const MB: u64 = 1024 * 1024;
        for f in &trace.files {
            assert!((10 * MB..25 * MB).contains(&f.size_bytes));
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let trace = generate(&TraceConfig::paper_default(20_000), 13);
        let mut counts = vec![0usize; trace.files.len()];
        for op in &trace.ops {
            counts[op.file] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        let mean = trace.ops.len() / trace.files.len();
        assert!(
            hottest > mean * 10,
            "Zipf popularity should concentrate accesses: hottest {hottest}, mean {mean}"
        );
    }

    #[test]
    fn bucket_classification_matches_ranges() {
        const MB: u64 = 1024 * 1024;
        assert_eq!(SizeBucket::classify(5 * MB), SizeBucket::Small);
        assert_eq!(SizeBucket::classify(15 * MB), SizeBucket::Medium);
        assert_eq!(SizeBucket::classify(30 * MB), SizeBucket::Large);
        assert_eq!(SizeBucket::classify(80 * MB), SizeBucket::SuperLarge);
        assert_eq!(SizeBucket::classify(500 * MB), SizeBucket::SuperLarge);
        assert_eq!(SizeBucket::classify(10), SizeBucket::Small);
    }

    #[test]
    fn privacy_classification() {
        assert!(FileKind::Mp3.is_private());
        assert!(!FileKind::Avi.is_private());
        assert_eq!(FileKind::Jpeg.content_type(), "jpeg");
    }

    #[test]
    fn clients_are_all_used() {
        let trace = generate(&TraceConfig::paper_default(3000), 21);
        let used: std::collections::HashSet<usize> = trace.ops.iter().map(|o| o.client).collect();
        assert_eq!(used.len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panics() {
        let mut c = TraceConfig::paper_default(1);
        c.clients = 0;
        generate(&c, 0);
    }
}
#[cfg(test)]
mod think_tests {
    use super::*;

    #[test]
    fn think_times_average_near_the_mean() {
        let config = TraceConfig::paper_default(4000);
        let trace = generate(&config, 99);
        let mean: f64 =
            trace.ops.iter().map(|o| o.think.as_secs_f64()).sum::<f64>() / trace.ops.len() as f64;
        assert!(
            (1.0..3.5).contains(&mean),
            "mean think {mean:.2}s should sit near the configured 2s"
        );
    }

    #[test]
    fn zero_mean_disables_pacing() {
        let mut config = TraceConfig::paper_default(100);
        config.mean_think = Duration::ZERO;
        let trace = generate(&config, 5);
        assert!(trace.ops.iter().all(|o| o.think.is_zero()));
    }
}
