//! Face detection and recognition kernels.
//!
//! The paper's home-surveillance service runs OpenCV: "surveillance images
//! are processed first by a face detection algorithm, followed by face
//! recognition", with detection CPU-intensive and recognition
//! memory-intensive (Figure 7 labels them FDet and FRec). These kernels
//! reproduce those computational signatures on synthetic image bytes:
//!
//! * [`FaceDetect`] — an integral-image sliding-window detector
//!   (Viola–Jones-shaped): almost fully parallel, small working set,
//!   CPU-bound.
//! * [`FaceRecognize`] — histogram-feature nearest-neighbour matching
//!   against a resident training set ("the original code loads a training
//!   dataset to compare against images … output being ID of the best matched
//!   image"): partially parallel, working set grows with the image and the
//!   resident training data — the property that makes Figure 7's 128 MB VM
//!   thrash at 2 MB images.
//!
//! The cost models scale strongly superlinearly with image size
//! (`size^3.2`): multi-scale detection cascades and pyramid-based
//! recognition blow up with resolution, and the paper's Figure 7 requires
//! sub-second pipelines at 0.25 MB images but minute-scale ones at 2 MB.
//! Coefficients are calibrated so Figure 7's S1→S2→S3 crossovers
//! reproduce against the testbed's WAN movement costs.

use c4h_vmm::{ExecProfile, WorkUnits};

use crate::service::{mib_f64, MinRequirements, Service, ServiceDemand, ServiceId, ServiceOutput};

/// Stable id of the face-detection service.
pub const FACE_DETECT_ID: ServiceId = ServiceId(1);

/// Stable id of the face-recognition service.
pub const FACE_RECOGNIZE_ID: ServiceId = ServiceId(2);

/// Superlinear exponent of vision work in image size.
const VISION_WORK_EXPONENT: f64 = 3.2;

/// Interprets a byte slice as a square grayscale image.
pub(crate) fn as_image(bytes: &[u8]) -> (usize, usize) {
    let width = (bytes.len() as f64).sqrt().floor().max(1.0) as usize;
    let height = (bytes.len() / width).max(1);
    (width, height)
}

/// Builds a (downsampled) integral image over the input bytes, one row
/// slice at a time.
///
/// The kernel bounds its work on very large inputs by striding, keeping test
/// and example runtimes wall-clock-sane while remaining a real computation
/// over the content.
///
/// `u32` holds every entry. [`FaceDetect::detect`]'s stride is 1 below a
/// width of 512 and `width / 256 ≥ 2` from there on, which keeps the grid at
/// most 511 columns (≤ 384 once striding) by `height ≤ width + 2` rows, so
/// no entry exceeds 255 × 511 × 513 < 2³².
fn integral_image(bytes: &[u8], width: usize, height: usize, stride: usize) -> Vec<u32> {
    let w = width.div_ceil(stride);
    let h = height.div_ceil(stride);
    debug_assert!(
        255 * w as u64 * h as u64 <= u64::from(u32::MAX),
        "a {w} x {h} integral image overflows u32"
    );
    let cols = w + 1;
    let mut integral = vec![0u32; cols * (h + 1)];
    for y in 0..h {
        let (above, below) = integral.split_at_mut((y + 1) * cols);
        let (above, row) = (&above[y * cols + 1..], &mut below[1..cols]);
        // The row's running sum is a serial chain; adding the row above
        // is a separate pass with no chain, which vectorises.
        let mut row_sum = 0u32;
        let pixels = &bytes[y * stride * width..];
        if stride == 1 {
            for (cell, &px) in row.iter_mut().zip(pixels) {
                row_sum += u32::from(px);
                *cell = row_sum;
            }
        } else {
            for (cell, &px) in row.iter_mut().zip(pixels.iter().step_by(stride)) {
                row_sum += u32::from(px);
                *cell = row_sum;
            }
        }
        for (cell, &up) in row.iter_mut().zip(above) {
            *cell += up;
        }
    }
    integral
}

/// A detected face window (in downsampled coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Window left edge.
    pub x: u32,
    /// Window top edge.
    pub y: u32,
    /// Window side length.
    pub size: u32,
}

/// The face-detection kernel and cost model.
#[derive(Debug, Clone, Default)]
pub struct FaceDetect;

impl FaceDetect {
    /// Creates the service.
    pub fn new() -> Self {
        FaceDetect
    }

    /// Runs the sliding-window detector, returning the detections.
    pub fn detect(&self, bytes: &[u8]) -> Vec<Detection> {
        if bytes.len() < 256 {
            return Vec::new();
        }
        let (width, height) = as_image(bytes);
        // Cap the working resolution so huge synthetic inputs stay cheap.
        let stride = (width / 256).max(1);
        let integral = integral_image(bytes, width, height, stride);
        let w = width.div_ceil(stride);
        let h = height.div_ceil(stride);
        let window = 12usize;
        let mut out = Vec::new();
        if w <= window || h <= window {
            return out;
        }
        let step = 4usize;
        let (half, cols) = (window / 2, w + 1);
        let row = |y: usize| &integral[y * cols..(y + 1) * cols];
        for y in (0..h - window).step_by(step) {
            // The window's four half-bands share the corners at rows y,
            // y + 6 and y + 12 and columns x, x + 6 and x + 12 — eight
            // reads, as no band has a corner at the centre.
            let (r0, r1, r2) = (row(y), row(y + half), row(y + window));
            for x in (0..w - window).step_by(step) {
                let [a0, a1, a2] = [r0[x], r0[x + half], r0[x + window]].map(i64::from);
                let [b0, b2] = [r1[x], r1[x + window]].map(i64::from);
                let [c0, c1, c2] = [r2[x], r2[x + half], r2[x + window]].map(i64::from);
                // Two Haar-like features: eyes band darker than cheeks band,
                // and left/right symmetry. Each band's sum is the usual
                // non-negative inclusion–exclusion over its four corners.
                let top = b2 + a0 - a2 - b0;
                let bottom = c2 + b0 - b2 - c0;
                let left = c1 + a0 - a1 - c0;
                let right = c2 + a1 - a2 - c1;
                let area = (window * window / 2) as i64 * 255;
                let vert = bottom - top;
                let horiz = (left - right).abs();
                if vert * 5 > area && horiz * 20 < area {
                    out.push(Detection {
                        x: (x * stride) as u32,
                        y: (y * stride) as u32,
                        size: (window * stride) as u32,
                    });
                }
            }
        }
        out
    }
}

impl Service for FaceDetect {
    fn id(&self) -> ServiceId {
        FACE_DETECT_ID
    }

    fn name(&self) -> &str {
        "face-detect"
    }

    fn demand(&self, input_bytes: u64) -> ServiceDemand {
        let mb = mib_f64(input_bytes);
        ServiceDemand {
            work: WorkUnits(3.9 * mb.powf(VISION_WORK_EXPONENT)),
            exec: ExecProfile {
                parallel_fraction: 0.85,
                mem_required_mib: 20 + (10.0 * mb) as u64,
            },
            // Detections are tiny relative to the image.
            output_bytes: 256,
        }
    }

    fn min_requirements(&self) -> MinRequirements {
        MinRequirements {
            min_mem_mib: 64,
            min_cpu_ghz: 0.8,
        }
    }

    fn run(&self, input: &[u8]) -> ServiceOutput {
        let detections = self.detect(input);
        let mut data = Vec::with_capacity(detections.len() * 12);
        for d in &detections {
            data.extend_from_slice(&d.x.to_le_bytes());
            data.extend_from_slice(&d.y.to_le_bytes());
            data.extend_from_slice(&d.size.to_le_bytes());
        }
        ServiceOutput {
            summary: format!("{} face windows", detections.len()),
            data,
        }
    }
}

/// Number of histogram bins in the recognition feature vector.
pub const FEATURE_BINS: usize = 64;

/// A resident training set for face recognition.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSet {
    features: Vec<[f32; FEATURE_BINS]>,
    /// Total bytes of training imagery this set was built from (drives the
    /// resident working-set size).
    pub source_bytes: u64,
}

impl TrainingSet {
    /// Builds a training set from labelled example images.
    pub fn from_examples<'a, I>(examples: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut features = Vec::new();
        let mut source_bytes = 0u64;
        for ex in examples {
            features.push(feature_vector(ex));
            source_bytes += ex.len() as u64;
        }
        TrainingSet {
            features,
            source_bytes,
        }
    }

    /// Number of enrolled identities.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Nearest-neighbour match: returns `(best index, distance)`.
    pub fn best_match(&self, probe: &[u8]) -> Option<(usize, f32)> {
        if self.features.is_empty() {
            return None;
        }
        let f = feature_vector(probe);
        let mut best = (0usize, f32::INFINITY);
        for (i, t) in self.features.iter().enumerate() {
            let d: f32 = f.iter().zip(t.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
            if d < best.1 {
                best = (i, d);
            }
        }
        Some(best)
    }
}

/// Normalized 64-bin luminance histogram of an image.
///
/// Counted in four interleaved histograms, one per byte position mod 4, so
/// a run of equal bytes does not chain every increment through one
/// counter; the bins are summed in bin order, so each count — and each
/// `f32` division — is what one histogram gives.
pub fn feature_vector(bytes: &[u8]) -> [f32; FEATURE_BINS] {
    let bin = |b: u8| usize::from(b) * FEATURE_BINS / 256;
    let mut lanes = [[0u32; FEATURE_BINS]; 4];
    let mut quads = bytes.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &b) in lanes.iter_mut().zip(quad) {
            lane[bin(b)] += 1;
        }
    }
    for &b in quads.remainder() {
        lanes[0][bin(b)] += 1;
    }
    let total = bytes.len().max(1) as f32;
    let mut out = [0f32; FEATURE_BINS];
    for (i, o) in out.iter_mut().enumerate() {
        let h = lanes[0][i] + lanes[1][i] + lanes[2][i] + lanes[3][i];
        *o = h as f32 / total;
    }
    out
}

/// The face-recognition kernel and cost model.
#[derive(Debug, Clone)]
pub struct FaceRecognize {
    training: TrainingSet,
}

impl FaceRecognize {
    /// Creates the service with a resident training set.
    pub fn new(training: TrainingSet) -> Self {
        FaceRecognize { training }
    }

    /// The resident training set.
    pub fn training(&self) -> &TrainingSet {
        &self.training
    }
}

impl Service for FaceRecognize {
    fn id(&self) -> ServiceId {
        FACE_RECOGNIZE_ID
    }

    fn name(&self) -> &str {
        "face-recognize"
    }

    fn demand(&self, input_bytes: u64) -> ServiceDemand {
        let mb = mib_f64(input_bytes);
        ServiceDemand {
            work: WorkUnits(5.9 * mb.powf(VISION_WORK_EXPONENT) + 0.02),
            exec: ExecProfile {
                parallel_fraction: 0.5,
                // The training set stays resident while image pyramids are
                // matched: the working set grows with both.
                mem_required_mib: 60 + (80.0 * mb) as u64,
            },
            output_bytes: 64,
        }
    }

    fn min_requirements(&self) -> MinRequirements {
        MinRequirements {
            min_mem_mib: 96,
            min_cpu_ghz: 1.0,
        }
    }

    fn run(&self, input: &[u8]) -> ServiceOutput {
        match self.training.best_match(input) {
            Some((idx, dist)) => ServiceOutput {
                data: (idx as u64).to_le_bytes().to_vec(),
                summary: format!("best match: {idx} (distance {dist:.4})"),
            },
            None => ServiceOutput {
                data: Vec::new(),
                summary: "no training data".into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic synthetic "image" with a bright-bottom face-like
    /// pattern at the given offset.
    fn synthetic_face_image(side: usize, face_at: Option<(usize, usize)>) -> Vec<u8> {
        let mut img = vec![30u8; side * side];
        if let Some((fx, fy)) = face_at {
            let fsize = side / 8;
            for y in fy..(fy + fsize).min(side) {
                for x in fx..(fx + fsize).min(side) {
                    // Dark top half (eyes), bright bottom half (mouth/chin),
                    // left-right symmetric.
                    img[y * side + x] = if y < fy + fsize / 2 { 20 } else { 240 };
                }
            }
        }
        img
    }

    #[test]
    fn detector_finds_planted_pattern_and_not_blank() {
        let fd = FaceDetect::new();
        let blank = synthetic_face_image(256, None);
        assert!(fd.detect(&blank).is_empty(), "no detections on blank image");
        let with_face = synthetic_face_image(256, Some((64, 64)));
        let hits = fd.detect(&with_face);
        assert!(!hits.is_empty(), "planted pattern should be detected");
        // The detection lands near the planted location.
        assert!(hits
            .iter()
            .any(|d| { (d.x as i64 - 64).abs() < 48 && (d.y as i64 - 64).abs() < 48 }));
    }

    #[test]
    fn detector_handles_tiny_input() {
        assert!(FaceDetect::new().detect(&[1, 2, 3]).is_empty());
        let out = FaceDetect::new().run(&[0u8; 64]);
        assert_eq!(out.data.len(), 0);
    }

    #[test]
    fn recognizer_matches_most_similar_training_image() {
        let bright = vec![220u8; 4096];
        let dark = vec![25u8; 4096];
        let mid = vec![128u8; 4096];
        let training =
            TrainingSet::from_examples([bright.as_slice(), dark.as_slice(), mid.as_slice()]);
        assert_eq!(training.len(), 3);
        assert!(!training.is_empty());
        let fr = FaceRecognize::new(training);
        let probe = vec![230u8; 4096]; // most like `bright`
        let (idx, _) = fr.training().best_match(&probe).unwrap();
        assert_eq!(idx, 0);
        let out = fr.run(&probe);
        assert_eq!(out.data, 0u64.to_le_bytes().to_vec());
        assert!(out.summary.contains("best match: 0"));
    }

    #[test]
    fn recognizer_without_training_reports_gracefully() {
        let fr = FaceRecognize::new(TrainingSet::from_examples(std::iter::empty::<&[u8]>()));
        let out = fr.run(&[1, 2, 3]);
        assert!(out.data.is_empty());
        assert_eq!(out.summary, "no training data");
    }

    #[test]
    fn vision_work_is_superlinear_in_size() {
        let fd = FaceDetect::new();
        let w1 = fd.demand(1 << 20).work.raw();
        let w2 = fd.demand(2 << 20).work.raw();
        assert!(w2 > 2.5 * w1, "2 MiB should cost more than 2× 1 MiB");
    }

    #[test]
    fn recognition_is_memory_hungrier_than_detection() {
        let fd = FaceDetect::new();
        let fr = FaceRecognize::new(TrainingSet::from_examples(std::iter::empty::<&[u8]>()));
        let bytes = 2 << 20;
        assert!(
            fr.demand(bytes).exec.mem_required_mib > fd.demand(bytes).exec.mem_required_mib * 3,
            "FRec is the memory-intensive step"
        );
        // Figure 7's S2: at 2 MiB the FRec working set exceeds a 128 MiB VM.
        assert!(fr.demand(2 << 20).exec.mem_required_mib > 128);
        assert!(fr.demand(1 << 20).exec.mem_required_mib > 128); // marginal
        assert!(fr.demand(512 << 10).exec.mem_required_mib <= 128);
    }

    #[test]
    fn feature_vectors_are_normalized() {
        let v = feature_vector(&vec![7u8; 1000]);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn service_metadata_is_stable() {
        let fd = FaceDetect::new();
        assert_eq!(fd.id(), FACE_DETECT_ID);
        assert_eq!(fd.name(), "face-detect");
        assert!(fd.min_requirements().min_mem_mib > 0);
    }
}
