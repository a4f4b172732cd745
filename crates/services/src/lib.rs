//! Data-manipulation services for the Cloud4Home reproduction.
//!
//! The paper enhances storage with processing: "VStore++ also supports
//! process operations, which allow a service deployed in the home cloud to
//! be invoked explicitly, or jointly with the object store or fetch
//! operation". Its two use cases are home surveillance (OpenCV face
//! detection + recognition) and media conversion (x264). This crate
//! implements both as *real* byte-level kernels paired with calibrated cost
//! models:
//!
//! * [`FaceDetect`] — integral-image sliding-window detection (CPU-bound,
//!   highly parallel);
//! * [`FaceRecognize`] — nearest-neighbour matching against a resident
//!   [`TrainingSet`] (memory-bound — the working set grows with image size
//!   and training data, reproducing Figure 7's small-VM thrashing);
//! * [`Transcode`] — blocked transform + quantization + run-length packing
//!   (CPU-bound, linear — Figure 8's `.avi` → `.mp4` downgrade);
//! * [`Compress`] — a lossless LZ77-style archiver (with a verifying
//!   decompressor), the transformation worth running near the data before
//!   remote archival;
//! * [`ServiceRegistry`] — the node-local deployment table.
//!
//! The [`Service`] trait separates the observable kernel ([`Service::run`])
//! from the virtual-time cost model ([`Service::demand`]), which the runtime
//! feeds into [`c4h_vmm::exec_time`] together with the hosting platform and
//! VM grant. The crate keeps no metrics: the runtime counts the kernels it
//! runs (`services.executions` and their input and output bytes).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compress;
mod registry;
mod service;
mod transcode;
mod vision;

pub use compress::{Compress, DecompressError, COMPRESS_ID};
pub use registry::ServiceRegistry;
pub use service::{mib_f64, MinRequirements, Service, ServiceDemand, ServiceId, ServiceOutput};
pub use transcode::{Transcode, TRANSCODE_ID};
pub use vision::{
    feature_vector, Detection, FaceDetect, FaceRecognize, TrainingSet, FACE_DETECT_ID,
    FACE_RECOGNIZE_ID, FEATURE_BINS,
};

#[cfg(test)]
mod kernel_oracle {
    //! The service kernels against the byte-at-a-time loops they replaced
    //! (CI runs these by name: `kernel_oracle`).
    //!
    //! Each oracle below is the previous kernel verbatim: the level-by-level
    //! butterfly and the byte-compare run-length pack of [`Transcode::convert`],
    //! the `u64` integral image and four-corner window sums of
    //! [`FaceDetect::detect`], and the one-histogram [`feature_vector`]. Inputs
    //! cover every tail length of a transform block (0–300 bytes), the 64 KiB
    //! sample window the runtime passes, and images wider than 511 pixels,
    //! where the detector strides; in three content shapes — random bytes,
    //! runs longer than a pack pair's 255, and flat regions mixed with noise —
    //! plus planted face patterns, so the detectors have windows to agree on.

    use proptest::prelude::*;

    use crate::transcode::{BLOCK, QUANT_SHIFT};
    use crate::vision::as_image;
    use crate::{feature_vector, Detection, FaceDetect, FaceRecognize, Service, TrainingSet};
    use crate::{Transcode, FEATURE_BINS};

    /// The previous `Transcode::convert`, verbatim.
    fn convert_bytewise(input: &[u8]) -> Vec<u8> {
        let mut coeffs = Vec::with_capacity(input.len());
        for chunk in input.chunks(BLOCK) {
            let mut block = [0i16; BLOCK];
            for (i, &b) in chunk.iter().enumerate() {
                block[i] = b as i16;
            }
            let mut span = chunk.len().next_power_of_two().min(BLOCK);
            let mut scratch = [0i16; BLOCK];
            while span > 1 {
                for i in (0..span).step_by(2) {
                    let a = block[i];
                    let b = block[i + 1];
                    scratch[i / 2] = a + b;
                    scratch[span / 2 + i / 2] = a - b;
                }
                block[..span].copy_from_slice(&scratch[..span]);
                span /= 2;
            }
            for &c in block.iter().take(chunk.len()) {
                coeffs.push((c >> QUANT_SHIFT) as i8 as u8);
            }
        }
        let mut out = Vec::with_capacity(coeffs.len() / 2);
        let mut i = 0;
        while i < coeffs.len() {
            let v = coeffs[i];
            let mut run = 1usize;
            while i + run < coeffs.len() && coeffs[i + run] == v && run < 255 {
                run += 1;
            }
            out.push(run as u8);
            out.push(v);
            i += run;
        }
        out
    }

    /// The previous `integral_image`, verbatim (`u64` entries).
    fn integral_image_u64(bytes: &[u8], width: usize, height: usize, stride: usize) -> Vec<u64> {
        let w = width.div_ceil(stride);
        let h = height.div_ceil(stride);
        let mut integral = vec![0u64; (w + 1) * (h + 1)];
        for y in 0..h {
            let mut row_sum = 0u64;
            for x in 0..w {
                let px = bytes[(y * stride) * width + (x * stride)] as u64;
                row_sum += px;
                integral[(y + 1) * (w + 1) + (x + 1)] = integral[y * (w + 1) + (x + 1)] + row_sum;
            }
        }
        integral
    }

    fn window_sum(integral: &[u64], w: usize, x0: usize, y0: usize, x1: usize, y1: usize) -> u64 {
        let at = |x: usize, y: usize| integral[y * (w + 1) + x];
        at(x1, y1) + at(x0, y0) - at(x1, y0) - at(x0, y1)
    }

    /// The previous `FaceDetect::detect`, verbatim: 16 corner reads a window.
    fn detect_bytewise(bytes: &[u8]) -> Vec<Detection> {
        if bytes.len() < 256 {
            return Vec::new();
        }
        let (width, height) = as_image(bytes);
        let stride = (width / 256).max(1);
        let integral = integral_image_u64(bytes, width, height, stride);
        let w = width.div_ceil(stride);
        let h = height.div_ceil(stride);
        let window = 12usize;
        let mut out = Vec::new();
        if w <= window || h <= window {
            return out;
        }
        let step = 4usize;
        for y in (0..h - window).step_by(step) {
            for x in (0..w - window).step_by(step) {
                let top = window_sum(&integral, w, x, y, x + window, y + window / 2);
                let bottom = window_sum(&integral, w, x, y + window / 2, x + window, y + window);
                let left = window_sum(&integral, w, x, y, x + window / 2, y + window);
                let right = window_sum(&integral, w, x + window / 2, y, x + window, y + window);
                let area = (window * window / 2) as i64 * 255;
                let vert = bottom as i64 - top as i64;
                let horiz = (left as i64 - right as i64).abs();
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

    /// The previous `feature_vector`, verbatim: one histogram.
    fn feature_vector_bytewise(bytes: &[u8]) -> [f32; FEATURE_BINS] {
        let mut hist = [0u32; FEATURE_BINS];
        for &b in bytes {
            hist[(b as usize) * FEATURE_BINS / 256] += 1;
        }
        let total = bytes.len().max(1) as f32;
        let mut out = [0f32; FEATURE_BINS];
        for (o, h) in out.iter_mut().zip(hist.iter()) {
            *o = *h as f32 / total;
        }
        out
    }

    /// The content shapes the kernels are checked on.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Independent random bytes: a transform coefficient run rarely
        /// outlasts a few bytes.
        Random,
        /// Constant runs of 1–1 000 bytes: coefficient runs cross blocks and
        /// exceed the 255 a pack pair holds.
        LongRuns,
        /// Flat stretches alternating with noise bursts of a few bytes.
        FlatNoise,
        /// Dark-over-bright squares on a flat background: the detector's
        /// feature, so its windows fire.
        Faces,
    }

    const SHAPES: [Shape; 4] = [
        Shape::Random,
        Shape::LongRuns,
        Shape::FlatNoise,
        Shape::Faces,
    ];

    /// `len` bytes of `shape`, drawn from a xorshift stream seeded by `seed`.
    fn content(shape: Shape, len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut out = Vec::with_capacity(len);
        match shape {
            Shape::Random => out.extend((0..len).map(|_| next() as u8)),
            Shape::LongRuns | Shape::FlatNoise => {
                let mut level = next() as u8;
                while out.len() < len {
                    let r = next();
                    let run = if matches!(shape, Shape::LongRuns) {
                        1 + (r % 1_000) as usize
                    } else {
                        1 + (r % 96) as usize
                    };
                    let run = run.min(len - out.len());
                    if matches!(shape, Shape::FlatNoise) && r >> 62 == 0 {
                        out.extend((0..run.min(6)).map(|_| next() as u8));
                    } else {
                        if matches!(shape, Shape::LongRuns) || r >> 63 == 0 {
                            level = (r >> 32) as u8;
                        }
                        out.extend(std::iter::repeat_n(level, run));
                    }
                }
            }
            Shape::Faces => {
                out.resize(len, 30);
                let (width, _) = as_image(&out);
                let side = (width / 8).max(4);
                for _ in 0..4 {
                    let (fx, fy) = (
                        next() as usize % width,
                        next() as usize % (len / width).max(1),
                    );
                    for y in fy..fy + side {
                        for x in fx..(fx + side).min(width) {
                            if let Some(px) = out.get_mut(y * width + x) {
                                *px = if y < fy + side / 2 { 20 } else { 240 };
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// FNV-1a, for pinning a kernel's output on one fixed input.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn bits(v: &[f32; FEATURE_BINS]) -> [u32; FEATURE_BINS] {
        v.map(f32::to_bits)
    }

    /// Every kernel against its oracle on one input.
    fn check(input: &[u8]) -> Result<(), TestCaseError> {
        let len = input.len();
        prop_assert!(
            Transcode.convert(input) == convert_bytewise(input),
            "convert, {len} bytes"
        );
        prop_assert_eq!(
            FaceDetect.detect(input),
            detect_bytewise(input),
            "detect, {} bytes",
            len
        );
        prop_assert_eq!(
            bits(&feature_vector(input)),
            bits(&feature_vector_bytewise(input)),
            "feature_vector, {} bytes",
            len
        );
        Ok(())
    }

    #[test]
    fn kernels_match_the_bytewise_loops_at_the_edges() {
        let side = |w: usize| w * w;
        let lens = [
            0,
            1,
            63,
            64,
            65,
            255,
            256,
            257,
            BLOCK * 4 + 17,
            64 * 1024 - 1,
            64 * 1024,
            side(511) + 1022,
            side(512),
            side(767) + 2 * 767,
            side(800) + 333,
        ];
        for shape in SHAPES {
            for len in lens {
                check(&content(shape, len, len as u64 + 1)).unwrap();
            }
        }
    }

    #[test]
    fn detections_are_compared_not_only_empty_lists() {
        for len in [64 * 1024, side_of(600)] {
            let image = content(Shape::Faces, len, 3);
            assert!(!detect_bytewise(&image).is_empty(), "{len} bytes");
            assert_eq!(FaceDetect.detect(&image), detect_bytewise(&image));
        }
    }

    fn side_of(width: usize) -> usize {
        width * width + width / 2
    }

    #[test]
    fn long_runs_split_at_255_as_before() {
        // One flat megabyte-scale run: the pack emits 255-byte pairs across
        // many blocks, then the remainder.
        for len in [255 * 64, 255 * 64 + 1, 300_000] {
            let input = vec![9u8; len];
            assert_eq!(Transcode.convert(&input), convert_bytewise(&input), "{len}");
        }
    }

    /// A changed byte fails here by name, before any golden digest.
    #[test]
    fn kernel_outputs_on_a_fixed_window_are_pinned() {
        let window = content(Shape::FlatNoise, 64 * 1024, 7);
        let faces = content(Shape::Faces, 64 * 1024, 7);
        check(&window).unwrap();
        check(&faces).unwrap();
        let training = TrainingSet::from_examples([window.as_slice(), faces.as_slice()]);
        let pins = [
            fnv(&Transcode.run(&window).data),
            fnv(&FaceDetect.run(&faces).data),
            fnv(&bits(&feature_vector(&window))
                .map(u32::to_le_bytes)
                .concat()),
            fnv(FaceRecognize::new(training).run(&faces).summary.as_bytes()),
        ];
        assert_eq!(
            pins,
            [
                0x9454_eb80_94a9_cec7,
                0xd939_63bd_5869_11c9,
                0x7f79_d0c7_cbad_56f7,
                0x9975_170d_f5e5_42b9
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every tail length of a transform block, every shape.
        #[test]
        fn kernels_match_the_bytewise_loops_on_short_inputs(
            len in 0usize..300,
            shape in 0usize..4,
            seed in any::<u64>(),
        ) {
            check(&content(SHAPES[shape], len, seed))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The runtime's 64 KiB sample window and strided images.
        #[test]
        fn kernels_match_the_bytewise_loops_on_windows_and_strided_images(
            big in any::<bool>(),
            extra in 0usize..2_000,
            shape in 0usize..4,
            seed in any::<u64>(),
        ) {
            let len = if big { side_of(512) + extra * 150 } else { 64 * 1024 - 1_000 + extra };
            check(&content(SHAPES[shape], len, seed))?;
        }
    }
}
