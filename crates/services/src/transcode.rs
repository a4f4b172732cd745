//! The media-conversion service (x264 stand-in).
//!
//! "As a representative media conversion service, we use the x264 encoding
//! library" — the paper's Figure 8 workload "downgrades files from the
//! '.avi' video format to a mobile compatible '.mp4' format, using the x264
//! CPU-intensive library". The [`Transcode`] kernel reproduces the
//! computational shape: a blocked integer transform plus quantization and
//! run-length packing over the input bytes — CPU-bound, linear in input
//! size, output smaller than input.

use c4h_vmm::{ExecProfile, WorkUnits};

use crate::service::{mib_f64, MinRequirements, Service, ServiceDemand, ServiceId, ServiceOutput};

/// Stable id of the media-conversion service.
pub const TRANSCODE_ID: ServiceId = ServiceId(3);

/// Transform block size in bytes.
pub(crate) const BLOCK: usize = 64;

/// Quantization shift applied to transform coefficients.
pub(crate) const QUANT_SHIFT: u32 = 3;

/// Longest run one `(length, value)` pair can carry.
const MAX_RUN: usize = 255;

/// The media-conversion kernel and cost model.
#[derive(Debug, Clone, Default)]
pub struct Transcode;

impl Transcode {
    /// Creates the service.
    pub fn new() -> Self {
        Transcode
    }

    /// Applies the blocked transform + quantization + run-length packing.
    ///
    /// Each block's quantized coefficients are packed as soon as they are
    /// made, so the coefficient stream is never materialised; a run that
    /// crosses a block boundary carries over in [`Runs`].
    pub fn convert(&self, input: &[u8]) -> Vec<u8> {
        let mut runs = Runs {
            out: Vec::with_capacity(input.len() / 2),
            value: 0,
            len: 0,
        };
        let mut blocks = input.chunks_exact(BLOCK);
        for block in &mut blocks {
            let block = block.try_into().expect("chunks_exact yields whole blocks");
            runs.pack(&quantize(&haar(block)), BLOCK);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            runs.pack(&haar_partial(tail), tail.len());
        }
        runs.finish()
    }
}

/// Haar-style butterfly of one whole block: sums and differences of pairs,
/// which a real DCT-based encoder generalizes. The layout is the one the
/// level-by-level loop leaves: the block total at 0, then each level's
/// differences, coarsest first (level `k`'s at `[64 >> k, 128 >> k)`).
/// Integer sums are exact, so computing each level into its own fixed-size
/// array gives the same values as the in-place loop.
fn haar(block: &[u8; BLOCK]) -> [i16; BLOCK] {
    let mut out = [0i16; BLOCK];
    let wide = block.map(i16::from);
    let s = halve::<32>(&wide, &mut out[32..]);
    let s = halve::<16>(&s, &mut out[16..32]);
    let s = halve::<8>(&s, &mut out[8..16]);
    let s = halve::<4>(&s, &mut out[4..8]);
    let s = halve::<2>(&s, &mut out[2..4]);
    let s = halve::<1>(&s, &mut out[1..2]);
    out[0] = s[0];
    out
}

/// One butterfly level: the pair sums of `src` are returned, the pair
/// differences written to `diffs`.
fn halve<const H: usize>(src: &[i16], diffs: &mut [i16]) -> [i16; H] {
    let mut sums = [0i16; H];
    for ((s, d), pair) in sums.iter_mut().zip(diffs).zip(src.chunks_exact(2)) {
        *s = pair[0] + pair[1];
        *d = pair[0] - pair[1];
    }
    sums
}

/// The level-by-level butterfly of a partial tail block (shorter than
/// [`BLOCK`]), whose transform spans its length rounded up to a power of
/// two; positions past the chunk are left zero for [`Runs::pack`] to skip.
fn haar_partial(chunk: &[u8]) -> [u8; BLOCK] {
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
    quantize(&block)
}

/// Quantize: this is where the "downgrade" loses fidelity.
fn quantize(coeffs: &[i16; BLOCK]) -> [u8; BLOCK] {
    coeffs.map(|c| (c >> QUANT_SHIFT) as i8 as u8)
}

/// Bit `i` is set iff `c[i]` differs from the byte before it (`prev`
/// before `c[0]`): the run starts in one block, found eight bytes at a time.
/// XOR-ing each word with itself shifted up a byte leaves a non-zero byte
/// exactly where a run starts; `(d & 0x7f) + 0x7f | d` sets a byte's high
/// bit iff the byte is non-zero (no carry crosses bytes), and one multiply
/// gathers the eight high bits into the top byte.
fn run_starts(c: &[u8; BLOCK], prev: u8) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut starts = 0u64;
    let mut carry = u64::from(prev);
    for (k, word) in c.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        let diff = w ^ ((w << 8) | carry);
        let nonzero = (((diff & LOW7) + LOW7) | diff) & !LOW7;
        starts |= ((nonzero >> 7).wrapping_mul(GATHER) >> 56) << (8 * k);
        carry = w >> 56;
    }
    starts
}

/// The run-length packer: `(length, value)` pairs for the coefficient
/// stream, fed one block at a time. The open run — its value and the
/// length it has reached — carries across blocks.
struct Runs {
    out: Vec<u8>,
    value: u8,
    len: usize,
}

impl Runs {
    /// Packs the first `n` coefficients of `coeffs` (`1 ..= BLOCK`).
    ///
    /// The first run start closes the open run, which may be long; every
    /// later run starts and ends in this block, so it is shorter than a
    /// block and takes one pair with no split. Those pairs are staged on the
    /// stack and appended at once.
    fn pack(&mut self, coeffs: &[u8; BLOCK], n: usize) {
        if self.len == 0 {
            // The stream's first coefficient opens the first run.
            self.value = coeffs[0];
        }
        let mut starts = run_starts(coeffs, self.value) & (u64::MAX >> (BLOCK - n));
        if starts == 0 {
            self.len += n;
            return;
        }
        let mut from = starts.trailing_zeros() as usize;
        starts &= starts - 1;
        self.emit(self.len + from);
        let mut pairs = [0u8; 2 * BLOCK];
        let mut staged = 0;
        while starts != 0 {
            let at = starts.trailing_zeros() as usize;
            starts &= starts - 1;
            pairs[staged] = (at - from) as u8;
            pairs[staged + 1] = coeffs[from];
            staged += 2;
            from = at;
        }
        self.out.extend_from_slice(&pairs[..staged]);
        self.value = coeffs[from];
        self.len = n - from;
    }

    /// Writes a run of `len ≥ 1` of the open value, split into pairs of at
    /// most [`MAX_RUN`]: whole pairs of 255 first, then the remainder.
    fn emit(&mut self, mut len: usize) {
        while len > MAX_RUN {
            self.out.extend_from_slice(&[MAX_RUN as u8, self.value]);
            len -= MAX_RUN;
        }
        self.out.extend_from_slice(&[len as u8, self.value]);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.len > 0 {
            self.emit(self.len);
        }
        self.out
    }
}

impl Service for Transcode {
    fn id(&self) -> ServiceId {
        TRANSCODE_ID
    }

    fn name(&self) -> &str {
        "x264-convert"
    }

    fn demand(&self, input_bytes: u64) -> ServiceDemand {
        let mb = mib_f64(input_bytes);
        ServiceDemand {
            // x264 is CPU-intensive and roughly linear in content length.
            work: WorkUnits(2.6 * mb),
            exec: ExecProfile {
                parallel_fraction: 0.75,
                mem_required_mib: 48 + (0.25 * mb) as u64,
            },
            // Mobile downgrade: roughly 55 % of the source size.
            output_bytes: (input_bytes as f64 * 0.55) as u64,
        }
    }

    fn min_requirements(&self) -> MinRequirements {
        MinRequirements {
            min_mem_mib: 64,
            min_cpu_ghz: 1.0,
        }
    }

    fn run(&self, input: &[u8]) -> ServiceOutput {
        let data = self.convert(input);
        ServiceOutput {
            summary: format!("converted {} -> {} bytes", input.len(), data.len()),
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_shrinks_repetitive_content() {
        let t = Transcode::new();
        let input = vec![100u8; 64 * 1024];
        let out = t.convert(&input);
        assert!(
            out.len() < input.len() / 4,
            "repetitive video frames compress well: {} -> {}",
            input.len(),
            out.len()
        );
    }

    #[test]
    fn conversion_is_deterministic() {
        let t = Transcode::new();
        let input: Vec<u8> = (0..10_000u32).map(|i| (i * 37 % 251) as u8).collect();
        assert_eq!(t.convert(&input), t.convert(&input));
    }

    #[test]
    fn conversion_is_lossy_but_structured() {
        let t = Transcode::new();
        let a = t.convert(&vec![10u8; 4096]);
        let b = t.convert(&vec![200u8; 4096]);
        assert_ne!(a, b, "different content converts differently");
    }

    #[test]
    fn empty_and_partial_blocks_are_handled() {
        let t = Transcode::new();
        assert!(t.convert(&[]).is_empty());
        let out = t.convert(&[1, 2, 3]); // shorter than one block
        assert!(!out.is_empty());
    }

    #[test]
    fn work_scales_linearly() {
        let t = Transcode::new();
        let w1 = t.demand(10 << 20).work.raw();
        let w2 = t.demand(20 << 20).work.raw();
        assert!((w2 / w1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn run_reports_sizes() {
        let out = Transcode::new().run(&vec![5u8; 1000]);
        assert!(out.summary.contains("1000"));
        assert_eq!(Transcode::new().id(), TRANSCODE_ID);
    }
}
