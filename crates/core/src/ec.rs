//! Systematic (k, m) erasure coding over GF(256).
//!
//! The adaptive placement plane converts cold, large objects from full
//! replication into k data stripes plus m parity stripes so that any k of
//! the k + m stripe holders can reconstruct the object. The code is a
//! classic systematic Reed–Solomon construction, hand-rolled to stay
//! dependency-free:
//!
//! * GF(256) arithmetic with the AES polynomial `x^8+x^4+x^3+x+1` (0x11b),
//!   via log/exp tables built at first use;
//! * an (k + m) × k Vandermonde matrix row-reduced so its top k rows are
//!   the identity — data stripes are verbatim slices of the object, and
//!   every k-row submatrix stays invertible (elementary column operations
//!   preserve the Vandermonde minor property);
//! * reconstruction by inverting the k × k matrix formed from any k
//!   surviving rows and re-multiplying.
//!
//! With m = 1 the single parity row degenerates to a plain XOR of the data
//! stripes (all coefficients 1), which the tests pin.
//!
//! Every byte a row operation touches goes through one multiply-accumulate,
//! [`mul_acc`] (`dst ^= c·src`): coefficient 0 skips, coefficient 1 — the
//! whole first parity row — is a plain XOR, any other coefficient looks
//! each byte up in its 256-entry product row.

use std::sync::OnceLock;

/// GF(256) log/exp tables for generator 3 under the 0x11b polynomial, and
/// the full product table built from them.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
    /// `products[c][x] = c·x`: row `c` is the whole multiply-by-`c` map.
    products: Box<[[u8; 256]; 256]>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        #[allow(clippy::needless_range_loop)] // i is both index and exponent
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            // Multiply by the generator 3 = x + 1: shift-and-add.
            x = (x << 1) ^ x;
            if x & 0x100 != 0 {
                x ^= 0x11b;
            }
        }
        // Duplicate the cycle so mul can skip the mod-255 reduction.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        let mut products: Box<[[u8; 256]; 256]> = vec![[0u8; 256]; 256]
            .into_boxed_slice()
            .try_into()
            .expect("256 rows");
        for (c, row) in products.iter_mut().enumerate().skip(1) {
            for (x, p) in row.iter_mut().enumerate().skip(1) {
                *p = exp[log[c] as usize + log[x] as usize];
            }
        }
        Tables { exp, log, products }
    })
}

/// `dst ^= c·src` over GF(256), byte by byte (`dst` and `src` of one
/// length): the one row operation encoding and decoding are built from.
fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    debug_assert_eq!(dst.len(), src.len());
    match c {
        0 => {}
        1 => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
        }
        _ => {
            let product = &tables().products[c as usize];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= product[s as usize];
            }
        }
    }
}

/// `Σ coefs[j]·rows[j]`: a fresh row of `len` bytes, one [`mul_acc`] pass
/// per coefficient.
fn combine<'a>(len: usize, coefs: &[u8], rows: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = vec![0u8; len];
    for (&c, row) in coefs.iter().zip(rows) {
        mul_acc(&mut out, row, c);
    }
    out
}

/// GF(256) multiplication.
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// GF(256) multiplicative inverse. Panics on zero.
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// A systematic (k, m) erasure code: rows `0..k` emit the data stripes
/// verbatim, rows `k..k+m` emit parity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErasureCode {
    k: usize,
    m: usize,
    /// The full (k + m) × k generator matrix, row-major. Top k rows are
    /// the identity.
    rows: Vec<Vec<u8>>,
}

impl ErasureCode {
    /// Builds the systematic code for `k` data and `m` parity stripes.
    ///
    /// # Panics
    ///
    /// Panics when `k` or `m` is zero or `k + m > 255` (GF(256) runs out
    /// of distinct evaluation points).
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1, "need at least one data stripe");
        assert!(m >= 1, "need at least one parity stripe");
        assert!(k + m <= 255, "k + m must fit in GF(256)");
        // Vandermonde rows: row i is [1, a_i, a_i^2, ...] with a_i = exp[i]
        // giving k+m distinct points, so every k×k minor is nonsingular.
        let t = tables();
        let mut v: Vec<Vec<u8>> = (0..k + m)
            .map(|i| {
                let a = t.exp[i]; // exp[0]=1, exp[1]=3, ... all distinct
                let mut row = Vec::with_capacity(k);
                let mut p = 1u8;
                for _ in 0..k {
                    row.push(p);
                    p = gf_mul(p, a);
                }
                row
            })
            .collect();
        // Column-reduce so the top k×k block becomes the identity. Column
        // operations multiply every minor by the same nonsingular factor,
        // so any-k-rows invertibility survives the reduction.
        for col in 0..k {
            // The top block of a Vandermonde matrix on distinct points is
            // nonsingular, so some column at or after `col` has a nonzero
            // entry in row `col`; swap it in (a column permutation only
            // relabels stripes and preserves every minor's rank).
            if v[col][col] == 0 {
                let alt = (col + 1..k)
                    .find(|&c| v[col][c] != 0)
                    .expect("top Vandermonde block is nonsingular");
                for row in v.iter_mut() {
                    row.swap(col, alt);
                }
            }
            let pivot = v[col][col];
            let inv = gf_inv(pivot);
            for row in v.iter_mut() {
                row[col] = gf_mul(row[col], inv);
            }
            for other in 0..k {
                if other == col {
                    continue;
                }
                let factor = v[col][other];
                if factor == 0 {
                    continue;
                }
                for row in v.iter_mut() {
                    let sub = gf_mul(row[col], factor);
                    row[other] ^= sub;
                }
            }
        }
        // Normalize so the first parity row is all ones (m = 1 is then a
        // plain XOR): scale column j by 1/v[k][j] — every entry of a
        // parity row is nonzero in an MDS systematic code, since a zero at
        // (k, j) would make rows {k} ∪ {0..k}∖{j} singular — then rescale
        // each data row to restore the identity block. Row scalings and
        // invertible column operations both preserve every k-row minor's
        // nonsingularity.
        for j in 0..k {
            let f = v[k][j];
            debug_assert!(f != 0, "MDS parity entries are nonzero");
            let inv = gf_inv(f);
            for row in v.iter_mut() {
                row[j] = gf_mul(row[j], inv);
            }
            for cell in v[j].iter_mut() {
                *cell = gf_mul(*cell, f);
            }
        }
        debug_assert!((0..k).all(|i| (0..k).all(|j| v[i][j] == u8::from(i == j))));
        debug_assert!(v[k].iter().all(|&c| c == 1));
        ErasureCode { k, m, rows: v }
    }

    /// Data stripe count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity stripe count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The stripe length for an object of `len` bytes: `ceil(len / k)`,
    /// never zero so empty objects still produce addressable stripes.
    pub fn stripe_len(&self, len: usize) -> usize {
        len.div_ceil(self.k).max(1)
    }

    /// Splits `data` into k zero-padded data stripes and appends m parity
    /// stripes; returns all k + m stripes in row order.
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let sl = self.stripe_len(data.len());
        let mut stripes: Vec<Vec<u8>> = Vec::with_capacity(self.k + self.m);
        for i in 0..self.k {
            let start = (i * sl).min(data.len());
            let end = ((i + 1) * sl).min(data.len());
            let mut s = Vec::with_capacity(sl);
            s.extend_from_slice(&data[start..end]);
            s.resize(sl, 0);
            stripes.push(s);
        }
        for coefs in &self.rows[self.k..] {
            let parity = combine(sl, coefs, stripes.iter().map(Vec::as_slice));
            stripes.push(parity);
        }
        stripes
    }

    /// Zero-pads `data` in place to `k` whole stripes and returns the
    /// stripe length: row `i < k` of [`ErasureCode::encode`] is then the
    /// `i`-th stripe-long slice, and [`ErasureCode::encode_row`] reads any
    /// row from it.
    pub fn pad(&self, data: &mut Vec<u8>) -> usize {
        let sl = self.stripe_len(data.len());
        data.resize(self.k * sl, 0);
        sl
    }

    /// Row `row` of [`ErasureCode::encode`] alone, into `out` (one stripe
    /// long), from data already [`ErasureCode::pad`]ded: a data row is a
    /// copy of its slice, a parity row one `mul_acc` pass per data row.
    pub fn encode_row(&self, padded: &[u8], row: usize, out: &mut [u8]) {
        let sl = out.len();
        debug_assert_eq!(padded.len(), self.k * sl);
        if row < self.k {
            out.copy_from_slice(&padded[row * sl..(row + 1) * sl]);
            return;
        }
        out.fill(0);
        for (&c, stripe) in self.rows[row].iter().zip(padded.chunks_exact(sl)) {
            mul_acc(out, stripe, c);
        }
    }

    /// Reconstructs the k data stripes from any k surviving `(row, bytes)`
    /// pairs. Stripes must share one length; rows must be distinct and
    /// `< k + m`.
    ///
    /// Returns `None` when fewer than k rows are supplied or the survivor
    /// matrix is malformed (duplicate rows).
    pub fn reconstruct_data<R: AsRef<[u8]>>(
        &self,
        survivors: &[(usize, R)],
    ) -> Option<Vec<Vec<u8>>> {
        let inv = self.decode_matrix(survivors)?;
        let picked = &survivors[..self.k];
        let sl = picked[0].1.as_ref().len();
        let rows = || picked.iter().map(|(_, s)| s.as_ref());
        Some(inv.iter().map(|coefs| combine(sl, coefs, rows())).collect())
    }

    /// Recomputes one lost stripe (data or parity row `row`) from any k
    /// surviving rows.
    ///
    /// Row `row` is `g · data` for its generator row `g`, and `data` is
    /// `inv · survivors`, so `g · inv` is folded into one coefficient per
    /// survivor first: `k` passes over the bytes, whatever the row.
    pub fn reconstruct_row<R: AsRef<[u8]>>(
        &self,
        row: usize,
        survivors: &[(usize, R)],
    ) -> Option<Vec<u8>> {
        let inv = self.decode_matrix(survivors)?;
        let picked = &survivors[..self.k];
        let g = &self.rows[row];
        let coefs: Vec<u8> = (0..self.k)
            .map(|j| (0..self.k).fold(0, |acc, i| acc ^ gf_mul(g[i], inv[i][j])))
            .collect();
        let rows = picked.iter().map(|(_, s)| s.as_ref());
        Some(combine(picked[0].1.as_ref().len(), &coefs, rows))
    }

    /// The inverse of the k × k generator submatrix of the first k
    /// survivors (the ones a decode reads): data row `i` is
    /// `Σ_j inv[i][j]·survivors[j]`. `None` when fewer than k rows are
    /// supplied, a row is out of range, the lengths differ, or a row
    /// repeats (the submatrix is then singular).
    fn decode_matrix<R: AsRef<[u8]>>(&self, survivors: &[(usize, R)]) -> Option<Vec<Vec<u8>>> {
        if survivors.len() < self.k {
            return None;
        }
        let picked = &survivors[..self.k];
        let sl = picked[0].1.as_ref().len();
        if picked
            .iter()
            .any(|(r, s)| *r >= self.k + self.m || s.as_ref().len() != sl)
        {
            return None;
        }
        // Gauss–Jordan on the k×k submatrix of generator rows.
        let mut mat: Vec<Vec<u8>> = picked.iter().map(|(r, _)| self.rows[*r].clone()).collect();
        let mut inv: Vec<Vec<u8>> = (0..self.k)
            .map(|i| (0..self.k).map(|j| u8::from(i == j)).collect())
            .collect();
        for col in 0..self.k {
            let pivot_row = (col..self.k).find(|&r| mat[r][col] != 0)?;
            mat.swap(col, pivot_row);
            inv.swap(col, pivot_row);
            let pinv = gf_inv(mat[col][col]);
            for j in 0..self.k {
                mat[col][j] = gf_mul(mat[col][j], pinv);
                inv[col][j] = gf_mul(inv[col][j], pinv);
            }
            for r in 0..self.k {
                if r == col || mat[r][col] == 0 {
                    continue;
                }
                let f = mat[r][col];
                for j in 0..self.k {
                    let a = gf_mul(f, mat[col][j]);
                    mat[r][j] ^= a;
                    let b = gf_mul(f, inv[col][j]);
                    inv[r][j] ^= b;
                }
            }
        }
        Some(inv)
    }

    /// Reassembles the original object of `len` bytes from its data
    /// stripes (inverse of [`ErasureCode::encode`]'s split).
    pub fn assemble(&self, data: &[Vec<u8>], len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for stripe in data {
            let take = stripe.len().min(len - out.len());
            out.extend_from_slice(&stripe[..take]);
            if out.len() == len {
                break;
            }
        }
        out.resize(len, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize) -> Vec<u8> {
        // Deterministic non-trivial bytes.
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    #[test]
    fn gf_field_axioms_hold() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Commutativity + associativity spot checks across the table.
        for a in [1u8, 2, 7, 0x53, 0xca, 255] {
            for b in [1u8, 3, 0x8e, 254] {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
                assert_eq!(gf_mul(gf_mul(a, b), 5), gf_mul(a, gf_mul(b, 5)));
            }
        }
    }

    #[test]
    fn systematic_rows_are_identity() {
        let ec = ErasureCode::new(4, 2);
        let data = payload(1000);
        let stripes = ec.encode(&data);
        assert_eq!(stripes.len(), 6);
        let sl = ec.stripe_len(data.len());
        for (i, s) in stripes[..4].iter().enumerate() {
            let start = i * sl;
            let end = ((i + 1) * sl).min(data.len());
            assert_eq!(&s[..end - start], &data[start..end], "data stripe {i}");
        }
    }

    #[test]
    fn single_parity_is_xor() {
        let ec = ErasureCode::new(3, 1);
        let data = payload(300);
        let stripes = ec.encode(&data);
        let xor: Vec<u8> = (0..stripes[0].len())
            .map(|i| stripes[0][i] ^ stripes[1][i] ^ stripes[2][i])
            .collect();
        assert_eq!(stripes[3], xor, "m=1 parity must degenerate to XOR");
    }

    #[test]
    fn any_k_rows_reconstruct() {
        let ec = ErasureCode::new(3, 2);
        let data = payload(997); // non-multiple of k: exercises padding
        let stripes = ec.encode(&data);
        // Every 3-subset of the 5 rows must decode to the original.
        for a in 0..5 {
            for b in a + 1..5 {
                for c in b + 1..5 {
                    let survivors: Vec<(usize, &[u8])> = [a, b, c]
                        .iter()
                        .map(|&r| (r, stripes[r].as_slice()))
                        .collect();
                    let decoded = ec.reconstruct_data(&survivors).unwrap();
                    assert_eq!(ec.assemble(&decoded, data.len()), data, "rows {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn lost_rows_are_recomputable() {
        let ec = ErasureCode::new(4, 3);
        let data = payload(2048);
        let stripes = ec.encode(&data);
        // Kill rows 1 (data) and 5 (parity); rebuild both from 4 survivors.
        let survivors: Vec<(usize, &[u8])> = [0, 2, 3, 6]
            .iter()
            .map(|&r| (r, stripes[r].as_slice()))
            .collect();
        assert_eq!(ec.reconstruct_row(1, &survivors).unwrap(), stripes[1]);
        assert_eq!(ec.reconstruct_row(5, &survivors).unwrap(), stripes[5]);
    }

    #[test]
    fn too_few_survivors_fail_cleanly() {
        let ec = ErasureCode::new(3, 2);
        let data = payload(100);
        let stripes = ec.encode(&data);
        let survivors: Vec<(usize, &[u8])> =
            vec![(0, stripes[0].as_slice()), (4, stripes[4].as_slice())];
        assert!(ec.reconstruct_data(&survivors).is_none());
        // Duplicate rows are rejected, not mis-decoded.
        let dupes: Vec<(usize, &[u8])> = vec![
            (0, stripes[0].as_slice()),
            (0, stripes[0].as_slice()),
            (1, stripes[1].as_slice()),
        ];
        assert!(ec.reconstruct_data(&dupes).is_none());
    }

    #[test]
    fn tiny_and_empty_objects_roundtrip() {
        let ec = ErasureCode::new(4, 2);
        for len in [0usize, 1, 3, 4, 5] {
            let data = payload(len);
            let stripes = ec.encode(&data);
            let survivors: Vec<(usize, &[u8])> =
                (2..6).map(|r| (r, stripes[r].as_slice())).collect();
            let decoded = ec.reconstruct_data(&survivors).unwrap();
            assert_eq!(ec.assemble(&decoded, len), data, "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one parity")]
    fn zero_parity_is_rejected() {
        ErasureCode::new(3, 0);
    }
}

/// [`mul_acc`] and the row operations built on it against the
/// byte-at-a-time `gf_mul` loops they replaced (CI runs these by name:
/// `kernel_oracle`).
#[cfg(test)]
mod kernel_oracle {
    use super::*;
    use crate::object::synth_bytes;
    use proptest::prelude::*;

    /// The pre-table inner loop, verbatim.
    fn mul_acc_bytewise(dst: &mut [u8], src: &[u8], coef: u8) {
        if coef == 0 {
            return;
        }
        for (p, &b) in dst.iter_mut().zip(src.iter()) {
            *p ^= gf_mul(coef, b);
        }
    }

    /// The pre-table encoder, verbatim.
    fn encode_bytewise(ec: &ErasureCode, data: &[u8]) -> Vec<Vec<u8>> {
        let sl = ec.stripe_len(data.len());
        let mut stripes: Vec<Vec<u8>> = (0..ec.k)
            .map(|i| {
                let start = (i * sl).min(data.len());
                let end = ((i + 1) * sl).min(data.len());
                let mut s = data[start..end].to_vec();
                s.resize(sl, 0);
                s
            })
            .collect();
        for row in ec.k..ec.k + ec.m {
            let mut parity = vec![0u8; sl];
            for (col, stripe) in stripes[..ec.k].iter().enumerate() {
                mul_acc_bytewise(&mut parity, stripe, ec.rows[row][col]);
            }
            stripes.push(parity);
        }
        stripes
    }

    /// Every `k`-subset of `0..n`, in lexicographic order.
    fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut pick: Vec<usize> = (0..k).collect();
        loop {
            out.push(pick.clone());
            let Some(i) = (0..k).rev().find(|&i| pick[i] < n - k + i) else {
                return out;
            };
            pick[i] += 1;
            for j in i + 1..k {
                pick[j] = pick[j - 1] + 1;
            }
        }
    }

    #[test]
    fn mul_acc_matches_gf_mul_for_every_coefficient() {
        // Every source byte value, at an odd length and offset so the
        // vectorised XOR's tail is covered too.
        let src: Vec<u8> = (0..=255u8).chain(0..=44).collect();
        let base = synth_bytes(3, src.len());
        for c in 0..=255u8 {
            let (mut got, mut want) = (base.clone(), base.clone());
            mul_acc(&mut got[1..], &src[1..], c);
            mul_acc_bytewise(&mut want[1..], &src[1..], c);
            assert!(got == want, "coefficient {c}");
        }
    }

    #[test]
    fn a_parity_row_of_seed_7_is_pinned() {
        // A changed byte fails here by name, before any golden digest.
        let stripes = ErasureCode::new(3, 2).encode(&synth_bytes(7, 64 * 1024));
        assert_eq!(
            c4h_kvstore::stripe_checksum(&stripes[4]),
            0xabab_2405_b6cc_db07
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn encode_and_every_k_subset_decode_match_the_bytewise_code(
            k in 1usize..=8,
            m in 1usize..=4,
            len in 0usize..300,
            seed in any::<u64>(),
        ) {
            prop_assume!(k + m <= 12);
            let ec = ErasureCode::new(k, m);
            let data = synth_bytes(seed, len);
            let stripes = ec.encode(&data);
            prop_assert!(stripes == encode_bytewise(&ec, &data));
            for rows in subsets(k + m, k) {
                let survivors: Vec<(usize, &[u8])> =
                    rows.iter().map(|&r| (r, stripes[r].as_slice())).collect();
                let decoded = ec.reconstruct_data(&survivors);
                prop_assert!(decoded.as_deref() == Some(&stripes[..k]), "rows {rows:?}");
                for lost in (0..k + m).filter(|r| !rows.contains(r)) {
                    let rebuilt = ec.reconstruct_row(lost, &survivors);
                    prop_assert!(rebuilt.as_ref() == Some(&stripes[lost]), "row {lost} from {rows:?}");
                }
            }
        }
    }
}
