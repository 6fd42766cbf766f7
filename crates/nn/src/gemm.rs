//! Shared blocked f32 GEMM kernels for the autograd graph.
//!
//! All orientations funnel into [`gemm_nt_with`], which computes
//! `C[m,n] = A[m,k] · Bt[n,k]ᵀ` — `bt` holds B already transposed, so every
//! dot product walks two contiguous rows. The kernel tiles columns in blocks
//! of [`COL_BLOCK`], keeps four accumulators live per tile (register
//! blocking), and parallelizes over contiguous row blocks with
//! [`ip_par::par_chunks_mut_with`].
//!
//! # Determinism
//!
//! Each output element is one dot product evaluated in ascending-`k` order by
//! exactly one task, so results are bit-identical for any thread count
//! (the `ip-par` contract). Unlike the naive kernels these replaced, there is
//! no `a == 0.0` skip: `0 · NaN` and `0 · ∞` propagate as IEEE 754 requires.
//!
//! The test-only `reference` module keeps straightforward scalar kernels
//! (also without the zero-skip) as the oracle the tests compare against.

use std::cell::Cell;

/// Column-tile width: four-accumulator inner blocks walk at most this many
/// output columns before moving to the next row, keeping the active `bt`
/// rows in cache.
const COL_BLOCK: usize = 64;

/// Output rows per parallel task chunk.
const ROW_BLOCK: usize = 64;

/// Per-thread GEMM work counters (see [`gemm_tally`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmTally {
    /// Number of GEMM kernel invocations on this thread.
    pub calls: u64,
    /// Floating-point operations issued (`2·m·k·n` per call).
    pub flops: u64,
}

thread_local! {
    static TALLY: Cell<GemmTally> = const { Cell::new(GemmTally { calls: 0, flops: 0 }) };
}

/// The calling thread's cumulative GEMM tally. Only advances while
/// observability is enabled (`IP_OBS`); trainers read it before and after a
/// shard to attribute kernel work to that shard's worker.
pub fn gemm_tally() -> GemmTally {
    TALLY.with(Cell::get)
}

#[inline]
fn tally_add(m: usize, k: usize, n: usize) {
    if ip_obs::enabled() {
        TALLY.with(|t| {
            let cur = t.get();
            t.set(GemmTally {
                calls: cur.calls + 1,
                flops: cur.flops + 2 * (m * k * n) as u64,
            });
        });
    }
}

/// Transposes `src` viewed as `[rows, cols]` into `dst` as `[cols, rows]`.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// `C[m,n] = A[m,k] · Bt[n,k]ᵀ` with `bt` given transposed. Overwrites all
/// of `out` (callers may pass recycled buffers with stale contents).
pub fn gemm_nt_with(
    threads: usize,
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k, "gemm_nt: A length");
    debug_assert_eq!(bt.len(), n * k, "gemm_nt: Bt length");
    debug_assert_eq!(out.len(), m * n, "gemm_nt: C length");
    tally_add(m, k, n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    ip_par::par_chunks_mut_with(threads, out, ROW_BLOCK * n, |blk, chunk| {
        gemm_nt_panel(a, bt, chunk, blk * ROW_BLOCK, k, n);
    });
}

/// One row-block panel: `chunk` covers rows `row0..row0 + chunk.len()/n`.
fn gemm_nt_panel(a: &[f32], bt: &[f32], chunk: &mut [f32], row0: usize, k: usize, n: usize) {
    let rows = chunk.len() / n;
    for j0 in (0..n).step_by(COL_BLOCK) {
        let j1 = (j0 + COL_BLOCK).min(n);
        for r in 0..rows {
            let arow = &a[(row0 + r) * k..(row0 + r + 1) * k];
            let orow = &mut chunk[r * n..(r + 1) * n];
            let mut j = j0;
            while j + 4 <= j1 {
                let b0 = &bt[j * k..(j + 1) * k];
                let b1 = &bt[(j + 1) * k..(j + 2) * k];
                let b2 = &bt[(j + 2) * k..(j + 3) * k];
                let b3 = &bt[(j + 3) * k..(j + 4) * k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (kk, &av) in arow.iter().enumerate() {
                    s0 += av * b0[kk];
                    s1 += av * b1[kk];
                    s2 += av * b2[kk];
                    s3 += av * b3[kk];
                }
                orow[j] = s0;
                orow[j + 1] = s1;
                orow[j + 2] = s2;
                orow[j + 3] = s3;
                j += 4;
            }
            while j < j1 {
                let brow = &bt[j * k..(j + 1) * k];
                orow[j] = dot(arow, brow);
                j += 1;
            }
        }
    }
}

#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0f32, |s, (&x, &y)| s + x * y)
}

/// `C[m,n] = A[m,k] · B[k,n]`; `scratch` is resized to hold Bᵀ.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_with(
    threads: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
    m: usize,
    k: usize,
    n: usize,
) {
    if scratch.len() != k * n {
        scratch.clear();
        scratch.resize(k * n, 0.0);
    }
    transpose_into(b, k, n, scratch);
    gemm_nt_with(threads, a, scratch, out, m, k, n);
}

/// `C[p,n] = A[m,p]ᵀ · B[m,n]`; `scratch` is resized to hold both
/// transposes (the dot then runs over contiguous length-`m` rows).
#[allow(clippy::many_single_char_names, clippy::too_many_arguments)]
pub fn gemm_tn_with(
    threads: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut Vec<f32>,
    m: usize,
    p: usize,
    n: usize,
) {
    if scratch.len() != p * m + n * m {
        scratch.clear();
        scratch.resize(p * m + n * m, 0.0);
    }
    let (at, btm) = scratch.split_at_mut(p * m);
    transpose_into(a, m, p, at);
    transpose_into(b, m, n, btm);
    gemm_nt_with(threads, at, btm, out, p, m, n);
}

/// Straightforward scalar kernels: the oracle for the blocked GEMMs and the
/// graph's im2col conv1d. These intentionally do **not** skip zero operands
/// — the original `matmul2` fast-path broke NaN/Inf propagation.
#[cfg(test)]
mod reference {
    /// `A[m,k] · B[k,n]`.
    pub fn matmul_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        out
    }

    /// `A[m,k] · B[n,k]ᵀ`.
    pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// `A[m,k]ᵀ · B[m,n] → [k,n]`.
    pub fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; k * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[kk * n + j] += av * b[i * n + j];
                }
            }
        }
        out
    }

    /// Direct 5-loop conv1d forward: input `[b,cin,l]`, weight
    /// `[cout,cin,k]` → `[b,cout,lout]`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d(
        x: &[f32],
        w: &[f32],
        b: usize,
        cin: usize,
        l: usize,
        cout: usize,
        k: usize,
        padding: usize,
        stride: usize,
        lout: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; b * cout * lout];
        for bi in 0..b {
            for co in 0..cout {
                for t in 0..lout {
                    let mut acc = 0.0;
                    for ci in 0..cin {
                        for kk in 0..k {
                            let pos = t * stride + kk;
                            if pos < padding || pos - padding >= l {
                                continue;
                            }
                            acc += x[(bi * cin + ci) * l + (pos - padding)]
                                * w[(co * cin + ci) * k + kk];
                        }
                    }
                    out[(bi * cout + co) * lout + t] = acc;
                }
            }
        }
        out
    }

    /// Direct conv1d backward: returns `(d_input, d_weight)`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d_backward(
        x: &[f32],
        w: &[f32],
        gout: &[f32],
        b: usize,
        cin: usize,
        l: usize,
        cout: usize,
        k: usize,
        padding: usize,
        stride: usize,
        lout: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut din = vec![0.0f32; b * cin * l];
        let mut dw = vec![0.0f32; cout * cin * k];
        for bi in 0..b {
            for co in 0..cout {
                for t in 0..lout {
                    let g = gout[(bi * cout + co) * lout + t];
                    for ci in 0..cin {
                        for kk in 0..k {
                            let pos = t * stride + kk;
                            if pos < padding || pos - padding >= l {
                                continue;
                            }
                            let ipos = pos - padding;
                            din[(bi * cin + ci) * l + ipos] += g * w[(co * cin + ci) * k + kk];
                            dw[(co * cin + ci) * k + kk] += g * x[(bi * cin + ci) * l + ipos];
                        }
                    }
                }
            }
        }
        (din, dw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no RNG dependency needed here).
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn nt_matches_known_product() {
        // A[2,3] · B[3,2] with B handed over transposed as [2,3].
        let a = [1., 2., 3., 4., 5., 6.];
        let bt = [7., 9., 11., 8., 10., 12.];
        let mut out = vec![0.0; 4];
        gemm_nt_with(1, &a, &bt, &mut out, 2, 3, 2);
        assert_eq!(out, [58., 64., 139., 154.]);
    }

    #[test]
    fn nt_matches_reference_for_awkward_sizes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (65, 7, 66),
            (17, 130, 5),
            (128, 33, 64),
        ] {
            let a = fill(m * k, 1);
            let b = fill(n * k, 2);
            let want = reference::matmul_nt(&a, &b, m, k, n);
            let mut got = vec![f32::NAN; m * n]; // stale contents must be overwritten
            gemm_nt_with(1, &a, &b, &mut got, m, k, n);
            for (x, y) in got.iter().zip(&want) {
                assert!(
                    (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                    "{m}x{k}x{n}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn nn_and_tn_match_reference() {
        let (m, k, n) = (19, 23, 31);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let mut scratch = Vec::new();
        let mut got = vec![0.0; m * n];
        gemm_nn_with(2, &a, &b, &mut got, &mut scratch, m, k, n);
        let want = reference::matmul_nn(&a, &b, m, k, n);
        for (x, y) in got.iter().zip(&want) {
            assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0));
        }

        let a2 = fill(m * k, 5); // viewed as [m,k]: C = A2ᵀ·B2 is [k, n]
        let b2 = fill(m * n, 6);
        let mut got_tn = vec![0.0; k * n];
        gemm_tn_with(2, &a2, &b2, &mut got_tn, &mut scratch, m, k, n);
        let want_tn = reference::matmul_tn(&a2, &b2, m, k, n);
        for (x, y) in got_tn.iter().zip(&want_tn) {
            assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0));
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let (m, k, n) = (150, 37, 90);
        let a = fill(m * k, 7);
        let b = fill(n * k, 8);
        let mut serial = vec![0.0; m * n];
        gemm_nt_with(1, &a, &b, &mut serial, m, k, n);
        for threads in [2, 3, 4, 8] {
            let mut par = vec![0.0; m * n];
            gemm_nt_with(threads, &a, &b, &mut par, m, k, n);
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn zero_times_nan_propagates() {
        // Regression: the old kernels skipped rows where a == 0.0, so
        // 0 · NaN silently produced 0 instead of NaN.
        let a = [0.0f32, 0.0];
        let bt = [f32::NAN, 1.0, f32::INFINITY, 2.0]; // Bt[2,2]
        let mut out = vec![0.0; 2];
        gemm_nt_with(1, &a, &bt, &mut out, 1, 2, 2);
        assert!(out[0].is_nan(), "0·NaN must stay NaN, got {}", out[0]);
        assert!(out[1].is_nan(), "0·∞ must be NaN, got {}", out[1]);
        // Reference kernels propagate identically.
        let r = reference::matmul_nt(&a, &bt, 1, 2, 2);
        assert!(r[0].is_nan() && r[1].is_nan());
        let r = reference::matmul_nn(&[0.0f32], &[f32::NAN], 1, 1, 1);
        assert!(r[0].is_nan());
        let r = reference::matmul_tn(&[0.0f32], &[f32::NAN], 1, 1, 1);
        assert!(r[0].is_nan());
    }

    #[test]
    fn transpose_roundtrip() {
        let src = fill(6 * 4, 9);
        let mut t = vec![0.0; 24];
        let mut back = vec![0.0; 24];
        transpose_into(&src, 6, 4, &mut t);
        transpose_into(&t, 4, 6, &mut back);
        assert_eq!(src, back);
    }

    #[test]
    fn k_zero_yields_zero_matrix() {
        let mut out = vec![f32::NAN; 6];
        gemm_nt_with(4, &[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn reference_conv_matches_hand_values() {
        // Moving-sum kernel [1,1] over [1,2,3,4].
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let w = [1.0f32, 1.0];
        assert_eq!(
            reference::conv1d(&x, &w, 1, 1, 4, 1, 2, 0, 1, 3),
            [3., 5., 7.]
        );
        assert_eq!(
            reference::conv1d(&x, &w, 1, 1, 4, 1, 2, 1, 1, 5),
            [1., 3., 5., 7., 4.]
        );
        assert_eq!(reference::conv1d(&x, &w, 1, 1, 4, 1, 2, 0, 2, 2), [3., 7.]);
    }

    /// The graph's im2col + GEMM conv1d, forward and backward, agrees with
    /// the direct loops on multi-channel, padded and strided shapes.
    #[test]
    fn graph_conv1d_matches_reference_both_directions() {
        use crate::graph::Graph;
        use crate::tensor::Tensor;
        let close = |got: &[f32], want: &[f32], what: &str| {
            assert_eq!(got.len(), want.len(), "{what}: length");
            for (x, y) in got.iter().zip(want) {
                assert!(
                    (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                    "{what}: {x} vs {y}"
                );
            }
        };
        for &(b, cin, l, cout, k, padding, stride) in &[
            (1, 1, 4, 1, 2, 0, 1),
            (2, 3, 11, 4, 3, 1, 1),
            (3, 2, 17, 5, 4, 2, 3),
            (2, 4, 9, 3, 9, 0, 1),
        ] {
            let lout = (l + 2 * padding - k) / stride + 1;
            let x = fill(b * cin * l, 10);
            let w = fill(cout * cin * k, 11);
            let gout = fill(b * cout * lout, 12);
            let mut g = Graph::new(0);
            let xp = g.param(Tensor::new(&[b, cin, l], x.clone()).unwrap());
            let wp = g.param(Tensor::new(&[cout, cin, k], w.clone()).unwrap());
            g.freeze();
            let y = g.conv1d(xp, wp, padding, stride);
            let shape = format!("{b}x{cin}x{l} * {cout}x{cin}x{k} p{padding} s{stride}");
            let want_y = reference::conv1d(&x, &w, b, cin, l, cout, k, padding, stride, lout);
            close(g.value(y).data(), &want_y, &format!("forward {shape}"));
            // loss = Σ y ⊙ G, so dL/dy = G.
            let gc = g.constant(Tensor::new(&[b, cout, lout], gout.clone()).unwrap());
            let prod = g.mul(y, gc);
            let loss = g.sum(prod);
            g.backward(loss);
            let (want_dx, want_dw) = reference::conv1d_backward(
                &x, &w, &gout, b, cin, l, cout, k, padding, stride, lout,
            );
            close(
                g.grad(xp).unwrap().data(),
                &want_dx,
                &format!("d_input {shape}"),
            );
            close(
                g.grad(wp).unwrap().data(),
                &want_dw,
                &format!("d_weight {shape}"),
            );
        }
    }
}
