//! Blocked GEMM and im2col kernels: the fast path behind [`KernelPolicy`].
//!
//! Every kernel here is a *drop-in* replacement for a naive reference
//! implementation elsewhere in the crate ([`crate::Matrix::matmul`],
//! [`crate::Conv2d::forward`]), engineered so the replacement is provable:
//! each output element accumulates its `k` terms **in the same ascending-k
//! order with a single `f32` accumulator** as the reference loop nest, with
//! no FMA contraction and no split accumulators. The only arithmetic
//! difference is that the reference paths skip terms whose multiplier is
//! exactly `0.0` (the `a == 0.0` fast-out in `matmul`, padding skips in
//! `Conv2d`), while the blocked paths add the resulting `±0.0` products.
//! Adding a signed zero never changes a finite accumulator except possibly
//! the *sign* of a zero sum, and `f32::eq` treats `-0.0 == 0.0` — so for
//! finite inputs the fast paths are `==`-equal to the reference, element by
//! element. The [`crate::golden`] harness and the crate's proptests pin
//! that contract down.
//!
//! What makes the blocked paths fast is not the arithmetic but the memory
//! traffic: the reference `ikj` matmul read-modify-writes the whole output
//! row once per `k`, while the `MR×NR` register tiles here touch each
//! output element exactly once. The tiles accumulate in [`crate::simd`]'s
//! explicit 8-lane vectors (one independent output element per lane — see
//! that module for why lanes cannot change results), and convolution is
//! lowered to the same microkernel through an im2col matrix laid out
//! k-major in the reference kernel's `(ic, ky, kx)` loop order.
//!
//! Every loop nest additionally parallelises over *output rows* via
//! [`crate::threads`]: the row range splits into contiguous bands, each
//! band running the same serial kernel on its disjoint output sub-slice.
//! Because per-element summation order is untouched by banding, outputs
//! are `==`-identical at any thread count.

use crate::dirty::DirtyRect;
use crate::error::{Result, TensorError};
use crate::matrix::Matrix;
use crate::pack::PackedWeights;
use crate::scratch::ScratchGuard;
use crate::simd::F32x8;
use crate::tensor3::FeatureMap;
use crate::threads;
use std::fmt;
use std::str::FromStr;

/// Which kernel implementation a layer dispatches to.
///
/// `Reference` is the naive loop nest kept as the correctness oracle;
/// `Blocked` is the register-blocked GEMM/im2col path. The two produce
/// `==`-identical outputs for finite inputs (see the module docs for the
/// signed-zero caveat), so the policy is a pure speed knob: it is
/// deliberately excluded from campaign fingerprints and seed derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelPolicy {
    /// Naive loop-nest kernels (the correctness oracle).
    Reference,
    /// im2col + register-blocked GEMM kernels.
    #[default]
    Blocked,
}

impl KernelPolicy {
    /// Both policies, reference first (golden harnesses iterate this).
    pub const ALL: [KernelPolicy; 2] = [KernelPolicy::Reference, KernelPolicy::Blocked];

    /// The wire/CLI name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            KernelPolicy::Reference => "reference",
            KernelPolicy::Blocked => "blocked",
        }
    }
}

impl fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for KernelPolicy {
    type Err = String;

    fn from_str(text: &str) -> std::result::Result<Self, String> {
        match text {
            "reference" => Ok(KernelPolicy::Reference),
            "blocked" => Ok(KernelPolicy::Blocked),
            other => Err(format!("unknown kernel policy {other:?} (use reference|blocked)")),
        }
    }
}

/// Rows per register tile of the microkernel.
const MR: usize = 4;
/// Columns per register tile of the microkernel (also the panel width of
/// [`crate::pack::PackedWeights`] and the lane width of [`crate::simd`]).
pub(crate) const NR: usize = 8;

// The microkernel's column tile is exactly one SIMD lane vector.
const _: () = assert!(NR == crate::simd::LANES);

/// `out[m×n] = row_init ⊕ a[m×kk] · b[kk×n]`, with `b` row-major
/// (contiguous along `n`). Each output element starts at `row_init(i)` and
/// accumulates its `kk` products in ascending-k order — the contract that
/// makes this bit-compatible with the naive kernels. Serial: the threaded
/// entry points band the row range and call this per band.
fn gemm_nn<I: Fn(usize) -> f32>(
    m: usize,
    kk: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    row_init: I,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(out.len(), m * n);
    let mut i0 = 0;
    while i0 + MR <= m {
        let mut j0 = 0;
        while j0 + NR <= n {
            let mut acc = [F32x8::splat(0.0); MR];
            for (mi, lanes) in acc.iter_mut().enumerate() {
                *lanes = F32x8::splat(row_init(i0 + mi));
            }
            for k in 0..kk {
                let b_row = F32x8::load(&b[k * n + j0..k * n + j0 + NR]);
                for (mi, lanes) in acc.iter_mut().enumerate() {
                    lanes.mul_add(a[(i0 + mi) * kk + k], b_row);
                }
            }
            for (mi, lanes) in acc.iter().enumerate() {
                lanes.store(&mut out[(i0 + mi) * n + j0..(i0 + mi) * n + j0 + NR]);
            }
            j0 += NR;
        }
        for j in j0..n {
            for mi in 0..MR {
                let i = i0 + mi;
                let mut acc = row_init(i);
                for k in 0..kk {
                    acc += a[i * kk + k] * b[k * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        i0 += MR;
    }
    for i in i0..m {
        let mut j0 = 0;
        while j0 + NR <= n {
            let mut acc = F32x8::splat(row_init(i));
            for k in 0..kk {
                acc.mul_add(a[i * kk + k], F32x8::load(&b[k * n + j0..k * n + j0 + NR]));
            }
            acc.store(&mut out[i * n + j0..i * n + j0 + NR]);
            j0 += NR;
        }
        for j in j0..n {
            let mut acc = row_init(i);
            for k in 0..kk {
                acc += a[i * kk + k] * b[k * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// [`gemm_nn`] with the output rows banded over the scoped worker pool.
/// Each band runs the serial kernel on its disjoint slice of `a`/`out`, so
/// the result is bit-identical at any thread count.
fn gemm_nn_threaded<I: Fn(usize) -> f32 + Sync>(
    m: usize,
    kk: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    row_init: I,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    threads::parallel_row_bands(out, n, m, m * kk * n, |row0, band| {
        let rows = band.len() / n;
        gemm_nn(rows, kk, n, &a[row0 * kk..(row0 + rows) * kk], b, |i| row_init(row0 + i), band);
    });
}

/// The NT microkernel over pre-transposed panels: `out[m×n] = a · bᵀ` where
/// `panels` holds `b`'s full `NR`-wide column tiles k-major (layout
/// `panel[k·NR + nj] = b[(j0+nj)·kk + k]`, tiles concatenated) and ragged
/// tail columns are read from `b`'s rows directly. Accumulation order per
/// output element is ascending k, as everywhere in this module. Serial:
/// callers band the row range.
fn gemm_nt_panels(
    m: usize,
    kk: usize,
    n: usize,
    a: &[f32],
    panels: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), n * kk);
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(panels.len(), (n / NR) * kk * NR);
    let span = kk * NR;
    let mut j0 = 0;
    let mut tile = 0;
    while j0 + NR <= n {
        let pack = &panels[tile * span..(tile + 1) * span];
        let mut i0 = 0;
        while i0 + MR <= m {
            let mut acc = [F32x8::splat(0.0); MR];
            for k in 0..kk {
                let b_row = F32x8::load(&pack[k * NR..k * NR + NR]);
                for (mi, lanes) in acc.iter_mut().enumerate() {
                    lanes.mul_add(a[(i0 + mi) * kk + k], b_row);
                }
            }
            for (mi, lanes) in acc.iter().enumerate() {
                lanes.store(&mut out[(i0 + mi) * n + j0..(i0 + mi) * n + j0 + NR]);
            }
            i0 += MR;
        }
        for i in i0..m {
            let mut acc = F32x8::splat(0.0);
            for k in 0..kk {
                acc.mul_add(a[i * kk + k], F32x8::load(&pack[k * NR..k * NR + NR]));
            }
            acc.store(&mut out[i * n + j0..i * n + j0 + NR]);
        }
        j0 += NR;
        tile += 1;
    }
    // Edge columns: each dot product reads two contiguous kk-length rows.
    for j in j0..n {
        for i in 0..m {
            let mut acc = 0.0f32;
            for k in 0..kk {
                acc += a[i * kk + k] * b[j * kk + k];
            }
            out[i * n + j] = acc;
        }
    }
}

/// [`gemm_nt_panels`] with the output rows banded over the worker pool.
fn gemm_nt_panels_threaded(
    m: usize,
    kk: usize,
    n: usize,
    a: &[f32],
    panels: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    threads::parallel_row_bands(out, n, m, m * kk * n, |row0, band| {
        let rows = band.len() / n;
        gemm_nt_panels(rows, kk, n, &a[row0 * kk..(row0 + rows) * kk], panels, b, band);
    });
}

/// `out[m×n] = a[m×kk] · b[n×kk]ᵀ`, with both operands row-major. All of
/// `b`'s full `NR`-wide column tiles are transpose-packed k-major **once on
/// the calling thread** (the pack buffer comes from the caller's scratch
/// arena — `q·kᵀ` runs this with a data-dependent `b` every iteration, and
/// pooling keeps that allocation-free at steady state), then the row range
/// fans out over the worker pool. Packing on the caller rather than per
/// worker band avoids duplicate transposes and keeps the scratch checkout
/// on the thread whose pool outlives the scoped workers.
fn gemm_nt(m: usize, kk: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), n * kk);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let tiles = n / NR;
    let span = kk * NR;
    // Every slot of the pack is overwritten by the fill loop below before
    // it is read.
    let mut pack: ScratchGuard<f32> = ScratchGuard::with_pooled_capacity(tiles * span);
    pack.resize(tiles * span, 0.0);
    for tile in 0..tiles {
        let j0 = tile * NR;
        let panel = &mut pack[tile * span..(tile + 1) * span];
        for k in 0..kk {
            for nj in 0..NR {
                panel[k * NR + nj] = b[(j0 + nj) * kk + k];
            }
        }
    }
    gemm_nt_panels_threaded(m, kk, n, a, &pack, b, out);
}

/// [`gemm_nt`] with the transpose-pack hoisted out: full `NR`-wide column
/// tiles read `packed`'s construction-time panels (identical layout and
/// values to the per-call pack), ragged tail columns read `b` directly —
/// exactly as the per-call kernel does. Same ascending-k single-accumulator
/// order, so the output is bit-identical to [`gemm_nt`].
pub(crate) fn gemm_nt_prepacked(
    m: usize,
    kk: usize,
    n: usize,
    a: &[f32],
    packed: &PackedWeights,
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), n * kk);
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(packed.rows(), n);
    debug_assert_eq!(packed.inner_dim(), kk);
    gemm_nt_panels_threaded(m, kk, n, a, packed.all_panels(), b, out);
}

/// Blocked matrix product `a · b` (the fast path of
/// [`crate::Matrix::matmul_policy`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.rows()`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_nn_threaded(
        a.rows(),
        a.cols(),
        b.cols(),
        a.as_slice(),
        b.as_slice(),
        |_| 0.0,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Blocked `a · bᵀ` without materialising the transpose — `==`-equal to
/// `a.matmul(&b.transpose())` for finite inputs. This is the shape the
/// linear layers (`y = x·Wᵀ`) and attention scores (`q·kᵀ`) need.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.cols()`.
pub fn matmul_nt_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.rows());
    gemm_nt(a.rows(), a.cols(), b.rows(), a.as_slice(), b.as_slice(), out.as_mut_slice());
    Ok(out)
}

/// Geometry of one convolution lowering (shared by im2col and col2im).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding in both directions.
    pub padding: usize,
}

/// Lowers the input cells feeding an output `window` into a k-major
/// im2col matrix of shape `(in_channels · kernel_h · kernel_w) × cells`.
///
/// Row `k = (ic·kernel_h + ky)·kernel_w + kx` matches the reference
/// kernel's `(ic, ky, kx)` loop order exactly, and window cells are laid
/// out row-major — so a GEMM over this matrix accumulates each output
/// cell's terms in the reference order. Padded coordinates contribute
/// explicit `0.0` entries. The `k` rows are independent gathers, so the
/// fill loop nest bands them over the worker pool; each row's values do
/// not depend on which band computes it.
pub fn im2col(input: &FeatureMap, geometry: ConvGeometry, window: &DirtyRect) -> Matrix {
    let ConvGeometry { kernel_h, kernel_w, stride, padding } = geometry;
    let (in_h, in_w) = (input.height(), input.width());
    let cells_w = window.x1.saturating_sub(window.x0);
    let cells = window.y1.saturating_sub(window.y0) * cells_w;
    let k_total = input.channels() * kernel_h * kernel_w;
    let mut cols = Matrix::zeros(k_total, cells);
    if cells == 0 || k_total == 0 {
        return cols;
    }
    let khw = kernel_h * kernel_w;
    threads::parallel_row_bands(
        cols.as_mut_slice(),
        cells,
        k_total,
        k_total * cells,
        |k0, band| {
            for (dk, row) in band.chunks_mut(cells).enumerate() {
                let k = k0 + dk;
                let (ic, ky, kx) = (k / khw, (k % khw) / kernel_w, k % kernel_w);
                let chan = input.channel(ic);
                for oy in window.y0..window.y1 {
                    let iy = oy * stride + ky;
                    let row_base = (oy - window.y0) * cells_w;
                    if iy < padding || iy >= in_h + padding {
                        continue; // the zeros(…) fill already encodes padding
                    }
                    let chan_base = (iy - padding) * in_w;
                    for ox in window.x0..window.x1 {
                        let ix = ox * stride + kx;
                        if ix < padding || ix >= in_w + padding {
                            continue;
                        }
                        row[row_base + (ox - window.x0)] = chan[chan_base + (ix - padding)];
                    }
                }
            }
        },
    );
    cols
}

/// GEMM with per-row initial values: `out[i][j] = bias[i] + Σₖ a[i][k]·b[k][j]`,
/// accumulated in ascending-k order. With `a` = flat conv weights
/// (`out_channels × kernel_volume`) and `b` = an [`im2col`] matrix this is
/// the whole convolution, bias included in the same position the reference
/// kernel adds it (as the accumulator's initial value).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.rows()`,
/// and [`TensorError::LengthMismatch`] unless `bias.len() == a.rows()`.
pub fn gemm_bias(a: &Matrix, b: &Matrix, bias: &[f32]) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_bias",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![b.rows(), b.cols()],
        });
    }
    if bias.len() != a.rows() {
        return Err(TensorError::LengthMismatch { expected: a.rows(), actual: bias.len() });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_nn_threaded(
        a.rows(),
        a.cols(),
        b.cols(),
        a.as_slice(),
        b.as_slice(),
        |i| bias[i],
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Crate-internal conv entry point: the [`gemm_bias`] product over the
/// flat weight buffer, skipping the per-forward `Matrix` wrapper
/// allocation. Shapes are debug-asserted, not validated — `Conv2d`
/// already guarantees them.
pub(crate) fn conv_scores(weights: &[f32], bias: &[f32], cols: &Matrix) -> Matrix {
    let m = bias.len();
    let kk = cols.rows();
    debug_assert_eq!(weights.len(), m * kk);
    let mut out = Matrix::zeros(m, cols.cols());
    gemm_nn_threaded(m, kk, cols.cols(), weights, cols.as_slice(), |i| bias[i], out.as_mut_slice());
    out
}

/// Scatters a `channels × cells` GEMM result back into the output
/// feature map's `window` (the inverse of the cell layout [`im2col`]
/// chose). `col2im` with a full-frame window rebuilds the whole map.
///
/// # Panics
///
/// Panics (via slice indexing) if `scores` does not have one row per
/// output channel and one column per window cell.
pub fn scatter_window(scores: &Matrix, out: &mut FeatureMap, window: &DirtyRect) {
    let cells_w = window.x1.saturating_sub(window.x0);
    let out_w = out.width();
    for oc in 0..out.channels() {
        let row = scores.row(oc);
        let chan = out.channel_mut(oc);
        for oy in window.y0..window.y1 {
            let base = (oy - window.y0) * cells_w;
            let src = &row[base..base + cells_w];
            chan[oy * out_w + window.x0..oy * out_w + window.x1].copy_from_slice(src);
        }
    }
}

/// Rebuilds a full `channels × out_h × out_w` feature map from a
/// `channels × (out_h·out_w)` GEMM result — the "col2im" leg of the
/// im2col → GEMM → col2im round trip.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `scores` has exactly
/// `out_h · out_w` columns.
pub fn col2im(scores: &Matrix, out_h: usize, out_w: usize) -> Result<FeatureMap> {
    if scores.cols() != out_h * out_w {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: vec![scores.rows(), scores.cols()],
            rhs: vec![out_h, out_w],
        });
    }
    let mut out = FeatureMap::zeros(scores.rows(), out_h, out_w);
    let window = DirtyRect::full(out_w, out_h);
    scatter_window(scores, &mut out, &window);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads::set_threads;
    use crate::threads::test_support::THREAD_KNOB;

    fn noisy(rows: usize, cols: usize, phase: f32) -> Matrix {
        let data = (0..rows * cols).map(|i| ((i as f32) * 0.37 + phase).sin() * 3.0).collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in KernelPolicy::ALL {
            assert_eq!(policy.name().parse::<KernelPolicy>().unwrap(), policy);
            assert_eq!(policy.to_string(), policy.name());
        }
        assert_eq!(KernelPolicy::default(), KernelPolicy::Blocked);
        let err = "fast".parse::<KernelPolicy>().unwrap_err();
        assert!(err.contains("unknown kernel policy"), "{err}");
    }

    #[test]
    fn blocked_matmul_matches_reference_across_edge_shapes() {
        // Shapes straddling the MR×NR tile boundaries in every direction.
        for (m, kk, n) in
            [(1, 1, 1), (4, 3, 8), (5, 7, 9), (8, 2, 16), (3, 24, 7), (13, 5, 11), (16, 16, 16)]
        {
            let a = noisy(m, kk, 0.1);
            let b = noisy(kk, n, 1.9);
            assert_eq!(
                matmul_blocked(&a, &b).unwrap(),
                a.matmul(&b).unwrap(),
                "shape ({m},{kk},{n})"
            );
        }
    }

    #[test]
    fn blocked_matmul_matches_reference_with_zero_entries() {
        // The reference kernel skips a == 0.0; the blocked kernel must
        // still agree (adding ±0.0 terms cannot change a finite sum).
        let mut a = noisy(6, 9, 0.4);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
            if i % 7 == 0 {
                *v = -0.0;
            }
        }
        let b = noisy(9, 10, 2.2);
        assert_eq!(matmul_blocked(&a, &b).unwrap(), a.matmul(&b).unwrap());
    }

    #[test]
    fn blocked_nt_matches_explicit_transpose() {
        for (m, kk, n) in [(1, 1, 1), (5, 6, 9), (12, 24, 12), (3, 2, 17)] {
            let a = noisy(m, kk, 0.7);
            let b = noisy(n, kk, 1.3);
            assert_eq!(
                matmul_nt_blocked(&a, &b).unwrap(),
                a.matmul(&b.transpose()).unwrap(),
                "shape ({m},{kk},{n})"
            );
        }
    }

    #[test]
    fn threaded_kernels_match_single_threaded_bitwise() {
        // Shapes chosen to clear the MIN_PAR_WORK threshold and to leave
        // ragged tile tails in both m and n; thread counts that divide the
        // rows unevenly. Banding must never change a single bit.
        let _guard = THREAD_KNOB.lock().unwrap();
        set_threads(1);
        for (m, kk, n) in [(37, 40, 33), (64, 16, 64), (13, 128, 29)] {
            let a = noisy(m, kk, 0.2);
            let b = noisy(kk, n, 1.1);
            let bt = noisy(n, kk, 2.3);
            let serial_nn = matmul_blocked(&a, &b).unwrap();
            let serial_nt = matmul_nt_blocked(&a, &bt).unwrap();
            let packed = PackedWeights::pack(&bt);
            let serial_packed = crate::pack::matmul_nt_packed(&a, &bt, &packed).unwrap();
            for t in [2, 3, 4, 7] {
                set_threads(t);
                assert_eq!(matmul_blocked(&a, &b).unwrap(), serial_nn, "nn ({m},{kk},{n}) t={t}");
                assert_eq!(
                    matmul_nt_blocked(&a, &bt).unwrap(),
                    serial_nt,
                    "nt ({m},{kk},{n}) t={t}"
                );
                assert_eq!(
                    crate::pack::matmul_nt_packed(&a, &bt, &packed).unwrap(),
                    serial_packed,
                    "nt_packed ({m},{kk},{n}) t={t}"
                );
            }
            set_threads(1);
        }
        set_threads(0);
    }

    #[test]
    fn threaded_im2col_matches_single_threaded() {
        let _guard = THREAD_KNOB.lock().unwrap();
        let mut input = FeatureMap::zeros(3, 40, 48);
        for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32) * 0.173).sin() * 2.0;
        }
        let geometry = ConvGeometry { kernel_h: 3, kernel_w: 3, stride: 1, padding: 1 };
        let window = DirtyRect::full(48, 40);
        set_threads(1);
        let serial = im2col(&input, geometry, &window);
        for t in [2, 4, 5] {
            set_threads(t);
            assert_eq!(im2col(&input, geometry, &window), serial, "t={t}");
        }
        set_threads(0);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matmul_blocked(&a, &Matrix::zeros(4, 2)).is_err());
        assert!(matmul_nt_blocked(&a, &Matrix::zeros(4, 4)).is_err());
        assert!(gemm_bias(&a, &Matrix::zeros(4, 2), &[0.0; 2]).is_err());
        assert!(gemm_bias(&a, &Matrix::zeros(3, 2), &[0.0; 3]).is_err());
        assert!(col2im(&Matrix::zeros(2, 6), 2, 2).is_err());
    }

    #[test]
    fn gemm_bias_initialises_rows() {
        let a = Matrix::identity(3);
        let b = noisy(3, 5, 0.2);
        let out = gemm_bias(&a, &b, &[1.0, -2.0, 0.5]).unwrap();
        for j in 0..5 {
            assert_eq!(out.at(0, j), 1.0 + b.at(0, j));
            assert_eq!(out.at(1, j), -2.0 + b.at(1, j));
            assert_eq!(out.at(2, j), 0.5 + b.at(2, j));
        }
    }

    #[test]
    fn col2im_restores_cell_layout() {
        let mut map = FeatureMap::zeros(2, 3, 4);
        for (i, v) in map.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        let window = DirtyRect::full(4, 3);
        let geometry = ConvGeometry { kernel_h: 1, kernel_w: 1, stride: 1, padding: 0 };
        let cols = im2col(&map, geometry, &window);
        // With a 1×1 kernel the im2col matrix is the channel-major flat map.
        let rebuilt = col2im(&cols, 3, 4).unwrap();
        assert_eq!(rebuilt, map);
    }
}
