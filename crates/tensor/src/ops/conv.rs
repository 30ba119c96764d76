//! 2-D convolution: a direct forward pass and the exact backward pass (input,
//! weight and bias gradients).
//!
//! Tensors use NCHW layout. Weights are `[out_channels, in_channels, kh, kw]`.
//!
//! The forward pass is a direct convolution over a zero-padded copy of each
//! input image. Every output starts at `0.0`, receives its taps in
//! `(c, kh, kw)` order — padding taps included, as zeros — and then its bias,
//! so its bits match the `im2col` + [`matmul_a_bt`](crate::ops::matmul_a_bt)
//! formulation exactly while never materializing the patch matrix.
//!
//! The backward pass still uses `im2col` (each receptive field as a row) and
//! matrix products: dW is a reduction over pixels whose summation order a
//! direct rewrite would change.

use crate::ops::matmul::{matmul, matmul_at_b};
use crate::{Result, Shape, Tensor, TensorError};
use adv_profile::{KernelKind, KernelScope, Work};
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D convolution.
///
/// # Example
///
/// ```
/// use adv_tensor::ops::Conv2dSpec;
///
/// // A 3×3 "same" convolution on 28×28 inputs.
/// let spec = Conv2dSpec::same(1, 8, 3);
/// assert_eq!(spec.output_hw(28, 28), (28, 28));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Zero padding along both axes.
    pub padding: usize,
}

impl Conv2dSpec {
    /// A stride-1 convolution with a square `k × k` kernel and the padding
    /// that preserves spatial size for odd `k` ("same" padding).
    pub fn same(in_channels: usize, out_channels: usize, k: usize) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kh: k,
            kw: k,
            stride: 1,
            padding: k / 2,
        }
    }

    /// A convolution with no padding ("valid").
    pub fn valid(in_channels: usize, out_channels: usize, k: usize, stride: usize) -> Self {
        Conv2dSpec {
            in_channels,
            out_channels,
            kh: k,
            kw: k,
            stride,
            padding: 0,
        }
    }

    /// Output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ho = (h + 2 * self.padding - self.kh) / self.stride + 1;
        let wo = (w + 2 * self.padding - self.kw) / self.stride + 1;
        (ho, wo)
    }

    /// Number of elements in one receptive-field row (`c · kh · kw`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kh * self.kw
    }

    fn validate_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        if input.shape().rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: input.shape().rank(),
            });
        }
        let dims = input.shape().dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        if c != self.in_channels {
            return Err(TensorError::InvalidArgument(format!(
                "input has {c} channels, spec expects {}",
                self.in_channels
            )));
        }
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be > 0".into()));
        }
        if h + 2 * self.padding < self.kh || w + 2 * self.padding < self.kw {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kh,
                self.kw,
                h + 2 * self.padding,
                w + 2 * self.padding
            )));
        }
        let _ = n;
        Ok((n, h, w))
    }
}

/// Unfolds an NCHW batch into receptive-field rows.
///
/// The output is `[n·ho·wo, c·kh·kw]`, rows ordered by `(n, oh, ow)` and
/// columns by `(c, kh, kw)`; out-of-bounds (padding) taps contribute zeros.
///
/// # Errors
///
/// Propagates the validation errors of [`Conv2dSpec`] (rank, channel count,
/// zero stride, kernel larger than padded input).
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (n, h, w) = spec.validate_input(input)?;
    let (ho, wo) = spec.output_hw(h, w);
    let c = spec.in_channels;
    let patch = spec.patch_len();
    let _prof = KernelScope::enter(KernelKind::Im2col, || Work::copy(n * ho * wo * patch));
    let x = input.as_slice();
    let mut cols = vec![0.0f32; n * ho * wo * patch];
    let pad = spec.padding as isize;
    let stride = spec.stride;

    for b in 0..n {
        let xb = &x[b * c * h * w..(b + 1) * c * h * w];
        for oh in 0..ho {
            for ow in 0..wo {
                let row = ((b * ho + oh) * wo + ow) * patch;
                let ih0 = (oh * stride) as isize - pad;
                let iw0 = (ow * stride) as isize - pad;
                let mut col = row;
                for ch in 0..c {
                    let xc = &xb[ch * h * w..(ch + 1) * h * w];
                    for dy in 0..spec.kh {
                        let iy = ih0 + dy as isize;
                        if iy >= 0 && (iy as usize) < h {
                            let xrow = &xc[iy as usize * w..(iy as usize + 1) * w];
                            for dx in 0..spec.kw {
                                let ix = iw0 + dx as isize;
                                if ix >= 0 && (ix as usize) < w {
                                    cols[col] = xrow[ix as usize];
                                }
                                col += 1;
                            }
                        } else {
                            col += spec.kw;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(cols, Shape::matrix(n * ho * wo, patch))
}

/// Folds receptive-field rows back into an NCHW batch, *summing* overlapping
/// contributions — the adjoint of [`im2col`], used for input gradients.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `cols` does not have the
/// `[n·ho·wo, c·kh·kw]` shape implied by `spec` and the output geometry.
pub fn col2im(cols: &Tensor, n: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Result<Tensor> {
    let (ho, wo) = spec.output_hw(h, w);
    let c = spec.in_channels;
    let patch = spec.patch_len();
    let expected = Shape::matrix(n * ho * wo, patch);
    if cols.shape() != &expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.dims().to_vec(),
            right: cols.shape().dims().to_vec(),
        });
    }
    let _prof = KernelScope::enter(KernelKind::Col2im, || {
        Work::custom(
            (n * c * h * w) as u64,
            (n * ho * wo * patch) as u64,
            (8 * n * ho * wo * patch) as u64,
        )
    });
    let cv = cols.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    let pad = spec.padding as isize;
    let stride = spec.stride;

    for b in 0..n {
        let ob = &mut out[b * c * h * w..(b + 1) * c * h * w];
        for oh in 0..ho {
            for ow in 0..wo {
                let row = ((b * ho + oh) * wo + ow) * patch;
                let ih0 = (oh * stride) as isize - pad;
                let iw0 = (ow * stride) as isize - pad;
                let mut col = row;
                for ch in 0..c {
                    let base = ch * h * w;
                    for dy in 0..spec.kh {
                        let iy = ih0 + dy as isize;
                        if iy >= 0 && (iy as usize) < h {
                            for dx in 0..spec.kw {
                                let ix = iw0 + dx as isize;
                                if ix >= 0 && (ix as usize) < w {
                                    ob[base + iy as usize * w + ix as usize] += cv[col];
                                }
                                col += 1;
                            }
                        } else {
                            col += spec.kw;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, Shape::nchw(n, c, h, w))
}

fn check_weight(weight: &Tensor, spec: &Conv2dSpec) -> Result<()> {
    let expected = Shape::new(vec![spec.out_channels, spec.in_channels, spec.kh, spec.kw]);
    if weight.shape() != &expected {
        return Err(TensorError::ShapeMismatch {
            left: expected.dims().to_vec(),
            right: weight.shape().dims().to_vec(),
        });
    }
    Ok(())
}

/// Forward 2-D convolution: `y = x ⊛ weight + bias`.
///
/// `input` is `[n, c, h, w]`, `weight` is `[oc, c, kh, kw]`, `bias` is `[oc]`,
/// and the result is `[n, oc, ho, wo]`. Bit-identical to [`im2col`] followed
/// by [`matmul_a_bt`](crate::ops::matmul_a_bt) against the flattened weights
/// and a per-channel bias add.
///
/// # Errors
///
/// Returns shape/validation errors when the operands disagree with `spec`.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    check_weight(weight, spec)?;
    if bias.shape() != &Shape::vector(spec.out_channels) {
        return Err(TensorError::ShapeMismatch {
            left: vec![spec.out_channels],
            right: bias.shape().dims().to_vec(),
        });
    }
    let (n, h, w) = spec.validate_input(input)?;
    let (ho, wo) = spec.output_hw(h, w);
    let (c, oc, s) = (spec.in_channels, spec.out_channels, spec.stride);
    let (hp, wp) = (h + 2 * spec.padding, w + 2 * spec.padding);
    let x = input.as_slice();
    let bv = bias.as_slice();
    let taps = spec.patch_len();
    let mut y = vec![0.0f32; n * oc * ho * wo];
    if y.is_empty() || x.is_empty() || taps == 0 {
        // A zero-sized dimension somewhere: no tap reaches any output, so
        // each one (if there are any) is the empty sum `0 + bias`.
        for (yo, &bias) in y.chunks_exact_mut(ho * wo).zip(bv.iter().cycle()) {
            yo.fill(0.0 + bias);
        }
        return Tensor::from_vec(y, Shape::nchw(n, oc, ho, wo));
    }
    // Sums are taken at every stride-1 position of the padded grid
    // (`i = row·wp + col`), so each tap reads a shifted contiguous slice of
    // the padded image; a strided conv keeps every `s`-th row and column.
    let mut padded = vec![0.0f32; c * hp * wp];
    let mut acc = vec![0.0f32; (hp - spec.kh) * wp + (wp - spec.kw) + 1];
    let _prof = KernelScope::enter(KernelKind::Conv2d, || {
        let outputs = (n * oc * ho * wo) as u64;
        Work::custom(
            outputs,
            2 * outputs * taps as u64,
            4 * (x.len() + weight.len() + oc) as u64 + 4 * outputs,
        )
    });
    for (xb, yb) in x
        .chunks_exact(c * h * w)
        .zip(y.chunks_exact_mut(oc * ho * wo))
    {
        pad_image(xb, &mut padded, h, w, spec.padding);
        for ((yo, wk), &bias) in yb
            .chunks_exact_mut(ho * wo)
            .zip(weight.as_slice().chunks_exact(taps))
            .zip(bv)
        {
            acc.fill(0.0);
            for (xc, wc) in padded
                .chunks_exact(hp * wp)
                .zip(wk.chunks_exact(spec.kh * spec.kw))
            {
                if spec.kh == 3 && spec.kw == 3 {
                    taps_3x3(&mut acc, xc, wp, wc);
                } else {
                    taps_shifted(&mut acc, xc, wp, spec.kw, wc);
                }
            }
            for (yrow, arow) in yo.chunks_exact_mut(wo).zip(acc.chunks(s * wp)) {
                if s == 1 {
                    for (v, &a) in yrow.iter_mut().zip(arow) {
                        *v = a + bias;
                    }
                } else {
                    for (v, &a) in yrow.iter_mut().zip(arow.iter().step_by(s)) {
                        *v = a + bias;
                    }
                }
            }
        }
    }
    Tensor::from_vec(y, Shape::nchw(n, oc, ho, wo))
}

/// Copies one `[c, h, w]` image into the interior of `padded`
/// (`[c, h + 2p, w + 2p]`), whose border stays zero across calls.
fn pad_image(xb: &[f32], padded: &mut [f32], h: usize, w: usize, p: usize) {
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    for (xc, pc) in xb.chunks_exact(h * w).zip(padded.chunks_exact_mut(hp * wp)) {
        for (src, dst) in xc.chunks_exact(w).zip(pc[p * wp..].chunks_exact_mut(wp)) {
            dst[p..p + w].copy_from_slice(src);
        }
    }
}

/// 3×3 taps of one padded input channel `xc` (row pitch `wp`):
/// `acc[i] += Σ xc[i + dy·wp + dx] · wk[dy·3 + dx]`, the nine products
/// added in `(dy, dx)` order in one pass.
///
/// The loop vectorizes across grid positions without changing any one
/// position's summation order.
fn taps_3x3(acc: &mut [f32], xc: &[f32], wp: usize, wk: &[f32]) {
    let span = acc.len() + 2;
    let rows = [&xc[..span], &xc[wp..wp + span], &xc[2 * wp..2 * wp + span]];
    let [w0, w1, w2, w3, w4, w5, w6, w7, w8] = [
        wk[0], wk[1], wk[2], wk[3], wk[4], wk[5], wk[6], wk[7], wk[8],
    ];
    for (((a, r0), r1), r2) in acc
        .iter_mut()
        .zip(rows[0].windows(3))
        .zip(rows[1].windows(3))
        .zip(rows[2].windows(3))
    {
        *a = *a
            + r0[0] * w0
            + r0[1] * w1
            + r0[2] * w2
            + r1[0] * w3
            + r1[1] * w4
            + r1[2] * w5
            + r2[0] * w6
            + r2[1] * w7
            + r2[2] * w8;
    }
}

/// Any-size taps of one padded input channel, one `(dy, dx)` pass at a
/// time so each position still sums in `(dy, dx)` order.
fn taps_shifted(acc: &mut [f32], xc: &[f32], wp: usize, kw: usize, wk: &[f32]) {
    let len = acc.len();
    for (t, &wt) in wk.iter().enumerate() {
        let off = (t / kw) * wp + t % kw;
        for (a, &xv) in acc.iter_mut().zip(&xc[off..off + len]) {
            *a += xv * wt;
        }
    }
}

/// Backward 2-D convolution.
///
/// Given the upstream gradient `dy = ∂L/∂y` (`[n, oc, ho, wo]`), recomputes
/// `im2col(input)` and returns `(dx, dweight, dbias)` with the shapes of
/// `input`, `weight` and the bias vector respectively.
///
/// # Errors
///
/// Returns shape/validation errors when the operands disagree with `spec`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, h, w) = check_backward(input, weight, dy, spec)?;
    let (ho, wo) = spec.output_hw(h, w);
    let _prof = KernelScope::enter(KernelKind::Conv2dBackward, || {
        Work::map(n * spec.out_channels * ho * wo)
    });
    let oc = spec.out_channels;
    let dyrows = dy_rows(dy, n, oc, ho * wo)?;

    let cols = im2col(input, spec)?;
    // dW = dyrowsᵀ · cols → [oc, patch]
    let dw = matmul_at_b(&dyrows, &cols)?;
    let dw = dw.into_reshaped(Shape::new(vec![oc, spec.in_channels, spec.kh, spec.kw]))?;

    // db = column sums of dyrows.
    let mut db = vec![0.0f32; oc];
    for row in dyrows.as_slice().chunks_exact(oc) {
        for (d, &v) in db.iter_mut().zip(row.iter()) {
            *d += v;
        }
    }
    let db = Tensor::from_vec(db, Shape::vector(oc))?;

    let dx = input_grad(&dyrows, weight, n, h, w, spec)?;
    Ok((dx, dw, db))
}

/// The input gradient alone: the `dx` of [`conv2d_backward`], bit for bit,
/// without the `im2col` and weight-gradient product that dW and db need.
///
/// # Errors
///
/// Returns shape/validation errors when the operands disagree with `spec`.
pub fn conv2d_backward_input(
    input: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let (n, h, w) = check_backward(input, weight, dy, spec)?;
    let (ho, wo) = spec.output_hw(h, w);
    let _prof = KernelScope::enter(KernelKind::Conv2dBackward, || {
        Work::map(n * spec.out_channels * ho * wo)
    });
    let dyrows = dy_rows(dy, n, spec.out_channels, ho * wo)?;
    input_grad(&dyrows, weight, n, h, w, spec)
}

/// Validates the backward operands; returns the input's `(n, h, w)`.
fn check_backward(
    input: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    spec: &Conv2dSpec,
) -> Result<(usize, usize, usize)> {
    check_weight(weight, spec)?;
    let (n, h, w) = spec.validate_input(input)?;
    let (ho, wo) = spec.output_hw(h, w);
    let expected_dy = Shape::nchw(n, spec.out_channels, ho, wo);
    if dy.shape() != &expected_dy {
        return Err(TensorError::ShapeMismatch {
            left: expected_dy.dims().to_vec(),
            right: dy.shape().dims().to_vec(),
        });
    }
    Ok((n, h, w))
}

/// Repacks `dy` from NCHW to rows `[n·hw, oc]` (the `im2col` row order).
fn dy_rows(dy: &Tensor, n: usize, oc: usize, hw: usize) -> Result<Tensor> {
    let dyv = dy.as_slice();
    let mut rows = vec![0.0f32; n * hw * oc];
    for b in 0..n {
        for ch in 0..oc {
            for p in 0..hw {
                rows[(b * hw + p) * oc + ch] = dyv[(b * oc + ch) * hw + p];
            }
        }
    }
    Tensor::from_vec(rows, Shape::matrix(n * hw, oc))
}

/// dX = col2im(dyrows · W).
fn input_grad(
    dyrows: &Tensor,
    weight: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
) -> Result<Tensor> {
    let wmat = weight.reshape(Shape::matrix(spec.out_channels, spec.patch_len()))?;
    let dcols = matmul(dyrows, &wmat)?;
    col2im(&dcols, n, h, w, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nchw(data: &[f32], n: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::nchw(n, c, h, w)).unwrap()
    }

    #[test]
    fn output_geometry() {
        let spec = Conv2dSpec::same(1, 4, 3);
        assert_eq!(spec.output_hw(28, 28), (28, 28));
        let spec = Conv2dSpec::valid(1, 4, 3, 1);
        assert_eq!(spec.output_hw(28, 28), (26, 26));
        let spec = Conv2dSpec::valid(1, 4, 2, 2);
        assert_eq!(spec.output_hw(8, 8), (4, 4));
    }

    #[test]
    fn im2col_identity_kernel_geometry() {
        // 1×1 kernel, stride 1: im2col rows are just pixels.
        let x = nchw(&[1.0, 2.0, 3.0, 4.0], 1, 1, 2, 2);
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            padding: 0,
        };
        let cols = im2col(&x, &spec).unwrap();
        assert_eq!(cols.shape().dims(), &[4, 1]);
        assert_eq!(cols.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn conv2d_hand_computed_3x3_valid() {
        // 3×3 input, 2×2 kernel of ones, no padding → each output is the sum
        // of a 2×2 patch.
        let x = nchw(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], 1, 1, 3, 3);
        let w = nchw(&[1.0, 1.0, 1.0, 1.0], 1, 1, 2, 2);
        let b = Tensor::zeros(Shape::vector(1));
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kh: 2,
            kw: 2,
            stride: 1,
            padding: 0,
        };
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_bias_is_added_per_channel() {
        let x = nchw(&[1.0; 4], 1, 1, 2, 2);
        let w = Tensor::zeros(Shape::new(vec![2, 1, 1, 1]));
        let b = Tensor::from_vec(vec![5.0, -3.0], Shape::vector(2)).unwrap();
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kh: 1,
            kw: 1,
            stride: 1,
            padding: 0,
        };
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 5.0, 5.0, 5.0, -3.0, -3.0, -3.0, -3.0]);
    }

    #[test]
    fn same_padding_preserves_size() {
        let x = Tensor::from_fn(Shape::nchw(2, 3, 5, 5), |i| (i % 11) as f32 * 0.1);
        let spec = Conv2dSpec::same(3, 4, 3);
        let w = Tensor::from_fn(Shape::new(vec![4, 3, 3, 3]), |i| {
            ((i % 7) as f32 - 3.0) * 0.1
        });
        let b = Tensor::zeros(Shape::vector(4));
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        assert_eq!(y.shape().dims(), &[2, 4, 5, 5]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let spec = Conv2dSpec::same(2, 3, 3);
        let x = Tensor::from_fn(Shape::nchw(1, 2, 4, 4), |i| {
            ((i * 37 % 17) as f32 - 8.0) * 0.1
        });
        let cols = im2col(&x, &spec).unwrap();
        let y = Tensor::from_fn(cols.shape().clone(), |i| {
            ((i * 13 % 29) as f32 - 14.0) * 0.05
        });
        let lhs = cols.dot(&y).unwrap();
        let folded = col2im(&y, 1, 4, 4, &spec).unwrap();
        let rhs = x.dot(&folded).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = Conv2dSpec::same(1, 2, 3);
        let x = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| ((i % 9) as f32 - 4.0) * 0.1);
        let w = Tensor::from_fn(Shape::new(vec![2, 1, 3, 3]), |i| {
            ((i % 5) as f32 - 2.0) * 0.1
        });
        let b = Tensor::from_vec(vec![0.1, -0.2], Shape::vector(2)).unwrap();

        // Scalar loss L = sum(conv(x)) → dy = ones.
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        let (dx, dw, db) = conv2d_backward(&x, &w, &dy, &spec).unwrap();

        let eps = 1e-3f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| conv2d(x, w, b, &spec).unwrap().sum();

        for i in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 1e-2,
                "dx[{i}]: fd {fd} vs analytic {}",
                dx.as_slice()[i]
            );
        }
        for i in [0usize, 4, 9, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (fd - dw.as_slice()[i]).abs() < 1e-2,
                "dw[{i}]: fd {fd} vs analytic {}",
                dw.as_slice()[i]
            );
        }
        for i in 0..2 {
            let mut bp = b.clone();
            bp.as_mut_slice()[i] += eps;
            let mut bm = b.clone();
            bm.as_mut_slice()[i] -= eps;
            let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!(
                (fd - db.as_slice()[i]).abs() < 5e-2,
                "db[{i}]: fd {fd} vs analytic {}",
                db.as_slice()[i]
            );
        }
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let x = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        let spec = Conv2dSpec::same(3, 4, 3);
        let w = Tensor::zeros(Shape::new(vec![4, 3, 3, 3]));
        let b = Tensor::zeros(Shape::vector(4));
        assert!(conv2d(&x, &w, &b, &spec).is_err());
    }

    #[test]
    fn rejects_wrong_weight_shape() {
        let x = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        let spec = Conv2dSpec::same(1, 2, 3);
        let w = Tensor::zeros(Shape::new(vec![2, 1, 5, 5]));
        let b = Tensor::zeros(Shape::vector(2));
        assert!(matches!(
            conv2d(&x, &w, &b, &spec),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn stride_two_downsamples() {
        let x = Tensor::from_fn(Shape::nchw(1, 1, 4, 4), |i| i as f32);
        let w = nchw(&[1.0], 1, 1, 1, 1);
        let b = Tensor::zeros(Shape::vector(1));
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kh: 1,
            kw: 1,
            stride: 2,
            padding: 0,
        };
        let y = conv2d(&x, &w, &b, &spec).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 8.0, 10.0]);
    }
}
