//! 2-D convolution over feature maps.

use crate::dirty::DirtyRect;
use crate::error::{Result, TensorError};
use crate::gemm::{self, ConvGeometry, KernelPolicy};
use crate::init::WeightInit;
use crate::tensor3::FeatureMap;

/// A 2-D convolutional layer with optional stride and zero padding.
///
/// Weights are stored as `[out_channels][in_channels][kh][kw]` in one flat
/// buffer; one bias per output channel. Convolution is the *locality*
/// primitive of the YOLO-like detector: an output activation depends only on
/// the input pixels inside its receptive field, which is why far-away
/// perturbations cannot reach it directly.
///
/// The forward pass dispatches on a [`KernelPolicy`]: the default
/// `Blocked` policy lowers to im2col + register-blocked GEMM
/// ([`crate::gemm`]), `Reference` keeps the naive per-cell loop nest.
/// Both produce `==`-identical outputs (the GEMM preserves each output
/// cell's accumulation order), so the policy is purely a speed knob; it is
/// excluded from layer equality so two convolutions with the same weights
/// compare equal regardless of dispatch.
///
/// # Examples
///
/// ```
/// use bea_tensor::{Conv2d, FeatureMap};
///
/// # fn main() -> Result<(), bea_tensor::TensorError> {
/// // A 1x1 "identity" convolution.
/// let conv = Conv2d::from_weights(1, 1, 1, 1, vec![1.0], vec![0.0], 1, 0)?;
/// let input = FeatureMap::filled(1, 4, 4, 2.0);
/// let out = conv.forward(&input)?;
/// assert_eq!(out, input);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    out_channels: usize,
    in_channels: usize,
    kernel_h: usize,
    kernel_w: usize,
    stride: usize,
    padding: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    policy: KernelPolicy,
}

// Manual impl: the dispatch policy is a speed knob, not part of what the
// layer computes, so it must not affect equality.
impl PartialEq for Conv2d {
    fn eq(&self, other: &Self) -> bool {
        self.out_channels == other.out_channels
            && self.in_channels == other.in_channels
            && self.kernel_h == other.kernel_h
            && self.kernel_w == other.kernel_w
            && self.stride == other.stride
            && self.padding == other.padding
            && self.weights == other.weights
            && self.bias == other.bias
    }
}

impl Conv2d {
    /// Builds a convolution from explicit weights and biases.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the weight or bias buffer
    /// length is wrong, and [`TensorError::InvalidConfig`] for a zero-sized
    /// kernel or stride.
    #[allow(clippy::too_many_arguments)]
    pub fn from_weights(
        out_channels: usize,
        in_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        weights: Vec<f32>,
        bias: Vec<f32>,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if kernel_h == 0 || kernel_w == 0 || stride == 0 || out_channels == 0 || in_channels == 0 {
            return Err(TensorError::InvalidConfig {
                what: format!(
                    "conv2d dims must be positive: out={out_channels} in={in_channels} \
                     k={kernel_h}x{kernel_w} stride={stride}"
                ),
            });
        }
        let expected = out_channels * in_channels * kernel_h * kernel_w;
        if weights.len() != expected {
            return Err(TensorError::LengthMismatch { expected, actual: weights.len() });
        }
        if bias.len() != out_channels {
            return Err(TensorError::LengthMismatch { expected: out_channels, actual: bias.len() });
        }
        Ok(Self {
            out_channels,
            in_channels,
            kernel_h,
            kernel_w,
            stride,
            padding,
            weights,
            bias,
            policy: KernelPolicy::default(),
        })
    }

    /// Builds a convolution with Xavier-initialised weights from a seed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConfig`] for zero-sized dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn seeded(
        out_channels: usize,
        in_channels: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
        init: &mut WeightInit,
    ) -> Result<Self> {
        let mut weights = vec![0.0; out_channels * in_channels * kernel_h * kernel_w];
        let fan_in = in_channels * kernel_h * kernel_w;
        let fan_out = out_channels * kernel_h * kernel_w;
        init.xavier_uniform(&mut weights, fan_in, fan_out);
        Self::from_weights(
            out_channels,
            in_channels,
            kernel_h,
            kernel_w,
            weights,
            vec![0.0; out_channels],
            stride,
            padding,
        )
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels the layer expects.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// `(kernel_h, kernel_w)` pair.
    pub fn kernel_size(&self) -> (usize, usize) {
        (self.kernel_h, self.kernel_w)
    }

    /// Kernel height.
    pub fn kernel_h(&self) -> usize {
        self.kernel_h
    }

    /// Kernel width.
    pub fn kernel_w(&self) -> usize {
        self.kernel_w
    }

    /// The kernel dispatch policy currently in effect.
    pub fn kernel_policy(&self) -> KernelPolicy {
        self.policy
    }

    /// Selects the kernel implementation behind [`Self::forward`] and
    /// [`Self::forward_incremental`]. Both policies produce `==`-identical
    /// outputs (see [`crate::gemm`]); `Blocked` is the default.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        self.policy = policy;
    }

    /// Stride used along both axes.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero-padding used along both axes.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Immutable view of the flat weight buffer
    /// (`[out][in][kh][kw]`-ordered).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Immutable view of the per-output-channel bias buffer.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable access to the flat weight buffer (for seeded jitter).
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Mutable access to the bias buffer.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Output spatial size for a given input size.
    pub fn output_size(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        let oh = (in_h + 2 * self.padding).saturating_sub(self.kernel_h) / self.stride + 1;
        let ow = (in_w + 2 * self.padding).saturating_sub(self.kernel_w) / self.stride + 1;
        (oh, ow)
    }

    /// Runs the convolution.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the input channel count
    /// differs from the configured one, or if the padded input is smaller
    /// than the kernel.
    pub fn forward(&self, input: &FeatureMap) -> Result<FeatureMap> {
        if input.channels() != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: vec![self.in_channels],
                rhs: vec![input.channels()],
            });
        }
        let (in_h, in_w) = (input.height(), input.width());
        if in_h + 2 * self.padding < self.kernel_h || in_w + 2 * self.padding < self.kernel_w {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d (input smaller than kernel)",
                lhs: vec![in_h, in_w],
                rhs: vec![self.kernel_h, self.kernel_w],
            });
        }
        let (out_h, out_w) = self.output_size(in_h, in_w);
        let mut out = FeatureMap::zeros(self.out_channels, out_h, out_w);
        self.fill_window(input, &mut out, &DirtyRect::full(out_w, out_h));
        Ok(out)
    }

    /// One output activation: the shared per-cell kernel of the full and
    /// the incremental path, so both produce bit-identical results (same
    /// accumulation order).
    #[inline]
    fn cell(&self, input: &FeatureMap, oc: usize, oy: usize, ox: usize) -> f32 {
        let (in_h, in_w) = (input.height(), input.width());
        let kernel_volume = self.in_channels * self.kernel_h * self.kernel_w;
        let w_base = oc * kernel_volume;
        let mut acc = self.bias[oc];
        // Top-left corner of the receptive field in padded coords.
        let y0 = oy * self.stride;
        let x0 = ox * self.stride;
        for ic in 0..self.in_channels {
            for ky in 0..self.kernel_h {
                let iy = y0 + ky;
                if iy < self.padding || iy >= in_h + self.padding {
                    continue;
                }
                let iy = iy - self.padding;
                for kx in 0..self.kernel_w {
                    let ix = x0 + kx;
                    if ix < self.padding || ix >= in_w + self.padding {
                        continue;
                    }
                    let ix = ix - self.padding;
                    let w = self.weights[w_base + (ic * self.kernel_h + ky) * self.kernel_w + kx];
                    acc += w * input.at(ic, iy, ix);
                }
            }
        }
        acc
    }

    fn fill_window(&self, input: &FeatureMap, out: &mut FeatureMap, window: &DirtyRect) {
        if window.is_empty() {
            return;
        }
        match self.policy {
            KernelPolicy::Reference => {
                for oc in 0..self.out_channels {
                    for oy in window.y0..window.y1 {
                        for ox in window.x0..window.x1 {
                            out.set(oc, oy, ox, self.cell(input, oc, oy, ox));
                        }
                    }
                }
            }
            KernelPolicy::Blocked => {
                let geometry = ConvGeometry {
                    kernel_h: self.kernel_h,
                    kernel_w: self.kernel_w,
                    stride: self.stride,
                    padding: self.padding,
                };
                let cols = gemm::im2col(input, geometry, window);
                let scores = gemm::conv_scores(&self.weights, &self.bias, &cols);
                gemm::scatter_window(&scores, out, window);
            }
        }
    }

    /// Patches a cached output in place, recomputing only the cells whose
    /// receptive field intersects the dirty input region. Returns the
    /// output-space dirty window (empty input dirt is a no-op).
    ///
    /// `cached` must hold this layer's output for the previous input; the
    /// recomputed window is bit-identical to a full [`Self::forward`] of
    /// `input` because both run the same per-cell kernel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the input fails the
    /// [`Self::forward`] checks or `cached` has the wrong shape.
    pub fn forward_incremental(
        &self,
        input: &FeatureMap,
        cached: &mut FeatureMap,
        dirty: &DirtyRect,
    ) -> Result<DirtyRect> {
        if input.channels() != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d incremental",
                lhs: vec![self.in_channels],
                rhs: vec![input.channels()],
            });
        }
        let (out_h, out_w) = self.output_size(input.height(), input.width());
        if cached.shape() != (self.out_channels, out_h, out_w) {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d incremental (cached output shape)",
                lhs: vec![self.out_channels, out_h, out_w],
                rhs: vec![cached.channels(), cached.height(), cached.width()],
            });
        }
        let window = dirty.conv_output_window(
            self.kernel_h,
            self.kernel_w,
            self.stride,
            self.padding,
            out_h,
            out_w,
        );
        self.fill_window(input, cached, &window);
        Ok(window)
    }
}

/// Cross-correlates a single-channel template against every channel of an
/// image summed together, producing one response plane.
///
/// The template is applied "valid"-style with the response placed at the
/// template centre, zero elsewhere; responses are normalised by the template
/// L2 norm so different templates are comparable. This is the matched-filter
/// primitive used by the detector backbones.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the template is larger than
/// the image, and [`TensorError::EmptyShape`] for an empty template.
pub fn matched_filter(input: &FeatureMap, template: &FeatureMap) -> Result<FeatureMap> {
    if template.height() == 0 || template.width() == 0 {
        return Err(TensorError::EmptyShape { op: "matched_filter" });
    }
    if template.height() > input.height()
        || template.width() > input.width()
        || template.channels() != input.channels()
    {
        return Err(TensorError::ShapeMismatch {
            op: "matched_filter",
            lhs: vec![input.channels(), input.height(), input.width()],
            rhs: vec![template.channels(), template.height(), template.width()],
        });
    }
    let norm = template.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
    let (th, tw) = (template.height(), template.width());
    let mut out = FeatureMap::zeros(1, input.height(), input.width());
    for y0 in 0..=(input.height() - th) {
        for x0 in 0..=(input.width() - tw) {
            let mut acc = 0.0;
            for c in 0..input.channels() {
                for ty in 0..th {
                    for tx in 0..tw {
                        acc += template.at(c, ty, tx) * input.at(c, y0 + ty, x0 + tx);
                    }
                }
            }
            out.set(0, y0 + th / 2, x0 + tw / 2, acc / norm);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_conv_is_noop() {
        let conv = Conv2d::from_weights(1, 1, 1, 1, vec![1.0], vec![0.0], 1, 0).unwrap();
        let mut input = FeatureMap::zeros(1, 3, 3);
        input.set(0, 1, 1, 5.0);
        assert_eq!(conv.forward(&input).unwrap(), input);
    }

    #[test]
    fn box_filter_averages() {
        let conv = Conv2d::from_weights(1, 1, 3, 3, vec![1.0 / 9.0; 9], vec![0.0], 1, 0).unwrap();
        let input = FeatureMap::filled(1, 5, 5, 9.0);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), (1, 3, 3));
        for &v in out.as_slice() {
            assert!((v - 9.0).abs() < 1e-5);
        }
    }

    #[test]
    fn padding_preserves_size() {
        let conv = Conv2d::from_weights(1, 1, 3, 3, vec![0.0; 9], vec![1.0], 1, 1).unwrap();
        let input = FeatureMap::zeros(1, 4, 6);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), (1, 4, 6));
        assert!(out.as_slice().iter().all(|&v| v == 1.0), "bias-only conv outputs bias");
    }

    #[test]
    fn stride_downsamples() {
        let conv = Conv2d::from_weights(1, 1, 2, 2, vec![0.25; 4], vec![0.0], 2, 0).unwrap();
        let input = FeatureMap::filled(1, 4, 4, 4.0);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), (1, 2, 2));
        assert!(out.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn multi_channel_sums_contributions() {
        // Two input channels, one output channel, 1x1 kernel with weights 1 and 2.
        let conv = Conv2d::from_weights(1, 2, 1, 1, vec![1.0, 2.0], vec![0.0], 1, 0).unwrap();
        let mut input = FeatureMap::zeros(2, 1, 1);
        input.set(0, 0, 0, 3.0);
        input.set(1, 0, 0, 4.0);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.at(0, 0, 0), 3.0 + 8.0);
    }

    #[test]
    fn channel_mismatch_errors() {
        let conv = Conv2d::from_weights(1, 2, 1, 1, vec![1.0, 1.0], vec![0.0], 1, 0).unwrap();
        let input = FeatureMap::zeros(3, 2, 2);
        assert!(conv.forward(&input).is_err());
    }

    #[test]
    fn weight_length_validated() {
        assert!(Conv2d::from_weights(1, 1, 3, 3, vec![0.0; 8], vec![0.0], 1, 0).is_err());
        assert!(Conv2d::from_weights(2, 1, 1, 1, vec![0.0; 2], vec![0.0], 1, 0).is_err());
    }

    #[test]
    fn seeded_conv_is_deterministic() {
        let mut i1 = WeightInit::from_seed(11);
        let mut i2 = WeightInit::from_seed(11);
        let c1 = Conv2d::seeded(4, 3, 3, 3, 1, 1, &mut i1).unwrap();
        let c2 = Conv2d::seeded(4, 3, 3, 3, 1, 1, &mut i2).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn conv_output_is_local() {
        // A 3x3 conv without padding: changing a pixel far from a given
        // output position must not change that output. This is the locality
        // property the YOLO-like detector inherits.
        let mut init = WeightInit::from_seed(1);
        let conv = Conv2d::seeded(2, 1, 3, 3, 1, 0, &mut init).unwrap();
        let base = FeatureMap::filled(1, 8, 16, 1.0);
        let mut perturbed = base.clone();
        perturbed.set(0, 0, 15, 100.0); // far right corner
        let a = conv.forward(&base).unwrap();
        let b = conv.forward(&perturbed).unwrap();
        // Output at (0, 4, 2) has receptive field columns 2..5, untouched.
        assert_eq!(a.at(0, 4, 2), b.at(0, 4, 2));
        assert_eq!(a.at(1, 4, 2), b.at(1, 4, 2));
        // But outputs near the perturbation do change.
        assert_ne!(a.at(0, 0, 13), b.at(0, 0, 13));
    }

    #[test]
    fn matched_filter_peaks_at_pattern() {
        let mut input = FeatureMap::zeros(1, 9, 9);
        // Plant a 3x3 cross pattern centred at (4, 4).
        for (dy, dx) in [(0i32, 0i32), (-1, 0), (1, 0), (0, -1), (0, 1)] {
            input.set(0, (4 + dy) as usize, (4 + dx) as usize, 1.0);
        }
        let mut template = FeatureMap::zeros(1, 3, 3);
        for (dy, dx) in [(1i32, 1i32), (0, 1), (2, 1), (1, 0), (1, 2)] {
            template.set(0, dy as usize, dx as usize, 1.0);
        }
        let response = matched_filter(&input, &template).unwrap();
        assert_eq!(response.argmax(), Some((0, 4, 4)));
    }

    #[test]
    fn matched_filter_rejects_oversized_template() {
        let input = FeatureMap::zeros(1, 3, 3);
        let template = FeatureMap::zeros(1, 5, 5);
        assert!(matched_filter(&input, &template).is_err());
    }

    fn noisy_map(channels: usize, h: usize, w: usize, phase: f32) -> FeatureMap {
        let mut map = FeatureMap::zeros(channels, h, w);
        for (i, v) in map.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32) * 0.173 + phase).sin() * 2.0;
        }
        map
    }

    #[test]
    fn incremental_matches_full_forward_bitwise() {
        for (stride, padding) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
            let mut init = WeightInit::from_seed(7);
            let conv = Conv2d::seeded(3, 2, 3, 3, stride, padding, &mut init).unwrap();
            let base = noisy_map(2, 12, 16, 0.0);
            let mut perturbed = base.clone();
            for y in 4..7 {
                for x in 9..12 {
                    perturbed.set(0, y, x, 5.0);
                    perturbed.set(1, y, x, -5.0);
                }
            }
            let mut cached = conv.forward(&base).unwrap();
            let dirty = DirtyRect::new(9, 4, 12, 7);
            let window = conv.forward_incremental(&perturbed, &mut cached, &dirty).unwrap();
            assert!(!window.is_empty());
            let full = conv.forward(&perturbed).unwrap();
            assert_eq!(cached, full, "stride {stride} pad {padding}: patch must be bit-identical");
        }
    }

    #[test]
    fn incremental_empty_dirt_is_noop() {
        let mut init = WeightInit::from_seed(3);
        let conv = Conv2d::seeded(1, 1, 3, 3, 1, 1, &mut init).unwrap();
        let input = noisy_map(1, 8, 8, 1.0);
        let mut cached = conv.forward(&input).unwrap();
        let before = cached.clone();
        let window = conv.forward_incremental(&input, &mut cached, &DirtyRect::empty()).unwrap();
        assert!(window.is_empty());
        assert_eq!(cached, before);
    }

    #[test]
    fn blocked_forward_matches_reference_bitwise() {
        for (stride, padding) in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)] {
            let mut init = WeightInit::from_seed(21);
            let conv = Conv2d::seeded(5, 3, 3, 3, stride, padding, &mut init).unwrap();
            let input = noisy_map(3, 13, 17, 0.3);
            crate::golden::assert_conv_golden(&conv, &input);
        }
    }

    #[test]
    fn blocked_incremental_matches_reference_full_forward() {
        let mut init = WeightInit::from_seed(9);
        let mut conv = Conv2d::seeded(3, 2, 3, 3, 1, 1, &mut init).unwrap();
        conv.set_kernel_policy(KernelPolicy::Blocked);
        let base = noisy_map(2, 12, 16, 0.0);
        let mut perturbed = base.clone();
        perturbed.set(0, 5, 10, 9.0);
        let mut cached = conv.forward(&base).unwrap();
        let window = conv
            .forward_incremental(&perturbed, &mut cached, &DirtyRect::new(10, 5, 11, 6))
            .unwrap();
        assert!(!window.is_empty());
        let mut reference = conv.clone();
        reference.set_kernel_policy(KernelPolicy::Reference);
        assert_eq!(cached, reference.forward(&perturbed).unwrap());
    }

    #[test]
    fn policy_is_excluded_from_layer_equality() {
        let mut init = WeightInit::from_seed(2);
        let conv = Conv2d::seeded(2, 1, 3, 3, 1, 1, &mut init).unwrap();
        assert_eq!(conv.kernel_policy(), KernelPolicy::Blocked);
        let mut other = conv.clone();
        other.set_kernel_policy(KernelPolicy::Reference);
        assert_eq!(conv, other);
    }

    #[test]
    fn incremental_validates_cached_shape() {
        let mut init = WeightInit::from_seed(3);
        let conv = Conv2d::seeded(1, 1, 3, 3, 1, 0, &mut init).unwrap();
        let input = noisy_map(1, 8, 8, 0.5);
        let mut wrong = FeatureMap::zeros(1, 8, 8); // forward output is 6x6
        assert!(conv.forward_incremental(&input, &mut wrong, &DirtyRect::full(8, 8)).is_err());
    }
}
