//! Transformer building blocks for the DETR-like detector.

use bea_tensor::activation::gelu;
use bea_tensor::{KernelPolicy, Linear, Matrix, MultiHeadAttention, Result, WeightInit};

/// Sinusoidal 2-D positional encoding.
///
/// Half the embedding dimensions encode the x coordinate, half the y
/// coordinate, with geometrically spaced frequencies — the standard DETR
/// scheme. Dot products of encodings decay with spatial distance, which is
/// what lets anchored object queries attend near their anchors without
/// training.
///
/// # Examples
///
/// ```
/// use bea_detect::transformer::positional_encoding;
///
/// let near = positional_encoding(1.0, 1.0, 16);
/// let same = positional_encoding(1.0, 1.0, 16);
/// let far = positional_encoding(30.0, 9.0, 16);
/// let dot = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
/// assert!(dot(&near, &same) > dot(&near, &far));
/// ```
pub fn positional_encoding(x: f32, y: f32, dim: usize) -> Vec<f32> {
    let mut out = vec![0.0; dim];
    positional_encoding_into(x, y, &mut out);
    out
}

/// Writes the sinusoidal encoding of `(x, y)` into a caller-provided
/// buffer (length = embedding dimension), enabling allocation-free reuse
/// on the decode hot path. The whole buffer is overwritten — including the
/// trailing element an odd dimension leaves outside the sin/cos pairs.
pub fn positional_encoding_into(x: f32, y: f32, out: &mut [f32]) {
    out.fill(0.0);
    let dim = out.len();
    let half = dim / 2;
    let quarter = (half / 2).max(1);
    for k in 0..half {
        let (coord, idx) = if k < half / 2 { (x, k) } else { (y, k - half / 2) };
        let freq = 1.0 / (30.0f32).powf(idx as f32 / quarter as f32);
        out[2 * k] = (coord * freq).sin();
        out[2 * k + 1] = (coord * freq).cos();
    }
}

/// Builds the positional-encoding matrix for a `grid_w × grid_h` token grid
/// (row-major token order, `dim` columns).
pub fn grid_positional_encoding(grid_w: usize, grid_h: usize, dim: usize) -> Matrix {
    let mut out = Matrix::zeros(grid_w * grid_h, dim);
    for gy in 0..grid_h {
        for gx in 0..grid_w {
            // Encode straight into the row — no per-token temporary.
            positional_encoding_into(gx as f32, gy as f32, out.row_mut(gy * grid_w + gx));
        }
    }
    out
}

/// One pre-activation transformer encoder block:
/// `x ← x + mix·MHA(x); x ← x + mix·FFN(x)`.
///
/// The residual structure keeps an untrained forward pass well-behaved
/// while retaining the defining property of self-attention: **every output
/// token depends on every input token**. (Layer normalisation is omitted —
/// without training it only adds uncontrolled rescaling to the analytic
/// decode head; the global coupling channel the paper studies lives in the
/// attention, which is kept intact. See DESIGN.md.)
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    attention: MultiHeadAttention,
    ffn_in: Linear,
    ffn_out: Linear,
    mix: f32,
}

impl EncoderBlock {
    /// Builds a seeded encoder block.
    ///
    /// # Errors
    ///
    /// Returns a tensor configuration error if `model_dim` is not divisible
    /// by `heads`.
    pub fn seeded(model_dim: usize, heads: usize, mix: f32, init: &mut WeightInit) -> Result<Self> {
        Ok(Self {
            attention: MultiHeadAttention::seeded(model_dim, heads, init)?,
            ffn_in: Linear::seeded(model_dim * 2, model_dim, init),
            ffn_out: Linear::seeded(model_dim, model_dim * 2, init),
            mix,
        })
    }

    /// Residual mixing strength.
    pub fn mix(&self) -> f32 {
        self.mix
    }

    /// Propagates a [`KernelPolicy`] to the attention layer and both FFN
    /// projections. Outputs are `==`-identical across policies.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        self.attention.set_kernel_policy(policy);
        self.ffn_in.set_kernel_policy(policy);
        self.ffn_out.set_kernel_policy(policy);
    }

    /// Applies the block to a token matrix.
    ///
    /// Following DETR, the positional encoding (when given) is added to the
    /// attention *queries and keys only* — values and the residual stream
    /// stay content-pure, so position information steers *where* tokens
    /// attend without polluting *what* they carry.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `tokens.cols()` (or `pos.cols()`) differs
    /// from the block's model dimension.
    pub fn forward(&self, tokens: &Matrix, pos: Option<&Matrix>) -> Result<Matrix> {
        let qk = match pos {
            Some(p) => tokens.add(p)?,
            None => tokens.clone(),
        };
        let attended = self.attention.forward(&qk, &qk, tokens)?;
        let x = tokens.add(&attended.scale(self.mix))?;
        let hidden = self.ffn_in.forward(&x)?.map(gelu);
        let ffn = self.ffn_out.forward(&hidden)?;
        x.add(&ffn.scale(self.mix))
    }

    /// The block's attention layer (for heatmap introspection).
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attention
    }

    /// The expanding FFN projection (for gradient replay).
    pub fn ffn_in(&self) -> &Linear {
        &self.ffn_in
    }

    /// The contracting FFN projection (for gradient replay).
    pub fn ffn_out(&self) -> &Linear {
        &self.ffn_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_encoding_is_bounded_and_distinct() {
        let a = positional_encoding(0.0, 0.0, 24);
        let b = positional_encoding(5.0, 2.0, 24);
        assert_eq!(a.len(), 24);
        assert!(a.iter().all(|v| v.abs() <= 1.0));
        assert_ne!(a, b);
    }

    #[test]
    fn positional_similarity_decays_with_distance() {
        let dim = 24;
        let anchor = positional_encoding(10.0, 4.0, dim);
        let dot = |other: &[f32]| -> f32 { anchor.iter().zip(other).map(|(x, y)| x * y).sum() };
        let near = dot(&positional_encoding(11.0, 4.0, dim));
        let far = dot(&positional_encoding(20.0, 4.0, dim));
        let self_sim = dot(&anchor);
        assert!(self_sim > near, "self {self_sim} should beat near {near}");
        assert!(near > far, "near {near} should beat far {far}");
    }

    #[test]
    fn grid_encoding_rows_match_pointwise() {
        let grid = grid_positional_encoding(4, 3, 16);
        assert_eq!(grid.shape(), (12, 16));
        let direct = positional_encoding(2.0, 1.0, 16);
        assert_eq!(grid.row(6), &direct[..]); // token (x=2, y=1) on a 4-wide grid
    }

    #[test]
    fn encoder_block_preserves_shape() {
        let mut init = WeightInit::from_seed(3);
        let block = EncoderBlock::seeded(16, 4, 0.5, &mut init).unwrap();
        let tokens = Matrix::filled(10, 16, 0.1);
        let out = block.forward(&tokens, None).unwrap();
        assert_eq!(out.shape(), (10, 16));
        let pos = grid_positional_encoding(5, 2, 16);
        let out_pos = block.forward(&tokens, Some(&pos)).unwrap();
        assert_eq!(out_pos.shape(), (10, 16));
        assert_ne!(out, out_pos, "positional encoding steers attention");
    }

    #[test]
    fn zero_mix_is_identity() {
        let mut init = WeightInit::from_seed(4);
        let block = EncoderBlock::seeded(16, 2, 0.0, &mut init).unwrap();
        let tokens = Matrix::filled(5, 16, 0.3);
        let out = block.forward(&tokens, None).unwrap();
        assert!(out.approx_eq(&tokens, 1e-6));
    }

    #[test]
    fn encoder_propagates_remote_token_changes() {
        // The butterfly channel in one assertion: change token 0, observe
        // every other token move.
        let mut init = WeightInit::from_seed(5);
        let block = EncoderBlock::seeded(16, 4, 0.5, &mut init).unwrap();
        let mut tokens = Matrix::zeros(8, 16);
        for r in 0..8 {
            for c in 0..16 {
                tokens.set(r, c, ((r + c) as f32 * 0.1).sin());
            }
        }
        let base = block.forward(&tokens, None).unwrap();
        tokens.set(0, 0, tokens.at(0, 0) + 2.0);
        let out = block.forward(&tokens, None).unwrap();
        for r in 1..8 {
            let moved: f32 = (0..16).map(|c| (base.at(r, c) - out.at(r, c)).abs()).sum();
            assert!(moved > 1e-6, "token {r} did not feel the remote change");
        }
    }
}
