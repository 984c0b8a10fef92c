//! The transformer (DETR-like) detector.
//!
//! Pipeline: the shared NCC backbone is pooled into patch tokens, embedded
//! together with sinusoidal positional encodings, passed through a
//! multi-head self-attention encoder (the *global mixing* stage: every
//! token's representation is updated from **all** tokens), then decoded by
//! anchored object queries that cross-attend to the encoded memory.
//!
//! Because classification *and* box geometry are read from the
//! post-encoder token scores, a perturbation anywhere in the image
//! influences every detection — the paper's conjectured reason why DETR is
//! more susceptible to butterfly effect attacks ("attention mechanisms
//! connecting two arbitrary regions in an image").

use crate::cache::{IncrementalDetect, IncrementalPrediction};
use crate::detector::Detector;
use crate::grad::{field_gradient_to_image, field_to_leaf, GradientObjective, InputGradient};
use crate::nms;
use crate::peaks::{measure_span, Peak};
use crate::response::ResponseField;
use crate::templates::{TemplateBank, BACKBONE_SCALE};
use crate::transformer::{grid_positional_encoding, positional_encoding_into, EncoderBlock};
use crate::types::{Detection, Prediction};
use bea_image::Image;
use bea_scene::{BBox, ObjectClass};
use bea_tensor::activation::softmax_inplace;
use bea_tensor::{
    insertion_sort_by, DirtyRect, FeatureMap, KernelPolicy, Linear, Matrix, ScratchGuard, Tape,
    WeightInit,
};

/// Configuration of a [`DetrDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetrConfig {
    /// Model seed; the paper trains seeds 1..25.
    pub seed: u64,
    /// Token embedding width.
    pub model_dim: usize,
    /// Attention heads per encoder layer.
    pub heads: usize,
    /// Number of encoder layers.
    pub encoder_layers: usize,
    /// Patch size in backbone cells (one token covers
    /// `patch × BACKBONE_SCALE` full-resolution pixels).
    pub patch: usize,
    /// Residual mixing strength of the encoder blocks.
    pub mix: f32,
    /// Gain applied to content features before embedding (keeps content
    /// above the positional signal).
    pub content_gain: f32,
    /// Weight of positional alignment in query cross-attention logits.
    pub pos_beta: f32,
    /// Weight of content salience in query cross-attention logits.
    pub cont_beta: f32,
    /// Anchor stride of the object-query grid, in tokens.
    pub query_stride: usize,
    /// Relative template weight jitter between seeds.
    pub template_jitter: f32,
    /// Base detection threshold on decoded class scores.
    pub threshold: f32,
    /// Per-seed threshold jitter half-range.
    pub threshold_jitter: f32,
    /// IoU threshold for the class-agnostic query NMS.
    pub nms_iou: f32,
    /// Matmul kernel dispatch for the embedding, encoder and read-out
    /// (`Blocked` by default; outputs are `==`-identical across policies,
    /// so this is a pure speed knob).
    pub kernel_policy: KernelPolicy,
}

impl Default for DetrConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            model_dim: 24,
            heads: 4,
            encoder_layers: 2,
            patch: 4,
            mix: 0.5,
            content_gain: 2.0,
            pos_beta: 2.0,
            cont_beta: 1.5,
            query_stride: 2,
            template_jitter: 0.04,
            threshold: 0.5,
            threshold_jitter: 0.03,
            nms_iou: 0.45,
            kernel_policy: KernelPolicy::default(),
        }
    }
}

impl DetrConfig {
    /// The default configuration with a different seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }
}

/// A DETR-like detection transformer.
///
/// # Examples
///
/// ```
/// use bea_detect::{Detector, DetrConfig, DetrDetector};
/// use bea_scene::SyntheticKitti;
///
/// let detr = DetrDetector::new(DetrConfig::with_seed(1)).unwrap();
/// let pred = detr.detect(&SyntheticKitti::evaluation_set().image(0));
/// assert!(!pred.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DetrDetector {
    name: String,
    config: DetrConfig,
    bank: TemplateBank,
    embed: Linear,
    /// Squared norms of the embedding columns, used by the analytic read-out
    /// head `S = X · W_e / ‖w_c‖²`.
    head_norms: Vec<f32>,
    encoder: Vec<EncoderBlock>,
    threshold: f32,
}

impl DetrDetector {
    /// Builds a detector from a configuration (deterministic per seed).
    ///
    /// # Errors
    ///
    /// Returns a tensor configuration error if `model_dim` is not divisible
    /// by `heads`.
    pub fn new(config: DetrConfig) -> bea_tensor::Result<Self> {
        let mut rng = WeightInit::from_seed(config.seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let bank = TemplateBank::new(config.template_jitter, &mut rng);
        let mut embed = Linear::seeded(config.model_dim, ObjectClass::COUNT, &mut rng);
        embed.set_kernel_policy(config.kernel_policy);
        let head_norms = (0..ObjectClass::COUNT)
            .map(|c| {
                let w = embed.weight();
                (0..config.model_dim).map(|d| w.at(d, c) * w.at(d, c)).sum::<f32>().max(1e-6)
            })
            .collect();
        let mut encoder = (0..config.encoder_layers)
            .map(|_| EncoderBlock::seeded(config.model_dim, config.heads, config.mix, &mut rng))
            .collect::<bea_tensor::Result<Vec<_>>>()?;
        for block in &mut encoder {
            block.set_kernel_policy(config.kernel_policy);
        }
        let threshold = config.threshold
            + rng.uniform(-config.threshold_jitter.max(1e-6), config.threshold_jitter.max(1e-6));
        Ok(Self {
            name: format!("detr-s{}", config.seed),
            config,
            bank,
            embed,
            head_norms,
            encoder,
            threshold,
        })
    }

    /// The configuration this detector was built from.
    pub fn config(&self) -> &DetrConfig {
        &self.config
    }

    /// The effective (jittered) detection threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Replaces the detection threshold (used by calibration).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// Calibrates the detection threshold on a validation set: forward
    /// passes are computed once per scene, then a threshold sweep picks the
    /// best F1 at IoU 0.5 — the stand-in for the validation-based tuning a
    /// trained model would receive. Returns the chosen threshold.
    pub fn calibrate<I: IntoIterator<Item = bea_scene::Scene>>(&mut self, scenes: I) -> f32 {
        let cached: Vec<_> = scenes
            .into_iter()
            .map(|scene| {
                let img = scene.render();
                let field = ResponseField::compute(&img, &self.bank);
                let (gw, gh) = self.grid_dims(&field);
                let scores = self.token_scores_from(&field);
                (scene, field, scores, gw, gh)
            })
            .collect();
        let mut best = (self.threshold, f64::MIN);
        let mut t = 0.40f32;
        while t <= 0.80 {
            let mut total = crate::metrics::DetectionScore::default();
            for (scene, field, scores, gw, gh) in &cached {
                let pred = self.decode_at(field, scores, *gw, *gh, t);
                total.merge(&crate::metrics::match_prediction(&pred, &scene.ground_truths(), 0.5));
            }
            let f1 = total.f1();
            if f1 > best.1 {
                best = (t, f1);
            }
            t += 0.02;
        }
        self.threshold = best.0;
        best.0
    }

    /// Token grid size `(gw, gh)` for an image.
    fn grid_size(&self, img: &Image) -> (usize, usize) {
        let bw = img.width() / BACKBONE_SCALE;
        let bh = img.height() / BACKBONE_SCALE;
        ((bw / self.config.patch).max(1), (bh / self.config.patch).max(1))
    }

    /// Token grid size from a backbone field (the field is already at
    /// `1/BACKBONE_SCALE` resolution, so this agrees with
    /// [`DetrDetector::grid_size`] on the source image).
    fn grid_dims(&self, field: &ResponseField) -> (usize, usize) {
        ((field.width() / self.config.patch).max(1), (field.height() / self.config.patch).max(1))
    }

    /// Runs backbone → tokens → encoder → analytic head, returning the
    /// median-suppressed per-token class scores (`N × C`).
    fn token_scores(&self, img: &Image) -> Matrix {
        self.token_scores_from(&ResponseField::compute(img, &self.bank))
    }

    /// Fills the `gw·gh` rows of `content` with the per-class max
    /// response inside each patch.
    fn fill_patch_content(
        &self,
        field: &ResponseField,
        gw: usize,
        gh: usize,
        content: &mut Matrix,
    ) {
        let patch = self.config.patch;
        for class in ObjectClass::ALL {
            let plane = field.class_plane(class);
            let (bw, bh) = (field.width(), field.height());
            for gy in 0..gh {
                for gx in 0..gw {
                    let mut best = f32::NEG_INFINITY;
                    for py in 0..patch {
                        for px in 0..patch {
                            let y = gy * patch + py;
                            let x = gx * patch + px;
                            if y < bh && x < bw {
                                best = best.max(plane[y * bw + x]);
                            }
                        }
                    }
                    content.set(gy * gw + gx, class.index(), best.max(-1.0));
                }
            }
        }
    }

    /// Divides the read-out scores by the calibrated per-class norms and
    /// subtracts each class's median over the tokens — the per-image
    /// statistics of the analytic head.
    fn calibrate_scores(&self, scores: &mut Matrix) {
        let classes = ObjectClass::COUNT;
        let tokens = scores.rows();
        for c in 0..classes {
            let norm = self.config.content_gain * self.head_norms[c];
            for t in 0..tokens {
                let v = scores.at(t, c) / norm;
                scores.set(t, c, v);
            }
        }
        // Background suppression: subtract the per-class median (the
        // untrained stand-in for DETR's learned no-object bias).
        for c in 0..classes {
            // Pooled column buffer + allocation-free stable sort (std's
            // sort_by allocates a merge buffer above ~20 elements).
            let mut column: ScratchGuard<f32> = ScratchGuard::with_pooled_capacity(tokens);
            column.extend((0..tokens).map(|t| scores.at(t, c)));
            insertion_sort_by(&mut column, |a, b| {
                a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
            });
            let median = column[column.len() / 2];
            for t in 0..tokens {
                let v = scores.at(t, c) - median;
                scores.set(t, c, v);
            }
        }
    }

    /// [`DetrDetector::token_scores`] with a precomputed response field.
    fn token_scores_from(&self, field: &ResponseField) -> Matrix {
        let (gw, gh) = self.grid_dims(field);
        let classes = ObjectClass::COUNT;
        // Patch content: per-class max response inside each patch.
        let mut content = Matrix::zeros(gw * gh, classes);
        self.fill_patch_content(field, gw, gh, &mut content);
        // Embed and run the encoder; the positional encoding steers the
        // attention (queries/keys) without entering the residual stream.
        let mut tokens = self
            .embed
            .forward(&content)
            .expect("content width equals embed input width")
            .scale(self.config.content_gain);
        let pos = grid_positional_encoding(gw, gh, self.config.model_dim);
        for block in &self.encoder {
            tokens = block.forward(&tokens, Some(&pos)).expect("encoder preserves token shape");
        }
        // Analytic read-out head.
        let mut scores = tokens
            .matmul_policy(self.embed.weight(), self.config.kernel_policy)
            .expect("token width equals embed output width");
        self.calibrate_scores(&mut scores);
        scores
    }

    /// Decodes detections from token scores with anchored object queries.
    fn decode(&self, field: &ResponseField, scores: &Matrix, gw: usize, gh: usize) -> Prediction {
        self.decode_at(field, scores, gw, gh, self.threshold)
    }

    /// [`DetrDetector::decode`] with an explicit threshold (used by
    /// calibration sweeps over cached forward passes).
    fn decode_at(
        &self,
        field: &ResponseField,
        scores: &Matrix,
        gw: usize,
        gh: usize,
        threshold: f32,
    ) -> Prediction {
        let classes = ObjectClass::COUNT;
        // Salience per token drives the content term of the attention
        // (pooled: rebuilt once per decode on the attack hot path).
        let mut salience: ScratchGuard<f32> = ScratchGuard::with_pooled_capacity(scores.rows());
        salience.extend(
            (0..scores.rows())
                .map(|t| (0..classes).map(|c| scores.at(t, c)).fold(f32::NEG_INFINITY, f32::max)),
        );
        let dim = self.config.model_dim;
        let pos = grid_positional_encoding(gw, gh, dim);
        let mut raw = Prediction::new();
        let stride = self.config.query_stride.max(1);
        let mut ay = stride / 2;
        while ay < gh {
            let mut ax = stride / 2;
            while ax < gw {
                if let Some(det) =
                    self.decode_query(field, scores, &salience, &pos, gw, gh, ax, ay, threshold)
                {
                    raw.push(det);
                }
                ax += stride;
            }
            ay += stride;
        }
        nms::suppress_class_agnostic(raw, self.config.nms_iou)
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_query(
        &self,
        field: &ResponseField,
        scores: &Matrix,
        salience: &[f32],
        pos: &Matrix,
        gw: usize,
        gh: usize,
        ax: usize,
        ay: usize,
        threshold: f32,
    ) -> Option<Detection> {
        let dim = self.config.model_dim;
        let mut anchor: ScratchGuard<f32> = ScratchGuard::with_pooled_capacity(dim);
        anchor.resize(dim, 0.0);
        positional_encoding_into(ax as f32, ay as f32, &mut anchor);
        // Cross-attention logits: positional alignment + content salience.
        let mut logits: ScratchGuard<f32> = ScratchGuard::with_pooled_capacity(scores.rows());
        logits.extend((0..scores.rows()).map(|t| {
            let align: f32 = anchor.iter().zip(pos.row(t)).map(|(a, p)| a * p).sum();
            self.config.pos_beta * align + self.config.cont_beta * salience[t].max(0.0) * 4.0
        }));
        softmax_inplace(&mut logits);
        // Attended position = expectation of token coordinates.
        let (mut px, mut py) = (0.0f32, 0.0f32);
        for (t, &weight) in logits.iter().enumerate() {
            px += weight * (t % gw) as f32;
            py += weight * (t / gw) as f32;
        }
        let tx = (px.round() as usize).min(gw - 1);
        let ty = (py.round() as usize).min(gh - 1);
        let t_star = ty * gw + tx;
        // Classify the attended token.
        let (mut best_class, mut best_score) = (ObjectClass::Car, f32::NEG_INFINITY);
        for class in ObjectClass::ALL {
            let s = scores.at(t_star, class.index());
            if s > best_score {
                best_score = s;
                best_class = class;
            }
        }
        if best_score < threshold {
            return None;
        }
        // Geometry: the backbone response plane gated by the post-encoder
        // token scores (DETR's box head reads the encoded memory, so box
        // extents must depend on post-attention values). Cells whose
        // bilinearly interpolated token score falls below a fraction of the
        // attended token's score are gated off; the half-peak span is then
        // measured on the gated plane.
        let template = self.bank.template(best_class);
        let patch = self.config.patch as f32;
        let plane = field.class_plane(best_class);
        let (bw, bh) = (field.width(), field.height());
        // Smooth gate: cells whose interpolated token score falls below
        // ~35 % of the reference score are attenuated (fully off below
        // ~25 %). The reference is the attended score, floored at
        // 1.25x the detection threshold: confident clean detections are
        // unaffected, but as an attack pushes the attended score towards
        // the threshold the gate bites relatively harder into the box's
        // edge cells, shrinking the measured span *before* the detection
        // disappears — the paper's Figure 4 box-shrink mode.
        let reference = best_score.max(1.25 * threshold);
        let gate_lo = 0.30 * reference;
        let gate_hi = 0.50 * reference;
        let gate = |b: f32| ((b - gate_lo) / (gate_hi - gate_lo).max(1e-6)).clamp(0.0, 1.0);
        let token_score = |gx: f32, gy: f32| -> f32 {
            // Bilinear interpolation between token centres.
            let fx = (gx / patch - 0.5).clamp(0.0, gw as f32 - 1.0);
            let fy = (gy / patch - 0.5).clamp(0.0, gh as f32 - 1.0);
            let x0 = fx.floor() as usize;
            let y0 = fy.floor() as usize;
            let x1 = (x0 + 1).min(gw - 1);
            let y1 = (y0 + 1).min(gh - 1);
            let (ux, uy) = (fx - x0 as f32, fy - y0 as f32);
            let s = |x: usize, y: usize| scores.at(y * gw + x, best_class.index());
            s(x0, y0) * (1.0 - ux) * (1.0 - uy)
                + s(x1, y0) * ux * (1.0 - uy)
                + s(x0, y1) * (1.0 - ux) * uy
                + s(x1, y1) * ux * uy
        };
        // Gated window around the attended token, in backbone cells.
        let win = self.config.patch * 4;
        let cx0 = (tx * self.config.patch).saturating_sub(win);
        let cy0 = (ty * self.config.patch).saturating_sub(win);
        let cx1 = ((tx + 1) * self.config.patch + win).min(bw);
        let cy1 = ((ty + 1) * self.config.patch + win).min(bh);
        if cx1 <= cx0 || cy1 <= cy0 {
            return None;
        }
        let (ww, wh) = (cx1 - cx0, cy1 - cy0);
        let mut window: ScratchGuard<f32> = ScratchGuard::with_pooled_capacity(ww * wh);
        window.resize(ww * wh, 0.0);
        let mut best_cell: Option<Peak> = None;
        for y in 0..wh {
            for x in 0..ww {
                let (by, bx) = (cy0 + y, cx0 + x);
                let g = gate(token_score(bx as f32 + 0.5, by as f32 + 0.5));
                let gated = plane[by * bw + bx].max(0.0) * g;
                window[y * ww + x] = gated;
                let better = best_cell.is_none_or(|b| gated > b.value);
                // Prefer cells inside the attended token on ties.
                let inside = bx / self.config.patch == tx && by / self.config.patch == ty;
                if gated > 0.0 && (better || (inside && gated >= best_cell.unwrap().value)) {
                    best_cell = Some(Peak { x, y, value: gated });
                }
            }
        }
        let peak = best_cell?;
        let reach = template.width().max(template.height()) * 2;
        // Score-dependent span cutoff: a confident detection (best_score =
        // reference) measures at the calibrated half-peak fraction; as an
        // attack drags the attended score towards the threshold the cutoff
        // rises and the measured box contracts *continuously* — weak
        // detections literally shrink before they vanish (Figure 4).
        let ratio = reference / best_score.max(1e-6);
        let frac = (0.5 * ratio * ratio).clamp(0.5, 0.75);
        let span = measure_span(&window, ww, wh, peak, frac, reach);
        let (nominal_len, nominal_wid) = template.nominal_box();
        let (expected_x, expected_y) = template.expected_span();
        let len =
            (nominal_len * span.width / expected_x).clamp(0.6 * nominal_len, 1.5 * nominal_len);
        let wid =
            (nominal_wid * span.height / expected_y).clamp(0.6 * nominal_wid, 1.5 * nominal_wid);
        let cx = ResponseField::to_full_res(cx0 as f32 + span.center_x);
        let cy = ResponseField::to_full_res(cy0 as f32 + span.center_y);
        let score = ((best_score - threshold) / (1.0 - threshold)).clamp(0.0, 1.0) * 0.5 + 0.5;
        Some(Detection::new(best_class, BBox::new(cx, cy, len, wid), score))
    }
}

impl IncrementalDetect for DetrDetector {
    type Clean = ResponseField;

    fn clean_forward(&self, img: &Image) -> (ResponseField, Prediction) {
        let field = ResponseField::compute(img, &self.bank);
        let scores = self.token_scores_from(&field);
        let (gw, gh) = self.grid_dims(&field);
        let prediction = self.decode(&field, &scores, gw, gh);
        (field, prediction)
    }

    fn detect_incremental(
        &self,
        clean: &ResponseField,
        perturbed: &Image,
        dirty: &DirtyRect,
    ) -> IncrementalPrediction {
        let mut field = clean.clone();
        let window = field.recompute_window(perturbed, &self.bank, dirty);
        // The incremental propagation stops here: the encoder's
        // self-attention lets every token attend to every other, so one
        // dirty token dirties the entire grid. The transformer and the
        // query decoder re-run in full on the patched backbone field —
        // only the CNN stem benefits from the cache.
        let scores = self.token_scores_from(&field);
        let (gw, gh) = self.grid_dims(&field);
        IncrementalPrediction {
            prediction: self.decode(&field, &scores, gw, gh),
            cells_recomputed: window.area() as u64,
            global_stage_full: true,
        }
    }
}

impl Detector for DetrDetector {
    fn detect(&self, img: &Image) -> Prediction {
        let field = ResponseField::compute(img, &self.bank);
        let scores = self.token_scores_from(&field);
        let (gw, gh) = self.grid_dims(&field);
        self.decode(&field, &scores, gw, gh)
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Differentiates the above-threshold token-score mass through the
    /// whole transformer — patch pooling, embedding, every encoder block's
    /// attention and FFN, the analytic read-out and the median
    /// suppression — and then through the NCC backbone.
    ///
    /// This is the white-box counterpart of the paper's conjecture: the
    /// gradient of *any* detection is dense over the whole image because
    /// self-attention couples every token pair.
    fn input_gradient(&self, img: &Image, objective: GradientObjective) -> Option<InputGradient> {
        let field = ResponseField::compute(img, &self.bank);
        let (gw, gh) = self.grid_dims(&field);
        let (bw, bh) = (field.width(), field.height());
        let patch = self.config.patch;
        let classes = ObjectClass::COUNT;
        let token_count = gw * gh;

        let mut tape = Tape::new();
        let leaf = tape.leaf(field_to_leaf(&field));
        // Patch pooling: output (t, c) takes the max response of class c
        // inside patch t, floored at −1 exactly like `token_scores_from`.
        let mut groups: Vec<Vec<(usize, usize)>> = Vec::with_capacity(token_count * classes);
        for gy in 0..gh {
            for gx in 0..gw {
                for c in 0..classes {
                    let mut group = Vec::with_capacity(patch * patch);
                    for py in 0..patch {
                        for px in 0..patch {
                            let (y, x) = (gy * patch + py, gx * patch + px);
                            if y < bh && x < bw {
                                group.push((c, y * bw + x));
                            }
                        }
                    }
                    groups.push(group);
                }
            }
        }
        let content = tape.max_over_groups(leaf, &groups, -1.0, token_count, classes).ok()?;
        let embedded = tape.linear(&self.embed, content).ok()?;
        let mut x = tape.scale(embedded, self.config.content_gain).ok()?;
        let pos = grid_positional_encoding(gw, gh, self.config.model_dim);
        for block in &self.encoder {
            let qk = tape.add_const(x, &pos).ok()?;
            let attended = tape.multi_head_attention(block.attention(), qk, qk, x).ok()?;
            x = tape.add_scaled(x, attended, block.mix()).ok()?;
            let pre = tape.linear(block.ffn_in(), x).ok()?;
            let hidden = tape.gelu(pre).ok()?;
            let ffn = tape.linear(block.ffn_out(), hidden).ok()?;
            x = tape.add_scaled(x, ffn, block.mix()).ok()?;
        }
        let raw = tape.matmul_const(x, self.embed.weight(), self.config.kernel_policy).ok()?;
        let factors: Vec<f32> =
            self.head_norms.iter().map(|&n| 1.0 / (self.config.content_gain * n)).collect();
        let calibrated = tape.scale_columns(raw, &factors).ok()?;
        let suppressed = tape.sub_col_median(calibrated).ok()?;

        // Objective: the detector's own (non-tape) score matrix selects
        // the above-threshold entries, so the attacked quantity is exactly
        // what `detect` thresholds. `area_weight` additionally pulls in the
        // grid-neighbour tokens, whose scores feed the box gate.
        let scores = self.token_scores_from(&field);
        let mut coeffs = Matrix::zeros(token_count, classes);
        for t in 0..token_count {
            for c in 0..classes {
                if scores.at(t, c) <= self.threshold {
                    continue;
                }
                coeffs.set(t, c, coeffs.at(t, c) + 1.0);
                if objective.area_weight > 0.0 {
                    let (tx, ty) = (t % gw, t / gw);
                    for (nx, ny) in [
                        (tx.wrapping_sub(1), ty),
                        (tx + 1, ty),
                        (tx, ty.wrapping_sub(1)),
                        (tx, ty + 1),
                    ] {
                        if nx < gw && ny < gh {
                            let n = ny * gw + nx;
                            coeffs.set(n, c, coeffs.at(n, c) + objective.area_weight);
                        }
                    }
                }
            }
        }
        let objective_var = tape.weighted_sum(suppressed, &coeffs).ok()?;
        let objective_value = f64::from(tape.value(objective_var).at(0, 0));

        let grads = tape.backward(objective_var).ok()?;
        let dleaf = grads.get(leaf)?;
        let dfield = FeatureMap::from_vec(classes, bh, bw, dleaf.as_slice().to_vec()).ok()?;
        let gradient = field_gradient_to_image(img, &self.bank, &dfield);
        Some(InputGradient { objective: objective_value, gradient })
    }

    /// Post-encoder token scores as a per-class heatmap on the token grid.
    fn heatmap(&self, img: &Image) -> FeatureMap {
        let (gw, gh) = self.grid_size(img);
        let scores = self.token_scores(img);
        let mut map = FeatureMap::zeros(ObjectClass::COUNT, gh, gw);
        for class in ObjectClass::ALL {
            for t in 0..scores.rows() {
                map.set(class.index(), t / gw, t % gw, scores.at(t, class.index()));
            }
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_scene::SyntheticKitti;

    fn detector() -> DetrDetector {
        DetrDetector::new(DetrConfig::with_seed(1)).unwrap()
    }

    #[test]
    fn detects_objects_on_clean_scenes() {
        let data = SyntheticKitti::evaluation_set();
        let mut detr = detector();
        // Calibrated thresholds are the intended deployment path (the
        // paper assumes f(img) is correct; see ModelZoo::calibrated_model).
        detr.calibrate((0..4).map(|i| data.scene(i)));
        let mut matched = 0usize;
        let mut total = 0usize;
        for index in 0..4 {
            let scene = data.scene(index);
            let pred = detr.detect(&scene.render());
            for (class, bbox) in scene.ground_truths() {
                total += 1;
                if pred.best_iou(class, &bbox) > 0.4 {
                    matched += 1;
                }
            }
        }
        // The calibrated DETR operating point trades some recall for
        // precision (zoo-wide F1 ~= 0.65, see table1_setup); demand a
        // majority of ground truths, not YOLO-level recall.
        assert!(
            matched * 2 > total,
            "clean recall too low: {matched}/{total} ground truths matched"
        );
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = DetrDetector::new(DetrConfig::with_seed(4)).unwrap();
        let b = DetrDetector::new(DetrConfig::with_seed(4)).unwrap();
        let img = SyntheticKitti::smoke_set().image(1);
        assert_eq!(a.detect(&img), b.detect(&img));
    }

    #[test]
    fn seeds_produce_different_models() {
        let a = DetrDetector::new(DetrConfig::with_seed(1)).unwrap();
        let b = DetrDetector::new(DetrConfig::with_seed(2)).unwrap();
        assert_ne!(a.threshold(), b.threshold());
        let img = SyntheticKitti::smoke_set().image(0);
        // Different weights usually give different score fields.
        assert_ne!(a.token_scores(&img), b.token_scores(&img));
    }

    #[test]
    fn remote_perturbation_reaches_left_tokens() {
        // The defining property: a right-half perturbation changes
        // *left-half* token scores (contrast with response::response_is_local).
        let detr = detector();
        let data = SyntheticKitti::evaluation_set();
        let base = data.image(0);
        let mut noisy = base.clone();
        let mut rng = WeightInit::from_seed(6);
        for y in 0..noisy.height() {
            for x in (noisy.width() * 3 / 4)..noisy.width() {
                let p = noisy.pixel(x, y);
                noisy.put_pixel(x, y, [p[0] + rng.uniform(-60.0, 60.0), p[1], p[2]]);
            }
        }
        let (gw, _gh) = detr.grid_size(&base);
        let sa = detr.token_scores(&base);
        let sb = detr.token_scores(&noisy);
        let mut moved = 0.0f32;
        for t in 0..sa.rows() {
            if t % gw < gw / 2 {
                for c in 0..ObjectClass::COUNT {
                    moved += (sa.at(t, c) - sb.at(t, c)).abs();
                }
            }
        }
        assert!(moved > 0.01, "left-half token scores did not move ({moved})");
    }

    #[test]
    fn empty_scene_detects_little() {
        let detr = detector();
        let img = bea_scene::Scene::empty(128, 48).render();
        assert!(detr.detect(&img).len() <= 1);
    }

    #[test]
    fn heatmap_is_token_grid_sized() {
        let detr = detector();
        let img = SyntheticKitti::smoke_set().image(0);
        let (gw, gh) = detr.grid_size(&img);
        let map = detr.heatmap(&img);
        assert_eq!(map.shape(), (ObjectClass::COUNT, gh, gw));
    }

    #[test]
    fn incremental_matches_full_pass() {
        let detr = detector();
        let img = SyntheticKitti::evaluation_set().image(0);
        let (clean, _) = detr.clean_forward(&img);
        for (i, x0) in [10usize, 60, 110].iter().enumerate() {
            let mut mask = bea_image::FilterMask::zeros(img.width(), img.height());
            for y in 8..(14 + i) {
                for x in *x0..(*x0 + 12) {
                    mask.set(0, y, x, 60);
                }
            }
            let perturbed = mask.apply(&img);
            let dirty = crate::cache::mask_dirty_rect(&mask);
            let incremental = detr.detect_incremental(&clean, &perturbed, &dirty);
            assert!(incremental.global_stage_full);
            assert_eq!(incremental.prediction, detr.detect(&perturbed), "mask {i}");
        }
    }

    #[test]
    fn kernel_policy_does_not_change_predictions() {
        let img = SyntheticKitti::evaluation_set().image(0);
        let reference = DetrDetector::new(DetrConfig {
            kernel_policy: KernelPolicy::Reference,
            ..DetrConfig::with_seed(3)
        })
        .unwrap();
        let blocked = DetrDetector::new(DetrConfig {
            kernel_policy: KernelPolicy::Blocked,
            ..DetrConfig::with_seed(3)
        })
        .unwrap();
        assert_eq!(reference.token_scores(&img), blocked.token_scores(&img));
        assert_eq!(reference.detect(&img), blocked.detect(&img));
    }

    #[test]
    fn invalid_head_count_is_rejected() {
        let config = DetrConfig { model_dim: 24, heads: 5, ..DetrConfig::default() };
        assert!(DetrDetector::new(config).is_err());
    }
}
