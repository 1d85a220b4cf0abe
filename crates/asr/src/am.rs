//! Frame-level acoustic model: feature standardisation + a small MLP
//! (one ReLU hidden layer) + softmax.
//!
//! The model assigns each stacked feature frame a distribution over the
//! ARPAbet classes plus the CTC blank. It is trained with mini-batch SGD on
//! frame labels derived from the synthesizer's sample-exact alignments.
//!
//! The hidden layer matters beyond accuracy: a *linear* acoustic model
//! trained on similar data always converges to nearly the same decision
//! boundary, so adversarial perturbations would transfer between profiles
//! almost perfectly — the opposite of what the paper observes for real
//! DNN-based ASRs. With a nonlinear model, each profile's random
//! initialisation yields genuinely different hidden-unit boundaries, and a
//! white-box attack overfits the target's boundaries specifically, which is
//! precisely the mechanism behind the poor cross-ASR transferability the
//! detection system exploits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mvp_artifact::{ArtifactError, ArtifactKind, Decoder as FieldDecoder, Encoder, Persist};
use mvp_dsp::kernel;
use mvp_dsp::mfcc::FeatureMatrix;
use mvp_ml::quant::{Calibration, InputQuantizer, QuantizedMatrix};
use mvp_phonetics::Phoneme;

/// Per-dimension standardisation fitted on training data.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureScaler {
    mean: Vec<f64>,
    inv_std: Vec<f64>,
}

impl FeatureScaler {
    /// Fits mean/std on the rows of `feats`.
    ///
    /// # Panics
    ///
    /// Panics if `feats` has no rows.
    pub fn fit(feats: &FeatureMatrix) -> FeatureScaler {
        assert!(!feats.is_empty(), "cannot fit scaler on empty data");
        let d = feats.dim();
        let n = feats.n_frames() as f64;
        let mut mean = vec![0.0; d];
        for r in feats.rows() {
            for (m, &v) in mean.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for r in feats.rows() {
            for ((v, &x), &m) in var.iter_mut().zip(r).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let inv_std = var.iter().map(|&v| 1.0 / (v / n).sqrt().max(1e-6)).collect();
        FeatureScaler { mean, inv_std }
    }

    /// Applies the standardisation.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        self.transform_into(row, &mut out);
        out
    }

    /// Allocation-free [`transform`](Self::transform): writes the
    /// standardised row into `out`.
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        for (o, ((&x, &m), &s)) in out.iter_mut().zip(row.iter().zip(&self.mean).zip(&self.inv_std))
        {
            *o = (x - m) * s;
        }
    }

    /// Backward: gradient w.r.t. the unscaled features.
    pub fn backward(&self, d_scaled: &[f64]) -> Vec<f64> {
        let mut out = d_scaled.to_vec();
        self.backward_in_place(&mut out);
        out
    }

    /// In-place [`backward`](Self::backward): rescales a gradient over the
    /// standardised features into one over the raw features.
    pub fn backward_in_place(&self, d_scaled: &mut [f64]) {
        for (g, &s) in d_scaled.iter_mut().zip(&self.inv_std) {
            *g *= s;
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }
}

/// Training hyper-parameters for [`AcousticModel::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// SGD step size.
    pub learning_rate: f64,
    /// L2 weight decay.
    pub l2: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Shuffling / init seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 10, learning_rate: 0.08, l2: 1e-5, batch: 32, hidden: 64, seed: 1 }
    }
}

/// Number of output classes: the full phoneme inventory plus a dedicated
/// CTC blank.
///
/// Silence is a *regular* class (like DeepSpeech's space character), so
/// attack targets can contain word boundaries; the blank class never occurs
/// in training labels and exists only so the CTC loss has its usual
/// topology.
pub const N_CLASSES: usize = Phoneme::COUNT + 1;

/// Reusable workspace for the acoustic model's per-row passes
/// ([`AcousticModel::logits_into`],
/// [`AcousticModel::backward_to_features_into`]).
#[derive(Debug, Clone, Default)]
pub struct AmScratch {
    x: Vec<f64>,
    hid: Vec<f64>,
    d_hid: Vec<f64>,
    /// Scaled feature rows for the batch GEMM path.
    xs: FeatureMatrix,
    /// Hidden activations for the batch GEMM path.
    hid_m: FeatureMatrix,
    /// Quantized input rows for the int8 path.
    qx: Vec<i8>,
    /// Quantized hidden activations for the int8 path.
    qh: Vec<i8>,
    /// i32 GEMM accumulators for the int8 path.
    acc: Vec<i32>,
}

/// The acoustic model: `logits = W2·relu(W1·scale(x) + b1) + b2`.
#[derive(Debug, Clone)]
pub struct AcousticModel {
    /// Row-major `[hidden × dim]`.
    w1: Vec<f64>,
    b1: Vec<f64>,
    /// Row-major `[N_CLASSES × hidden]`.
    w2: Vec<f64>,
    b2: Vec<f64>,
    scaler: FeatureScaler,
    dim: usize,
    hidden: usize,
}

impl AcousticModel {
    /// Trains a model on `features` with per-frame `labels` (phoneme class
    /// indices). The rows are standardised in place, so training holds
    /// one feature matrix rather than a second, scaled copy.
    ///
    /// # Panics
    ///
    /// Panics if the data is empty, ragged, or labels are out of range.
    pub fn train(
        mut features: FeatureMatrix,
        labels: &[usize],
        cfg: &TrainConfig,
    ) -> AcousticModel {
        assert_eq!(features.n_frames(), labels.len(), "feature/label count mismatch");
        assert!(!features.is_empty(), "empty training set");
        assert!(labels.iter().all(|&l| l < N_CLASSES), "label out of range");
        assert!(cfg.hidden > 0, "hidden width must be positive");
        let dim = features.dim();
        let h = cfg.hidden;
        let scaler = FeatureScaler::fit(&features);
        let mut raw = vec![0.0; dim];
        for i in 0..features.n_frames() {
            raw.copy_from_slice(features.row(i));
            scaler.transform_into(&raw, features.row_mut(i));
        }
        let scaled = features;

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // He-style initialisation.
        let s1 = (2.0 / dim as f64).sqrt();
        let s2 = (2.0 / h as f64).sqrt();
        let mut w1: Vec<f64> = (0..h * dim).map(|_| rng.gen_range(-s1..s1)).collect();
        let mut b1 = vec![0.0; h];
        let mut w2: Vec<f64> = (0..N_CLASSES * h).map(|_| rng.gen_range(-s2..s2)).collect();
        let mut b2 = vec![0.0; N_CLASSES];

        let mut order: Vec<usize> = (0..scaled.n_frames()).collect();
        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(cfg.batch) {
                let mut gw1 = vec![0.0; h * dim];
                let mut gb1 = vec![0.0; h];
                let mut gw2 = vec![0.0; N_CLASSES * h];
                let mut gb2 = vec![0.0; N_CLASSES];
                for &i in chunk {
                    let x = scaled.row(i);
                    // Forward.
                    let mut hid = vec![0.0; h];
                    for j in 0..h {
                        let row = &w1[j * dim..(j + 1) * dim];
                        hid[j] = (b1[j] + kernel::dot(row, x)).max(0.0);
                    }
                    let mut logits = vec![0.0; N_CLASSES];
                    for c in 0..N_CLASSES {
                        logits[c] = b2[c] + kernel::dot(&w2[c * h..(c + 1) * h], &hid);
                    }
                    let probs = softmax(&logits);
                    // Backward.
                    let mut d_hid = vec![0.0; h];
                    for c in 0..N_CLASSES {
                        let err = probs[c] - f64::from(c == labels[i]);
                        gb2[c] += err;
                        kernel::axpy(&mut gw2[c * h..(c + 1) * h], err, &hid);
                        kernel::axpy(&mut d_hid, err, &w2[c * h..(c + 1) * h]);
                    }
                    for j in 0..h {
                        if hid[j] <= 0.0 {
                            continue; // ReLU gate
                        }
                        gb1[j] += d_hid[j];
                        kernel::axpy(&mut gw1[j * dim..(j + 1) * dim], d_hid[j], x);
                    }
                }
                let scale = cfg.learning_rate / chunk.len() as f64;
                let decay = cfg.learning_rate * cfg.l2;
                for (w, g) in w1.iter_mut().zip(&gw1) {
                    *w -= scale * g + decay * *w;
                }
                for (b, g) in b1.iter_mut().zip(&gb1) {
                    *b -= scale * g;
                }
                for (w, g) in w2.iter_mut().zip(&gw2) {
                    *w -= scale * g + decay * *w;
                }
                for (b, g) in b2.iter_mut().zip(&gb2) {
                    *b -= scale * g;
                }
            }
        }
        AcousticModel { w1, b1, w2, b2, scaler, dim, hidden: h }
    }

    /// Input feature dimensionality (before standardisation).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Scales `row` into `scratch.x` and fills `scratch.hid` with the ReLU
    /// hidden activations.
    fn forward_hidden(&self, row: &[f64], scratch: &mut AmScratch) {
        scratch.x.resize(self.dim, 0.0);
        self.scaler.transform_into(row, &mut scratch.x);
        scratch.hid.resize(self.hidden, 0.0);
        kernel::gemv(&self.w1, self.dim, &scratch.x, &mut scratch.hid);
        for (h, &b) in scratch.hid.iter_mut().zip(&self.b1) {
            *h = (*h + b).max(0.0);
        }
    }

    /// Logits for one raw (unscaled) feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn logits(&self, row: &[f64]) -> Vec<f64> {
        let mut scratch = AmScratch::default();
        let mut out = vec![0.0; N_CLASSES];
        self.logits_into(row, &mut scratch, &mut out);
        out
    }

    /// Allocation-free [`logits`](Self::logits): writes the `N_CLASSES`
    /// logits for one raw feature row into `out`, reusing `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()` or `out.len() != N_CLASSES`.
    pub fn logits_into(&self, row: &[f64], scratch: &mut AmScratch, out: &mut [f64]) {
        assert_eq!(row.len(), self.dim, "feature dimension mismatch");
        assert_eq!(out.len(), N_CLASSES, "logit output length");
        self.forward_hidden(row, scratch);
        kernel::gemv(&self.w2, self.hidden, &scratch.hid, out);
        for (o, &b) in out.iter_mut().zip(&self.b2) {
            *o += b;
        }
    }

    /// Logit matrix (`n_frames × N_CLASSES`) for a whole feature matrix.
    pub fn logit_matrix(&self, feats: &FeatureMatrix) -> FeatureMatrix {
        let mut scratch = AmScratch::default();
        let mut out = FeatureMatrix::default();
        self.logit_matrix_into(feats, &mut scratch, &mut out);
        out
    }

    /// Allocation-free [`logit_matrix`](Self::logit_matrix): fills `out`
    /// with per-frame logits, reusing `scratch` across rows.
    ///
    /// Batched form of [`logits_into`](Self::logits_into): two
    /// cache-blocked `kernel::gemm_nt` calls over all frames at once.
    /// `gemm_nt` never splits the inner dimension, so every row of the
    /// result is bit-identical to the per-row path.
    ///
    /// # Panics
    ///
    /// Panics if `feats.dim() != self.dim()` (for a non-empty matrix).
    pub fn logit_matrix_into(
        &self,
        feats: &FeatureMatrix,
        scratch: &mut AmScratch,
        out: &mut FeatureMatrix,
    ) {
        let n = feats.n_frames();
        out.reset(n, N_CLASSES);
        if n == 0 {
            return;
        }
        assert_eq!(feats.dim(), self.dim, "feature dimension mismatch");
        scratch.xs.reset(n, self.dim);
        for (t, row) in feats.rows().enumerate() {
            self.scaler.transform_into(row, scratch.xs.row_mut(t));
        }
        scratch.hid_m.reset(n, self.hidden);
        kernel::gemm_nt(
            scratch.xs.as_slice(),
            n,
            &self.w1,
            self.hidden,
            self.dim,
            scratch.hid_m.as_mut_slice(),
        );
        for t in 0..n {
            for (h, &b) in scratch.hid_m.row_mut(t).iter_mut().zip(&self.b1) {
                *h = (*h + b).max(0.0);
            }
        }
        kernel::gemm_nt(
            scratch.hid_m.as_slice(),
            n,
            &self.w2,
            N_CLASSES,
            self.hidden,
            out.as_mut_slice(),
        );
        for t in 0..n {
            for (o, &b) in out.row_mut(t).iter_mut().zip(&self.b2) {
                *o += b;
            }
        }
    }

    /// Most likely class per frame.
    pub fn predict(&self, feats: &FeatureMatrix) -> Vec<usize> {
        let mut scratch = AmScratch::default();
        let mut logits = vec![0.0; N_CLASSES];
        feats
            .rows()
            .map(|r| {
                self.logits_into(r, &mut scratch, &mut logits);
                argmax(&logits)
            })
            .collect()
    }

    /// Fraction of frames whose argmax matches `labels`.
    pub fn frame_accuracy(&self, features: &FeatureMatrix, labels: &[usize]) -> f64 {
        assert_eq!(features.n_frames(), labels.len());
        if features.is_empty() {
            return 0.0;
        }
        let correct = self.predict(features).iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / features.n_frames() as f64
    }

    /// Backward through scaler + MLP: gradient w.r.t. the raw feature row
    /// `x_raw` given a gradient w.r.t. the logits.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward_to_features(&self, x_raw: &[f64], d_logits: &[f64]) -> Vec<f64> {
        let mut scratch = AmScratch::default();
        let mut out = vec![0.0; self.dim];
        self.backward_to_features_into(x_raw, d_logits, &mut scratch, &mut out);
        out
    }

    /// Allocation-free [`backward_to_features`](Self::backward_to_features):
    /// writes the raw-feature gradient into `out`, reusing `scratch`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn backward_to_features_into(
        &self,
        x_raw: &[f64],
        d_logits: &[f64],
        scratch: &mut AmScratch,
        out: &mut [f64],
    ) {
        assert_eq!(d_logits.len(), N_CLASSES, "logit gradient length");
        assert_eq!(x_raw.len(), self.dim, "feature dimension mismatch");
        assert_eq!(out.len(), self.dim, "feature gradient length");
        self.forward_hidden(x_raw, scratch);
        // d_hid = W2^T d_logits, gated by ReLU.
        scratch.d_hid.clear();
        scratch.d_hid.resize(self.hidden, 0.0);
        for (c, &g) in d_logits.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            kernel::axpy(&mut scratch.d_hid, g, &self.w2[c * self.hidden..(c + 1) * self.hidden]);
        }
        out.fill(0.0);
        for j in 0..self.hidden {
            if scratch.hid[j] <= 0.0 || scratch.d_hid[j] == 0.0 {
                continue;
            }
            kernel::axpy(out, scratch.d_hid[j], &self.w1[j * self.dim..(j + 1) * self.dim]);
        }
        self.scaler.backward_in_place(out);
    }
}

/// An int8 precision variant of [`AcousticModel`]: the same scaler and
/// biases, but both weight matrices quantized to symmetric i8 codes and
/// both layer inputs quantized through calibrated per-layer scales.
///
/// The forward pass mirrors [`AcousticModel::logit_matrix_into`] with
/// the two f64 GEMMs swapped for [`kernel::gemm_nt_i8`]: quantize the
/// scaled inputs, accumulate raw i8 products in i32, then dequantize
/// with one multiply per output (`acc · w_scale · in_scale`) before the
/// bias and ReLU run in f64 as usual. Quantization noise makes this a
/// *cheap ensemble member* in the PVP sense — its decision boundaries
/// differ from the f64 model's in exactly the way precision diversity
/// predicts, while transcripts on benign audio stay overwhelmingly in
/// agreement.
///
/// Only the forward path exists in int8; attack gradients always flow
/// through the f64 weights of the model this one was quantized from.
#[derive(Debug, Clone)]
pub struct QuantizedAcousticModel {
    /// Row-major `[hidden × dim]` i8 codes with per-row scales.
    w1: QuantizedMatrix,
    b1: Vec<f64>,
    /// Row-major `[N_CLASSES × hidden]` i8 codes with per-row scales.
    w2: QuantizedMatrix,
    b2: Vec<f64>,
    /// Calibrated scale for the standardised input features.
    in_q: InputQuantizer,
    /// Calibrated scale for the ReLU hidden activations.
    hid_q: InputQuantizer,
    scaler: FeatureScaler,
    dim: usize,
    hidden: usize,
}

impl QuantizedAcousticModel {
    /// Quantizes `am` post-training, calibrating both activation scales
    /// on `calibration` (benign feature rows).
    ///
    /// The hidden-layer scale is calibrated on the activations the
    /// *quantized* first layer produces — not the f64 model's — so the
    /// runtime distribution is exactly the calibrated one.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty, has the wrong dimensionality,
    /// or yields no finite activations.
    pub fn quantize(am: &AcousticModel, calibration: &FeatureMatrix) -> QuantizedAcousticModel {
        assert!(!calibration.is_empty(), "cannot calibrate on an empty sample");
        assert_eq!(calibration.dim(), am.dim, "calibration dimension mismatch");
        let w1 = QuantizedMatrix::quantize(&am.w1, am.hidden, am.dim);
        let w2 = QuantizedMatrix::quantize(&am.w2, N_CLASSES, am.hidden);

        let mut x = vec![0.0; am.dim];
        let mut cal_in = Calibration::new();
        for row in calibration.rows() {
            am.scaler.transform_into(row, &mut x);
            cal_in.observe(&x);
        }
        let in_q = cal_in.input_quantizer();

        let mut cal_hid = Calibration::new();
        let mut qx = Vec::new();
        let mut acc = vec![0i32; am.hidden];
        let mut hid = vec![0.0; am.hidden];
        for row in calibration.rows() {
            am.scaler.transform_into(row, &mut x);
            in_q.quantize_into(&x, &mut qx);
            kernel::gemm_nt_i8(&qx, 1, w1.data(), am.hidden, am.dim, &mut acc);
            for ((h, &a), (&s, &b)) in hid.iter_mut().zip(&acc).zip(w1.scales().iter().zip(&am.b1))
            {
                *h = (f64::from(a) * s * in_q.scale() + b).max(0.0);
            }
            cal_hid.observe(&hid);
        }
        let hid_q = cal_hid.input_quantizer();

        QuantizedAcousticModel {
            w1,
            b1: am.b1.clone(),
            w2,
            b2: am.b2.clone(),
            in_q,
            hid_q,
            scaler: am.scaler.clone(),
            dim: am.dim,
            hidden: am.hidden,
        }
    }

    /// Input feature dimensionality (before standardisation).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Logits for one raw feature row (convenience; the hot path is
    /// [`logit_matrix_into`](Self::logit_matrix_into)).
    pub fn logits(&self, row: &[f64]) -> Vec<f64> {
        let mut feats = FeatureMatrix::zeros(0, row.len());
        feats.push_row(row);
        let mut out = FeatureMatrix::default();
        self.logit_matrix_into(&feats, &mut AmScratch::default(), &mut out);
        out.row(0).to_vec()
    }

    /// Int8 counterpart of [`AcousticModel::logit_matrix_into`]: fills
    /// `out` with per-frame logits, reusing `scratch` across calls.
    ///
    /// # Panics
    ///
    /// Panics if `feats.dim() != self.dim()` (for a non-empty matrix).
    pub fn logit_matrix_into(
        &self,
        feats: &FeatureMatrix,
        scratch: &mut AmScratch,
        out: &mut FeatureMatrix,
    ) {
        let n = feats.n_frames();
        out.reset(n, N_CLASSES);
        if n == 0 {
            return;
        }
        assert_eq!(feats.dim(), self.dim, "feature dimension mismatch");
        scratch.xs.reset(n, self.dim);
        for (t, row) in feats.rows().enumerate() {
            self.scaler.transform_into(row, scratch.xs.row_mut(t));
        }
        self.in_q.quantize_into(scratch.xs.as_slice(), &mut scratch.qx);
        scratch.acc.clear();
        scratch.acc.resize(n * self.hidden, 0);
        kernel::gemm_nt_i8(&scratch.qx, n, self.w1.data(), self.hidden, self.dim, &mut scratch.acc);
        scratch.hid_m.reset(n, self.hidden);
        let d1 = self.in_q.scale();
        for t in 0..n {
            let acc_row = &scratch.acc[t * self.hidden..(t + 1) * self.hidden];
            for ((h, &a), (&s, &b)) in scratch
                .hid_m
                .row_mut(t)
                .iter_mut()
                .zip(acc_row)
                .zip(self.w1.scales().iter().zip(&self.b1))
            {
                *h = (f64::from(a) * s * d1 + b).max(0.0);
            }
        }
        self.hid_q.quantize_into(scratch.hid_m.as_slice(), &mut scratch.qh);
        scratch.acc.clear();
        scratch.acc.resize(n * N_CLASSES, 0);
        kernel::gemm_nt_i8(
            &scratch.qh,
            n,
            self.w2.data(),
            N_CLASSES,
            self.hidden,
            &mut scratch.acc,
        );
        let d2 = self.hid_q.scale();
        for t in 0..n {
            let acc_row = &scratch.acc[t * N_CLASSES..(t + 1) * N_CLASSES];
            for ((o, &a), (&s, &b)) in
                out.row_mut(t).iter_mut().zip(acc_row).zip(self.w2.scales().iter().zip(&self.b2))
            {
                *o = f64::from(a) * s * d2 + b;
            }
        }
    }

    /// Appends the model to an artifact payload (nested inside the
    /// quantized-pipeline artifact, like the config records).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.dim);
        enc.put_usize(self.hidden);
        self.w1.encode(enc);
        enc.put_f64s(&self.b1);
        self.w2.encode(enc);
        enc.put_f64s(&self.b2);
        self.in_q.encode(enc);
        self.hid_q.encode(enc);
        self.scaler.encode(enc);
    }

    /// Reads a model written by [`encode`](Self::encode), refusing any
    /// internally inconsistent shape.
    pub fn decode(dec: &mut FieldDecoder<'_>) -> Result<QuantizedAcousticModel, ArtifactError> {
        let dim = dec.usize()?;
        let hidden = dec.usize()?;
        let w1 = QuantizedMatrix::decode(dec)?;
        let b1 = dec.f64s()?;
        let w2 = QuantizedMatrix::decode(dec)?;
        let b2 = dec.f64s()?;
        let in_q = InputQuantizer::decode(dec)?;
        let hid_q = InputQuantizer::decode(dec)?;
        let scaler = FeatureScaler::decode(dec)?;
        let shape_ok = hidden > 0
            && w1.n_rows() == hidden
            && w1.n_cols() == dim
            && b1.len() == hidden
            && w2.n_rows() == N_CLASSES
            && w2.n_cols() == hidden
            && b2.len() == N_CLASSES
            && scaler.dim() == dim;
        if !shape_ok {
            return Err(ArtifactError::SchemaMismatch(format!(
                "quantized acoustic model shapes inconsistent with dim {dim}, \
                 hidden {hidden}, {N_CLASSES} classes"
            )));
        }
        Ok(QuantizedAcousticModel { w1, b1, w2, b2, in_q, hid_q, scaler, dim, hidden })
    }
}

impl Persist for FeatureScaler {
    const KIND: ArtifactKind = ArtifactKind::FEATURE_SCALER;
    const SCHEMA_VERSION: u16 = 1;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64s(&self.mean);
        enc.put_f64s(&self.inv_std);
    }

    fn decode(dec: &mut FieldDecoder<'_>) -> Result<Self, ArtifactError> {
        let mean = dec.f64s()?;
        let inv_std = dec.f64s()?;
        if mean.len() != inv_std.len() {
            return Err(ArtifactError::SchemaMismatch(format!(
                "scaler mean dim {} != inv_std dim {}",
                mean.len(),
                inv_std.len()
            )));
        }
        Ok(FeatureScaler { mean, inv_std })
    }
}

impl Persist for AcousticModel {
    const KIND: ArtifactKind = ArtifactKind::ACOUSTIC_MODEL;
    const SCHEMA_VERSION: u16 = 1;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.dim);
        enc.put_usize(self.hidden);
        enc.put_f64s(&self.w1);
        enc.put_f64s(&self.b1);
        enc.put_f64s(&self.w2);
        enc.put_f64s(&self.b2);
        self.scaler.encode(enc);
    }

    fn decode(dec: &mut FieldDecoder<'_>) -> Result<Self, ArtifactError> {
        let dim = dec.usize()?;
        let hidden = dec.usize()?;
        let w1 = dec.f64s()?;
        let b1 = dec.f64s()?;
        let w2 = dec.f64s()?;
        let b2 = dec.f64s()?;
        let scaler = FeatureScaler::decode(dec)?;
        let shape_ok = hidden > 0
            && hidden.checked_mul(dim) == Some(w1.len())
            && b1.len() == hidden
            && N_CLASSES.checked_mul(hidden) == Some(w2.len())
            && b2.len() == N_CLASSES
            && scaler.dim() == dim;
        if !shape_ok {
            return Err(ArtifactError::SchemaMismatch(format!(
                "acoustic model shapes inconsistent with dim {dim}, hidden {hidden}, \
                 {N_CLASSES} classes"
            )));
        }
        Ok(AcousticModel { w1, b1, w2, b2, scaler, dim, hidden })
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; logits.len()];
    softmax_into(logits, &mut out);
    out
}

/// Allocation-free [`softmax`]: writes the probabilities into `out`.
///
/// # Panics
///
/// Panics if `out.len() != logits.len()`.
pub fn softmax_into(logits: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), logits.len(), "softmax output length");
    let m = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut z = 0.0;
    for (o, &l) in out.iter_mut().zip(logits) {
        *o = (l - m).exp();
        z += *o;
    }
    for o in out.iter_mut() {
        *o /= z;
    }
}

/// Index of the largest element. `total_cmp` keeps a NaN logit from
/// panicking mid-decode (it ranks above every finite value and wins,
/// which downstream decoding treats like any other class choice).
pub fn argmax(v: &[f64]) -> usize {
    // mvp-lint: allow(panic-path) -- callers pass N_CLASSES-wide logit rows; an empty row is a construction bug, not request input
    v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).expect("empty logits")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a linearly separable 3-class toy problem on 4-dim features.
    fn toy_data(n_per_class: usize, seed: u64) -> (FeatureMatrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [[3.0, 0.0, 0.0, 1.0], [0.0, 3.0, 1.0, 0.0], [-3.0, -3.0, 0.0, 0.0]];
        let mut feats = FeatureMatrix::zeros(0, 4);
        let mut labels = Vec::new();
        let mut row = [0.0; 4];
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                for (r, &m) in row.iter_mut().zip(center) {
                    *r = m + rng.gen_range(-0.5..0.5);
                }
                feats.push_row(&row);
                labels.push(c);
            }
        }
        (feats, labels)
    }

    #[test]
    fn learns_separable_classes() {
        let (feats, labels) = toy_data(60, 3);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let acc = am.frame_accuracy(&feats, &labels);
        assert!(acc > 0.98, "train accuracy {acc}");
        let (test_f, test_l) = toy_data(20, 99);
        let test_acc = am.frame_accuracy(&test_f, &test_l);
        assert!(test_acc > 0.95, "test accuracy {test_acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let (feats, labels) = toy_data(20, 3);
        let a = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let b = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        assert_eq!(a.logits(feats.row(0)), b.logits(feats.row(0)));
    }

    #[test]
    fn different_seeds_give_different_models() {
        let (feats, labels) = toy_data(20, 3);
        let a = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let b = AcousticModel::train(
            feats.clone(),
            &labels,
            &TrainConfig { seed: 77, ..TrainConfig::default() },
        );
        assert_ne!(a.logits(feats.row(0)), b.logits(feats.row(0)));
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0, -1.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0] && p[0] > p[3]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let (feats, labels) = toy_data(20, 3);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let x = feats.row(0).to_vec();
        let mut d_logits = vec![0.0; N_CLASSES];
        d_logits[0] = 1.0;
        d_logits[5] = -2.0;
        let grad = am.backward_to_features(&x, &d_logits);
        let f = |x: &[f64]| {
            let l = am.logits(x);
            l[0] - 2.0 * l[5]
        };
        let eps = 1e-6;
        for t in 0..x.len() {
            let mut hi = x.clone();
            hi[t] += eps;
            let mut lo = x.clone();
            lo[t] -= eps;
            let fd = (f(&hi) - f(&lo)) / (2.0 * eps);
            // ReLU kinks can make a coordinate locally non-smooth; allow a
            // loose tolerance there but demand close agreement on average.
            assert!((grad[t] - fd).abs() < 1e-4, "dim {t}: {} vs {fd}", grad[t]);
        }
    }

    #[test]
    fn hidden_width_configurable() {
        let (feats, labels) = toy_data(10, 3);
        let am = AcousticModel::train(
            feats.clone(),
            &labels,
            &TrainConfig { hidden: 7, ..TrainConfig::default() },
        );
        assert_eq!(am.hidden(), 7);
        assert_eq!(am.logits(feats.row(0)).len(), N_CLASSES);
    }

    #[test]
    fn logit_matrix_scratch_path_matches_per_row() {
        let (feats, labels) = toy_data(10, 3);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let m = am.logit_matrix(&feats);
        assert_eq!(m.n_frames(), feats.n_frames());
        assert_eq!(m.dim(), N_CLASSES);
        let mut scratch = AmScratch::default();
        let mut reused = FeatureMatrix::default();
        am.logit_matrix_into(&feats, &mut scratch, &mut reused);
        assert_eq!(reused, m);
        for t in 0..feats.n_frames() {
            assert_eq!(m.row(t), am.logits(feats.row(t)).as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn ragged_input_rejected() {
        let am = {
            let (feats, labels) = toy_data(5, 3);
            AcousticModel::train(feats.clone(), &labels, &TrainConfig::default())
        };
        am.logits(&[1.0, 2.0]);
    }

    #[test]
    fn persisted_model_reproduces_logits_bit_exactly() {
        let (feats, labels) = toy_data(20, 3);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let mut bytes = Vec::new();
        am.write_to(&mut bytes).unwrap();
        let back = AcousticModel::read_from(&bytes[..]).unwrap();
        assert_eq!(back.dim(), am.dim());
        assert_eq!(back.hidden(), am.hidden());
        for t in 0..feats.n_frames() {
            assert_eq!(back.logits(feats.row(t)), am.logits(feats.row(t)));
        }
    }

    #[test]
    fn inconsistent_model_shapes_are_refused() {
        let (feats, labels) = toy_data(10, 3);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let mut enc = Encoder::new();
        am.encode(&mut enc);
        // Re-frame the valid payload with a lying hidden width: the checksum
        // passes, so the shape validation must catch it.
        let mut payload = enc.as_bytes().to_vec();
        payload[8..16].copy_from_slice(&(am.hidden() as u64 + 1).to_le_bytes());
        let mut bytes = Vec::new();
        mvp_artifact::write_artifact(
            &mut bytes,
            AcousticModel::KIND,
            AcousticModel::SCHEMA_VERSION,
            &payload,
        )
        .unwrap();
        assert!(matches!(
            AcousticModel::read_from(&bytes[..]),
            Err(ArtifactError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn quantized_model_agrees_with_f64_on_most_frames() {
        let (feats, labels) = toy_data(60, 3);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let qam = QuantizedAcousticModel::quantize(&am, &feats);
        assert_eq!(qam.dim(), am.dim());
        assert_eq!(qam.hidden(), am.hidden());
        let mut scratch = AmScratch::default();
        let mut q_logits = FeatureMatrix::default();
        qam.logit_matrix_into(&feats, &mut scratch, &mut q_logits);
        let f_logits = am.logit_matrix(&feats);
        let agree = (0..feats.n_frames())
            .filter(|&t| argmax(q_logits.row(t)) == argmax(f_logits.row(t)))
            .count();
        let rate = agree as f64 / feats.n_frames() as f64;
        assert!(rate > 0.95, "int8/f64 frame agreement {rate}");
    }

    #[test]
    fn quantized_batch_path_matches_per_row() {
        let (feats, labels) = toy_data(15, 5);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let qam = QuantizedAcousticModel::quantize(&am, &feats);
        let mut scratch = AmScratch::default();
        let mut batch = FeatureMatrix::default();
        qam.logit_matrix_into(&feats, &mut scratch, &mut batch);
        for t in 0..feats.n_frames() {
            assert_eq!(batch.row(t), qam.logits(feats.row(t)).as_slice(), "frame {t}");
        }
    }

    #[test]
    fn quantized_model_codec_round_trips_bit_exactly() {
        let (feats, labels) = toy_data(15, 7);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let qam = QuantizedAcousticModel::quantize(&am, &feats);
        let mut enc = Encoder::new();
        qam.encode(&mut enc);
        let mut dec = FieldDecoder::new(enc.as_bytes());
        let back = QuantizedAcousticModel::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        for t in 0..feats.n_frames() {
            assert_eq!(back.logits(feats.row(t)), qam.logits(feats.row(t)));
        }
    }

    #[test]
    fn quantized_model_decode_refuses_inconsistent_shapes() {
        let (feats, labels) = toy_data(10, 7);
        let am = AcousticModel::train(feats.clone(), &labels, &TrainConfig::default());
        let qam = QuantizedAcousticModel::quantize(&am, &feats);
        let mut enc = Encoder::new();
        qam.encode(&mut enc);
        // Lie about the hidden width (second u64 of the record): every
        // dependent shape check must now fail loudly, not misindex.
        let mut payload = enc.as_bytes().to_vec();
        payload[8..16].copy_from_slice(&(qam.hidden() as u64 + 1).to_le_bytes());
        let mut dec = FieldDecoder::new(&payload);
        assert!(matches!(
            QuantizedAcousticModel::decode(&mut dec),
            Err(ArtifactError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn scaler_standardises() {
        let rows =
            FeatureMatrix::from_rows(vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]], 2);
        let sc = FeatureScaler::fit(&rows);
        let t = sc.transform(&[3.0, 30.0]);
        assert!(t.iter().all(|v| v.abs() < 1e-9)); // the mean maps to 0
        let hi = sc.transform(&[5.0, 50.0]);
        assert!((hi[0] - hi[1]).abs() < 1e-9); // equal z-scores
    }
}
