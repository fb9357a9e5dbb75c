//! Scale / zero-point extraction and i8 requantization primitives.
//!
//! The integer path must reproduce what quantization-aware training
//! simulated, so both grids mirror the Eq. 10 fake quantizer in
//! `cq-quant` exactly (see `DESIGN.md` §15 for the derivation):
//!
//! - **Activations** use the per-tensor zero-anchored grid: the observed
//!   range `[lo, hi]` is widened to include 0 (`lo' = min(lo, 0)`,
//!   `hi' = max(hi, 0)`), `step = (hi' - lo') / 255`, and the true code
//!   of a value is `round(v / step)` — the same projection
//!   `fake_quant_into` applies. Post-ReLU tensors (the only ones the
//!   training path quantizes) have `lo = 0`, so widening is a no-op
//!   there and the grid is bit-identical to training. Codes are stored
//!   as `i8` offset by the zero point `zp = cmin + 128`; real zeros map
//!   exactly to stored code `-zp`, which is also the convolution padding
//!   byte.
//! - **Weights** use the same per-tensor zero-anchored grid over the raw
//!   range (weights are not widened — the fake quantizer does not widen
//!   either, and padding never applies to weights). A constant tensor is
//!   represented exactly (`step = |v|`, all true codes `±1`), matching
//!   the fake quantizer's constant-tensor no-op.
//! - All grid projections use the shared round-half-away-from-zero rule
//!   pinned by [`cq_quant::intmath`], so the integer path and the
//!   fake-quant training path round identically.
//!
//! With true codes `ca = stored_a + za` and `cw = stored_w + zw`, the
//! dequantized product telescopes into one integer expression per
//! output element:
//!
//! ```text
//! Σ_k (sa·ca)(sw·cw) = sa·sw·( dot + za·wsum[o] + zw·asum[j] + K·za·zw )
//! ```
//!
//! where `dot` is the i8×i8→i32 GEMM over stored codes, `wsum[o]` the
//! per-row stored-code sum (precomputed here), and `asum[j]` the
//! per-column stored-code sum (computed at run time). Batch norm is
//! *not* folded into the weights before requantization — that would
//! change the weight grid away from the one training simulated; instead
//! `gamma/sqrt(var+eps)` folds into the per-channel rescale that
//! follows the integer MAC (see `model.rs`). The classic weight-space
//! fold is kept as [`fold_batch_norm`] for reference and testing.

use cq_quant::intmath::round_half_away;
use cq_quant::{emit_i8_codes, RangeScan};

/// Batch-norm epsilon used when folding running statistics into a
/// preceding linear/conv layer's rescale. Pinned to the `cq_nn`
/// batch-norm default (a test cross-checks the fold against a real
/// `BatchNorm2d` in eval mode, so drift in either constant is caught).
pub const BN_EPS: f32 = 1e-5;

/// Number of representable steps on the 8-bit grid.
const I8_STEPS: f32 = 255.0;

/// An activation tensor quantized to i8 codes on a zero-anchored grid.
#[derive(Debug, Clone)]
pub struct ActQuant {
    /// Stored i8 codes, same layout as the source slice.
    pub codes: Vec<i8>,
    /// Grid step (dequantize as `step * (code + zp)`).
    pub step: f32,
    /// Zero point: real 0.0 maps exactly to stored code `-zp`.
    pub zp: i32,
}

/// Quantizes an activation slice to i8 on a zero-extended, zero-anchored
/// grid.
///
/// Non-finite values are ignored during range calibration; a constant or
/// empty slice yields `step = 1.0` and codes of `-zp` (all zeros after
/// dequantization). NaN takes true code 0 (stored `-zp`, clamped), `+Inf`
/// the top stored code 127 and `-Inf` the bottom stored code −128.
pub fn quantize_activations(data: &[f32]) -> ActQuant {
    let scan = RangeScan::scan(data);
    let (step, zp) = act_grid(scan.lo(), scan.hi());
    let mut codes = vec![0i8; data.len()];
    emit_i8_codes(data, step, zp, &mut codes);
    ActQuant { codes, step, zp }
}

/// The activation grid `(step, zp)` of a tensor whose finite values range
/// over `[lo, hi]` (`+∞`/`−∞` when there are none, which the widening to
/// 0 absorbs).
pub(crate) fn act_grid(lo: f32, hi: f32) -> (f32, i32) {
    let lo = lo.min(0.0);
    let hi = hi.max(0.0);
    let range = hi - lo;
    let step = if range > 0.0 { range / I8_STEPS } else { 1.0 };
    (step, round_half_away(lo / step) as i32 + 128)
}

/// A weight matrix quantized to i8 on a per-tensor zero-anchored grid.
#[derive(Debug, Clone)]
pub struct WeightQuant {
    /// Stored i8 codes, `[rows, cols]` row-major.
    pub codes: Vec<i8>,
    /// Grid step (dequantize as `step * (code + zp)`).
    pub step: f32,
    /// Zero point: true code = stored code + `zp`.
    pub zp: i32,
    /// Per-row stored-code sum `Σ_k codes[o,k]`, the precomputed
    /// zero-point correction factor.
    pub wsum: Vec<i32>,
}

/// Quantizes a `[rows, cols]` weight matrix on the per-tensor
/// zero-anchored grid the fake quantizer uses: `step = (max - min)/255`,
/// true code `round(w/step)`, dequantized value `step · code` — exactly
/// the Eq. 10 projection, so integer weights match quantization-aware
/// training bit for bit.
///
/// A constant tensor (zero dynamic range) is represented exactly with
/// `step = |v|` and all true codes `sign(v)`; an all-zero or empty
/// tensor yields `step = 1.0`, `zp = 0`, zero codes.
pub fn quantize_weights(w: &[f32], rows: usize, cols: usize) -> WeightQuant {
    debug_assert_eq!(w.len(), rows * cols);
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in w {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let mut wsum = vec![0i32; rows];
    if w.is_empty() || !(hi - lo).is_finite() || hi - lo <= 0.0 {
        // Constant (or empty / non-finite-range) tensor: represent the
        // single value exactly, mirroring the fake quantizer's no-op.
        let v = w.first().copied().unwrap_or(0.0);
        let (step, zp) = if v == 0.0 || !v.is_finite() {
            (1.0, 0)
        } else {
            (v.abs(), v.signum() as i32)
        };
        return WeightQuant {
            codes: vec![0i8; w.len()],
            step,
            zp,
            wsum,
        };
    }
    let step = (hi - lo) / I8_STEPS;
    let true_codes: Vec<i32> = w
        .iter()
        .map(|&v| round_half_away(v / step) as i32)
        .collect();
    // cq-allow(no-unwrap): true_codes is non-empty — the empty case returned above
    let cmin = *true_codes.iter().min().expect("non-empty codes");
    let zp = cmin + 128;
    let mut codes = vec![0i8; w.len()];
    for (o, row) in true_codes.chunks(cols).enumerate() {
        let mut sum = 0i32;
        for (c, &tc) in row.iter().enumerate() {
            let s = (tc - zp).clamp(-128, 127);
            codes[o * cols + c] = s as i8;
            sum += s;
        }
        wsum[o] = sum;
    }
    WeightQuant {
        codes,
        step,
        zp,
        wsum,
    }
}

/// Folds batch-norm running statistics into a preceding `[rows, cols]`
/// weight matrix and its bias, in place.
///
/// With `g[o] = gamma[o] / sqrt(var[o] + eps)`:
/// `w'[o, :] = g[o] * w[o, :]` and `b'[o] = beta[o] + g[o] * (b[o] - mean[o])`,
/// which reproduces eval-mode batch norm exactly.
///
/// This is the classic *weight-space* fold. The integer conversion in
/// `model.rs` deliberately folds into the post-MAC rescale instead, so
/// that the weight quantization grid stays the one quantization-aware
/// training simulated; this function remains the reference formulation
/// (and pins [`BN_EPS`] against the `cq_nn` default via its test).
#[allow(clippy::too_many_arguments)] // mirrors the BN parameter list 1:1
pub fn fold_batch_norm(
    w: &mut [f32],
    bias: &mut [f32],
    rows: usize,
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(bias.len(), rows);
    for o in 0..rows {
        let g = gamma[o] / (var[o] + BN_EPS).sqrt();
        for v in &mut w[o * cols..(o + 1) * cols] {
            *v *= g;
        }
        bias[o] = beta[o] + g * (bias[o] - mean[o]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_quant::{fake_quant_into, Precision, QuantMode};

    #[test]
    fn activations_round_trip_within_half_step() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32) * 0.037 - 3.1).collect();
        let q = quantize_activations(&data);
        for (&v, &c) in data.iter().zip(&q.codes) {
            let deq = q.step * (c as i32 + q.zp) as f32;
            assert!(
                (deq - v).abs() <= 0.5 * q.step + 1e-6,
                "v={v} deq={deq} step={}",
                q.step
            );
        }
    }

    #[test]
    fn real_zero_quantizes_exactly() {
        let data = [-1.5f32, 0.0, 2.5, 0.0, 7.0];
        let q = quantize_activations(&data);
        for (&v, &c) in data.iter().zip(&q.codes) {
            if v == 0.0 {
                assert_eq!(c as i32, -q.zp);
                assert_eq!(q.step * (c as i32 + q.zp) as f32, 0.0);
            }
        }
    }

    #[test]
    fn zero_point_always_representable_as_i8() {
        // All-positive and all-negative ranges stress the zero extension.
        for data in [
            vec![0.5f32, 1.0, 100.0],
            vec![-0.5f32, -1.0, -100.0],
            vec![0.0f32; 4],
            vec![],
        ] {
            let q = quantize_activations(&data);
            assert!((-128..=127).contains(&(-q.zp)), "zp={} data={data:?}", q.zp);
        }
    }

    #[test]
    fn non_finite_activations_saturate_and_nan_keeps_true_code_zero() {
        // Range [0, 1]: step 1/255, zp = 128, so real 0 is stored −128.
        let q = quantize_activations(&[0.0, 1.0, f32::NEG_INFINITY, f32::INFINITY, f32::NAN]);
        assert_eq!(q.zp, 128);
        assert_eq!(q.step, 1.0 / 255.0);
        assert_eq!(&q.codes[..2], &[-128, 127]);
        assert_eq!(q.codes[2], -128, "−Inf takes the bottom code");
        assert_eq!(q.codes[3], 127, "+Inf takes the top code");
        assert_eq!(q.codes[4], -128, "NaN takes true code 0 (−zp, clamped)");
        // With a negative range, true code 0 is inside the window.
        let q = quantize_activations(&[-1.0, 1.0, f32::NAN, f32::NEG_INFINITY, f32::INFINITY]);
        assert_eq!(q.codes[2] as i32, -q.zp);
        assert_eq!(&q.codes[3..], &[-128, 127]);
    }

    #[test]
    fn constant_slice_is_identity_zero() {
        let q = quantize_activations(&[0.0; 8]);
        assert_eq!(q.step, 1.0);
        assert!(q.codes.iter().all(|&c| c as i32 == -q.zp));
    }

    #[test]
    fn activation_grid_matches_fake_quant_on_relu_range() {
        // A tensor containing 0 (every post-ReLU tensor does) dequantizes
        // bit-identically to the training-path fake quantizer.
        let data: Vec<f32> = (0..512).map(|i| ((i * 37) % 101) as f32 * 0.021).collect();
        let q = quantize_activations(&data);
        let mut want = data.clone();
        fake_quant_into(&mut want, Precision::Bits(8), QuantMode::Round);
        for ((&v, &c), &fq) in data.iter().zip(&q.codes).zip(&want) {
            let deq = q.step * (c as i32 + q.zp) as f32;
            assert_eq!(deq.to_bits(), fq.to_bits(), "v={v}");
        }
    }

    #[test]
    fn weights_round_trip_within_half_step_and_wsum_matches() {
        let w: Vec<f32> = (0..24).map(|i| (i as f32) * 0.11 - 1.2).collect();
        let q = quantize_weights(&w, 4, 6);
        let lo = w.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = w.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!((q.step - (hi - lo) / 255.0).abs() < 1e-9);
        for o in 0..4 {
            let mut sum = 0i32;
            for c in 0..6 {
                let code = q.codes[o * 6 + c] as i32;
                sum += code;
                let deq = q.step * (code + q.zp) as f32;
                assert!((deq - w[o * 6 + c]).abs() <= 0.5 * q.step + 1e-6);
            }
            assert_eq!(sum, q.wsum[o]);
        }
    }

    #[test]
    fn weight_grid_matches_fake_quant_bitwise() {
        // The integer weight grid must be the very grid quantization-aware
        // training simulated: dequantized codes reproduce `fake_quant`
        // bit for bit.
        let w: Vec<f32> = (0..96)
            .map(|i| ((i * 73) % 191) as f32 * 0.013 - 1.17)
            .collect();
        let q = quantize_weights(&w, 8, 12);
        let mut want = w.clone();
        fake_quant_into(&mut want, Precision::Bits(8), QuantMode::Round);
        for ((&v, &c), &fq) in w.iter().zip(&q.codes).zip(&want) {
            let deq = q.step * (c as i32 + q.zp) as f32;
            assert_eq!(deq.to_bits(), fq.to_bits(), "v={v}");
        }
    }

    #[test]
    fn constant_weight_tensor_is_exact() {
        for v in [0.0f32, 0.7, -0.3] {
            let w = vec![v; 6];
            let q = quantize_weights(&w, 2, 3);
            for &c in &q.codes {
                assert_eq!(q.step * (c as i32 + q.zp) as f32, v, "v={v}");
            }
            assert_eq!(q.wsum, vec![0, 0]);
        }
    }

    #[test]
    fn requantizer_obeys_shared_rounding_contract() {
        // Anchors at ±127.5 give range exactly 255, so step is exactly 1.0
        // and the stored code of the probe is its half-away rounding
        // (cmin = −128 makes zp = 0). The +128 contract case exceeds the
        // stored window and must clamp to 127.
        for &(x, want) in cq_quant::intmath::ROUND_HALF_AWAY_CASES {
            let w = [x, 127.5f32, -127.5];
            let q = quantize_weights(&w, 1, 3);
            assert_eq!(q.step, 1.0);
            assert_eq!(q.zp, 0);
            let expect = (want as i32 - q.zp).clamp(-128, 127);
            assert_eq!(q.codes[0] as i32, expect, "x={x}");
        }
    }
}
