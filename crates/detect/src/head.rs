//! Single-scale YOLO-style detection head and prediction decoding.

use cq_nn::spec::{LayerKind, Plan, SpecError};
use cq_tensor::{Conv2dSpec, Tensor};

use crate::BBox;

/// A decoded detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted box (normalised coordinates).
    pub bbox: BBox,
    /// Confidence score (objectness × class probability).
    pub score: f32,
    /// Predicted class.
    pub class: usize,
}

/// Plan of the YOLO-style grid head over `in_channels` backbone channels:
/// `conv3×3 → BN → ReLU → conv1×1`, mapping spatial features
/// `[N, C, g, g]` to raw predictions `[N, 5 + K, g, g]` (objectness, tx,
/// ty, tw, th, class logits). [`crate::train_detector`] validates and
/// builds it; the `cq-check` binary validates it too.
///
/// # Errors
///
/// Returns a layer-attributed [`cq_nn::spec::SpecError`] for zero channel
/// or class counts.
pub fn head_plan(in_channels: usize, num_classes: usize) -> Result<Plan, SpecError> {
    if in_channels == 0 {
        return Err(SpecError::config(
            "det.conv1",
            "in_channels must be positive",
        ));
    }
    if num_classes == 0 {
        return Err(SpecError::config(
            "det.conv2",
            "num_classes must be positive",
        ));
    }
    let mut p = Plan::new();
    p.push(
        "det.conv1",
        LayerKind::Conv2d {
            in_ch: in_channels,
            out_ch: in_channels,
            spec: Conv2dSpec::new(3, 1, 1),
            bias: false,
        },
    );
    p.push(
        "det.bn",
        LayerKind::BatchNorm2d {
            channels: in_channels,
        },
    );
    p.push("det.relu", LayerKind::Relu);
    p.push(
        "det.conv2",
        LayerKind::Conv2d {
            in_ch: in_channels,
            out_ch: 5 + num_classes,
            spec: Conv2dSpec::new(1, 1, 0),
            bias: true,
        },
    );
    Ok(p)
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Decodes raw head output `[N, 5+K, g, g]` into per-image predictions
/// with `score >= conf_thresh`.
///
/// Cell `(gy, gx)` decodes to `cx = (gx + σ(tx)) / g`,
/// `cy = (gy + σ(ty)) / g`, `w = σ(tw)`, `h = σ(th)`; the score is
/// `σ(obj) · max_class_prob`.
///
/// # Panics
///
/// Panics if the channel count does not match `5 + num_classes`.
pub fn decode_predictions(
    raw: &Tensor,
    num_classes: usize,
    conf_thresh: f32,
) -> Vec<Vec<Prediction>> {
    assert_eq!(raw.rank(), 4, "decode expects [N, 5+K, g, g]");
    let (n, a, gh, gw) = (raw.dims()[0], raw.dims()[1], raw.dims()[2], raw.dims()[3]);
    assert_eq!(a, 5 + num_classes, "channel count mismatch");
    let rs = raw.as_slice();
    let cell = |ni: usize, ch: usize, gy: usize, gx: usize| rs[((ni * a + ch) * gh + gy) * gw + gx];
    let mut out = Vec::with_capacity(n);
    for ni in 0..n {
        let mut preds = Vec::new();
        for gy in 0..gh {
            for gx in 0..gw {
                let obj = sigmoid(cell(ni, 0, gy, gx));
                // softmax over class logits
                let logits: Vec<f32> = (0..num_classes).map(|k| cell(ni, 5 + k, gy, gx)).collect();
                let mx = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = logits.iter().map(|&v| (v - mx).exp()).collect();
                let sum: f32 = exps.iter().sum();
                let (best, best_p) = exps
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.partial_cmp(y.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, &e)| (i, e / sum))
                    .unwrap_or((0, 0.0));
                let score = obj * best_p;
                if score < conf_thresh {
                    continue;
                }
                let cx = (gx as f32 + sigmoid(cell(ni, 1, gy, gx))) / gw as f32;
                let cy = (gy as f32 + sigmoid(cell(ni, 2, gy, gx))) / gh as f32;
                let w = sigmoid(cell(ni, 3, gy, gx));
                let h = sigmoid(cell(ni, 4, gy, gx));
                preds.push(Prediction {
                    bbox: BBox::new(cx, cy, w, h),
                    score,
                    class: best,
                });
            }
        }
        out.push(preds);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_nn::{ForwardCtx, Layer, ParamSet, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_head(in_channels: usize, num_classes: usize, seed: u64) -> (Sequential, ParamSet) {
        let mut ps = ParamSet::new();
        let head = head_plan(in_channels, num_classes)
            .unwrap()
            .build(&mut ps, &mut StdRng::seed_from_u64(seed));
        (head, ps)
    }

    #[test]
    fn head_shapes() {
        let (mut head, ps) = build_head(8, 5, 0);
        let x = Tensor::ones(&[2, 8, 3, 3]);
        let (y, _) = head.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 10, 3, 3]);
        assert_eq!(head.state_tensors().len(), 2);
    }

    #[test]
    fn head_gradcheck() {
        let (head, ps) = build_head(4, 3, 1);
        cq_nn::gradcheck::check_layer_soft(head, ps, &[2, 4, 3, 3], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn zero_channels_or_classes_rejected() {
        assert_eq!(head_plan(0, 3).unwrap_err().layer, "det.conv1");
        assert_eq!(head_plan(4, 0).unwrap_err().layer, "det.conv2");
    }

    #[test]
    fn decode_thresholds_and_geometry() {
        // hand-build raw output: one confident cell at (gy=1, gx=2) of 3x3
        let (n, k, g) = (1usize, 2usize, 3usize);
        let a = 5 + k;
        let mut raw = vec![-10.0f32; n * a * g * g]; // all suppressed
        let set = |raw: &mut Vec<f32>, ch: usize, gy: usize, gx: usize, v: f32| {
            raw[(ch * g + gy) * g + gx] = v;
        };
        set(&mut raw, 0, 1, 2, 6.0); // obj = sigmoid(6) ~ 0.9975
        set(&mut raw, 1, 1, 2, 0.0); // sigmoid 0.5 => cx = 2.5/3
        set(&mut raw, 2, 1, 2, 0.0); // cy = 1.5/3
        set(&mut raw, 3, 1, 2, 0.0); // w = 0.5
        set(&mut raw, 4, 1, 2, 0.0); // h = 0.5
        set(&mut raw, 5, 1, 2, 5.0); // class 0 dominant
        let raw = Tensor::from_vec(raw, &[n, a, g, g]).unwrap();
        let preds = decode_predictions(&raw, k, 0.3);
        assert_eq!(preds[0].len(), 1);
        let p = preds[0][0];
        assert_eq!(p.class, 0);
        assert!((p.bbox.cx - 2.5 / 3.0).abs() < 1e-4);
        assert!((p.bbox.cy - 1.5 / 3.0).abs() < 1e-4);
        assert!((p.bbox.w - 0.5).abs() < 1e-4);
        assert!(p.score > 0.9);
        // raising the threshold suppresses it
        assert!(decode_predictions(&raw, k, 0.999)[0].is_empty());
    }
}
