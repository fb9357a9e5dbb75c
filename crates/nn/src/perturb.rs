//! Weight perturbation shared by the weight-bearing layers: Eq. 10
//! fake-quantization followed (optionally) by Gaussian weight noise.

use cq_quant::fake_quant_into;
use cq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{ForwardCtx, ParamId};

/// Applies the context's weight perturbations (quantization, then additive
/// Gaussian noise scaled by the tensor's RMS) to `w`. Returns `None` when
/// the context leaves weights untouched, so the common FP path allocates
/// nothing.
pub(crate) fn perturbed_weight(w: &Tensor, id: ParamId, ctx: &ForwardCtx) -> Option<Tensor> {
    if !ctx.perturbs_weights() {
        return None;
    }
    let mut out = w.deep_copy();
    // cq-allow(no-eager-forward): weight-side fake-quant on a detached weight copy; the graph executor owns only the activation stream
    fake_quant_into(out.as_mut_slice(), ctx.quant.weight, ctx.quant.mode);
    if let Some(noise) = ctx.weight_noise {
        let rms = (w.sq_norm() / w.len().max(1) as f32).sqrt();
        let sigma = noise.std * rms;
        if sigma > 0.0 {
            // cq-allow(det-rng-ctor): stream re-derived per call from noise.seed and the layer id; stateless, nothing to checkpoint
            let mut rng = StdRng::seed_from_u64(
                noise.seed ^ (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let n = Tensor::randn(w.dims(), 0.0, sigma, &mut rng);
            out.add_assign(&n)
                .expect("noise tensor matches weight shape"); // cq-check: allow — noise drawn with w.dims(), shapes match
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamSet;
    use cq_quant::{Precision, QuantConfig};

    fn weight() -> (ParamSet, ParamId, Tensor) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let w = Tensor::randn(&[16, 9], 0.0, 1.0, &mut rng);
        let id = ps.add("w", w.clone());
        (ps, id, w)
    }

    #[test]
    fn fp_context_returns_none() {
        let (_, id, w) = weight();
        assert!(perturbed_weight(&w, id, &ForwardCtx::train()).is_none());
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_id() {
        let (_, id, w) = weight();
        let ctx = ForwardCtx::train().with_weight_noise(0.1, 7);
        let a = perturbed_weight(&w, id, &ctx).unwrap();
        let b = perturbed_weight(&w, id, &ctx).unwrap();
        assert_eq!(a, b);
        let other = ForwardCtx::train().with_weight_noise(0.1, 8);
        assert_ne!(a, perturbed_weight(&w, id, &other).unwrap());
    }

    #[test]
    fn noise_magnitude_tracks_std() {
        let (_, id, w) = weight();
        let small =
            perturbed_weight(&w, id, &ForwardCtx::train().with_weight_noise(0.01, 1)).unwrap();
        let large =
            perturbed_weight(&w, id, &ForwardCtx::train().with_weight_noise(0.5, 1)).unwrap();
        let ds = small.sub(&w).unwrap().norm();
        let dl = large.sub(&w).unwrap().norm();
        assert!(dl > ds * 10.0, "{dl} vs {ds}");
    }

    #[test]
    fn quant_and_noise_compose() {
        let (_, id, w) = weight();
        let ctx = ForwardCtx::train()
            .with_quant(QuantConfig::uniform(Precision::Bits(4)))
            .with_weight_noise(0.1, 3);
        let both = perturbed_weight(&w, id, &ctx).unwrap();
        let quant_only = perturbed_weight(
            &w,
            id,
            &ForwardCtx::train().with_quant(QuantConfig::uniform(Precision::Bits(4))),
        )
        .unwrap();
        assert_ne!(both, quant_only);
        assert_ne!(both, w);
    }

    #[test]
    fn zero_std_noise_equals_quant_only() {
        let (_, id, w) = weight();
        let ctx = ForwardCtx::train()
            .with_quant(QuantConfig::uniform(Precision::Bits(8)))
            .with_weight_noise(0.0, 3);
        let both = perturbed_weight(&w, id, &ctx).unwrap();
        let q = perturbed_weight(
            &w,
            id,
            &ForwardCtx::train().with_quant(QuantConfig::uniform(Precision::Bits(8))),
        )
        .unwrap();
        assert_eq!(both, q);
    }
}
