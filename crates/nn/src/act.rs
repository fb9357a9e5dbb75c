//! Activation layers. These are also where *activation* fake-quantization
//! happens: under a quantized [`ForwardCtx`] the activation output is
//! projected onto the quantization grid (post-activation quantization, the
//! standard QAT placement), and the straight-through estimator passes
//! gradients through the quantizer unchanged.
//!
//! The forward kernels live in the fused graph executor
//! ([`crate::graph`]): standalone `forward` calls run a single-group
//! chain, while [`Layer::record`] lets a surrounding [`Recorder`] fuse
//! the activation (and its fake-quant) into the preceding elementwise
//! pass. The pass writes the gradient mask as packed bits (one bit per
//! element, no branch), and the backward is one pass from `dY` and those
//! bits into a recycled buffer that it writes in full,
//! `dx = dy · (bit ? 1 : 0)`. It multiplies
//! rather than selecting `dy` or `+0.0`, so `−0.0`, `±Inf · 0` and NaN
//! come out as they did with the `f32` mask this replaced
//! ([`crate::reference::act_backward`]).

use cq_tensor::simd::{dispatch, Body, SimdLevel};
use cq_tensor::Tensor;

use crate::graph::{execute_single, EwGroup, EwOp, Mask, Recorder, MASK_WORD};
use crate::{Cache, ForwardCtx, GradSet, Layer, NnError, ParamSet, Result};

/// Rectified linear unit `y = max(0, x)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu
    }
}

/// Pre-activation sign mask trace shared by [`Relu`] and [`Relu6`].
struct ActCache {
    /// Set where the activation passes gradient.
    mask: Mask,
}

/// The recorded op group for a ReLU-family activation: the activation op,
/// its gradient-mask tap, and the trailing post-activation fake-quant.
fn act_group(op: EwOp, ctx: &ForwardCtx) -> EwGroup {
    EwGroup::new(vec![op], None)
        .with_quant(ctx.quant.act, ctx.quant.mode)
        .with_mask_tap()
        .with_cache(|taps| {
            Cache::new(ActCache {
                // cq-allow(no-unwrap): the group requests a mask tap two lines up
                mask: taps.mask.expect("activation group requests a mask tap"),
            })
        })
}

fn act_backward(layer_name: &str, cache: &Cache, dy: &Tensor) -> Result<Tensor> {
    act_backward_at(SimdLevel::detect(), layer_name, cache, dy)
}

/// [`act_backward`] with the kernel compiled at `level`.
fn act_backward_at(
    level: SimdLevel,
    layer_name: &str,
    cache: &Cache,
    dy: &Tensor,
) -> Result<Tensor> {
    let c = cache.downcast::<ActCache>(layer_name)?;
    if dy.dims() != c.mask.dims || dy.layout() != c.mask.layout {
        return Err(NnError::BadInput {
            layer: format!("{layer_name}.backward"),
            expected: format!("{:?} ({:?})", c.mask.dims, c.mask.layout),
            got: dy.dims().to_vec(),
        });
    }
    let mut dx = dy.written_like();
    let dy = dy.as_slice();
    // Every element below is written only if the mask covers it.
    assert_eq!(c.mask.words.len(), dy.len().div_ceil(MASK_WORD));
    dispatch(
        level,
        MaskedGrad {
            dy,
            words: &c.mask.words,
            dx: dx.as_mut_slice(),
        },
    );
    Ok(dx)
}

/// `dx = dy · (bit ? 1.0 : 0.0)` over 32-element words of the mask. The
/// factor is built from the bit without a branch (all ones or zeros,
/// masked to the bits of `1.0`), so the loop vectorizes; it is still a
/// multiply, so the result bits are those of the `if`.
struct MaskedGrad<'a> {
    dy: &'a [f32],
    words: &'a [u32],
    dx: &'a mut [f32],
}

impl Body for MaskedGrad<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const L: usize>(self) {
        let block = |dy: &[f32], dx: &mut [f32], w: u32| {
            for (j, (o, &g)) in dx.iter_mut().zip(dy).enumerate() {
                let m = f32::from_bits(((w >> j) & 1).wrapping_neg() & 0x3f80_0000);
                *o = g * m;
            }
        };
        let (dys, dy_rest) = self.dy.as_chunks::<MASK_WORD>();
        let (dxs, dx_rest) = self.dx.as_chunks_mut::<MASK_WORD>();
        let (full, last) = self.words.split_at(dys.len());
        for ((dy, dx), &w) in dys.iter().zip(dxs).zip(full) {
            block(dy, dx, w);
        }
        if let Some(&w) = last.first() {
            block(dy_rest, dx_rest, w);
        }
    }
}

impl Layer for Relu {
    fn layer_kind(&self) -> &'static str {
        "Relu"
    }

    fn forward(&mut self, _ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        execute_single(x, act_group(EwOp::Relu, ctx))
    }

    fn record(&mut self, rec: &mut Recorder<'_>) -> Result<bool> {
        let g = act_group(EwOp::Relu, rec.ctx());
        rec.push_group(g);
        Ok(true)
    }

    fn backward(
        &self,
        _ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        _gs: &mut GradSet,
    ) -> Result<Tensor> {
        act_backward("Relu", cache, dy)
    }
}

/// ReLU6 `y = min(max(0, x), 6)` — the MobileNetV2 activation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu6;

impl Relu6 {
    /// Creates a ReLU6 layer.
    pub fn new() -> Self {
        Relu6
    }
}

impl Layer for Relu6 {
    fn layer_kind(&self) -> &'static str {
        "Relu6"
    }

    fn forward(&mut self, _ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        execute_single(x, act_group(EwOp::Relu6, ctx))
    }

    fn record(&mut self, rec: &mut Recorder<'_>) -> Result<bool> {
        let g = act_group(EwOp::Relu6, rec.ctx());
        rec.push_group(g);
        Ok(true)
    }

    fn backward(
        &self,
        _ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        _gs: &mut GradSet,
    ) -> Result<Tensor> {
        act_backward("Relu6", cache, dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self as oracle, bits, hostile, Op, CHANNELS, INNER, THREADS};
    use crate::NnError;
    use cq_quant::{Precision, QuantConfig};
    use cq_tensor::par::with_thread_limit;

    /// The backward of both activations at `level` on `x` and `dy` of
    /// `dims`, against the scalar oracle.
    fn check_against_oracle(level: SimdLevel, dims: &[usize], seed: u64) {
        let len = dims.iter().product();
        let x = hostile(len, seed);
        let dy = Tensor::from_vec(hostile(len, seed + 1), dims).unwrap();
        for relu6 in [false, true] {
            let (op, mut layer): (Op<'_>, Box<dyn Layer>) = if relu6 {
                (Op::Relu6, Box::new(Relu6::new()))
            } else {
                (Op::Relu, Box::new(Relu::new()))
            };
            let xt = Tensor::from_vec(x.clone(), dims).unwrap();
            let (_, cache) = layer
                .forward(&ParamSet::new(), &xt, &ForwardCtx::train())
                .unwrap();
            let mut mask = vec![0.0; len];
            oracle::apply_op(&op, &mut x.clone(), Some(&mut mask));
            let want = oracle::act_backward(dy.as_slice(), &mask);
            let dx = act_backward_at(level, "t", &cache, &dy).unwrap();
            let at = format!("{level:?} dims={dims:?} relu6={relu6}");
            assert_eq!(bits(dx.as_slice()), bits(&want), "{at}");
        }
    }

    #[test]
    fn backward_matches_the_scalar_oracle() {
        for level in SimdLevel::supported() {
            for threads in THREADS {
                for c in CHANNELS {
                    for inner in INNER {
                        let len = 3 * c * inner + c;
                        with_thread_limit(threads, || {
                            check_against_oracle(level, &[len], len as u64)
                        });
                    }
                }
            }
        }
    }

    /// `dX` and the mask words land in recycled buffers that the kernels
    /// must overwrite in full. Each shape runs right after another of
    /// the same length (2^19 elements, so the 16,384 mask words are
    /// recycled too) left its values there.
    // Recycled buffers are 64 KiB and up: too large for Miri.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn backward_into_recycled_buffers_matches_the_scalar_oracle() {
        let level = SimdLevel::detect();
        for dims in [
            [128, 16, 16, 16],
            [32, 64, 16, 16],
            [512, 64, 4, 4],
            [128, 16, 16, 16],
        ] {
            check_against_oracle(level, &dims, 5);
        }
    }

    #[test]
    fn backward_rejects_a_dy_of_the_wrong_shape() {
        let x = Tensor::from_vec(hostile(12, 3), &[3, 4]).unwrap();
        for mut layer in [
            Box::new(Relu::new()) as Box<dyn Layer>,
            Box::new(Relu6::new()),
        ] {
            let ps = ParamSet::new();
            let (_, cache) = layer.forward(&ps, &x, &ForwardCtx::train()).unwrap();
            let mut gs = ps.zero_grads();
            for dims in [vec![3, 5], vec![3, 3], vec![12]] {
                let dy = Tensor::ones(&dims);
                let err = layer.backward(&ps, &cache, &dy, &mut gs).unwrap_err();
                assert!(matches!(err, NnError::BadInput { .. }), "{dims:?}: {err}");
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let (y, _) = r
            .forward(&ParamSet::new(), &x, &ForwardCtx::eval())
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 3.0]);
        let (_, c) = r
            .forward(&ParamSet::new(), &x, &ForwardCtx::eval())
            .unwrap();
        let mut gs = ParamSet::new().zero_grads();
        let dx = r
            .backward(
                &ParamSet::new(),
                &c,
                &Tensor::from_slice(&[5.0, 5.0]),
                &mut gs,
            )
            .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn relu6_saturates_both_ends() {
        let mut r = Relu6::new();
        let x = Tensor::from_slice(&[-1.0, 3.0, 9.0]);
        let (y, c) = r
            .forward(&ParamSet::new(), &x, &ForwardCtx::eval())
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 3.0, 6.0]);
        let mut gs = ParamSet::new().zero_grads();
        let dx = r
            .backward(
                &ParamSet::new(),
                &c,
                &Tensor::from_slice(&[1.0, 1.0, 1.0]),
                &mut gs,
            )
            .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn activation_quantization_snaps_output() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[0.11, 0.29, 0.53, 0.97, 0.0, 1.9]);
        let ctx = ForwardCtx::eval().with_quant(QuantConfig::uniform(Precision::Bits(2)));
        let (y, _) = r.forward(&ParamSet::new(), &x, &ctx).unwrap();
        // 2 bits over [0, 1.9] => grid step 1.9/3
        let step = 1.9f32 / 3.0;
        for &v in y.as_slice() {
            let k = v / step;
            assert!((k - k.round()).abs() < 1e-4, "{v} off-grid");
        }
    }

    #[test]
    fn gradcheck_relu_like() {
        // use inputs away from the kink; gradcheck draws N(0,1), kinks at 0
        // can flip under eps. Tolerance is loose to absorb that.
        crate::gradcheck::check_layer(
            Relu::new(),
            ParamSet::new(),
            &[4, 6],
            &ForwardCtx::eval(),
            0.3,
        );
        crate::gradcheck::check_layer(
            Relu6::new(),
            ParamSet::new(),
            &[4, 6],
            &ForwardCtx::eval(),
            0.3,
        );
    }
}
