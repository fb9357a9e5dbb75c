//! Convolution layers: dense [`Conv2d`] (each pass one batch-wide kernel
//! call on the batch lanes of `cq_tensor::gemm::conv`) and
//! [`DepthwiseConv2d`] (direct loops, used by MobileNetV2).
//!
//! The depthwise layer parallelises over batch samples with per-band
//! weight-gradient accumulators, so gradients are deterministic (the band
//! grid depends only on the batch size — never on the thread count — and
//! partials are reduced in band order) while still using every core via
//! the persistent pool. The dense layer's kernels in `cq_tensor::gemm::conv`
//! keep the same guarantee.

use cq_tensor::par::{parallel_for_chunks, parallel_map_chunks, ChunkGrid};
use cq_tensor::{
    conv2d, conv2d_backward, depthwise_conv2d, depthwise_conv2d_backward, Conv2dSpec, ConvShape,
    Tensor,
};
use rand::Rng;

use crate::{Cache, ForwardCtx, GradSet, Layer, NnError, ParamId, ParamSet, Result};

/// Raw pointer wrapper for disjoint parallel writes.
struct SendPtr(*mut f32);
// SAFETY: only used with disjoint per-sample chunks.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor so closures capture the `Sync` wrapper, not the pointer.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Fixed cap on depthwise batch bands. A constant (not `num_threads()`)
/// so the band grid — and with it the weight-gradient partial count and
/// reduction order — is identical at every thread count. Also bounds the
/// partial-accumulator memory.
const MAX_BANDS: usize = 8;

/// Band grid over `n` batch samples.
fn band_grid(n: usize) -> ChunkGrid {
    ChunkGrid::with_max_chunks(n, 1, MAX_BANDS)
}

/// Dense 2-D convolution over NCHW batches.
///
/// The weight is stored as `[out_channels, in_channels * kh * kw]`, the
/// layout the batch-lane kernels read (see `cq_tensor::gemm::conv`). Under
/// a quantized [`ForwardCtx`] the weight is fake-quantized before use
/// (STE backward).
#[derive(Debug)]
pub struct Conv2d {
    weight: ParamId,
    bias: Option<ParamId>,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
}

/// Forward trace of [`Conv2d`].
struct ConvCache {
    input: Tensor,
    used_weight: Option<Tensor>,
    shape: ConvShape,
}

impl Conv2d {
    /// Creates a convolution, registering parameters in `ps`.
    /// Kaiming-normal weight init with fan-in `c_in * kh * kw`.
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        spec: Conv2dSpec,
        bias: bool,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_channels * spec.kernel.0 * spec.kernel.1;
        let w = Tensor::kaiming_normal(&[out_channels, fan_in], fan_in, rng);
        let weight = ps.add(format!("{name}.weight"), w);
        let bias = bias.then(|| ps.add(format!("{name}.bias"), Tensor::zeros(&[out_channels])));
        Conv2d {
            weight,
            bias,
            spec,
            in_channels,
            out_channels,
        }
    }

    /// The layer's geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The weight parameter handle.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }

    fn check_input(&self, x: &Tensor) -> Result<(usize, usize, usize)> {
        if x.rank() != 4 || x.dims()[1] != self.in_channels {
            return Err(NnError::BadInput {
                layer: format!("Conv2d({}->{})", self.in_channels, self.out_channels),
                expected: format!("[N, {}, H, W]", self.in_channels),
                got: x.dims().to_vec(),
            });
        }
        Ok((x.dims()[0], x.dims()[2], x.dims()[3]))
    }
}

impl Layer for Conv2d {
    fn layer_kind(&self) -> &'static str {
        "Conv2d"
    }

    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        let (n, h, w) = self.check_input(x)?;
        let (c, o) = (self.in_channels, self.out_channels);
        let shape = ConvShape::new(n, c, h, w, o, self.spec)?;
        let p = shape.positions();
        let raw_w = ps.get(self.weight);
        let used = crate::perturb::perturbed_weight(raw_w, self.weight, ctx);
        let wslice = used.as_ref().unwrap_or(raw_w).as_slice();

        let mut out = vec![0.0f32; n * o * p];
        conv2d(x.as_slice(), wslice, &shape, &mut out);
        if let Some(b) = self.bias {
            let bv = ps.get(b).as_slice();
            for (plane, &bc) in out.chunks_exact_mut(p).zip(bv.iter().cycle()) {
                for v in plane {
                    *v += bc;
                }
            }
        }
        let y = Tensor::from_vec(out, &[n, o, shape.oh, shape.ow])?;
        Ok((
            y,
            Cache::new(ConvCache {
                input: x.clone(),
                used_weight: used,
                shape,
            }),
        ))
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor> {
        let cch = cache.downcast::<ConvCache>("Conv2d")?;
        let s = cch.shape;
        let (n, o, p) = (s.n, s.o, s.positions());
        if dy.dims() != [n, o, s.oh, s.ow] {
            return Err(NnError::BadInput {
                layer: "Conv2d.backward".into(),
                expected: format!("[{n}, {o}, {}, {}]", s.oh, s.ow),
                got: dy.dims().to_vec(),
            });
        }
        let wslice = cch
            .used_weight
            .as_ref()
            .unwrap_or_else(|| ps.get(self.weight))
            .as_slice();
        let dys = dy.as_slice();

        let mut dw = Tensor::zeros(&[o, s.taps()]);
        let mut dx = vec![0.0f32; n * s.c * s.h * s.w];
        conv2d_backward(
            cch.input.as_slice(),
            dys,
            wslice,
            &s,
            &mut dx,
            dw.as_mut_slice(),
        );
        gs.accumulate(self.weight, &dw)?;
        if let Some(b) = self.bias {
            let mut db = vec![0.0f32; o];
            for (i, dyc) in dys.chunks_exact(p).enumerate() {
                // cq-allow(det-float-accum): contiguous slice sum in index order
                db[i % o] += dyc.iter().sum::<f32>();
            }
            gs.accumulate(b, &Tensor::from_vec(db, &[o])?)?;
        }
        Ok(Tensor::from_vec(dx, &[n, s.c, s.h, s.w])?)
    }
}

/// Depthwise 2-D convolution (groups = channels), weight `[c, kh, kw]`.
#[derive(Debug)]
pub struct DepthwiseConv2d {
    weight: ParamId,
    spec: Conv2dSpec,
    channels: usize,
}

/// Forward trace of [`DepthwiseConv2d`].
struct DwCache {
    input: Tensor,
    used_weight: Option<Tensor>,
    in_hw: (usize, usize),
    out_hw: (usize, usize),
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution (no bias; always followed by BN in
    /// MobileNetV2).
    pub fn new<R: Rng>(
        ps: &mut ParamSet,
        name: &str,
        channels: usize,
        spec: Conv2dSpec,
        rng: &mut R,
    ) -> Self {
        let fan_in = spec.kernel.0 * spec.kernel.1;
        let w = Tensor::kaiming_normal(&[channels, spec.kernel.0, spec.kernel.1], fan_in, rng);
        let weight = ps.add(format!("{name}.weight"), w);
        DepthwiseConv2d {
            weight,
            spec,
            channels,
        }
    }

    /// The weight parameter handle.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }
}

impl Layer for DepthwiseConv2d {
    fn layer_kind(&self) -> &'static str {
        "DepthwiseConv2d"
    }

    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        if x.rank() != 4 || x.dims()[1] != self.channels {
            return Err(NnError::BadInput {
                layer: format!("DepthwiseConv2d({})", self.channels),
                expected: format!("[N, {}, H, W]", self.channels),
                got: x.dims().to_vec(),
            });
        }
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oh, ow) = self.spec.out_hw(h, w)?;
        let raw_w = ps.get(self.weight);
        let used = crate::perturb::perturbed_weight(raw_w, self.weight, ctx);
        let wslice = used.as_ref().unwrap_or(raw_w).as_slice();
        let xs = x.as_slice();
        let spec = self.spec;
        let mut out = vec![0.0f32; n * c * oh * ow];
        {
            let out_ptr = SendPtr(out.as_mut_ptr());
            parallel_for_chunks(band_grid(n), |_, b0, b1| {
                for i in b0..b1 {
                    // SAFETY: disjoint per-sample chunks.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(
                            out_ptr.get().add(i * c * oh * ow),
                            c * oh * ow,
                        )
                    };
                    depthwise_conv2d(
                        &xs[i * c * h * w..(i + 1) * c * h * w],
                        wslice,
                        c,
                        h,
                        w,
                        &spec,
                        dst,
                    );
                }
            });
        }
        let y = Tensor::from_vec(out, &[n, c, oh, ow])?;
        Ok((
            y,
            Cache::new(DwCache {
                input: x.clone(),
                used_weight: used,
                in_hw: (h, w),
                out_hw: (oh, ow),
            }),
        ))
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor> {
        let cch = cache.downcast::<DwCache>("DepthwiseConv2d")?;
        let (h, w) = cch.in_hw;
        let (oh, ow) = cch.out_hw;
        let c = self.channels;
        let n = cch.input.dims()[0];
        if dy.dims() != [n, c, oh, ow] {
            return Err(NnError::BadInput {
                layer: "DepthwiseConv2d.backward".into(),
                expected: format!("[{n}, {c}, {oh}, {ow}]"),
                got: dy.dims().to_vec(),
            });
        }
        let wslice = cch
            .used_weight
            .as_ref()
            .unwrap_or_else(|| ps.get(self.weight))
            .as_slice();
        let xs = cch.input.as_slice();
        let dys = dy.as_slice();
        let spec = self.spec;
        let (kh, kw) = spec.kernel;

        let mut dx = vec![0.0f32; n * c * h * w];
        let dw_partials = {
            let dx_ptr = SendPtr(dx.as_mut_ptr());
            parallel_map_chunks(
                band_grid(n),
                || vec![0.0f32; c * kh * kw],
                |_, b0, b1, dw_part| {
                    for i in b0..b1 {
                        // SAFETY: disjoint per-sample chunks.
                        let dx_n = unsafe {
                            std::slice::from_raw_parts_mut(
                                dx_ptr.get().add(i * c * h * w),
                                c * h * w,
                            )
                        };
                        depthwise_conv2d_backward(
                            &xs[i * c * h * w..(i + 1) * c * h * w],
                            wslice,
                            &dys[i * c * oh * ow..(i + 1) * c * oh * ow],
                            c,
                            h,
                            w,
                            &spec,
                            dx_n,
                            dw_part,
                        );
                    }
                },
            )
        };
        let mut dw = Tensor::zeros(&[c, kh, kw]);
        for part in &dw_partials {
            for (d, &p) in dw.as_mut_slice().iter_mut().zip(part) {
                *d += p;
            }
        }
        gs.accumulate(self.weight, &dw)?;
        Ok(Tensor::from_vec(dx, &[n, c, h, w])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_quant::{Precision, QuantConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv_forward_shape() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut ps, "c", 3, 8, Conv2dSpec::new(3, 2, 1), true, &mut rng);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let (y, _) = conv.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn conv_rejects_wrong_channels() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(
            &mut ps,
            "c",
            3,
            8,
            Conv2dSpec::new(3, 1, 1),
            false,
            &mut rng,
        );
        assert!(conv
            .forward(&ps, &Tensor::ones(&[2, 4, 8, 8]), &ForwardCtx::train())
            .is_err());
    }

    #[test]
    fn conv_gradcheck() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::new(&mut ps, "c", 2, 3, Conv2dSpec::new(3, 1, 1), true, &mut rng);
        crate::gradcheck::check_layer(conv, ps, &[2, 2, 5, 5], &ForwardCtx::train(), 2e-2);
    }

    #[test]
    fn conv_gradcheck_strided() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let conv = Conv2d::new(
            &mut ps,
            "c",
            2,
            4,
            Conv2dSpec::new(3, 2, 1),
            false,
            &mut rng,
        );
        crate::gradcheck::check_layer(conv, ps, &[2, 2, 6, 6], &ForwardCtx::train(), 2e-2);
    }

    #[test]
    fn conv_1x1_gradcheck() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(
            &mut ps,
            "c",
            3,
            2,
            Conv2dSpec::new(1, 1, 0),
            false,
            &mut rng,
        );
        crate::gradcheck::check_layer(conv, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 2e-2);
    }

    #[test]
    fn conv_quantized_output_differs_from_fp() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(
            &mut ps,
            "c",
            3,
            4,
            Conv2dSpec::new(3, 1, 1),
            false,
            &mut rng,
        );
        let x = Tensor::randn(&[1, 3, 6, 6], 0.0, 1.0, &mut rng);
        let (yf, _) = conv.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        let ctx4 = ForwardCtx::eval().with_quant(QuantConfig::uniform(Precision::Bits(4)));
        let (y4, _) = conv.forward(&ps, &x, &ctx4).unwrap();
        let ctx16 = ForwardCtx::eval().with_quant(QuantConfig::uniform(Precision::Bits(16)));
        let (y16, _) = conv.forward(&ps, &x, &ctx16).unwrap();
        let e4 = y4.sub(&yf).unwrap().norm();
        let e16 = y16.sub(&yf).unwrap().norm();
        assert!(
            e4 > e16,
            "4-bit noise {e4} should exceed 16-bit noise {e16}"
        );
        assert!(e4 > 1e-4);
    }

    #[test]
    fn depthwise_forward_shape_and_gradcheck() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut dw = DepthwiseConv2d::new(&mut ps, "dw", 3, Conv2dSpec::new(3, 1, 1), &mut rng);
        let x = Tensor::ones(&[2, 3, 5, 5]);
        let (y, _) = dw.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 3, 5, 5]);

        let mut ps2 = ParamSet::new();
        let dw2 = DepthwiseConv2d::new(&mut ps2, "dw", 2, Conv2dSpec::new(3, 2, 1), &mut rng);
        crate::gradcheck::check_layer(dw2, ps2, &[2, 2, 6, 6], &ForwardCtx::train(), 2e-2);
    }

    #[test]
    fn conv_batch_parallel_matches_batch_serial() {
        // Results must not depend on how many samples run per band.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(&mut ps, "c", 3, 4, Conv2dSpec::new(3, 1, 1), true, &mut rng);
        let xb = Tensor::randn(&[4, 3, 6, 6], 0.0, 1.0, &mut rng);
        let (yb, _) = conv.forward(&ps, &xb, &ForwardCtx::train()).unwrap();
        for i in 0..4 {
            let xi = Tensor::from_vec(
                xb.as_slice()[i * 3 * 36..(i + 1) * 3 * 36].to_vec(),
                &[1, 3, 6, 6],
            )
            .unwrap();
            let (yi, _) = conv.forward(&ps, &xi, &ForwardCtx::train()).unwrap();
            let chunk = &yb.as_slice()[i * 4 * 36..(i + 1) * 4 * 36];
            for (a, b) in chunk.iter().zip(yi.as_slice()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }
}
