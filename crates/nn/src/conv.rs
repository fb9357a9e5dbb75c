//! Convolution layers: dense [`Conv2d`] and [`DepthwiseConv2d`] (used by
//! MobileNetV2). Each pass is one batch-wide kernel call: dense passes on
//! the batch lanes of `cq_tensor::gemm::conv`, depthwise passes in
//! `cq_tensor::gemm::depthwise` (forward and input gradient on the image
//! lanes, weight gradient on channel lanes). Those kernels own the
//! batch split and the band-order reduction of the weight-gradient
//! partials, so gradients are bitwise identical at every thread count.
//!
//! Both kernels read and write the image-minor lane layout
//! (`cq_tensor::lanes`), which an encoder keeps its activations in, so
//! there a pass copies nothing: outputs and input gradients are recycled
//! lane buffers that the kernels overwrite, and the caches keep the input
//! by reference (a shared [`Tensor`]), not by copy. A row-major input is
//! converted at the layer's boundary, and its output and input gradient
//! are row-major again.

use cq_tensor::lanes::{block_images, LANES};
use cq_tensor::{
    conv2d, conv2d_backward, depthwise_conv2d, depthwise_conv2d_backward, Conv2dSpec, ConvShape,
    Layout, Tensor,
};
use rand::Rng;

use crate::{Cache, ForwardCtx, GradSet, Layer, NnError, ParamId, ParamSet, Result};

/// Dense 2-D convolution over `[N, C, H, W]` batches in either layout;
/// the output is in the input's.
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
    /// The input in lanes, sharing the caller's storage when it was in
    /// lanes already.
    input: Tensor,
    /// The caller's layout, which the output and input gradient take.
    layout: Layout,
    used_weight: Option<Tensor>,
    shape: ConvShape,
}

/// A lane tensor of `dims` that `kernel` writes in full.
fn lanes_by(dims: &[usize], kernel: impl FnOnce(&mut [f32])) -> Tensor {
    let mut t = Tensor::written(dims, Layout::Lanes);
    kernel(t.as_mut_slice());
    t
}

/// `t` in `layout`: a lane result converted back for a row-major caller.
fn in_layout(t: Tensor, layout: Layout) -> Tensor {
    match layout {
        Layout::Nchw => t.to_nchw(),
        Layout::Lanes => t,
    }
}

/// Per-channel sums of the lane storage `dy` of an `[n, o, p]` batch:
/// each `(image, channel)` plane summed from `−0.0` in position order
/// (one 16-image vector chain per block), then added to the channel's
/// total in image order.
fn channel_sums(dy: &Tensor, o: usize, p: usize) -> Vec<f32> {
    let n = dy.dims()[0];
    let mut db = vec![0.0f32; o];
    for (b, block) in dy.as_slice().chunks_exact(o * p * LANES).enumerate() {
        let nimg = block_images(n, b).1;
        for (d, plane) in db.iter_mut().zip(block.chunks_exact(p * LANES)) {
            let mut acc = [-0.0f32; LANES];
            for px in plane.chunks_exact(LANES) {
                for (a, &v) in acc.iter_mut().zip(px) {
                    *a += v;
                }
            }
            for &slice in &acc[..nimg] {
                *d += slice;
            }
        }
    }
    db
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

        let input = x.to_lanes()?;
        let y = lanes_by(&[n, o, shape.oh, shape.ow], |y| {
            conv2d(input.as_slice(), wslice, &shape, y);
            if let Some(b) = self.bias {
                let bv = ps.get(b).as_slice();
                for (plane, &bc) in y.chunks_exact_mut(p * LANES).zip(bv.iter().cycle()) {
                    for v in plane {
                        *v += bc;
                    }
                }
            }
        });
        Ok((
            in_layout(y, x.layout()),
            Cache::new(ConvCache {
                input,
                layout: x.layout(),
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
        let dy = dy.to_lanes()?;
        let mut dw = Tensor::zeros(&[o, s.taps()]);
        let mut dx = Tensor::written(&[n, s.c, s.h, s.w], Layout::Lanes);
        conv2d_backward(
            cch.input.as_slice(),
            dy.as_slice(),
            wslice,
            &s,
            dx.as_mut_slice(),
            dw.as_mut_slice(),
        );
        gs.accumulate(self.weight, &dw)?;
        if let Some(b) = self.bias {
            gs.accumulate(b, &Tensor::from_vec(channel_sums(&dy, o, p), &[o])?)?;
        }
        Ok(in_layout(dx, cch.layout))
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
    /// The input in lanes, sharing the caller's storage when it was in
    /// lanes already.
    input: Tensor,
    /// The caller's layout, which the output and input gradient take.
    layout: Layout,
    used_weight: Option<Tensor>,
    shape: ConvShape,
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
        let shape = ConvShape::new(n, c, h, w, c, self.spec)?;
        let raw_w = ps.get(self.weight);
        let used = crate::perturb::perturbed_weight(raw_w, self.weight, ctx);
        let wslice = used.as_ref().unwrap_or(raw_w).as_slice();
        let input = x.to_lanes()?;
        let y = lanes_by(&[n, c, shape.oh, shape.ow], |y| {
            depthwise_conv2d(input.as_slice(), wslice, &shape, y)
        });
        Ok((
            in_layout(y, x.layout()),
            Cache::new(DwCache {
                input,
                layout: x.layout(),
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
        let cch = cache.downcast::<DwCache>("DepthwiseConv2d")?;
        let s = cch.shape;
        let (n, c) = (s.n, s.c);
        if dy.dims() != [n, c, s.oh, s.ow] {
            return Err(NnError::BadInput {
                layer: "DepthwiseConv2d.backward".into(),
                expected: format!("[{n}, {c}, {}, {}]", s.oh, s.ow),
                got: dy.dims().to_vec(),
            });
        }
        let wslice = cch
            .used_weight
            .as_ref()
            .unwrap_or_else(|| ps.get(self.weight))
            .as_slice();
        let (kh, kw) = s.spec.kernel;
        let dy = dy.to_lanes()?;
        let mut dw = Tensor::zeros(&[c, kh, kw]);
        let mut dx = Tensor::written(&[n, c, s.h, s.w], Layout::Lanes);
        depthwise_conv2d_backward(
            cch.input.as_slice(),
            dy.as_slice(),
            wslice,
            &s,
            dx.as_mut_slice(),
            dw.as_mut_slice(),
        );
        gs.accumulate(self.weight, &dw)?;
        Ok(in_layout(dx, cch.layout))
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `v` as the gradient set holds it: added to a zeroed slot.
    fn added(v: &[f32]) -> Vec<f32> {
        v.iter().map(|&g| 0.0 + g).collect()
    }

    /// Forward outputs, input gradients and the kernels' scratch land in
    /// recycled buffers that must be overwritten in full, padding cells
    /// included. Each geometry runs right after another that left its
    /// values in buffers of the same lengths: outputs of 16,384 floats,
    /// and a 10×10 1×1 layer's lanes, as long as the padded scratch of an
    /// 8×8 3×3 layer's input. Results must match the kernels run into
    /// fresh buffers.
    // Recycled buffers are 64 KiB and up: too large for Miri.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn passes_into_recycled_buffers_match_fresh_buffers() {
        // (n, c, side, kernel, padding): input and output [n, c, side, side].
        let shapes = [
            (16, 16, 10, 1, 0),
            (16, 16, 8, 3, 1),
            (64, 16, 4, 1, 0),
            (16, 64, 4, 3, 1),
        ];
        let mut rng = StdRng::seed_from_u64(9);
        let fresh = |dims: &[usize]| Tensor::zeros(dims).to_lanes().unwrap();
        for round in 0..2 {
            for &(n, c, side, k, pad) in &shapes {
                let at = format!("round {round} n={n} c={c} side={side} k={k}");
                let spec = Conv2dSpec::new(k, 1, pad);
                let dims = [n, c, side, side];
                let x = Tensor::randn(&dims, 0.0, 1.0, &mut rng).to_lanes().unwrap();
                let dy = Tensor::randn(&dims, 0.0, 1.0, &mut rng).to_lanes().unwrap();
                let s = ConvShape::new(n, c, side, side, c, spec).unwrap();

                let mut ps = ParamSet::new();
                let mut conv = Conv2d::new(&mut ps, "c", c, c, spec, false, &mut rng);
                let (y, cache) = conv.forward(&ps, &x, &ForwardCtx::train()).unwrap();
                let mut gs = ps.zero_grads();
                let dx = conv.backward(&ps, &cache, &dy, &mut gs).unwrap();
                let w = ps.get(conv.weight_id()).as_slice();
                let (mut want_y, mut want_dx) = (fresh(&dims), fresh(&dims));
                let mut want_dw = vec![0.0; w.len()];
                conv2d(x.as_slice(), w, &s, want_y.as_mut_slice());
                let (xs, dys) = (x.as_slice(), dy.as_slice());
                conv2d_backward(xs, dys, w, &s, want_dx.as_mut_slice(), &mut want_dw);
                assert_eq!(bits(y.as_slice()), bits(want_y.as_slice()), "conv y {at}");
                assert_eq!(
                    bits(dx.as_slice()),
                    bits(want_dx.as_slice()),
                    "conv dx {at}"
                );
                let dw = gs.get(conv.weight_id()).as_slice();
                assert_eq!(bits(dw), bits(&added(&want_dw)), "conv dw {at}");

                let mut ps = ParamSet::new();
                let mut dw = DepthwiseConv2d::new(&mut ps, "d", c, spec, &mut rng);
                let (y, cache) = dw.forward(&ps, &x, &ForwardCtx::train()).unwrap();
                let mut gs = ps.zero_grads();
                let dx = dw.backward(&ps, &cache, &dy, &mut gs).unwrap();
                let w = ps.get(dw.weight_id()).as_slice();
                let (mut want_y, mut want_dx) = (fresh(&dims), fresh(&dims));
                let mut want_dw = vec![0.0; w.len()];
                depthwise_conv2d(xs, w, &s, want_y.as_mut_slice());
                depthwise_conv2d_backward(xs, dys, w, &s, want_dx.as_mut_slice(), &mut want_dw);
                assert_eq!(
                    bits(y.as_slice()),
                    bits(want_y.as_slice()),
                    "depthwise y {at}"
                );
                assert_eq!(
                    bits(dx.as_slice()),
                    bits(want_dx.as_slice()),
                    "depthwise dx {at}"
                );
                let dw = gs.get(dw.weight_id()).as_slice();
                assert_eq!(bits(dw), bits(&added(&want_dw)), "depthwise dw {at}");
            }
        }
    }

    /// The caches keep a lane input by reference, not by copy; a
    /// row-major input gives row-major results.
    #[test]
    fn caches_share_a_lane_input() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(10);
        let spec = Conv2dSpec::new(3, 1, 1);
        let mut conv = Conv2d::new(&mut ps, "c", 2, 3, spec, false, &mut rng);
        let mut dw = DepthwiseConv2d::new(&mut ps, "d", 2, spec, &mut rng);
        let x = Tensor::randn(&[2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let xl = x.to_lanes().unwrap();
        let (yl, c) = conv.forward(&ps, &xl, &ForwardCtx::train()).unwrap();
        assert!(c
            .downcast::<ConvCache>("t")
            .unwrap()
            .input
            .shares_storage(&xl));
        let (y, _) = conv.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert!(yl.is_lanes() && !y.is_lanes());
        assert_eq!(yl.to_nchw(), y);
        let (yl, d) = dw.forward(&ps, &xl, &ForwardCtx::train()).unwrap();
        assert!(d
            .downcast::<DwCache>("t")
            .unwrap()
            .input
            .shares_storage(&xl));
        let (y, _) = dw.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(yl.to_nchw(), y);
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
