//! Layer wrappers around the pooling kernels of `cq-tensor`.
//!
//! Max and average pooling run on NCHW tensors: handed a lane tensor
//! (`cq_tensor::lanes`), they convert it at their boundary and return
//! their output, and input gradient, in the lane layout again. Global
//! average pooling reads the lanes in place and writes `[N, C]`: the
//! exit of an encoder's lane layout.

use cq_tensor::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward, max_pool2d,
    max_pool2d_backward, Conv2dSpec, Layout, Tensor,
};

use crate::{Cache, ForwardCtx, GradSet, Layer, NnError, ParamSet, Result};

/// Rejects a `dy` whose dims are not the forward output's `out`.
fn check_dy(layer: &str, dy: &Tensor, out: &[usize]) -> Result<()> {
    if dy.dims() != out {
        return Err(NnError::BadInput {
            layer: format!("{layer}.backward"),
            expected: format!("{out:?}"),
            got: dy.dims().to_vec(),
        });
    }
    Ok(())
}

/// `t` in `layout` (converting a row-major result back to lanes).
fn in_layout(t: Tensor, layout: Layout) -> Result<Tensor> {
    Ok(match layout {
        Layout::Nchw => t,
        Layout::Lanes => t.to_lanes()?,
    })
}

/// Max-pooling layer over NCHW inputs.
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2dLayer {
    spec: Conv2dSpec,
}

/// Forward trace of [`MaxPool2dLayer`].
struct MaxPoolCache {
    argmax: Vec<usize>,
    input_shape: Vec<usize>,
    output_shape: Vec<usize>,
    layout: Layout,
}

impl MaxPool2dLayer {
    /// Creates a max-pool with the given geometry.
    pub fn new(spec: Conv2dSpec) -> Self {
        MaxPool2dLayer { spec }
    }
}

impl Layer for MaxPool2dLayer {
    fn layer_kind(&self) -> &'static str {
        "MaxPool2d"
    }

    fn forward(
        &mut self,
        _ps: &ParamSet,
        x: &Tensor,
        _ctx: &ForwardCtx,
    ) -> Result<(Tensor, Cache)> {
        let (y, argmax) = max_pool2d(&x.to_nchw(), &self.spec)?;
        let cache = MaxPoolCache {
            argmax,
            input_shape: x.dims().to_vec(),
            output_shape: y.dims().to_vec(),
            layout: x.layout(),
        };
        Ok((in_layout(y, x.layout())?, Cache::new(cache)))
    }

    fn backward(
        &self,
        _ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        _gs: &mut GradSet,
    ) -> Result<Tensor> {
        let c = cache.downcast::<MaxPoolCache>("MaxPool2dLayer")?;
        check_dy("MaxPool2d", dy, &c.output_shape)?;
        let dx = max_pool2d_backward(&dy.to_nchw(), &c.argmax, &c.input_shape)?;
        in_layout(dx, c.layout)
    }
}

/// Average-pooling layer over NCHW inputs.
#[derive(Debug, Clone, Copy)]
pub struct AvgPool2dLayer {
    spec: Conv2dSpec,
}

/// Forward trace of [`AvgPool2dLayer`].
struct AvgPoolCache {
    input_shape: Vec<usize>,
    output_shape: Vec<usize>,
    layout: Layout,
}

impl AvgPool2dLayer {
    /// Creates an average pool with the given geometry.
    pub fn new(spec: Conv2dSpec) -> Self {
        AvgPool2dLayer { spec }
    }
}

impl Layer for AvgPool2dLayer {
    fn layer_kind(&self) -> &'static str {
        "AvgPool2d"
    }

    fn forward(
        &mut self,
        _ps: &ParamSet,
        x: &Tensor,
        _ctx: &ForwardCtx,
    ) -> Result<(Tensor, Cache)> {
        let y = avg_pool2d(&x.to_nchw(), &self.spec)?;
        let cache = AvgPoolCache {
            input_shape: x.dims().to_vec(),
            output_shape: y.dims().to_vec(),
            layout: x.layout(),
        };
        Ok((in_layout(y, x.layout())?, Cache::new(cache)))
    }

    fn backward(
        &self,
        _ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        _gs: &mut GradSet,
    ) -> Result<Tensor> {
        let c = cache.downcast::<AvgPoolCache>("AvgPool2dLayer")?;
        check_dy("AvgPool2d", dy, &c.output_shape)?;
        let dx = avg_pool2d_backward(&dy.to_nchw(), &c.input_shape, &self.spec)?;
        in_layout(dx, c.layout)
    }
}

/// Global average pooling `[N, C, H, W] -> [N, C]` — the standard
/// backbone-to-features transition. Reads either layout; its input
/// gradient is in the input's.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalAvgPool;

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        GlobalAvgPool
    }
}

/// Forward trace of [`GlobalAvgPool`].
struct GapCache {
    input_shape: Vec<usize>,
    layout: Layout,
}

impl Layer for GlobalAvgPool {
    fn layer_kind(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn forward(
        &mut self,
        _ps: &ParamSet,
        x: &Tensor,
        _ctx: &ForwardCtx,
    ) -> Result<(Tensor, Cache)> {
        let y = global_avg_pool(x)?;
        Ok((
            y,
            Cache::new(GapCache {
                input_shape: x.dims().to_vec(),
                layout: x.layout(),
            }),
        ))
    }

    fn backward(
        &self,
        _ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        _gs: &mut GradSet,
    ) -> Result<Tensor> {
        let c = cache.downcast::<GapCache>("GlobalAvgPool")?;
        check_dy("GlobalAvgPool", dy, &c.input_shape[..2])?;
        Ok(global_avg_pool_backward(dy, &c.input_shape, c.layout)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_layer_round_trip() {
        let mut l = MaxPool2dLayer::new(Conv2dSpec::new(2, 2, 0));
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let ps = ParamSet::new();
        let (y, c) = l.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        let mut gs = ps.zero_grads();
        let dx = l
            .backward(&ps, &c, &Tensor::ones(&[1, 1, 2, 2]), &mut gs)
            .unwrap();
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn avg_pool_layer_gradcheck() {
        crate::gradcheck::check_layer(
            AvgPool2dLayer::new(Conv2dSpec::new(2, 2, 0)),
            ParamSet::new(),
            &[2, 2, 4, 4],
            &ForwardCtx::train(),
            1e-2,
        );
    }

    #[test]
    fn backward_rejects_a_dy_of_the_wrong_shape() {
        let ps = ParamSet::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let spec = Conv2dSpec::new(2, 2, 0);
        // Each layer with `dY` dims that are not its output's.
        type Case = (Box<dyn Layer>, &'static [&'static [usize]]);
        let layers: [Case; 3] = [
            (
                Box::new(GlobalAvgPool::new()),
                &[&[2, 4], &[2, 2], &[1, 6], &[2, 3, 1, 1]],
            ),
            (
                Box::new(AvgPool2dLayer::new(spec)),
                &[&[2, 3, 1, 2], &[2, 3, 2, 1], &[2, 3, 1], &[6]],
            ),
            (
                Box::new(MaxPool2dLayer::new(spec)),
                &[&[2, 3, 1, 2], &[3, 2, 1, 1], &[6], &[1, 6, 1, 1]],
            ),
        ];
        for (mut layer, bad) in layers {
            let (y, cache) = layer.forward(&ps, &x, &ForwardCtx::train()).unwrap();
            let mut gs = ps.zero_grads();
            for &dims in bad {
                let dy = Tensor::ones(dims);
                let err = layer.backward(&ps, &cache, &dy, &mut gs).unwrap_err();
                let kind = layer.layer_kind();
                assert!(
                    matches!(err, NnError::BadInput { .. }),
                    "{kind} {dims:?}: {err}"
                );
            }
            let dx = layer.backward(&ps, &cache, &Tensor::ones(y.dims()), &mut gs);
            assert_eq!(dx.unwrap().dims(), x.dims());
        }
    }

    #[test]
    fn lane_inputs_give_the_nchw_results_in_lanes() {
        let ps = ParamSet::new();
        let spec = Conv2dSpec::new(2, 2, 0);
        for n in [1, 17] {
            let x = Tensor::from_vec(
                (0..n * 32).map(|v| (v % 13) as f32).collect(),
                &[n, 2, 4, 4],
            )
            .unwrap();
            let xl = x.to_lanes().unwrap();
            let layers: [Box<dyn Layer>; 3] = [
                Box::new(GlobalAvgPool::new()),
                Box::new(AvgPool2dLayer::new(spec)),
                Box::new(MaxPool2dLayer::new(spec)),
            ];
            for mut layer in layers {
                let (y, c) = layer.forward(&ps, &x, &ForwardCtx::train()).unwrap();
                let (yl, cl) = layer.forward(&ps, &xl, &ForwardCtx::train()).unwrap();
                assert_eq!(yl.to_nchw(), y);
                let mut gs = ps.zero_grads();
                let dy = y.map(|v| v * 0.5 - 1.0);
                let dyl = if yl.is_lanes() {
                    dy.to_lanes().unwrap()
                } else {
                    dy.clone()
                };
                let dx = layer.backward(&ps, &c, &dy, &mut gs).unwrap();
                let dxl = layer.backward(&ps, &cl, &dyl, &mut gs).unwrap();
                assert!(dxl.is_lanes());
                assert_eq!(dxl.to_nchw(), dx);
            }
        }
    }

    #[test]
    fn gap_layer_gradcheck() {
        crate::gradcheck::check_layer(
            GlobalAvgPool::new(),
            ParamSet::new(),
            &[3, 4, 3, 3],
            &ForwardCtx::train(),
            1e-2,
        );
    }
}
