//! Instantiates a [`Plan`] as a runnable network.
//!
//! [`Plan::build`] walks the plan in order and calls each leaf layer's
//! constructor under the plan's layer name, so parameter names and the
//! weight-init RNG draw order follow the plan exactly. A
//! [`LayerKind::Residual`] becomes one `Residual` layer; a
//! [`LayerKind::Block`] that opens with a residual folds the rest of the
//! block (the trailing activation) into that layer's chain, and any other
//! block becomes a nested [`Sequential`].

use std::borrow::Cow;
use std::sync::{Mutex, PoisonError};

use cq_tensor::Tensor;
use rand::Rng;

use crate::graph::Recorder;
use crate::spec::{LayerKind, LayerSpec, Plan};
use crate::{
    AvgPool2dLayer, BatchNorm1d, BatchNorm2d, Cache, Conv2d, DepthwiseConv2d, ForwardCtx,
    GlobalAvgPool, GradSet, Layer, Linear, MaxPool2dLayer, NnError, ParamSet, Relu, Relu6, Result,
    Sequential,
};

impl Plan {
    /// Instantiates the plan, registering every parameter in `ps` under
    /// its plan layer name and drawing initial weights from `rng` in plan
    /// order.
    pub fn build<R: Rng>(&self, ps: &mut ParamSet, rng: &mut R) -> Sequential {
        let mut net = Sequential::new();
        for layer in build_layers(self.layers(), ps, rng) {
            net.push_boxed(layer);
        }
        net
    }
}

type Chain = Vec<Box<dyn Layer>>;

fn build_layers<R: Rng>(layers: &[LayerSpec], ps: &mut ParamSet, rng: &mut R) -> Chain {
    layers.iter().map(|l| build_layer(l, ps, rng)).collect()
}

fn build_layer<R: Rng>(layer: &LayerSpec, ps: &mut ParamSet, rng: &mut R) -> Box<dyn Layer> {
    let name = layer.name.as_str();
    match &layer.kind {
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            spec,
            bias,
        } => Box::new(Conv2d::new(ps, name, *in_ch, *out_ch, *spec, *bias, rng)),
        LayerKind::DepthwiseConv2d { channels, spec } => {
            Box::new(DepthwiseConv2d::new(ps, name, *channels, *spec, rng))
        }
        LayerKind::BatchNorm2d { channels } => Box::new(BatchNorm2d::new(ps, name, *channels)),
        LayerKind::BatchNorm1d { features } => Box::new(BatchNorm1d::new(ps, name, *features)),
        LayerKind::Linear {
            in_features,
            out_features,
            bias,
        } => Box::new(Linear::new(
            ps,
            name,
            *in_features,
            *out_features,
            *bias,
            rng,
        )),
        LayerKind::Relu => Box::new(Relu::new()),
        LayerKind::Relu6 => Box::new(Relu6::new()),
        LayerKind::MaxPool2d { spec } => Box::new(MaxPool2dLayer::new(*spec)),
        LayerKind::AvgPool2d { spec } => Box::new(AvgPool2dLayer::new(*spec)),
        LayerKind::GlobalAvgPool => Box::new(GlobalAvgPool::new()),
        LayerKind::Residual { main, skip } => {
            Box::new(Residual::build(main, skip.as_ref(), &[], ps, rng))
        }
        LayerKind::Block(p) => match p.layers() {
            [LayerSpec {
                kind: LayerKind::Residual { main, skip },
                ..
            }, tail @ ..] => Box::new(Residual::build(main, skip.as_ref(), tail, ps, rng)),
            _ => Box::new(p.build(ps, rng)),
        },
    }
}

/// A residual block: `tail(main(x) + skip(x))`, with an identity skip
/// when there is no projection.
///
/// The main chain, the add and the tail run as one
/// [`Recorder`] chain, so the last BatchNorm of the main chain, the add
/// and a trailing activation (with its fake-quant) fuse into one pass.
/// The projection skip runs as a second chain on the block input.
/// Backward runs the tail, then main, then skip, and returns the sum of
/// the main and skip input gradients.
pub(crate) struct Residual {
    main: Chain,
    /// The projection; empty = identity skip.
    skip: Chain,
    tail: Chain,
}

/// Forward trace of [`Residual`].
struct ResidualCache {
    /// One cache per main layer, then one per tail layer.
    chain: ChainCaches,
    /// One cache per projection-skip layer.
    skip: ChainCaches,
}

impl Residual {
    /// Builds the block from its plan parts, registering parameters in
    /// main, skip, tail order.
    fn build<R: Rng>(
        main: &Plan,
        skip: Option<&Plan>,
        tail: &[LayerSpec],
        ps: &mut ParamSet,
        rng: &mut R,
    ) -> Self {
        Residual {
            main: build_layers(main.layers(), ps, rng),
            skip: build_layers(skip.map_or(&[], Plan::layers), ps, rng),
            tail: build_layers(tail, ps, rng),
        }
    }
}

/// The child caches of a container's trace, handed to its backward once.
/// The backward drops each child's cache as soon as that child's backward
/// is done, so a trace's activations are released layer by layer while
/// it is walked rather than all at once after it, and the later layers'
/// gradient buffers reuse them.
pub(crate) struct ChainCaches(Mutex<Option<Vec<Cache>>>);

impl ChainCaches {
    pub(crate) fn new(caches: Vec<Cache>) -> Self {
        ChainCaches(Mutex::new(Some(caches)))
    }

    /// The caches, for the one backward walk of the trace.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CacheMismatch`] when the trace was walked
    /// before.
    pub(crate) fn take(&self, layer: &str) -> Result<Vec<Cache>> {
        let mut caches = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        caches.take().ok_or_else(|| NnError::CacheMismatch {
            layer: format!("{layer} (trace already walked backward)"),
        })
    }
}

/// Backpropagates `dy` through `layers` in reverse order, one backward
/// span per layer, dropping each layer's cache after its backward; `dy`
/// is only copied when `layers` is empty and the caller asks for an
/// owned tensor.
pub(crate) fn backward_chain<'a>(
    layers: &[Box<dyn Layer>],
    caches: Vec<Cache>,
    ps: &ParamSet,
    dy: Cow<'a, Tensor>,
    gs: &mut GradSet,
) -> Result<Cow<'a, Tensor>> {
    let mut d = dy;
    for (layer, cache) in layers.iter().zip(caches).rev() {
        // Per-layer backward span (the same static-name convention as the
        // forward spans `Recorder::run` opens), so a child's time is not
        // left as its container's self time.
        let _sp = cq_obs::span(layer.layer_kind());
        d = Cow::Owned(layer.backward(ps, &cache, &d, gs)?);
    }
    Ok(d)
}

impl Layer for Residual {
    fn layer_kind(&self) -> &'static str {
        "Residual"
    }

    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        let mut rec = Recorder::new(ps, ctx, x.clone());
        for layer in &mut self.main {
            rec.run(layer.as_mut())?;
        }
        // The projection runs as its own chain, so its BatchNorm sweeps
        // its conv's output in place rather than a copy of it.
        let mut skip = Recorder::new(ps, ctx, x.clone());
        for layer in &mut self.skip {
            skip.run(layer.as_mut())?;
        }
        let (skip, skip_caches) = skip.finish()?;
        rec.push_add(skip)?;
        for layer in &mut self.tail {
            rec.run(layer.as_mut())?;
        }
        let (out, chain) = rec.finish()?;
        Ok((
            out,
            Cache::new(ResidualCache {
                chain: ChainCaches::new(chain),
                skip: ChainCaches::new(skip_caches),
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
        let c = cache.downcast::<ResidualCache>("Residual")?;
        let (mut main_caches, skip_caches) = (c.chain.take("Residual")?, c.skip.take("Residual")?);
        if main_caches.len() != self.main.len() + self.tail.len()
            || skip_caches.len() != self.skip.len()
        {
            return Err(NnError::CacheMismatch {
                layer: "Residual".into(),
            });
        }
        let tail_caches = main_caches.split_off(self.main.len());
        let dsum = backward_chain(&self.tail, tail_caches, ps, Cow::Borrowed(dy), gs)?;
        let dx_main = backward_chain(&self.main, main_caches, ps, Cow::Borrowed(&*dsum), gs)?;
        let dx_skip = backward_chain(&self.skip, skip_caches, ps, Cow::Borrowed(&*dsum), gs)?;
        let mut dx = dx_main.into_owned();
        dx.add_assign(&dx_skip)?;
        Ok(dx)
    }

    fn state_tensors(&self) -> Vec<&Tensor> {
        let layers = self.main.iter().chain(&self.skip).chain(&self.tail);
        layers.flat_map(|l| l.state_tensors()).collect()
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let layers = self
            .main
            .iter_mut()
            .chain(&mut self.skip)
            .chain(&mut self.tail);
        layers.flat_map(|l| l.state_tensors_mut()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize) -> LayerKind {
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            spec: Conv2dSpec::new(k, stride, pad),
            bias: false,
        }
    }

    /// `Block[Residual{conv→bn, skip}, relu]`: the shape of a ResNet block.
    fn residual_block(in_ch: usize, out_ch: usize, stride: usize, projection: bool) -> Plan {
        let mut main = Plan::new();
        main.push("m.conv", conv(in_ch, out_ch, 3, stride, 1));
        main.push("m.bn", LayerKind::BatchNorm2d { channels: out_ch });
        let skip = projection.then(|| {
            let mut s = Plan::new();
            s.push("s.conv", conv(in_ch, out_ch, 1, stride, 0));
            s.push("s.bn", LayerKind::BatchNorm2d { channels: out_ch });
            s
        });
        let mut block = Plan::new();
        block.push("b.res", LayerKind::Residual { main, skip });
        block.push("b.relu", LayerKind::Relu);
        let mut plan = Plan::new();
        plan.push("b", LayerKind::Block(block));
        plan
    }

    #[test]
    fn build_registers_params_in_plan_order() {
        let plan = residual_block(3, 4, 2, true);
        let mut ps = ParamSet::new();
        let net = plan.build(&mut ps, &mut StdRng::seed_from_u64(0));
        assert_eq!(net.len(), 1, "block folds into one residual layer");
        let names: Vec<&str> = ps.iter().map(|(_, n, _)| n).collect();
        assert_eq!(
            names,
            [
                "m.conv.weight",
                "m.bn.gamma",
                "m.bn.beta",
                "s.conv.weight",
                "s.bn.gamma",
                "s.bn.beta"
            ]
        );
        assert_eq!(ps.num_scalars(), plan.param_count());
        // main state first, then skip state
        assert_eq!(net.state_tensors().len(), 4);
    }

    #[test]
    fn built_plans_match_inferred_shapes() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        for plan in [
            residual_block(4, 4, 1, false),
            residual_block(4, 8, 2, true),
        ] {
            let mut net = plan.build(&mut ps, &mut rng);
            let (y, _) = net
                .forward(&ps, &Tensor::ones(&[2, 4, 6, 6]), &ForwardCtx::train())
                .unwrap();
            assert_eq!(plan.infer(&[2, 4, 6, 6]).unwrap(), y.dims());
        }
    }

    #[test]
    fn residual_gradcheck_identity_and_projection() {
        for (seed, out_ch, stride, projection) in [(2, 3, 1, false), (3, 4, 2, true)] {
            let mut ps = ParamSet::new();
            let net = residual_block(3, out_ch, stride, projection)
                .build(&mut ps, &mut StdRng::seed_from_u64(seed));
            crate::gradcheck::check_layer_soft(net, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
        }
    }
}
