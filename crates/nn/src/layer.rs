//! The [`Layer`] trait and the [`Sequential`] container.

use std::borrow::Cow;

use cq_tensor::Tensor;

use crate::build::{backward_chain, ChainCaches};
use crate::{Cache, ForwardCtx, GradSet, ParamSet, Result};

/// A differentiable network module with trace-based forward/backward.
///
/// `forward` takes `&mut self` so stateful layers (BatchNorm running
/// statistics) can update themselves in training mode; everything needed
/// by `backward` is returned in the [`Cache`], so several forward traces
/// of the same layer can be alive at once — the property Contrastive
/// Quant's multi-branch steps rely on.
pub trait Layer: Send {
    /// Runs the layer on `x`, returning the output and the trace needed by
    /// [`Layer::backward`].
    ///
    /// # Errors
    ///
    /// Returns an error for inputs of unexpected shape.
    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)>;

    /// Backpropagates `dy` through the trace, accumulating parameter
    /// gradients into `gs` and returning the input gradient. A trace is
    /// walked once: containers ([`Sequential`], residual blocks) drop each
    /// child's cache as soon as its backward is done, so a second walk of
    /// the same trace is an error.
    ///
    /// # Errors
    ///
    /// Returns an error if `cache` was produced by a different layer or
    /// shapes are inconsistent.
    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor>;

    /// Non-parameter state tensors (e.g. BatchNorm running statistics),
    /// in a deterministic traversal order. Used for checkpointing and for
    /// copying state into a BYOL target network.
    fn state_tensors(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable access to the tensors of [`Layer::state_tensors`], in the
    /// same order.
    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Short type name used by diagnostics (the numerics sanitizer labels
    /// violations with it). Override in concrete layers.
    fn layer_kind(&self) -> &'static str {
        "layer"
    }

    /// Records this layer's work onto a lazy elementwise chain instead of
    /// executing eagerly. Fusable layers (activations, BatchNorm) push an
    /// op group and return `Ok(true)`; the default `Ok(false)` makes the
    /// [`crate::graph::Recorder`] materialize the chain and fall back to
    /// [`Layer::forward`].
    ///
    /// # Errors
    ///
    /// Returns an error for inputs of unexpected shape, exactly as
    /// [`Layer::forward`] would.
    fn record(&mut self, rec: &mut crate::graph::Recorder<'_>) -> Result<bool> {
        let _ = rec;
        Ok(false)
    }
}

/// A chain of layers applied in order.
///
/// # Example
///
/// ```
/// use cq_nn::{Sequential, Linear, Relu, ParamSet, ForwardCtx, Layer};
/// use cq_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut ps = ParamSet::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut mlp = Sequential::new();
/// mlp.push(Linear::new(&mut ps, "fc1", 4, 8, true, &mut rng));
/// mlp.push(Relu::new());
/// mlp.push(Linear::new(&mut ps, "fc2", 8, 2, true, &mut rng));
/// let (y, _) = mlp.forward(&ps, &Tensor::ones(&[5, 4]), &ForwardCtx::eval())?;
/// assert_eq!(y.dims(), &[5, 2]);
/// # Ok::<(), cq_nn::NnError>(())
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer (for dynamically built networks).
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs only the first `n_layers` layers (e.g. a backbone without its
    /// final pooling, for dense prediction heads). The returned cache is
    /// accepted by [`Layer::backward`], which walks exactly the layers the
    /// cache covers.
    ///
    /// # Errors
    ///
    /// Returns an error if `n_layers` exceeds the chain length or a child
    /// layer fails.
    pub fn forward_upto(
        &mut self,
        ps: &ParamSet,
        x: &Tensor,
        ctx: &ForwardCtx,
        n_layers: usize,
    ) -> Result<(Tensor, Cache)> {
        if n_layers > self.layers.len() {
            return Err(crate::NnError::Param(format!(
                "forward_upto: {} layers requested, chain has {}",
                n_layers,
                self.layers.len()
            )));
        }
        run_layers(&mut self.layers[..n_layers], ps, x, ctx)
    }
}

/// Runs a chain of layers through the graph [`crate::graph::Recorder`]:
/// fusable layers record lazily, everything else executes at
/// materialization barriers. Per-layer spans and sanitize scans happen
/// inside [`crate::graph::Recorder::run`].
fn run_layers(
    layers: &mut [Box<dyn Layer>],
    ps: &ParamSet,
    x: &Tensor,
    ctx: &ForwardCtx,
) -> Result<(Tensor, Cache)> {
    let mut rec = crate::graph::Recorder::new(ps, ctx, x.clone());
    for layer in layers.iter_mut() {
        rec.run(layer.as_mut())?;
    }
    let (y, children) = rec.finish()?;
    Ok((
        y,
        Cache::new(SeqCache {
            children: ChainCaches::new(children),
        }),
    ))
}

/// Trace for [`Sequential`]: one cache per child layer.
struct SeqCache {
    children: ChainCaches,
}

impl Layer for Sequential {
    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        run_layers(&mut self.layers, ps, x, ctx)
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor> {
        let children = cache
            .downcast::<SeqCache>("Sequential")?
            .children
            .take("Sequential")?;
        // Prefix caches (from `forward_upto`) walk only the layers they
        // cover; a full-forward cache covers every layer.
        if children.len() > self.layers.len() {
            return Err(crate::NnError::CacheMismatch {
                layer: "Sequential".into(),
            });
        }
        let layers = &self.layers[..children.len()];
        Ok(backward_chain(layers, children, ps, Cow::Borrowed(dy), gs)?.into_owned())
    }

    fn state_tensors(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.state_tensors()).collect()
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.state_tensors_mut())
            .collect()
    }

    fn layer_kind(&self) -> &'static str {
        "Sequential"
    }
}

/// Copies all non-parameter state (BatchNorm running statistics) from one
/// layer tree to an identically structured one — used when building a BYOL
/// target network.
///
/// # Errors
///
/// Returns [`crate::NnError::Param`] if the trees have different state
/// layouts.
pub fn copy_state(dst: &mut dyn Layer, src: &dyn Layer) -> Result<()> {
    let s = src.state_tensors();
    let mut d = dst.state_tensors_mut();
    if s.len() != d.len() {
        return Err(crate::NnError::Param(format!(
            "state layout mismatch: {} vs {} tensors",
            d.len(),
            s.len()
        )));
    }
    for (dt, st) in d.iter_mut().zip(&s) {
        if dt.dims() != st.dims() {
            return Err(crate::NnError::Param("state tensor shape mismatch".into()));
        }
        dt.as_mut_slice().copy_from_slice(st.as_slice());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::SeedableRng;

    #[test]
    fn sequential_chains_shapes() {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut seq = Sequential::new();
        seq.push(Linear::new(&mut ps, "a", 3, 5, true, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(&mut ps, "b", 5, 2, true, &mut rng));
        assert_eq!(seq.len(), 3);
        let x = Tensor::ones(&[4, 3]);
        let (y, cache) = seq.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        let mut gs = ps.zero_grads();
        let dx = seq
            .backward(&ps, &cache, &Tensor::ones(&[4, 2]), &mut gs)
            .unwrap();
        assert_eq!(dx.dims(), &[4, 3]);
        // The walk released the children's caches: a second one is an
        // error, not a gradient from stale caches.
        let again = seq.backward(&ps, &cache, &Tensor::ones(&[4, 2]), &mut gs);
        assert!(matches!(again, Err(crate::NnError::CacheMismatch { .. })));
    }

    #[test]
    fn sequential_gradcheck() {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut seq = Sequential::new();
        seq.push(Linear::new(&mut ps, "g.fc1", 4, 6, true, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(&mut ps, "g.fc2", 6, 3, true, &mut rng));
        crate::gradcheck::check_layer_soft(seq, ps, &[2, 4], &ForwardCtx::eval(), 1e-2);
    }

    #[test]
    fn wrong_cache_rejected() {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut seq = Sequential::new();
        seq.push(Linear::new(&mut ps, "a", 3, 3, true, &mut rng));
        let mut gs = ps.zero_grads();
        let bad = Cache::new(7u8);
        assert!(seq
            .backward(&ps, &bad, &Tensor::ones(&[1, 3]), &mut gs)
            .is_err());
    }

    /// Test layer that poisons one output element with NaN.
    struct NanLayer;

    impl Layer for NanLayer {
        fn forward(
            &mut self,
            _ps: &ParamSet,
            x: &Tensor,
            _ctx: &ForwardCtx,
        ) -> Result<(Tensor, Cache)> {
            let mut y = x.clone();
            y.as_mut_slice()[0] = f32::NAN;
            Ok((y, Cache::none()))
        }

        fn backward(
            &self,
            _ps: &ParamSet,
            _cache: &Cache,
            dy: &Tensor,
            _gs: &mut GradSet,
        ) -> Result<Tensor> {
            Ok(dy.clone())
        }

        fn layer_kind(&self) -> &'static str {
            "NanLayer"
        }
    }

    #[test]
    fn sanitize_attributes_nan_to_producing_layer() {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut seq = Sequential::new();
        seq.push(Linear::new(&mut ps, "a", 3, 3, true, &mut rng));
        seq.push(NanLayer);
        seq.push(Relu::new());
        let x = Tensor::ones(&[2, 3]);
        // Without the sanitizer the NaN flows through silently.
        assert!(seq.forward(&ps, &x, &ForwardCtx::eval()).is_ok());
        // With it, the pass fails and names the producing layer.
        let err = seq
            .forward(&ps, &x, &ForwardCtx::eval().with_sanitize())
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("layer #1 (NanLayer)"),
            "unattributed error: {msg}"
        );
        let recorded = cq_tensor::sanitize::take_violations();
        assert_eq!(recorded.len(), 1);
        assert!(recorded[0].kind.is_fatal());
    }

    #[test]
    fn empty_sequential_is_identity() {
        let ps = ParamSet::new();
        let mut seq = Sequential::new();
        assert!(seq.is_empty());
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let (y, c) = seq.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        assert_eq!(y, x);
        let mut gs = ps.zero_grads();
        let dx = seq.backward(&ps, &c, &x, &mut gs).unwrap();
        assert_eq!(dx, x);
    }
}
