//! # cq-nn
//!
//! Neural-network substrate for the Contrastive Quant reproduction:
//! parameter storage, trace-based layers with analytic backward passes,
//! losses and optimizers.
//!
//! ## Why traces instead of a tape
//!
//! Contrastive Quant evaluates the *same* parameters θ under several
//! quantization configurations per training step — `F_{q1}(x, θ_{q1})` and
//! `F_{q2}(x, θ_{q2})` (Eq. 4 of the paper) — then couples the resulting
//! features in one loss. Every [`Layer::forward`] therefore returns an
//! independent [`Cache`] ("trace"); the trainer runs all forwards first,
//! computes the joint loss, and backpropagates each branch, accumulating
//! into one [`GradSet`].
//!
//! ## Quantization policy
//!
//! The [`ForwardCtx`] carries a [`cq_quant::QuantConfig`]. Weight-bearing
//! layers ([`Conv2d`], [`DepthwiseConv2d`], [`Linear`]) fake-quantize their
//! weights before use; activation layers ([`Relu`], [`Relu6`]) fake-quantize
//! their outputs. BatchNorm runs in full precision (standard QAT practice —
//! it is folded at deployment). Backward uses the straight-through
//! estimator: quantization is treated as identity, but the data gradients
//! flow through the *quantized* weights, which is exactly what the chain
//! rule prescribes for `y = x · Q(w)`.
//!
//! # Example
//!
//! ```
//! use cq_nn::{Linear, Layer, ParamSet, ForwardCtx};
//! use cq_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut ps = ParamSet::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut fc = Linear::new(&mut ps, "fc", 4, 2, true, &mut rng);
//! let x = Tensor::ones(&[3, 4]);
//! let (y, _cache) = fc.forward(&ps, &x, &ForwardCtx::eval())?;
//! assert_eq!(y.dims(), &[3, 2]);
//! # Ok::<(), cq_nn::NnError>(())
//! ```

#![deny(missing_docs)]

mod act;
mod build;
mod conv;
mod ctx;
mod error;
pub mod gradcheck;
pub mod graph;
mod layer;
mod linear;
mod loss;
mod norm;
mod optim;
mod param;
mod perturb;
mod pool;
pub mod reference;
pub mod spec;

pub use act::{Relu, Relu6};
pub use conv::{Conv2d, DepthwiseConv2d};
pub use ctx::{Cache, ForwardCtx, Mode, WeightNoise};
pub use error::NnError;
pub use layer::{copy_state, Layer, Sequential};
pub use linear::Linear;
pub use loss::{accuracy, mse_loss, softmax_cross_entropy, LossOutput};
pub use norm::{BatchNorm1d, BatchNorm2d};
pub use optim::{
    clip_grad_norm, global_grad_norm, CosineSchedule, Lars, LarsConfig, Sgd, SgdConfig,
};
pub use param::{GradSet, ParamId, ParamSet};
pub use pool::{AvgPool2dLayer, GlobalAvgPool, MaxPool2dLayer};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
