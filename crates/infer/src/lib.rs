//! # cq-infer
//!
//! Post-training integer inference for the Contrastive Quant
//! reproduction: converts a trained encoder (or a CQTS-v1 training
//! checkpoint) into a real i8 program and executes it with
//! i8×i8→i32 integer kernels.
//!
//! The training stack simulates quantization in f32 ("fake quant": the
//! grid projection of `cq-quant` applied between f32 ops). This crate
//! closes the loop to deployment arithmetic:
//!
//! 1. **Scale/zero-point extraction** ([`quantize`]) — activations on a
//!    per-tensor asymmetric zero-extended grid, weights per output
//!    channel on a symmetric grid, both using the repo-wide
//!    round-half-away-from-zero rule pinned by [`cq_quant::intmath`].
//! 2. **Batch-norm folding** — running statistics are folded into the
//!    preceding conv/linear weights before requantization, so the
//!    integer program has one MAC where the f32 network had conv+BN.
//! 3. **Integer execution** ([`model`]) — each dense convolution runs
//!    as one implicit i8 GEMM over the whole batch
//!    ([`cq_tensor::conv2d_i8`], on the channel-quad register tile of
//!    [`cq_tensor::gemm::int8`]), reading u8 channel quads that the pass
//!    before it wrote; accumulation stays in i32 end to end with a single
//!    final f32 rescale per output element, applied from the register
//!    tile together with the ReLU and residual add that follow. Integer
//!    accumulation
//!    is associative, so results are bitwise identical at any thread
//!    count — provided accumulators cannot overflow, which conversion
//!    *proves* per layer with the shared headroom bound
//!    ([`cq_quant::intmath::acc_fits_i32`], the same inequality the
//!    `cq-check quantflow` gate certifies) and otherwise refuses to
//!    convert.
//!
//! Parity against the f32 path is threshold-based, not bitwise: the two
//! paths round in different places (the integer path quantizes every MAC
//! input and folds batch norms; the fake-quant path perturbs weights and
//! post-activation tensors in f32). The `cq-bench` parity harness checks
//! max-abs feature error and kNN top-1 agreement across every paper
//! configuration.
//!
//! # Example
//!
//! ```
//! use cq_infer::IntEncoder;
//! use cq_models::{Arch, Encoder, EncoderConfig};
//! use cq_tensor::Tensor;
//!
//! let cfg = EncoderConfig::new(Arch::ResNet18, 8).with_proj(16, 8);
//! let enc = Encoder::new(&cfg, 7)?;
//! let int = IntEncoder::from_encoder(&enc)?;
//! let x = Tensor::zeros(&[2, 3, 16, 16]);
//! let out = int.forward(&x)?;
//! assert_eq!(out.features.dims(), &[2, int.feat_dim()]);
//! assert_eq!(out.projection.dims(), &[2, int.proj_dim()]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod model;
pub mod quantize;
mod snap;

pub use model::{encoder_from_train_state, IntEncoder, IntOutput};
pub use quantize::{quantize_activations, quantize_weights, ActQuant, WeightQuant};

use cq_nn::spec::SpecError;
use cq_nn::NnError;
use cq_quant::QuantError;
use cq_tensor::TensorError;

/// What went wrong during conversion or integer execution.
#[derive(Debug)]
pub enum InferError {
    /// Architecture plan construction failed.
    Spec(SpecError),
    /// Rebuilding the encoder from a checkpoint failed.
    Nn(NnError),
    /// A tensor operation failed (geometry, shapes).
    Tensor(TensorError),
    /// Shared quantization arithmetic rejected a bit-width.
    Quant(QuantError),
    /// A parameter the plan requires is absent from the parameter set.
    MissingParam(String),
    /// A parameter or state tensor has the wrong shape.
    Shape {
        /// Offending tensor's name.
        name: String,
        /// Shape the plan requires.
        expected: Vec<usize>,
        /// Shape found.
        got: Vec<usize>,
    },
    /// Batch-norm state tensors ran out (or were left over) during the
    /// plan walk — the checkpoint does not match the architecture.
    StateExhausted(String),
    /// A MAC layer's tap count fails the i32 accumulator headroom proof
    /// at 8 bits; converting it could overflow silently.
    Headroom {
        /// Offending layer name.
        layer: String,
        /// Tap count (reduction length + bias).
        taps: u64,
    },
    /// The input or an intermediate activation has the wrong form.
    Input(String),
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::Spec(e) => write!(f, "plan construction failed: {e}"),
            InferError::Nn(e) => write!(f, "encoder rebuild failed: {e}"),
            InferError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            InferError::Quant(e) => write!(f, "quantization arithmetic rejected: {e}"),
            InferError::MissingParam(name) => write!(f, "parameter `{name}` not found"),
            InferError::Shape {
                name,
                expected,
                got,
            } => write!(f, "`{name}` has shape {got:?}, expected {expected:?}"),
            InferError::StateExhausted(what) => {
                write!(f, "state tensors do not match architecture: {what}")
            }
            InferError::Headroom { layer, taps } => write!(
                f,
                "layer `{layer}` has {taps} taps, too many for proven i32 headroom at 8 bits"
            ),
            InferError::Input(what) => write!(f, "bad input: {what}"),
        }
    }
}

impl std::error::Error for InferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InferError::Spec(e) => Some(e),
            InferError::Nn(e) => Some(e),
            InferError::Tensor(e) => Some(e),
            InferError::Quant(e) => Some(e),
            _ => None,
        }
    }
}
