//! # cq-tensor
//!
//! N-dimensional `f32` tensor substrate for the Contrastive Quant
//! reproduction.
//!
//! This crate provides everything the neural-network stack above it needs:
//! contiguous row-major tensors, elementwise and broadcast arithmetic, a
//! blocked parallel matrix multiply, batch-lane dense convolution (and
//! its int8 forward as an implicit GEMM), depthwise convolution, pooling,
//! reductions, softmax, random initialisation, and a tiny binary
//! serialisation format for checkpoints.
//!
//! Design notes:
//!
//! - Tensors are always contiguous and row-major; operations that would
//!   produce a strided view (e.g. [`Tensor::transpose`]) materialise the
//!   result instead. This keeps every kernel simple and cache-friendly,
//!   which matters more than view tricks at the model sizes used here.
//! - Matrix products go through the cache-blocked, register-tiled
//!   kernels in [`gemm`], which are bitwise-identical to the unblocked
//!   scalar loops they replaced (see that module's determinism notes).
//! - All randomness is drawn from caller-provided [`rand::Rng`] instances
//!   so experiments are reproducible bit-for-bit; state that must survive
//!   checkpoint/resume uses the serializable [`CqRng`] (bit-compatible
//!   with the vendored `StdRng`).
//! - Parallelism goes through the persistent worker pool in [`par`]
//!   (spawned once per process, parked between jobs); kernels parallelise
//!   over row tiles, column panels or batch elements on a fixed chunk grid, so results
//!   are bitwise identical at any `CQ_THREADS`.
//!
//! # Example
//!
//! ```
//! use cq_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), cq_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]

mod conv;
mod error;
pub mod gemm;
mod io;
mod linalg;
pub mod par;
mod pool;
mod reduce;
mod rng;
pub mod sanitize;
mod shape;
pub mod simd;
mod tensor;

pub use conv::{depthwise_conv2d, depthwise_conv2d_backward, depthwise_conv2d_i8, Conv2dSpec};
pub use error::TensorError;
pub use gemm::conv::{conv2d, conv2d_backward, conv2d_i8, ConvShape, Requant};
pub use io::{read_tensor, write_tensor};
pub use rng::CqRng;

pub use pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward, max_pool2d,
    max_pool2d_backward,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
