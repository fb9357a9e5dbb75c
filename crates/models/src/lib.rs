//! # cq-models
//!
//! Backbones and heads for the Contrastive Quant reproduction: CIFAR-style
//! ResNets at the paper's six depths (18/34/74/110/152), MobileNetV2, the
//! SimCLR/BYOL projection and prediction heads, and the [`Encoder`] wrapper
//! bundling a backbone + projector over one parameter set. Each network is
//! defined once, as a [`cq_nn::spec::Plan`] in [`plan`], and built from it.
//!
//! All backbones are width-configurable so the CPU-scale experiment
//! protocol (DESIGN.md §5) can shrink them uniformly across methods.
//!
//! # Example
//!
//! ```
//! use cq_models::{Arch, Encoder, EncoderConfig};
//! use cq_nn::ForwardCtx;
//! use cq_tensor::Tensor;
//!
//! let cfg = EncoderConfig::new(Arch::ResNet18, 4).with_proj(16, 8);
//! let mut enc = Encoder::new(&cfg, 42)?;
//! let x = Tensor::zeros(&[2, 3, 16, 16]);
//! let out = enc.forward(&x, &cq_nn::ForwardCtx::eval())?;
//! assert_eq!(out.features.dims(), &[2, enc.feat_dim()]);
//! assert_eq!(out.projection.dims(), &[2, 8]);
//! # Ok::<(), cq_nn::NnError>(())
//! ```

#![deny(missing_docs)]

mod arch;
mod encoder;
pub mod plan;
pub mod stats;

pub use arch::Arch;
pub use encoder::{Encoder, EncoderConfig, EncoderOutput, EncoderTrace};
pub use plan::HeadConfig;
pub use stats::{embedding_stats, record_embedding_stats, EmbeddingStats};
