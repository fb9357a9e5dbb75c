//! # cq-quant
//!
//! Quantization substrate for the Contrastive Quant reproduction: the
//! paper's linear quantizer (Eq. 10), fake quantization with a
//! straight-through estimator, and the precision sets (§4.1) from which
//! Contrastive Quant samples bit-widths every training iteration.
//!
//! The paper uses quantization *as an augmentation*: the same weights θ are
//! evaluated under two bit-widths `q1`, `q2` sampled from a precision set
//! (e.g. 6–16), and feature consistency between the two quantized forward
//! passes is enforced. Everything needed for that lives here.
//!
//! # Example
//!
//! ```
//! use cq_quant::{PrecisionSet, Precision, QuantConfig};
//! use rand::SeedableRng;
//!
//! let set = PrecisionSet::range(6, 16)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (q1, q2) = set.sample_pair(&mut rng);
//! let cfg = QuantConfig::uniform(q1);
//! assert!(matches!(cfg.weight, Precision::Bits(_)));
//! # Ok::<(), cq_quant::QuantError>(())
//! ```

#![deny(missing_docs)]

pub mod intmath;
mod kernel;
mod precision;
mod quantizer;

pub use kernel::{emit_i8_codes, emit_quads, QuadGrid};
pub use precision::{Precision, PrecisionSet, QuantError};
pub use quantizer::{
    check_projected, fake_quant, fake_quant_into, fake_quant_scanned, fake_quant_scanned_lanes,
    fake_quant_step, quant_mse, quant_snr_db, QuantConfig, QuantMode, RangeScan,
};
