//! # cq-core
//!
//! The paper's primary contribution: the **Contrastive Quant** framework
//! (Fu et al., DAC 2022).
//!
//! Contrastive Quant augments contrastive learning with *quantization
//! noise on weights and activations*: every training iteration samples two
//! precisions `(q1, q2)` from a [`cq_quant::PrecisionSet`] and enforces
//! feature consistency across both differently-augmented inputs and
//! differently-quantized encoders. Three pipeline designs are proposed
//! (Fig. 1 of the paper), all implemented here as [`Pipeline`] variants:
//!
//! | Variant | Loss (Eqs. 5–9) | Forwards/step |
//! |---|---|---|
//! | [`Pipeline::Baseline`] | `NCE(F(a1), F(a2))` — plain SimCLR/BYOL | 2 |
//! | [`Pipeline::CqA`] | `NCE(F_q1(a1), F_q2(a2))` — precision as a sequential extra augmentation | 2 |
//! | [`Pipeline::CqB`] | `NCE(f1, f1⁺) + NCE(f2, f2⁺)` — same-precision view pairs only | 4 |
//! | [`Pipeline::CqC`] | CQ-B + `NCE(f1, f2) + NCE(f1⁺, f2⁺)` — adds explicit cross-precision consistency | 4 |
//! | [`Pipeline::CqQuant`] | `NCE(f1, f2)` on *unaugmented* inputs — quantization as the only augmentation (Tab. 8) | 2 |
//!
//! with `f_i = F_{q_i}(Aug_1(x))`, `f_i⁺ = F_{q_i}(Aug_2(x))`.
//!
//! All host frameworks are implemented: [`SimclrMethod`] (NT-Xent loss),
//! [`ByolMethod`] (online/target networks, EMA target update,
//! stop-gradient, prediction head, MSE-style regression loss) and
//! [`SimsiamMethod`]. There is one trainer type, [`TrainLoop`];
//! [`SimclrTrainer`], [`ByolTrainer`] and [`SimsiamTrainer`] are its
//! aliases for the three methods. A method supplies only its
//! construction (which pipelines it hosts, its augmentation, its loader
//! seed salt, its encoder) and its per-step loss via the [`SslMethod`]
//! trait, while the loop owns validation, the data loader, epoch
//! iteration, the LR schedule, explosion skipping, telemetry, health
//! aborts, and exact checkpoint/resume (see [`TrainState`]).

#![deny(missing_docs)]

mod byol;
mod config;
mod engine;
mod loss;
mod simclr;
mod simsiam;

pub use byol::{ByolMethod, ByolTrainer};
pub use config::{Pipeline, PrecisionSampling, PretrainConfig, TrainHistory};
pub use engine::{SslMethod, StepCtx, TrainLoop, TrainState};
pub use loss::{byol_regression, nt_xent, PairLoss};
pub use simclr::{extract_features, SimclrMethod, SimclrTrainer};
pub use simsiam::{SimsiamMethod, SimsiamTrainer};
