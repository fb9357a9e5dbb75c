//! The workloads, the inputs a seed generates for them, and the state
//! each closed-loop op runs on.

use cq_bench::parity::feature_parity;
use cq_bench::{Protocol, Regime, Scale};
use cq_core::{Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::{AugmentConfig, AugmentPipeline, Dataset, TwoViewBatch, TwoViewLoader};
use cq_infer::IntEncoder;
use cq_models::{Arch, Encoder};
use cq_nn::{CosineSchedule, ForwardCtx};
use cq_quant::{Precision, PrecisionSet, QuantConfig, QuantMode};
use cq_tensor::{CqRng, Tensor};
use rand::SeedableRng;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Images per training batch and per inference batch.
pub const BATCH: usize = 128;
const TRAIN_IMAGES: usize = 512;
/// Two 128-image inference batches.
const TEST_IMAGES: usize = 256;

/// One benchmark workload. Why each exists is recorded in
/// `BENCHMARK.json` and the README.
pub struct Workload {
    pub name: &'static str,
    pub arch: Arch,
    /// The training recipe. For `infer-r18-int8` it is only used by the
    /// traced run's training-layer probes: CQ-C is how the paper trains a
    /// model meant for low-precision deployment.
    pub pipeline: Pipeline,
    /// The op is int8 inference rather than a training step.
    pub infer: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pretrain-r18-cqc",
        arch: Arch::ResNet18,
        pipeline: Pipeline::CqC,
        infer: false,
    },
    Workload {
        name: "pretrain-mbv2-cqa",
        arch: Arch::MobileNetV2,
        pipeline: Pipeline::CqA,
        infer: false,
    },
    Workload {
        name: "pretrain-r110-simclr",
        arch: Arch::ResNet110,
        pipeline: Pipeline::Baseline,
        infer: false,
    },
    Workload {
        name: "infer-r18-int8",
        arch: Arch::ResNet18,
        pipeline: Pipeline::CqC,
        infer: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a seed determines: the dataset, and through
/// `proto.seed` the weight init, the loader and the precision draws.
pub struct Inputs {
    pub proto: Protocol,
    pub train: Dataset,
    pub test: Dataset,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut proto = Protocol::new(Regime::CifarLike, Scale::Quick);
        proto.data = proto
            .data
            .with_sizes(TRAIN_IMAGES, TEST_IMAGES)
            .with_seed(seed);
        proto.seed = seed;
        let (train, test) = proto.datasets();
        Inputs { proto, train, test }
    }

    pub fn pretrain_cfg(&self, w: &Workload) -> Res<PretrainConfig> {
        let pset = if w.pipeline.needs_precisions() {
            Some(PrecisionSet::range(6, 16)?)
        } else {
            None
        };
        Ok(self.proto.pretrain_cfg(w.pipeline, pset))
    }

    /// A freshly initialised encoder; every call returns the same weights.
    pub fn encoder(&self, w: &Workload) -> Res<Encoder> {
        Ok(Encoder::new(
            &self.proto.encoder_cfg(w.arch),
            self.proto.seed,
        )?)
    }

    pub fn trainer(&self, w: &Workload) -> Res<SimclrTrainer> {
        Ok(SimclrTrainer::new(self.encoder(w)?, self.pretrain_cfg(w)?)?)
    }
}

/// The learning rate `TrainLoop` would use: cosine over the protocol's
/// epochs with a 5% warm-up, flat at its floor past the end.
pub fn schedule(cfg: &PretrainConfig) -> CosineSchedule {
    let total = cfg.epochs * TRAIN_IMAGES / BATCH;
    CosineSchedule::new(cfg.lr, total, total / 20)
}

/// Two-view training batches over shuffled epochs of the train split.
pub struct Batches {
    loader: TwoViewLoader,
    rng: CqRng,
    order: Vec<usize>,
}

impl Batches {
    pub fn new(seed: u64) -> Batches {
        Batches {
            loader: TwoViewLoader::new(
                AugmentPipeline::new(AugmentConfig::simclr()),
                BATCH,
                seed ^ 0xA5A5,
            ),
            rng: CqRng::seed_from_u64(seed ^ 0x0BA7),
            order: Vec::new(),
        }
    }

    pub fn next(&mut self, train: &Dataset) -> TwoViewBatch {
        if self.order.len() < BATCH {
            self.order = Tensor::permutation(train.len(), &mut self.rng);
        }
        let idx = self.order.split_off(self.order.len() - BATCH);
        self.loader.make_batch(train, &idx)
    }
}

/// `Some(loss)` for a step that applied a finite-loss update.
pub fn step_loss(step: Result<Option<(f32, f32)>, cq_nn::NnError>) -> Option<f32> {
    match step {
        Ok(Some((loss, _))) if loss.is_finite() => Some(loss),
        Ok(_) => None,
        Err(e) => {
            eprintln!("benchmark: step failed: {e}");
            None
        }
    }
}

/// A random-init f32 encoder, its int8 conversion, and the test split
/// snapped to the 8-bit grid in 128-image batches with the f32
/// fake-quant-8 reference features of each batch.
pub struct Infer {
    pub encoder: Encoder,
    pub int: IntEncoder,
    pub batches: Vec<Tensor>,
    pub labels: Vec<Vec<usize>>,
    pub reference: Vec<Tensor>,
}

pub fn fake8() -> ForwardCtx {
    ForwardCtx::eval().with_quant(QuantConfig::uniform(Precision::Bits(8)))
}

impl Infer {
    pub fn new(w: &Workload, inputs: &Inputs) -> Res<Infer> {
        let mut encoder = inputs.encoder(w)?;
        let int = IntEncoder::from_encoder(&encoder)?;
        let idx: Vec<usize> = (0..inputs.test.len()).collect();
        let (x, labels) = inputs.test.batch(&idx);
        let mut dims = x.dims().to_vec();
        dims[0] = BATCH;
        // Deployment inputs are 8-bit images: both paths read the same
        // on-grid pixels.
        let mut pixels = x.into_vec();
        cq_quant::fake_quant_into(&mut pixels, Precision::Bits(8), QuantMode::Round);
        let mut batches = Vec::new();
        let mut reference = Vec::new();
        for chunk in pixels.chunks_exact(pixels.len() / idx.len() * BATCH) {
            let x = Tensor::from_vec(chunk.to_vec(), &dims)?;
            reference.push(encoder.features(&x, &fake8())?);
            batches.push(x);
        }
        Ok(Infer {
            encoder,
            int,
            batches,
            labels: labels.chunks_exact(BATCH).map(<[usize]>::to_vec).collect(),
            reference,
        })
    }

    /// Relative error of int8 features against the reference of batch `i`.
    pub fn rel_err(&self, i: usize, int_features: &Tensor) -> f32 {
        feature_parity(int_features, &self.reference[i], &self.labels[i]).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_inputs_and_another_seed_changes_them() {
        let w = &WORKLOADS[0];
        let image = |inputs: &Inputs| inputs.train.image(0).as_slice().to_vec();
        let weights = |inputs: &Inputs| inputs.encoder(w).expect("encoder").params().clone();
        let batch = |seed, inputs: &Inputs| Batches::new(seed).next(&inputs.train).view1;
        let (a, b, c) = (Inputs::new(1), Inputs::new(1), Inputs::new(2));
        assert_eq!(image(&a), image(&b));
        assert_eq!(weights(&a), weights(&b));
        assert_eq!(batch(1, &a), batch(1, &b));
        assert_eq!(a.pretrain_cfg(w).expect("cfg").seed, 1);
        assert_ne!(image(&a), image(&c));
        assert_ne!(weights(&a), weights(&c));
        assert_ne!(batch(1, &a), batch(2, &c));
    }
}
