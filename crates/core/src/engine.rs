//! The unified SSL training engine and checkpoint/resume subsystem.
//!
//! [`TrainLoop`] is the one trainer type: it owns construction
//! (validation, the data loader), epoch iteration, the cosine LR
//! schedule, explosion/NaN step skipping, throughput and epoch-stat
//! recording, collapse probes, and health abort checks. Each method
//! supplies only its loss and its construction through the [`SslMethod`]
//! trait; `SimclrTrainer`, `ByolTrainer` and `SimsiamTrainer` are type
//! aliases of `TrainLoop<SimclrMethod>`, `TrainLoop<ByolMethod>` and
//! `TrainLoop<SimsiamMethod>`.
//!
//! On top of the loop sits the versioned [`TrainState`] checkpoint format
//! (`CQTS`, built on `cq_tensor::io`): parameters (including prediction
//! heads), BatchNorm running state, the BYOL target network, SGD momentum
//! buffers, step/epoch counters, [`TrainHistory`], and both RNG states
//! (engine sampling RNG + data-loader RNG, serializable via
//! [`cq_tensor::CqRng`]). Resume is *exact*: a run checkpointed at epoch
//! `k` and resumed produces a bitwise-identical loss trace and
//! quantization bit sequence to the uninterrupted run, at any
//! `CQ_THREADS` (pinned by the `checkpoint_resume` integration test and
//! the CI kill-and-resume job).
//!
//! Checkpoint loading is two-phase: the whole stream is parsed into a
//! [`TrainState`] and validated against the live trainer *before* any
//! field is written, so a corrupt/truncated/mismatched file fails with a
//! clean [`NnError`] and zero partial mutation.

use std::io::{Read, Write};

use cq_data::{AugmentConfig, AugmentPipeline, Dataset, TwoViewBatch, TwoViewLoader};
use cq_models::Encoder;
use cq_nn::{CosineSchedule, ForwardCtx, GradSet, NnError, ParamSet, Sgd, SgdConfig};
use cq_quant::{Precision, QuantConfig};
use cq_tensor::{read_tensor, write_tensor, CqRng, Tensor};
use rand::{Rng, SeedableRng};

use crate::{Pipeline, PrecisionSampling, PretrainConfig, TrainHistory};

// Steps skipped due to gradient explosion, across all trainers in the
// process; no-op unless a cq-obs sink is installed.
static EXPLODED_STEPS: cq_obs::Counter = cq_obs::Counter::new("train.exploded_steps");
// Checkpoint lifecycle counters. `ckpt.*` is report-only in the
// `cq-trace diff` gate: a resumed run loads one checkpoint more than the
// uninterrupted run it must otherwise match.
static CKPT_SAVED: cq_obs::Counter = cq_obs::Counter::new(cq_obs::names::CKPT_SAVED);
static CKPT_LOADED: cq_obs::Counter = cq_obs::Counter::new(cq_obs::names::CKPT_LOADED);

/// Emits the per-step training metrics shared by all SSL methods (no-ops
/// without an installed sink or health monitor). Also called for exploded
/// steps — the possibly NaN/oversized values are what the health
/// sentinels need to see a divergence.
fn record_step_metrics(step: usize, loss: f32, norm: f32, lr: f32) {
    let step = step as u64;
    cq_obs::metric(cq_obs::names::TRAIN_LOSS, step, loss as f64);
    cq_obs::metric(cq_obs::names::TRAIN_GRAD_NORM, step, norm as f64);
    cq_obs::metric(cq_obs::names::TRAIN_LR, step, lr as f64);
}

/// Emits the per-step worker-pool attribution metrics — utilization (busy
/// time per wall-nanosecond per executor) and chunk-claim imbalance —
/// from the pool counter deltas across the step. Both series are
/// scheduling telemetry: `cq-trace diff` reports but never gates them.
fn record_pool_metrics(step: usize, before: &cq_tensor::par::PoolStats, wall_ns: u64) {
    let after = cq_tensor::par::pool_stats();
    let width = after.workers_spawned + 1; // the dispatching caller participates
    let step = step as u64;
    if let Some(util) = after.utilization_since(before, wall_ns, width) {
        cq_obs::metric(cq_obs::names::POOL_UTILIZATION, step, util);
    }
    if let Some(imbalance) = after.imbalance_since(before) {
        cq_obs::metric(cq_obs::names::POOL_CHUNK_IMBALANCE, step, imbalance);
    }
}

/// Cumulative bytes of intermediate-tensor traffic elided by the graph
/// executor's fusion pass, read from the process-global counter totals.
fn fusion_elided_total() -> u64 {
    cq_obs::counter_totals()
        .iter()
        .find(|(name, _)| *name == cq_obs::names::FUSION_PASS_ELIDED_BYTES)
        .map_or(0, |&(_, total)| total)
}

/// Emits the per-step fused-pass traffic savings as a metric series —
/// the delta of the cumulative `fusion.pass_elided_bytes` counter across
/// the step. A function of the recorded chains alone (never of the
/// thread count), so `cq-trace diff` gates it.
fn record_fusion_metrics(step: usize, elided_before: u64) {
    let elided = fusion_elided_total().saturating_sub(elided_before);
    cq_obs::metric(
        cq_obs::names::FUSION_PASS_ELIDED_BYTES,
        step as u64,
        elided as f64,
    );
}

/// Emits the end-of-phase memory metrics: peak RSS so far (`VmHWM`) and
/// the allocation-call and minor-page-fault deltas since the previous
/// sample. The allocation series only appears in binaries that installed
/// [`cq_obs::alloc::CountingAlloc`] as their global allocator.
fn record_phase_memory(step: usize) {
    if !cq_obs::enabled() {
        return;
    }
    let step = step as u64;
    if let Some(kb) = cq_obs::alloc::peak_rss_kb() {
        cq_obs::metric(cq_obs::names::MEM_PEAK_RSS_KB, step, kb as f64);
    }
    if let Some(calls) = cq_obs::alloc::alloc_calls() {
        static LAST: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let prev = LAST.swap(calls, std::sync::atomic::Ordering::Relaxed);
        cq_obs::metric(
            cq_obs::names::MEM_ALLOC_COUNT,
            step,
            calls.saturating_sub(prev) as f64,
        );
    }
    if let Some(faults) = cq_obs::alloc::minor_faults() {
        static LAST: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let prev = LAST.swap(faults, std::sync::atomic::Ordering::Relaxed);
        cq_obs::metric(
            cq_obs::names::MEM_MINOR_FAULTS,
            step,
            faults.saturating_sub(prev) as f64,
        );
    }
}

/// Emits the end-of-epoch throughput metric.
fn record_epoch_throughput(step: usize, images: usize, elapsed: std::time::Duration) {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        cq_obs::metric(
            cq_obs::names::TRAIN_IMAGES_PER_SEC,
            step as u64,
            images as f64 / secs,
        );
    }
}

/// Surfaces a pending health abort (`CQ_OBS_HEALTH=abort` + Critical
/// verdict) as an error; the loop calls this once per step and per epoch.
fn abort_check() -> Result<(), NnError> {
    match cq_obs::health::abort_requested() {
        Some(msg) => Err(NnError::Health(msg)),
        None => Ok(()),
    }
}

/// Mean over the finite entries of `v`, plus the count of non-finite
/// entries (the NaN placeholders skipped/exploded steps leave behind).
/// All-non-finite input yields NaN, preserving "nothing succeeded".
fn finite_mean(v: &[f32]) -> (f32, usize) {
    let mut sum = 0.0f64;
    let mut finite = 0usize;
    for &x in v {
        if x.is_finite() {
            sum += x as f64;
            finite += 1;
        }
    }
    let mean = if finite == 0 {
        f32::NAN
    } else {
        (sum / finite as f64) as f32
    };
    (mean, v.len() - finite)
}

/// Pushes the epoch loss/grad-norm means (finite entries only) into the
/// history and emits the non-finite step count as a metric, which the
/// health NaN sentinel watches.
fn record_epoch_stats(history: &mut TrainHistory, losses: &[f32], norms: &[f32], step: usize) {
    let (loss_mean, bad) = finite_mean(losses);
    let (norm_mean, _) = finite_mean(norms);
    cq_obs::metric(
        cq_obs::names::TRAIN_NONFINITE_STEPS,
        step as u64,
        bad as f64,
    );
    history.epoch_losses.push(loss_mean);
    history.epoch_grad_norms.push(norm_mean);
}

/// Per-epoch SSL collapse probe: one extra full-precision forward over
/// `batch`, with the embedding statistics emitted as `embed.*` metrics.
/// Skipped entirely unless a sink or the health monitor is active, so
/// plain runs pay nothing.
fn record_collapse_probe(
    encoder: &mut Encoder,
    batch: &TwoViewBatch,
    step: usize,
) -> Result<(), NnError> {
    if !cq_models::stats::stats_enabled() {
        return Ok(());
    }
    let _sp = cq_obs::span("train.collapse_probe");
    let ctx = ForwardCtx::eval();
    let o1 = encoder.forward(&batch.view1, &ctx)?;
    let o2 = encoder.forward(&batch.view2, &ctx)?;
    cq_models::record_embedding_stats(step as u64, &o1.projection, &o2.projection)?;
    Ok(())
}

/// Per-step context handed to [`SslMethod::compute_loss`]: configuration,
/// the engine's sampling RNG, and the global step counter. All method
/// randomness (precision draws, weight-noise seeds) flows through this so
/// it is captured by checkpoints.
pub struct StepCtx<'a> {
    cfg: &'a PretrainConfig,
    rng: &'a mut CqRng,
    step: usize,
}

impl StepCtx<'_> {
    /// The run configuration.
    pub fn cfg(&self) -> &PretrainConfig {
        self.cfg
    }

    /// The global step counter (steps attempted so far, including skipped
    /// ones).
    pub fn step(&self) -> usize {
        self.step
    }

    /// Draws the iteration's precision pair `(q1, q2)` according to the
    /// configured sampling strategy.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Param`] when the config carries no precision
    /// set.
    pub fn sample_pair(&mut self) -> Result<(Precision, Precision), NnError> {
        let set = self.cfg.precision_set.as_ref().ok_or_else(|| {
            NnError::Param(format!(
                "pipeline {} requires a precision set",
                self.cfg.pipeline
            ))
        })?;
        Ok(match self.cfg.sampling {
            PrecisionSampling::Uniform => set.sample_pair(self.rng),
            PrecisionSampling::Cyclic => {
                let bits = set.as_slice();
                let n = bits.len();
                let t = self.step;
                (
                    Precision::Bits(bits[t % n]),
                    Precision::Bits(bits[(t + n / 2) % n]),
                )
            }
        })
    }

    /// A training forward context quantizing weights to precision `p`.
    pub fn quant_ctx(&self, p: Precision) -> ForwardCtx {
        ForwardCtx::train().with_quant(QuantConfig::uniform(p).with_mode(self.cfg.quant_mode))
    }

    /// Draws one weight-noise seed from the engine RNG.
    pub fn noise_seed(&mut self) -> u64 {
        self.rng.gen::<u64>()
    }

    /// A training forward context applying Gaussian weight noise with the
    /// given seed (pair with [`noise_seed`] so draws are checkpointed).
    ///
    /// [`noise_seed`]: StepCtx::noise_seed
    pub fn noise_ctx(&self, seed: u64) -> ForwardCtx {
        ForwardCtx::train().with_weight_noise(self.cfg.noise_std, seed)
    }
}

/// Per-step loss semantics and construction of one self-supervised
/// method. Everything else — the data loader, epoch iteration, LR
/// schedule, explosion skipping, telemetry, health aborts, checkpointing —
/// is owned by [`TrainLoop`].
pub trait SslMethod: Sized {
    /// Method discriminant persisted in checkpoint headers.
    const TAG: u8;
    /// Human-readable method name (errors, `cq-bench inspect`).
    const NAME: &'static str;
    /// XORed into `cfg.seed` to seed the data loader's RNG.
    const LOADER_SALT: u64;

    /// Builds the method around `encoder`. A prediction head, if any, is
    /// registered into the encoder's parameter set, so
    /// [`encoder`](SslMethod::encoder)`().params()` is the full
    /// trainable set in optimizer order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Param`] for a pipeline the method does not host.
    fn build(encoder: Encoder, cfg: &PretrainConfig) -> Result<Self, NnError>;

    /// The input augmentation of both views. Default: SimCLR strength.
    fn augment(cfg: &PretrainConfig) -> AugmentConfig {
        let _ = cfg;
        AugmentConfig::simclr()
    }

    /// The encoder being trained (BYOL's online network).
    fn encoder(&self) -> &Encoder;

    /// Mutable access to [`encoder`](SslMethod::encoder).
    fn encoder_mut(&mut self) -> &mut Encoder;

    /// Consumes the method, returning the encoder with any prediction
    /// head stripped (its parameters were registered after the encoder's,
    /// so truncation restores the architecture for `duplicate`/`save`).
    fn into_encoder(self) -> Encoder;

    /// Computes the step loss over `batch` and accumulates gradients into
    /// `gs`. All randomness must come from `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates layer/loss errors.
    fn compute_loss(
        &mut self,
        batch: &TwoViewBatch,
        ctx: &mut StepCtx<'_>,
        gs: &mut GradSet,
    ) -> Result<f32, NnError>;

    /// Hook run after a successful optimizer step (BYOL updates its EMA
    /// target here). Default: no-op.
    ///
    /// # Errors
    ///
    /// Propagates parameter-bookkeeping errors.
    fn after_step(&mut self, cfg: &PretrainConfig) -> Result<(), NnError> {
        let _ = cfg;
        Ok(())
    }

    /// Non-parameter state (BatchNorm running stats) of every module the
    /// optimizer trains, in a fixed traversal order.
    fn state_tensors(&self) -> Vec<&Tensor>;

    /// Mutable view of [`state_tensors`], for checkpoint restore.
    ///
    /// [`state_tensors`]: SslMethod::state_tensors
    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor>;

    /// The EMA target network, if the method has one (BYOL).
    fn target(&self) -> Option<&Encoder> {
        None
    }

    /// Mutable access to [`target`].
    ///
    /// [`target`]: SslMethod::target
    fn target_mut(&mut self) -> Option<&mut Encoder> {
        None
    }
}

/// The one trainer type and the single epoch-loop implementation in
/// `cq-core` (enforced by the cq-check `one-train-loop` lint): drives an
/// [`SslMethod`] through `cfg.epochs` of pre-training with cosine LR,
/// explosion skipping, telemetry, collapse probes, health aborts, and
/// exact checkpoint/resume.
pub struct TrainLoop<M: SslMethod> {
    method: M,
    cfg: PretrainConfig,
    opt: Sgd,
    loader: TwoViewLoader,
    rng: CqRng,
    history: TrainHistory,
    steps_taken: usize,
    epochs_done: usize,
}

impl<M: SslMethod> std::fmt::Debug for TrainLoop<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TrainLoop<{}>(pipeline={}, steps={})",
            M::NAME,
            self.cfg.pipeline,
            self.steps_taken
        )
    }
}

impl<M: SslMethod> TrainLoop<M> {
    /// Builds the method around `encoder` ([`SslMethod::build`]) and its
    /// two-view loader, with zeroed optimizer state and the engine RNG
    /// seeded from `cfg.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Param`] for an inconsistent configuration or a
    /// pipeline the method does not host.
    pub fn new(encoder: Encoder, cfg: PretrainConfig) -> Result<Self, NnError> {
        cfg.validate().map_err(NnError::Param)?;
        let method = M::build(encoder, &cfg)?;
        let loader = TwoViewLoader::new(
            AugmentPipeline::new(M::augment(&cfg)),
            cfg.batch_size,
            cfg.seed ^ M::LOADER_SALT,
        );
        let opt = Sgd::new(
            method.encoder().params(),
            SgdConfig {
                lr: cfg.lr,
                momentum: cfg.momentum,
                weight_decay: cfg.weight_decay,
                nesterov: false,
            },
        );
        let rng = CqRng::seed_from_u64(cfg.seed);
        Ok(TrainLoop {
            method,
            cfg,
            opt,
            loader,
            rng,
            history: TrainHistory::default(),
            steps_taken: 0,
            epochs_done: 0,
        })
    }

    /// The encoder being trained (BYOL's online network).
    pub fn encoder(&self) -> &Encoder {
        self.method.encoder()
    }

    /// Mutable encoder access (evaluation needs `&mut` for forward).
    pub fn encoder_mut(&mut self) -> &mut Encoder {
        self.method.encoder_mut()
    }

    /// Consumes the trainer, returning the trained encoder without any
    /// prediction head.
    pub fn into_encoder(self) -> Encoder {
        self.method.into_encoder()
    }

    /// Training diagnostics so far.
    pub fn history(&self) -> &TrainHistory {
        &self.history
    }

    /// Epochs completed so far (survives checkpoint/resume).
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Runs pre-training up to `cfg.epochs` completed epochs.
    ///
    /// # Errors
    ///
    /// Propagates layer/optimizer errors. Gradient explosions do NOT
    /// error: the step is skipped and counted in the history (this is the
    /// behaviour the paper describes for CQ-B).
    pub fn train(&mut self, dataset: &Dataset) -> Result<(), NnError> {
        self.train_until(dataset, self.cfg.epochs)
    }

    /// Runs pre-training until `stop_epoch` epochs are complete (clamped
    /// to `cfg.epochs`). The LR schedule always spans the full
    /// `cfg.epochs`, so a partial run followed by a resume traverses the
    /// same LR curve as an uninterrupted one.
    ///
    /// # Errors
    ///
    /// See [`train`].
    ///
    /// [`train`]: TrainLoop::train
    pub fn train_until(&mut self, dataset: &Dataset, stop_epoch: usize) -> Result<(), NnError> {
        let batches_per_epoch = self.loader.batches_per_epoch(dataset);
        let total = (self.cfg.epochs * batches_per_epoch).max(1);
        let sched = CosineSchedule::new(self.cfg.lr, total, total / 20);
        let stop = stop_epoch.min(self.cfg.epochs);
        while self.epochs_done < stop {
            // cq-allow(det-time-source): epoch wall-time telemetry only; never feeds a computation
            let epoch_start = std::time::Instant::now();
            let batches = self.loader.epoch(dataset);
            let mut losses = Vec::with_capacity(batches.len());
            let mut norms = Vec::with_capacity(batches.len());
            for batch in &batches {
                let lr = sched.lr_at(self.steps_taken);
                match self.step(batch, lr)? {
                    Some((loss, norm)) => {
                        losses.push(loss);
                        norms.push(norm);
                    }
                    // NaN placeholder keeps one slot per step; the epoch
                    // means skip it and its count becomes a metric.
                    None => {
                        losses.push(f32::NAN);
                        norms.push(f32::NAN);
                    }
                }
                self.steps_taken += 1;
            }
            record_epoch_throughput(
                self.steps_taken,
                batches.len() * self.cfg.batch_size,
                epoch_start.elapsed(),
            );
            record_phase_memory(self.steps_taken);
            // CQ-Quant's identical input views make the positive-pair
            // probe vacuous, so it is skipped there.
            if let Some(batch) = batches.first() {
                if self.cfg.pipeline != Pipeline::CqQuant {
                    record_collapse_probe(self.method.encoder_mut(), batch, self.steps_taken)?;
                }
            }
            record_epoch_stats(&mut self.history, &losses, &norms, self.steps_taken);
            self.epochs_done += 1;
            abort_check()?;
        }
        Ok(())
    }

    /// One optimizer step on a two-view batch. Returns `None` when the
    /// step was skipped due to gradient explosion.
    ///
    /// # Errors
    ///
    /// Propagates layer/optimizer errors, and [`NnError::Health`] when the
    /// health monitor has latched an abort.
    pub fn step(&mut self, batch: &TwoViewBatch, lr: f32) -> Result<Option<(f32, f32)>, NnError> {
        abort_check()?;
        let _sp = cq_obs::span("train.step");
        let pool_window = cq_obs::enabled().then(|| {
            // cq-allow(det-time-source): step wall-time for pool utilization telemetry only
            (cq_tensor::par::pool_stats(), std::time::Instant::now())
        });
        let fusion_before = cq_obs::enabled().then(fusion_elided_total);
        let mut gs = self.method.encoder().params().zero_grads();
        let mut ctx = StepCtx {
            cfg: &self.cfg,
            rng: &mut self.rng,
            step: self.steps_taken,
        };
        let loss = self.method.compute_loss(batch, &mut ctx, &mut gs)?;
        let norm = gs.global_norm();
        if !loss.is_finite() || !gs.is_finite() || norm > self.cfg.explosion_threshold {
            self.history.exploded_steps += 1;
            EXPLODED_STEPS.add(1);
            if let Some((before, t0)) = &pool_window {
                record_pool_metrics(self.steps_taken, before, t0.elapsed().as_nanos() as u64);
            }
            if let Some(before) = fusion_before {
                record_fusion_metrics(self.steps_taken, before);
            }
            // Report the divergent values before skipping — this is what
            // lets the health sentinels see the explosion.
            record_step_metrics(self.steps_taken, loss, norm, lr);
            return Ok(None);
        }
        self.opt
            .step(self.method.encoder_mut().params_mut(), &gs, lr)?;
        self.method.after_step(&self.cfg)?;
        self.history.steps += 1;
        if let Some((before, t0)) = &pool_window {
            record_pool_metrics(self.steps_taken, before, t0.elapsed().as_nanos() as u64);
        }
        if let Some(before) = fusion_before {
            record_fusion_metrics(self.steps_taken, before);
        }
        record_step_metrics(self.steps_taken, loss, norm, lr);
        Ok(Some((loss, norm)))
    }

    /// Writes a [`TrainState`] checkpoint capturing everything needed for
    /// bitwise-exact resume.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on write failure.
    pub fn save_checkpoint<W: Write>(&self, w: W) -> Result<(), NnError> {
        let _sp = cq_obs::span("ckpt.save");
        let state = TrainState {
            version: TrainState::VERSION,
            method_tag: M::TAG,
            pipeline_tag: pipeline_tag(self.cfg.pipeline),
            seed: self.cfg.seed,
            batch_size: self.cfg.batch_size as u64,
            steps_taken: self.steps_taken as u64,
            epochs_done: self.epochs_done as u64,
            engine_rng: self.rng.state(),
            loader_rng: self.loader.rng_state(),
            history: self.history.clone(),
            params: self.method.encoder().params().clone(),
            state: self.method.state_tensors().into_iter().cloned().collect(),
            velocity: self.opt.velocity().to_vec(),
            target: self.method.target().map(|t| {
                (
                    t.params().clone(),
                    t.state_tensors().into_iter().cloned().collect(),
                )
            }),
        };
        state.write(w)?;
        CKPT_SAVED.add(1);
        Ok(())
    }

    /// Restores a checkpoint written by [`save_checkpoint`] into this
    /// loop. Validation is all-or-nothing: any parse error or mismatch
    /// with the live configuration/architecture fails *before* a single
    /// field is mutated.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] for corrupt/truncated/wrong-version files
    /// and header mismatches, [`NnError::Param`] for shape misalignment.
    ///
    /// [`save_checkpoint`]: TrainLoop::save_checkpoint
    pub fn load_checkpoint<R: Read>(&mut self, r: R) -> Result<(), NnError> {
        let _sp = cq_obs::span("ckpt.load");
        let st = TrainState::read(r)?;

        // --- validate everything up front; no mutation on any path that
        // can fail below this block ---
        if st.method_tag != M::TAG {
            return Err(NnError::Io(format!(
                "checkpoint is for method '{}', trainer is '{}'",
                TrainState::method_name(st.method_tag),
                M::NAME
            )));
        }
        let pipeline = pipeline_from_tag(st.pipeline_tag)
            .ok_or_else(|| NnError::Io(format!("unknown pipeline tag {}", st.pipeline_tag)))?;
        if pipeline != self.cfg.pipeline {
            return Err(NnError::Io(format!(
                "checkpoint pipeline {pipeline} does not match configured {}",
                self.cfg.pipeline
            )));
        }
        if st.seed != self.cfg.seed {
            return Err(NnError::Io(format!(
                "checkpoint seed {} does not match configured {}",
                st.seed, self.cfg.seed
            )));
        }
        if st.batch_size != self.cfg.batch_size as u64 {
            return Err(NnError::Io(format!(
                "checkpoint batch size {} does not match configured {}",
                st.batch_size, self.cfg.batch_size
            )));
        }
        if st.epochs_done as usize > self.cfg.epochs {
            return Err(NnError::Io(format!(
                "checkpoint is {} epochs in, config trains only {}",
                st.epochs_done, self.cfg.epochs
            )));
        }
        if st.engine_rng == [0u64; 4] || st.loader_rng == [0u64; 4] {
            // All-zero is xoshiro's degenerate fixed point and can never
            // be produced by seeding — it means the file is corrupt.
            return Err(NnError::Io("all-zero RNG state in checkpoint".into()));
        }
        check_params_aligned("parameters", self.method.encoder().params(), &st.params)?;
        check_state_aligned("state", &self.method.state_tensors(), &st.state)?;
        check_dims_aligned("momentum", self.opt.velocity(), &st.velocity)?;
        match (self.method.target(), &st.target) {
            (Some(t), Some((tp, ts))) => {
                check_params_aligned("target parameters", t.params(), tp)?;
                check_state_aligned("target state", &t.state_tensors(), ts)?;
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(NnError::Io(
                    "checkpoint has no target network, method expects one".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(NnError::Io(
                    "checkpoint has a target network, method has none".into(),
                ))
            }
        }

        // --- commit; nothing below can fail after the checks above ---
        self.method
            .encoder_mut()
            .params_mut()
            .copy_from(&st.params)?;
        for (dst, src) in self.method.state_tensors_mut().iter_mut().zip(&st.state) {
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        }
        self.opt.set_velocity(st.velocity)?;
        if let (Some(t), Some((tp, ts))) = (self.method.target_mut(), &st.target) {
            t.params_mut().copy_from(tp)?;
            for (dst, src) in t.state_tensors_mut().iter_mut().zip(ts) {
                dst.as_mut_slice().copy_from_slice(src.as_slice());
            }
        }
        self.rng = CqRng::from_state(st.engine_rng);
        self.loader.set_rng_state(st.loader_rng);
        self.steps_taken = st.steps_taken as usize;
        self.epochs_done = st.epochs_done as usize;
        self.history = st.history;
        CKPT_LOADED.add(1);
        Ok(())
    }
}

/// Stable on-disk discriminant for [`Pipeline`] (checkpoint header).
fn pipeline_tag(p: Pipeline) -> u8 {
    match p {
        Pipeline::Baseline => 0,
        Pipeline::CqA => 1,
        Pipeline::CqB => 2,
        Pipeline::CqC => 3,
        Pipeline::CqQuant => 4,
        Pipeline::NoiseA => 5,
        Pipeline::NoiseC => 6,
    }
}

fn pipeline_from_tag(tag: u8) -> Option<Pipeline> {
    Some(match tag {
        0 => Pipeline::Baseline,
        1 => Pipeline::CqA,
        2 => Pipeline::CqB,
        3 => Pipeline::CqC,
        4 => Pipeline::CqQuant,
        5 => Pipeline::NoiseA,
        6 => Pipeline::NoiseC,
        _ => return None,
    })
}

fn check_params_aligned(what: &str, live: &ParamSet, ckpt: &ParamSet) -> Result<(), NnError> {
    if live.len() != ckpt.len() {
        return Err(NnError::Param(format!(
            "{what}: live model has {} tensors, checkpoint {}",
            live.len(),
            ckpt.len()
        )));
    }
    for ((_, ln, lt), (_, cn, ct)) in live.iter().zip(ckpt.iter()) {
        if ln != cn {
            return Err(NnError::Param(format!(
                "{what}: name mismatch '{ln}' vs checkpoint '{cn}'"
            )));
        }
        if lt.dims() != ct.dims() {
            return Err(NnError::Param(format!(
                "{what}: '{ln}' has dims {:?}, checkpoint {:?}",
                lt.dims(),
                ct.dims()
            )));
        }
    }
    Ok(())
}

fn check_state_aligned(what: &str, live: &[&Tensor], ckpt: &[Tensor]) -> Result<(), NnError> {
    if live.len() != ckpt.len() {
        return Err(NnError::Param(format!(
            "{what}: live model has {} tensors, checkpoint {}",
            live.len(),
            ckpt.len()
        )));
    }
    for (i, (lt, ct)) in live.iter().zip(ckpt).enumerate() {
        if lt.dims() != ct.dims() {
            return Err(NnError::Param(format!(
                "{what}: tensor {i} has dims {:?}, checkpoint {:?}",
                lt.dims(),
                ct.dims()
            )));
        }
    }
    Ok(())
}

fn check_dims_aligned(what: &str, live: &[Tensor], ckpt: &[Tensor]) -> Result<(), NnError> {
    let refs: Vec<&Tensor> = live.iter().collect();
    check_state_aligned(what, &refs, ckpt)
}

/// A parsed `CQTS` checkpoint: the full serialized training state of a
/// [`TrainLoop`]. Public so tooling (`cq-bench inspect`) can introspect
/// checkpoints without constructing a trainer.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Format version (currently [`TrainState::VERSION`]).
    pub version: u32,
    /// [`SslMethod::TAG`] of the writing trainer.
    pub method_tag: u8,
    /// Pipeline discriminant (see [`TrainState::pipeline`]).
    pub pipeline_tag: u8,
    /// `cfg.seed` of the writing run.
    pub seed: u64,
    /// `cfg.batch_size` of the writing run.
    pub batch_size: u64,
    /// Steps attempted when the checkpoint was written.
    pub steps_taken: u64,
    /// Epochs completed when the checkpoint was written.
    pub epochs_done: u64,
    /// Engine sampling RNG state (xoshiro256++).
    pub engine_rng: [u64; 4],
    /// Data-loader RNG state (xoshiro256++).
    pub loader_rng: [u64; 4],
    /// Training diagnostics at checkpoint time.
    pub history: TrainHistory,
    /// Trainable parameters (encoder plus any prediction head).
    pub params: ParamSet,
    /// BatchNorm running state, in the method's traversal order.
    pub state: Vec<Tensor>,
    /// SGD momentum buffers, in parameter order.
    pub velocity: Vec<Tensor>,
    /// BYOL target network (parameters + BatchNorm state), if any.
    pub target: Option<(ParamSet, Vec<Tensor>)>,
}

/// Caps on deserialized collection sizes: anything larger than these in a
/// header means the file is garbage, not a plausible training run.
const MAX_HISTORY_LEN: usize = 1 << 24;
const MAX_TENSOR_LIST: usize = 1 << 16;

impl TrainState {
    /// File magic of the checkpoint format.
    pub const MAGIC: [u8; 4] = *b"CQTS";
    /// Current format version.
    pub const VERSION: u32 = 1;

    /// Human-readable name for a method tag.
    pub fn method_name(tag: u8) -> &'static str {
        match tag {
            0 => "simclr",
            1 => "byol",
            2 => "simsiam",
            _ => "unknown",
        }
    }

    /// The pipeline this checkpoint was trained with, if the tag is
    /// recognised.
    pub fn pipeline(&self) -> Option<Pipeline> {
        pipeline_from_tag(self.pipeline_tag)
    }

    /// Serialises the state (magic + version header, then body).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on write failure.
    pub fn write<W: Write>(&self, mut w: W) -> Result<(), NnError> {
        w.write_all(&Self::MAGIC)?;
        w.write_all(&self.version.to_le_bytes())?;
        w.write_all(&[self.method_tag, self.pipeline_tag])?;
        for v in [
            self.seed,
            self.batch_size,
            self.steps_taken,
            self.epochs_done,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        for half in [&self.engine_rng, &self.loader_rng] {
            for v in half {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        w.write_all(&(self.history.exploded_steps as u64).to_le_bytes())?;
        w.write_all(&(self.history.steps as u64).to_le_bytes())?;
        write_f32s(&mut w, &self.history.epoch_losses)?;
        write_f32s(&mut w, &self.history.epoch_grad_norms)?;
        self.params.save(&mut w)?;
        write_tensors(&mut w, &self.state)?;
        write_tensors(&mut w, &self.velocity)?;
        match &self.target {
            Some((tp, ts)) => {
                w.write_all(&[1])?;
                tp.save(&mut w)?;
                write_tensors(&mut w, ts)?;
            }
            None => w.write_all(&[0])?,
        }
        Ok(())
    }

    /// Parses a checkpoint written by [`write`]. Reads the entire stream
    /// before returning, so a truncated or corrupt file fails here rather
    /// than mid-restore.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] for bad magic, unsupported versions,
    /// malformed or truncated content, and bytes after the last section.
    ///
    /// [`write`]: TrainState::write
    pub fn read<R: Read>(mut r: R) -> Result<TrainState, NnError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != Self::MAGIC {
            return Err(NnError::Io(format!(
                "bad checkpoint magic {magic:?} (expected {:?})",
                Self::MAGIC
            )));
        }
        let version = read_u32(&mut r)?;
        if version != Self::VERSION {
            return Err(NnError::Io(format!(
                "unsupported checkpoint version {version} (this build reads {})",
                Self::VERSION
            )));
        }
        let mut tags = [0u8; 2];
        r.read_exact(&mut tags)?;
        let [method_tag, pipeline_tag] = tags;
        let seed = read_u64(&mut r)?;
        let batch_size = read_u64(&mut r)?;
        let steps_taken = read_u64(&mut r)?;
        let epochs_done = read_u64(&mut r)?;
        let mut engine_rng = [0u64; 4];
        let mut loader_rng = [0u64; 4];
        for half in [&mut engine_rng, &mut loader_rng] {
            for v in half.iter_mut() {
                *v = read_u64(&mut r)?;
            }
        }
        let exploded_steps = read_u64(&mut r)? as usize;
        let steps = read_u64(&mut r)? as usize;
        let epoch_losses = read_f32s(&mut r)?;
        let epoch_grad_norms = read_f32s(&mut r)?;
        let params = ParamSet::load(&mut r)?;
        let state = read_tensors(&mut r)?;
        let velocity = read_tensors(&mut r)?;
        let mut has_target = [0u8; 1];
        r.read_exact(&mut has_target)?;
        let target = match has_target[0] {
            0 => None,
            1 => {
                let tp = ParamSet::load(&mut r)?;
                let ts = read_tensors(&mut r)?;
                Some((tp, ts))
            }
            other => {
                return Err(NnError::Io(format!(
                    "bad target-presence byte {other} in checkpoint"
                )))
            }
        };
        if r.read(&mut [0u8; 1])? != 0 {
            return Err(NnError::Io(
                "trailing bytes after the checkpoint's target section".into(),
            ));
        }
        Ok(TrainState {
            version,
            method_tag,
            pipeline_tag,
            seed,
            batch_size,
            steps_taken,
            epochs_done,
            engine_rng,
            loader_rng,
            history: TrainHistory {
                epoch_losses,
                epoch_grad_norms,
                exploded_steps,
                steps,
            },
            params,
            state,
            velocity,
            target,
        })
    }
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, NnError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, NnError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_f32s<W: Write>(w: &mut W, v: &[f32]) -> Result<(), NnError> {
    w.write_all(&(v.len() as u32).to_le_bytes())?;
    for x in v {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32s<R: Read>(r: &mut R) -> Result<Vec<f32>, NnError> {
    let n = read_u32(r)? as usize;
    if n > MAX_HISTORY_LEN {
        return Err(NnError::Io(format!("implausible history length {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}

fn write_tensors<W: Write>(w: &mut W, ts: &[Tensor]) -> Result<(), NnError> {
    w.write_all(&(ts.len() as u32).to_le_bytes())?;
    for t in ts {
        write_tensor(&mut *w, t).map_err(NnError::Tensor)?;
    }
    Ok(())
}

fn read_tensors<R: Read>(r: &mut R) -> Result<Vec<Tensor>, NnError> {
    let n = read_u32(r)? as usize;
    if n > MAX_TENSOR_LIST {
        return Err(NnError::Io(format!("implausible tensor count {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Present malformed tensor payloads as checkpoint I/O errors —
        // to the caller this is a bad file, not a tensor-math failure.
        out.push(read_tensor(&mut *r).map_err(|e| NnError::Io(format!("checkpoint tensor: {e}")))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_tags_round_trip() {
        for p in Pipeline::all().into_iter().chain(Pipeline::extensions()) {
            assert_eq!(pipeline_from_tag(pipeline_tag(p)), Some(p));
        }
        assert_eq!(pipeline_from_tag(200), None);
    }

    #[test]
    fn finite_mean_skips_non_finite() {
        let (m, bad) = finite_mean(&[1.0, f32::NAN, 3.0, f32::INFINITY]);
        assert_eq!(m, 2.0);
        assert_eq!(bad, 2);
        let (m, bad) = finite_mean(&[f32::NAN]);
        assert!(m.is_nan());
        assert_eq!(bad, 1);
    }

    #[test]
    fn train_state_round_trips_through_bytes() {
        let mut params = ParamSet::new();
        params.add("w", Tensor::from_slice(&[1.0, 2.0, 3.0]));
        let st = TrainState {
            version: TrainState::VERSION,
            method_tag: 0,
            pipeline_tag: 1,
            seed: 7,
            batch_size: 8,
            steps_taken: 3,
            epochs_done: 1,
            engine_rng: [1, 2, 3, 4],
            loader_rng: [5, 6, 7, 8],
            history: TrainHistory {
                epoch_losses: vec![2.5],
                epoch_grad_norms: vec![0.5],
                exploded_steps: 0,
                steps: 3,
            },
            params,
            state: vec![Tensor::from_slice(&[0.25])],
            velocity: vec![Tensor::from_slice(&[0.0, 0.0, 0.0])],
            target: None,
        };
        let mut buf = Vec::new();
        st.write(&mut buf).unwrap();
        let back = TrainState::read(buf.as_slice()).unwrap();
        assert_eq!(back.seed, 7);
        assert_eq!(back.engine_rng, [1, 2, 3, 4]);
        assert_eq!(back.history.epoch_losses, vec![2.5]);
        assert_eq!(back.params, st.params);
        assert_eq!(back.velocity, st.velocity);
        assert!(back.target.is_none());
        assert_eq!(back.pipeline(), Some(Pipeline::CqA));

        // Corruption modes all fail cleanly.
        assert!(TrainState::read(&b"XXXX"[..]).is_err(), "bad magic");
        assert!(
            TrainState::read(&buf[..buf.len() / 2]).is_err(),
            "truncated"
        );
        let mut wrong_version = buf.clone();
        wrong_version[4] = 99;
        assert!(TrainState::read(wrong_version.as_slice()).is_err());
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(
            TrainState::read(trailing.as_slice()).is_err(),
            "trailing byte"
        );
    }
}
