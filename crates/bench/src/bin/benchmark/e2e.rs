//! The untraced run: set up, warm up, then a closed loop of ops for the
//! requested seconds, on one thread. The gated times are scaled by the
//! yardstick to the quiet host's speed.

use std::time::Instant;

use cq_bench::parity::{check_parity, KNN_AGREEMENT_MIN, PARITY_PER_CLUSTER, REL_ERR_MAX};
use cq_core::SimclrTrainer;
use cq_nn::CosineSchedule;

use crate::report::{Report, END_TO_END};
use crate::stats::{iqr_share, loss_digest, median, percentile};
use crate::workload::{schedule, step_loss, Batches, Infer, Inputs, Res, Workload, BATCH};
use crate::yardstick::{scaled, Yardstick, YARDSTICK_S};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A run times at least this many ops, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// `loss_digest` covers the warm-up step and this many timed steps, so
/// runs of one seed compare whatever their op counts.
const DIGEST_STEPS: usize = 8;

/// What a set-up leaves ready for the timed loop.
#[allow(clippy::large_enum_variant)] // one per run
enum State {
    Pretrain {
        inputs: Inputs,
        batches: Batches,
        trainer: SimclrTrainer,
        sched: CosineSchedule,
        losses: Vec<f32>,
    },
    Infer {
        infer: Infer,
        ops: usize,
        max_rel: f32,
    },
}

impl State {
    /// Generates the inputs, builds (and for inference converts) the
    /// model, and runs one warm-up op.
    fn new(w: &Workload, seed: u64) -> Res<State> {
        let inputs = Inputs::new(seed);
        let mut state = if w.infer {
            State::Infer {
                infer: Infer::new(w, &inputs)?,
                ops: 0,
                max_rel: 0.0,
            }
        } else {
            State::Pretrain {
                trainer: inputs.trainer(w)?,
                sched: schedule(&inputs.pretrain_cfg(w)?),
                inputs,
                batches: Batches::new(seed),
                losses: Vec::new(),
            }
        };
        state.op()?;
        Ok(state)
    }

    /// One op: its timed seconds and whether it succeeded. Output checks
    /// run after the clock stops.
    fn op(&mut self) -> Res<(f64, bool)> {
        match self {
            State::Pretrain {
                inputs,
                batches,
                trainer,
                sched,
                losses,
            } => {
                let t = Instant::now();
                let batch = batches.next(&inputs.train);
                let step = trainer.step(&batch, sched.lr_at(losses.len()));
                let secs = t.elapsed().as_secs_f64();
                let loss = step_loss(step);
                losses.push(loss.unwrap_or(f32::NAN));
                Ok((secs, loss.is_some()))
            }
            State::Infer {
                infer,
                ops,
                max_rel,
            } => {
                let i = *ops % infer.batches.len();
                *ops += 1;
                let t = Instant::now();
                let features = infer.int.features(&infer.batches[i])?;
                let secs = t.elapsed().as_secs_f64();
                let rel = infer.rel_err(i, &features);
                *max_rel = max_rel.max(rel);
                Ok((secs, rel <= REL_ERR_MAX))
            }
        }
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Res<Report> {
    cq_tensor::par::with_thread_limit(1, || run_1t(w, seed, seconds))
}

fn run_1t(w: &Workload, seed: u64, seconds: f64) -> Res<Report> {
    // Every set-up and op is scaled by the yardstick times taken right
    // before and after it; see `yardstick.rs`.
    let mut yardstick = Yardstick::new();
    let mut yard_s = vec![yardstick.time()];
    let mut rescale = |secs| {
        let before = yard_s[yard_s.len() - 1];
        yard_s.push(yardstick.time());
        scaled(secs, before, yard_s[yard_s.len() - 1])
    };
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(State::new(w, seed)?);
        setup_s.push(rescale(t.elapsed().as_secs_f64()));
    }
    let mut state = state.expect("SETUP_REPS > 0");

    let (mut op_s, mut op_scaled) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let start = Instant::now();
    while op_s.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let (secs, ok) = state.op()?;
        op_s.push(secs);
        op_scaled.push(rescale(secs));
        failed += usize::from(!ok);
    }
    let wall = start.elapsed().as_secs_f64();

    let mut r = Report::new(&END_TO_END);
    let n = op_s.len();
    r.attempted = n;
    r.failed = failed;
    let scaled_s: f64 = op_scaled.iter().sum();
    r.set("img_per_s", (n * BATCH) as f64 / scaled_s, n);
    r.set("op_s_p50", median(&op_scaled), n);
    r.set("setup_s", median(&setup_s), SETUP_REPS);
    let rss_kb = cq_obs::alloc::peak_rss_kb().ok_or("VmHWM is unreadable")?;
    r.set("peak_rss_mb", rss_kb as f64 / 1024.0, 1);
    r.note(format!(
        "workload {} seed {seed}: {n} ops in {wall:.2} s, 1 of {} threads",
        w.name,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    ));
    r.note(format!(
        "unscaled: {:.1} img/s, op median {:.4} s, p75 {:.4} s, IQR {:.2}% of median; \
         yardstick median {:.2} ms ({YARDSTICK_S} s when quiet); scaled op IQR {:.2}%",
        (n * BATCH) as f64 / op_s.iter().sum::<f64>(),
        median(&op_s),
        percentile(&op_s, 0.75),
        100.0 * iqr_share(&op_s),
        1e3 * median(&yard_s),
        100.0 * iqr_share(&op_scaled),
    ));
    match &state {
        State::Pretrain { losses, .. } => {
            let digest = &losses[..losses.len().min(1 + DIGEST_STEPS)];
            r.note(format!(
                "loss_digest {:016x} (steps 0-{})",
                loss_digest(digest),
                digest.len() - 1
            ));
            r.note(format!(
                "loss_final {} (step {})",
                losses[losses.len() - 1],
                losses.len() - 1
            ));
            r.check(
                "every step returned a finite loss",
                losses.iter().all(|l| l.is_finite()),
            );
        }
        State::Infer { infer, max_rel, .. } => {
            // kNN agreement is checked where neighbours are unambiguous:
            // the parity harness's calibrated clustered batch, for this
            // encoder configuration and seed. On the test split, 1-NN
            // neighbours of untrained features are near-ties.
            let cfg = infer.encoder.config();
            let p = check_parity(w.name, &cfg, PARITY_PER_CLUSTER, seed)?;
            r.note(format!(
                "int8 vs f32 fake-quant-8: worst test batch rel err {max_rel:.4}; \
                 parity batch rel err {:.4}, kNN agreement {:.4}",
                p.rel_err, p.knn_agreement
            ));
            r.check(
                format!("every test batch rel err <= {REL_ERR_MAX}"),
                *max_rel <= REL_ERR_MAX,
            );
            r.check(
                format!("parity kNN agreement >= {KNN_AGREEMENT_MIN} and rel err <= {REL_ERR_MAX}"),
                p.pass,
            );
        }
    }
    Ok(r)
}
