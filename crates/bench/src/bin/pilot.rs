//! Calibration pilot: time one pretrain+eval cycle and check effect
//! direction (baseline vs CQ-A vs CQ-C) on a small slice.
//!
//! Checkpoint mode (used by the CI kill-and-resume gate): when any of
//! `--epochs`, `--stop-after`, `--ckpt` or `--resume` is given, the
//! pilot runs ONLY the CQ-A pretrain, driven by those flags:
//!
//! ```text
//! pilot --epochs 2 --ckpt a.ckpt              # full run, ckpt after epoch 1
//! pilot --epochs 2 --stop-after 1 --ckpt b.ckpt   # "killed" after the save
//! pilot --epochs 2 --resume b.ckpt            # resumed continuation
//! ```
//!
//! With `CQ_OBS=<trace.jsonl>` each invocation writes a trace; the two
//! segment traces merged with `cq-trace merge` must diff clean against
//! the uninterrupted run's trace (`cq-trace diff`) — that is the bitwise
//! resume gate.
//!
//! Inference mode: `pilot --infer <ckpt>` converts a checkpoint written
//! by the checkpoint mode to a real i8 integer program (`cq-infer`) —
//! the i32 accumulator headroom proof runs as a conversion-time
//! assertion — and reports int8-vs-fake-quant parity and throughput on
//! the test split. Exits non-zero if parity misses the checkpoint-gate
//! thresholds (see [`INFER_KNN_MIN`]).

use cq_bench::parity::{feature_parity, REL_ERR_MAX};
use cq_bench::*;
use cq_core::{Pipeline, SimclrTrainer, TrainState};
use cq_models::{Arch, Encoder};
use cq_nn::ForwardCtx;
use cq_quant::{Precision, PrecisionSet, QuantConfig, QuantMode};
use cq_tensor::Tensor;
use std::time::Instant;

/// Counting allocator so the `mem.alloc_count` phase metric is live in
/// pilot runs (a plain `System` pass-through plus one relaxed atomic
/// increment; see `cq_obs::alloc`).
#[global_allocator]
static ALLOC: cq_obs::alloc::CountingAlloc = cq_obs::alloc::CountingAlloc::system();

/// Flags of the checkpoint mode; `None` everywhere means the classic
/// calibration pilot.
#[derive(Default)]
struct CkptArgs {
    epochs: Option<usize>,
    stop_after: Option<usize>,
    ckpt: Option<String>,
    resume: Option<String>,
    infer: Option<String>,
}

impl CkptArgs {
    fn parse() -> CkptArgs {
        let mut out = CkptArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut value = |flag: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("pilot: {flag} needs a value");
                    std::process::exit(2);
                })
            };
            match a.as_str() {
                "--epochs" => out.epochs = value("--epochs").parse().ok(),
                "--stop-after" => out.stop_after = value("--stop-after").parse().ok(),
                "--ckpt" => out.ckpt = Some(value("--ckpt")),
                "--resume" => out.resume = Some(value("--resume")),
                "--infer" => out.infer = Some(value("--infer")),
                "--scale" => {
                    value("--scale"); // handled by Scale::from_args
                }
                other if other.starts_with("--scale=") => {}
                other => {
                    eprintln!("pilot: unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        out
    }

    fn checkpoint_mode(&self) -> bool {
        self.epochs.is_some()
            || self.stop_after.is_some()
            || self.ckpt.is_some()
            || self.resume.is_some()
    }
}

/// CQ-A pretrain only, driven by the checkpoint-mode flags. Exits the
/// process on I/O or training errors (this is a CI binary).
fn run_checkpoint_mode(args: &CkptArgs) {
    let mut proto = Protocol::new(Regime::CifarLike, Scale::Quick);
    proto.data = proto.data.with_sizes(512, 256);
    proto.pretrain_epochs = args.epochs.unwrap_or(2);
    let (train, _) = proto.datasets();
    let fail = |what: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("pilot: {what}: {e}");
        std::process::exit(1);
    };
    let pset = PrecisionSet::range(6, 16).unwrap_or_else(|e| fail("precision set", &e));
    let enc = Encoder::new(&proto.encoder_cfg(Arch::ResNet18), proto.seed)
        .unwrap_or_else(|e| fail("encoder init", &e));
    let mut trainer = SimclrTrainer::new(enc, proto.pretrain_cfg(Pipeline::CqA, Some(pset)))
        .unwrap_or_else(|e| fail("trainer init", &e));

    if let Some(path) = &args.resume {
        let f = std::fs::File::open(path).unwrap_or_else(|e| fail(path, &e));
        trainer
            .load_checkpoint(std::io::BufReader::new(f))
            .unwrap_or_else(|e| fail(path, &e));
        eprintln!("  [ckpt] resumed {path} at epoch {}", trainer.epochs_done());
    }
    if let Some(path) = &args.ckpt {
        // Save after epoch 1 (or the --stop-after epoch when given),
        // then either exit ("killed" segment) or continue the run.
        let at = args.stop_after.unwrap_or(1);
        trainer
            .train_until(&train, at)
            .unwrap_or_else(|e| fail("pretrain", &e));
        let f = std::fs::File::create(path).unwrap_or_else(|e| fail(path, &e));
        trainer
            .save_checkpoint(std::io::BufWriter::new(f))
            .unwrap_or_else(|e| fail(path, &e));
        eprintln!(
            "  [ckpt] saved {path} after epoch {}",
            trainer.epochs_done()
        );
    }
    if args.stop_after.is_none() {
        trainer
            .train(&train)
            .unwrap_or_else(|e| fail("pretrain", &e));
    }
    println!(
        "pilot ckpt-mode: CQ-A epochs {} steps {} loss {:?} (expl {:.2})",
        trainer.epochs_done(),
        trainer.history().steps,
        trainer.history().final_loss(),
        trainer.history().explosion_rate(),
    );
    if let Some(summary) = obs_summary() {
        eprintln!("{summary}");
    }
}

/// kNN-agreement floor for the checkpoint gate. Looser than the parity
/// harness's [`KNN_AGREEMENT_MIN`](cq_bench::parity::KNN_AGREEMENT_MIN) on purpose: the harness measures
/// trained-like calibrated networks (damped residual branches), while a
/// pilot-scale checkpoint has seen a handful of steps and is still close
/// to random init — where ulp-level int-vs-f32 accumulation differences
/// chaotically flip a few nearest neighbors (observed 96.9-99.2% across
/// schedules; relative feature error stays an order of magnitude under
/// its bound). The 99% claim is carried by the 48-config parity sweep.
const INFER_KNN_MIN: f32 = 0.95;

/// Integer-inference mode: converts a checkpoint-mode checkpoint to an
/// i8 program and reports parity + throughput against the fake-quant
/// f32 path on the test split. Exits non-zero on conversion failure
/// (including the headroom gate) or a parity miss.
fn run_infer_mode(path: &str) {
    let fail = |what: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("pilot: {what}: {e}");
        std::process::exit(1);
    };
    let mut proto = Protocol::new(Regime::CifarLike, Scale::Quick);
    proto.data = proto.data.with_sizes(512, 256);
    let cfg = proto.encoder_cfg(Arch::ResNet18);

    let f = std::fs::File::open(path).unwrap_or_else(|e| fail(path, &e));
    let st = TrainState::read(std::io::BufReader::new(f)).unwrap_or_else(|e| fail(path, &e));
    let mut enc =
        cq_infer::encoder_from_train_state(&st, &cfg).unwrap_or_else(|e| fail("rebuild", &e));
    let t0 = Instant::now();
    // Conversion runs the i32 accumulator headroom proof on every MAC;
    // an unprovable layer aborts here, before any integer math runs.
    let int = cq_infer::IntEncoder::from_encoder(&enc).unwrap_or_else(|e| fail("convert", &e));
    let t_conv = t0.elapsed().as_secs_f32();

    let (_, test) = proto.datasets();
    let idx: Vec<usize> = (0..test.len()).collect();
    let (x, labels) = test.batch(&idx);
    // Deployment inputs are 8-bit images; project the synthetic pixels
    // onto the same grid so both paths read identical data.
    let dims = x.dims().to_vec();
    let mut pixels = x.into_vec();
    cq_quant::fake_quant_into(&mut pixels, Precision::Bits(8), QuantMode::Round);
    let x = Tensor::from_vec(pixels, &dims).unwrap_or_else(|e| fail("batch", &e));

    let fake8 = ForwardCtx::eval().with_quant(QuantConfig::uniform(Precision::Bits(8)));
    let ref_feats = enc
        .features(&x, &fake8)
        .unwrap_or_else(|e| fail("f32 forward", &e));
    let int_feats = int
        .features(&x)
        .unwrap_or_else(|e| fail("int8 forward", &e));
    let (max_abs, rel, agree) = feature_parity(&int_feats, &ref_feats, &labels);
    let pass = agree >= INFER_KNN_MIN && rel <= REL_ERR_MAX;

    let n = dims[0];
    let rounds = 3;
    let t1 = Instant::now();
    for _ in 0..rounds {
        enc.features(&x, &fake8)
            .unwrap_or_else(|e| fail("f32 forward", &e));
    }
    let f32_ips = (rounds * n) as f32 / t1.elapsed().as_secs_f32();
    let t2 = Instant::now();
    for _ in 0..rounds {
        int.features(&x)
            .unwrap_or_else(|e| fail("int8 forward", &e));
    }
    let int_ips = (rounds * n) as f32 / t2.elapsed().as_secs_f32();

    println!(
        "pilot infer: {path}: {} int8 MACs, headroom proof ok ({t_conv:.2}s conversion)",
        int.num_macs()
    );
    println!(
        "  parity over {n} test images: max abs {max_abs:.4} rel {rel:.4} kNN agreement {:.1}% -> {}",
        100.0 * agree,
        if pass { "ok" } else { "FAIL" }
    );
    println!(
        "  throughput: fake-quant f32 {f32_ips:.1} imgs/s | int8 {int_ips:.1} imgs/s | ratio {:.2}x",
        int_ips / f32_ips
    );
    if !pass {
        std::process::exit(1);
    }
}

fn main() {
    obs_init();
    let args = CkptArgs::parse();
    if let Some(path) = &args.infer {
        run_infer_mode(path);
        return;
    }
    if args.checkpoint_mode() {
        run_checkpoint_mode(&args);
        return;
    }
    let mut proto = Protocol::new(Regime::CifarLike, Scale::Quick);
    proto.data = proto.data.with_sizes(512, 256);
    proto.pretrain_epochs = 8;
    proto.ft_epochs = 8;
    let (train, test) = proto.datasets();
    for (name, pipeline, pset) in [
        ("SimCLR", Pipeline::Baseline, None),
        (
            "CQ-A",
            Pipeline::CqA,
            Some(PrecisionSet::range(6, 16).unwrap()),
        ),
        (
            "CQ-C",
            Pipeline::CqC,
            Some(PrecisionSet::range(6, 16).unwrap()),
        ),
    ] {
        let t0 = Instant::now();
        let (mut enc, expl) =
            pretrain_simclr(Arch::ResNet18, pipeline, pset, &proto, &train).unwrap();
        let t_pre = t0.elapsed().as_secs_f32();
        let t1 = Instant::now();
        let grid = finetune_grid(&enc, &train, &test, &proto).unwrap();
        let t_ft = t1.elapsed().as_secs_f32();
        let lin = linear_probe(&mut enc, &train, &test, &proto).unwrap();
        println!(
            "{name}: pretrain {t_pre:.1}s (expl {expl:.2}), ft-grid {t_ft:.1}s | fp10 {:.1} fp1 {:.1} q10 {:.1} q1 {:.1} | linear {lin:.1}",
            grid.fp10, grid.fp1, grid.q10, grid.q1
        );
    }
    if let Some(summary) = obs_summary() {
        println!("\n{summary}");
    }
}
