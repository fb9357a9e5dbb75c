//! The traced run: per-layer metrics measured from outside, by timing
//! calls into each crate's public functions and reading the counters
//! `cq-obs` keeps while a sink is installed.
//!
//! Each step index runs in three modes on three identically seeded
//! models fed the same batch and learning rate:
//!
//! 1. a *decomposed* step that makes the public calls
//!    `SimclrTrainer::step` makes (forwards, NT-Xent terms, backwards,
//!    gradient checks, `Sgd::step`), each in its own span, with the
//!    counters live;
//! 2. `SimclrTrainer::step` at one thread;
//! 3. `SimclrTrainer::step` at two threads.
//!
//! Modes 2 and 3 install the sink on odd steps only, so the same run
//! measures the tracing overhead. All three must produce bit-identical
//! losses. Before the steps, a deploy probe converts a fresh encoder of
//! the workload's architecture to int8 and times int8 and f32
//! fake-quant-8 batches and kNN over the test split.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cq_core::{nt_xent, Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::TwoViewBatch;
use cq_infer::IntEncoder;
use cq_models::{plan::encoder_plan, Encoder};
use cq_nn::graph::Graph;
use cq_nn::{ForwardCtx, Sgd, SgdConfig};
use cq_obs::sink::MemorySink;
use cq_quant::{Precision, QuantConfig};
use cq_tensor::par::{pool_stats, with_thread_limit};
use cq_tensor::{CqRng, Tensor};
use rand::SeedableRng;

use crate::report::{Report, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{fake8, schedule, step_loss, Batches, Infer, Inputs, Res, Workload, BATCH};

/// Bounds on the measured steps per mode; `--seconds` picks the count
/// in between from the cost of the warm-up step.
const MIN_STEPS: usize = 2;
const MAX_STEPS: usize = 8;
/// Conversions and passes over the test batches in the deploy probe.
const DEPLOY_REPS: usize = 3;

/// Thread cap of the third mode.
const THREADS_2T: usize = 2;

/// A model trained by hand with the calls `SimclrTrainer::step` makes.
struct Decomposed {
    encoder: Encoder,
    opt: Sgd,
    rng: CqRng,
    cfg: PretrainConfig,
}

/// Span durations of one decomposed step, in seconds.
struct DecStep {
    loss: Option<f32>,
    wall: f64,
    fwd: Vec<f64>,
    bwd: Vec<f64>,
    ntxent: f64,
    grads: f64,
    sgd: f64,
}

type Branches = (Vec<(bool, Option<Precision>)>, &'static [(usize, usize)]);

impl Decomposed {
    fn new(inputs: &Inputs, w: &Workload) -> Res<Decomposed> {
        let encoder = inputs.encoder(w)?;
        let cfg = inputs.pretrain_cfg(w)?;
        let opt = Sgd::new(
            encoder.params(),
            SgdConfig {
                lr: cfg.lr,
                momentum: cfg.momentum,
                weight_decay: cfg.weight_decay,
                nesterov: false,
            },
        );
        // The engine seeds its precision-sampling RNG the same way.
        let rng = CqRng::seed_from_u64(cfg.seed);
        Ok(Decomposed {
            encoder,
            opt,
            rng,
            cfg,
        })
    }

    /// The forward branches `(second view?, precision)` and the NT-Xent
    /// terms over them (branch index pairs), in `compute_loss`'s order.
    fn branches(&mut self) -> Res<Branches> {
        let mut pair = || -> Res<(Precision, Precision)> {
            let set = self.cfg.precision_set.as_ref().ok_or("no precision set")?;
            Ok(set.sample_pair(&mut self.rng))
        };
        Ok(match self.cfg.pipeline {
            Pipeline::Baseline => (vec![(false, None), (true, None)], &[(0, 1)]),
            Pipeline::CqA => {
                let (q1, q2) = pair()?;
                (vec![(false, Some(q1)), (true, Some(q2))], &[(0, 1)])
            }
            Pipeline::CqC => {
                let (q1, q2) = pair()?;
                (
                    vec![
                        (false, Some(q1)),
                        (false, Some(q2)),
                        (true, Some(q1)),
                        (true, Some(q2)),
                    ],
                    // View terms, then the cross-precision terms (Eq. 9).
                    &[(0, 2), (1, 3), (0, 1), (2, 3)],
                )
            }
            other => return Err(format!("no decomposed step for {other}").into()),
        })
    }

    fn ctx(&self, q: Option<Precision>) -> ForwardCtx {
        match q {
            None => ForwardCtx::train(),
            Some(p) => ForwardCtx::train()
                .with_quant(QuantConfig::uniform(p).with_mode(self.cfg.quant_mode)),
        }
    }

    /// A full-precision forward of the batch's first view, which the
    /// first branch of every pipeline also reads. Train mode only moves
    /// batch-norm running statistics, which no training loss reads.
    fn fp_forward(&mut self, tr: &mut Tracer, batch: &TwoViewBatch) -> Res<f64> {
        let (out, secs) = tr.time("bench.quant.fp_fwd", || {
            self.encoder.forward(&batch.view1, &ForwardCtx::train())
        });
        out?;
        Ok(secs)
    }

    fn step(&mut self, tr: &mut Tracer, batch: &TwoViewBatch, lr: f32) -> Res<DecStep> {
        let (branches, terms) = self.branches()?;
        tr.open("bench.decomposed.step");
        let (mut gs, mut grads_s) =
            tr.time("bench.nn.grads", || self.encoder.params().zero_grads());
        let mut outs = Vec::new();
        let mut fwd = Vec::new();
        for &(view2, q) in &branches {
            let x = if view2 { &batch.view2 } else { &batch.view1 };
            let ctx = self.ctx(q);
            let (out, secs) = tr.time("bench.models.fwd", || self.encoder.forward(x, &ctx));
            outs.push(out?);
            fwd.push(secs);
        }
        let mut loss: Option<f32> = None;
        let mut ntxent = 0.0;
        let mut grads: Vec<Option<Tensor>> = branches.iter().map(|_| None).collect();
        for &(a, b) in terms {
            let temp = self.cfg.temperature;
            let (pl, secs) = tr.time("bench.core.ntxent", || {
                nt_xent(&outs[a].projection, &outs[b].projection, temp)
            });
            let pl = pl?;
            ntxent += secs;
            loss = Some(loss.map_or(pl.loss, |l| l + pl.loss));
            // A branch in two terms gets the sum of their gradients.
            for (i, g) in [(a, pl.grad_a), (b, pl.grad_b)] {
                grads[i] = Some(match grads[i].take() {
                    None => g,
                    Some(prev) => tr.time("bench.core.grad_sum", || prev.add(&g)).0?,
                });
            }
        }
        let mut bwd = Vec::new();
        for (out, g) in outs.iter().zip(&grads) {
            let g = g.as_ref().ok_or("a branch is in no loss term")?;
            let (r, secs) = tr.time("bench.models.bwd", || {
                self.encoder.backward_projection(&out.trace, g, &mut gs)
            });
            r?;
            bwd.push(secs);
        }
        let ((norm, finite), secs) =
            tr.time("bench.nn.grads", || (gs.global_norm(), gs.is_finite()));
        grads_s += secs;
        let loss = loss.ok_or("no loss terms")?;
        let exploded = !loss.is_finite() || !finite || norm > self.cfg.explosion_threshold;
        let mut sgd = 0.0;
        if !exploded {
            let (r, secs) = tr.time("bench.nn.sgd", || {
                self.opt.step(self.encoder.params_mut(), &gs, lr)
            });
            r?;
            sgd = secs;
        }
        let wall = tr.close();
        Ok(DecStep {
            loss: (!exploded).then_some(loss),
            wall,
            fwd,
            bwd,
            ntxent,
            grads: grads_s,
            sgd,
        })
    }
}

/// Counter growth summed over the windows passed to [`Deltas::add`].
#[derive(Default)]
struct Deltas(BTreeMap<&'static str, u64>);

impl Deltas {
    fn add(&mut self, before: &[(&'static str, u64)], after: &[(&'static str, u64)]) {
        for &(name, total) in after {
            let prev = before
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v);
            *self.0.entry(name).or_default() += total - prev;
        }
    }

    fn sum(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.0.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
    }
}

/// Runs `f` with the sink installed when `on`, so the program's
/// counters count.
fn observed<R>(sink: &Arc<MemorySink>, on: bool, f: impl FnOnce() -> R) -> R {
    if on {
        cq_obs::install(sink.clone());
    }
    let r = f();
    if on {
        cq_obs::uninstall();
    }
    r
}

pub fn run(w: &Workload, seed: u64, seconds: f64, trace_path: &Path) -> Res<Report> {
    with_thread_limit(1, || run_1t(w, seed, seconds, trace_path))
}

#[derive(Default)]
struct TrainerSamples {
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

fn run_1t(w: &Workload, seed: u64, seconds: f64, trace_path: &Path) -> Res<Report> {
    let start = Instant::now();
    // Capacity 0: the counters are what is read; events are dropped.
    let sink = Arc::new(MemorySink::with_capacity(0));
    let mut tr = Tracer::new();
    let mut r = Report::new(&PER_LAYER);
    let inputs = Inputs::new(seed);
    // First, so the training steps below can fill what is left of the run.
    deploy_probe(w, &inputs, &sink, &mut tr, &mut r)?;
    let sched = schedule(&inputs.pretrain_cfg(w)?);
    let mut dec = Decomposed::new(&inputs, w)?;
    let mut trainers: [SimclrTrainer; 2] = [inputs.trainer(w)?, inputs.trainer(w)?];
    let mut batches = Batches::new(seed);

    let mut losses: Vec<[Option<f32>; 3]> = Vec::new();
    let (mut data_s, mut fwd_s, mut bwd_s, mut overhead_s) = (vec![], vec![], vec![], vec![]);
    let (mut ntxent_s, mut grads_s, mut sgd_s, mut unattributed) = (vec![], vec![], vec![], vec![]);
    let (mut t1, mut t2) = (TrainerSamples::default(), TrainerSamples::default());
    let (mut allocs, mut util_2t) = (vec![], vec![]);
    let mut counts = Deltas::default();
    let mut steps = MAX_STEPS;
    let mut i = 0;
    while i <= steps {
        let step_start = Instant::now();
        let lr = sched.lr_at(i);
        let (batch, batch_secs) = tr.time("bench.data.batch", || batches.next(&inputs.train));
        // The full-precision forward shares the decomposed step's sink
        // window, so only the precision differs from the step's first
        // branch. It runs before the step on even steps and after it on
        // odd ones, so neither reads the fresh batch first every time.
        let fp_first = i % 2 == 0;
        let (fp, before, d, after) = observed(&sink, true, || -> Res<_> {
            let early = if fp_first {
                Some(dec.fp_forward(&mut tr, &batch)?)
            } else {
                None
            };
            let before = cq_obs::counter_totals();
            let d = dec.step(&mut tr, &batch, lr)?;
            let after = cq_obs::counter_totals();
            let fp = match early {
                Some(secs) => secs,
                None => dec.fp_forward(&mut tr, &batch)?,
            };
            Ok((fp, before, d, after))
        })?;

        let traced = i % 2 == 1;
        let [a, b] = &mut trainers;
        let a0 = cq_obs::alloc::alloc_calls().unwrap_or(0);
        let (l1, s1) = observed(&sink, traced, || {
            tr.time("bench.trainer.step_1t", || a.step(&batch, lr))
        });
        let a1 = cq_obs::alloc::alloc_calls().unwrap_or(0);
        let (l2, s2, util) = with_thread_limit(THREADS_2T, || {
            observed(&sink, traced, || {
                let p0 = pool_stats();
                let (l, s) = tr.time("bench.trainer.step_2t", || b.step(&batch, lr));
                let width = (pool_stats().workers_spawned + 1).min(THREADS_2T);
                let util = pool_stats().utilization_since(&p0, (s * 1e9) as u64, width);
                (l, s, util)
            })
        });
        losses.push([d.loss, step_loss(l1), step_loss(l2)]);

        if i == 0 {
            // The warm-up step: its cost sets how many steps fit.
            let per_step = step_start.elapsed().as_secs_f64();
            let left = seconds - start.elapsed().as_secs_f64();
            steps = ((left / per_step) as usize).clamp(MIN_STEPS, MAX_STEPS);
        } else {
            data_s.push(batch_secs);
            overhead_s.push(d.fwd[0] - fp);
            fwd_s.extend(&d.fwd);
            bwd_s.extend(&d.bwd);
            ntxent_s.push(d.ntxent);
            grads_s.push(d.grads);
            sgd_s.push(d.sgd);
            counts.add(&before, &after);
            if traced {
                // Paired by step, so a slow stretch of the host cancels.
                unattributed.push(s1 - d.wall);
                t1.traced.push(s1);
                t2.traced.push(s2);
                util_2t.push(util.unwrap_or(0.0));
            } else {
                t1.untraced.push(s1);
                t2.untraced.push(s2);
                allocs.push((a1 - a0) as f64);
            }
        }
        i += 1;
    }

    let n = steps;
    r.attempted += 3 * losses.len();
    r.failed = losses.iter().flatten().filter(|l| l.is_none()).count();
    let bits = |l: Option<f32>| l.map(f32::to_bits);
    r.check("every step returned a finite loss", r.failed == 0);
    r.check(
        "decomposed step losses equal SimclrTrainer::step losses bitwise",
        losses.iter().all(|l| bits(l[0]) == bits(l[1])),
    );
    r.check(
        "2-thread SimclrTrainer::step losses equal 1-thread losses bitwise",
        losses.iter().all(|l| bits(l[1]) == bits(l[2])),
    );

    let s = inputs.proto.data.image_size;
    let (plan, _, _) = encoder_plan(&inputs.proto.encoder_cfg(w.arch))?;
    let fwd_flops = Graph::lower(&plan, &[BATCH, 3, s, s])?.flops() as f64;
    let branches = fwd_s.len() / n;
    let predicted = 3.0 * branches as f64 * fwd_flops;
    let counted = counts.sum(&["tensor.matmul.flops", "tensor.depthwise.flops"]) / n as f64;
    let gemm = counts.sum(&["tensor.gemm.packed_calls", "tensor.gemm.small_calls"]);
    let per_step = |names: &[&str]| counts.sum(names) / n as f64;

    r.set("data.batch_s", median(&data_s), n);
    r.set("models.fwd_s", median(&fwd_s), fwd_s.len());
    r.set("models.bwd_s", median(&bwd_s), bwd_s.len());
    r.set(
        "models.fwd_gflops",
        fwd_flops / median(&fwd_s) * 1e-9,
        fwd_s.len(),
    );
    r.set(
        "models.bwd_gflops",
        2.0 * fwd_flops / median(&bwd_s) * 1e-9,
        bwd_s.len(),
    );
    r.set("quant.overhead_s", median(&overhead_s), n);
    r.set(
        "quant.elems_per_step",
        per_step(&["quant.fake_quant.elems"]),
        n,
    );
    r.set("core.ntxent_s", median(&ntxent_s), n);
    r.set(
        "core.unattributed_s",
        median(&unattributed),
        unattributed.len(),
    );
    r.set("nn.sgd_s", median(&sgd_s), n);
    r.set("nn.grads_s", median(&grads_s), n);
    r.set(
        "graph.fused_chains_per_step",
        per_step(&["graph.fused_chains"]),
        n,
    );
    r.set(
        "graph.elided_bytes_per_step",
        per_step(&[cq_obs::names::FUSION_PASS_ELIDED_BYTES]),
        n,
    );
    r.set("tensor.gemm_calls_per_step", gemm / n as f64, n);
    r.set(
        "tensor.gemm_small_share",
        counts.sum(&["tensor.gemm.small_calls"]) / gemm.max(1.0),
        n,
    );
    r.set(
        "tensor.im2col_elems_per_step",
        per_step(&["tensor.im2col.elems"]),
        n,
    );
    r.set("tensor.flops_counted_per_step", counted, n);
    r.set("graph.flops_predicted_per_step", predicted, n);
    r.set("tensor.flop_coverage", counted / predicted, n);
    r.set("tensor.pool_jobs_per_step", per_step(&["pool.jobs"]), n);
    r.set(
        "tensor.par_speedup_2t",
        median(&t1.untraced) / median(&t2.untraced),
        t2.untraced.len(),
    );
    r.set("tensor.pool_util_2t", median(&util_2t), util_2t.len());
    r.set("mem.allocs_per_step", median(&allocs), allocs.len());
    r.set(
        "trace.overhead",
        median(&t1.traced) / median(&t1.untraced) - 1.0,
        t1.traced.len() + t1.untraced.len(),
    );

    r.note(format!(
        "workload {} seed {seed}: traced run, {n} measured steps per mode after one warm-up, \
         {branches} branches per step, {} threads available",
        w.name,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    ));
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(trace_path, tr.to_jsonl())?;
    r.note(format!("trace written to {}", trace_path.display()));
    Ok(r)
}

/// The deploy probe: int8 conversion, then int8 batches, f32
/// fake-quant-8 batches and kNN over the test split.
fn deploy_probe(
    w: &Workload,
    inputs: &Inputs,
    sink: &Arc<MemorySink>,
    tr: &mut Tracer,
    r: &mut Report,
) -> Res<()> {
    let mut inf = Infer::new(w, inputs)?;
    let mut convert_s = Vec::new();
    for _ in 0..DEPLOY_REPS {
        let (int, secs) = tr.time("bench.infer.convert", || {
            IntEncoder::from_encoder(&inf.encoder)
        });
        int?;
        convert_s.push(secs);
    }
    let (mut int_s, mut f32_s, mut knn_s) = (vec![], vec![], vec![]);
    let mut i8_calls = Deltas::default();
    let labels = inf.labels.concat();
    for _ in 0..DEPLOY_REPS {
        let mut feats = Vec::new();
        for x in &inf.batches {
            let before = cq_obs::counter_totals();
            let (out, secs) = observed(sink, true, || {
                tr.time("bench.infer.batch", || inf.int.features(x))
            });
            i8_calls.add(&before, &cq_obs::counter_totals());
            out?;
            int_s.push(secs);
            let (out, secs) = tr.time("bench.eval.batch", || inf.encoder.features(x, &fake8()));
            feats.extend_from_slice(out?.as_slice());
            f32_s.push(secs);
        }
        let feats = Tensor::from_vec(feats, &[labels.len(), inf.encoder.feat_dim()])?;
        let (_, secs) = tr.time("bench.eval.knn", || {
            std::hint::black_box(cq_eval::knn_accuracy(&feats, &labels, 5))
        });
        knn_s.push(secs);
    }
    let calls = i8_calls.sum(&["tensor.gemm_i8.packed_calls", "tensor.gemm_i8.small_calls"]);
    r.set("infer.convert_s", median(&convert_s), convert_s.len());
    r.set("infer.batch_s", median(&int_s), int_s.len());
    r.set(
        "infer.i8_gemm_calls_per_batch",
        calls / int_s.len() as f64,
        int_s.len(),
    );
    r.set(
        "infer.speedup_vs_f32",
        median(&f32_s) / median(&int_s),
        int_s.len(),
    );
    r.set("eval.batch_s", median(&f32_s), f32_s.len());
    r.set("eval.knn_s", median(&knn_s), knn_s.len());
    r.attempted += int_s.len();
    Ok(())
}
