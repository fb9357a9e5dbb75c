//! `roofline` — the machine ceilings that kernel throughput is judged
//! against: peak multiply-add GFLOP/s and stream-triad GB/s across the
//! worker pool. Prints one JSON line with both, the SIMD dispatch level
//! and the pool's thread count (after `CQ_THREADS`).
//!
//! ```text
//! cargo run --release -p cq-bench --bin roofline
//! {"peak_gflops":50.9,"stream_gbs":19.5,"simd":"avx512","threads":1}
//! ```

use cq_obs::json;
use cq_tensor::gemm;
use cq_tensor::par::{num_threads, parallel_chunks_mut, parallel_for_each};
use cq_tensor::simd::{dispatch, Body, SimdLevel};
use std::time::Instant;

/// Lanes in the peak-compute microkernel: enough independent per-lane
/// accumulator chains to hide mul/add latency at any vector width the
/// autovectorizer picks (8 chains even at 512-bit vectors) while still
/// fitting the accumulators in registers.
const PEAK_LANES: usize = 128;

/// Multiply-add iterations per work item in the peak measurement.
const PEAK_REPS: u32 = 100_000;

/// One peak-compute work item: `PEAK_LANES` independent multiply-add
/// chains against broadcast constants (no per-lane operand loads, so
/// the loop is pure FP issue). Deliberately mul-then-add (two
/// instructions), not FMA — the gemm kernels' bitwise-determinism
/// contract forbids FMA contraction (DESIGN §13.1). Run through the
/// kernels' own SIMD dispatch, so it is compiled at the vector width
/// they use: the ceiling those kernels can legally reach.
struct MaddChains {
    seed: f32,
}

impl Body for MaddChains {
    type Out = f32;

    #[inline(always)]
    fn run<const L: usize>(self) -> f32 {
        let mut acc = [0.0f32; PEAK_LANES];
        for (i, v) in acc.iter_mut().enumerate() {
            *v = self.seed + i as f32 * 1e-6;
        }
        for _ in 0..PEAK_REPS {
            for a in acc.iter_mut() {
                // Fixed point of x*c + d stays ~ d/(1-c): bounded forever.
                *a = *a * 0.999_999 + 1.0e-3;
            }
        }
        let mut sum = 0.0f32;
        for a in acc {
            sum += a;
        }
        sum
    }
}

/// Measures peak multiply-add GFLOP/s across the worker pool: several
/// compute-bound items per thread, best of three passes.
fn measure_peak_gflops() -> f64 {
    let items = num_threads() * 8;
    let run = || {
        parallel_for_each(items, |i| {
            let chains = MaddChains {
                seed: 1.0 + i as f32,
            };
            std::hint::black_box(dispatch(SimdLevel::detect(), chains));
        })
    };
    run(); // warm up the pool and the frequency governor
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    let flops = items as f64 * PEAK_REPS as f64 * PEAK_LANES as f64 * 2.0;
    flops / best / 1e9
}

/// Measures sustained memory bandwidth with a stream-style triad
/// (`c = a + 3b`) over buffers far larger than the last-level cache,
/// parallelized across the pool. Counts 12 bytes of traffic per element
/// (two reads, one write; write-allocate traffic is ignored, as STREAM
/// does).
fn measure_stream_gbs() -> f64 {
    const LEN: usize = 8 * 1024 * 1024; // 32 MiB per buffer
    const CHUNK: usize = 64 * 1024;
    let a: Vec<f32> = (0..LEN).map(|i| (i % 17) as f32).collect();
    let b: Vec<f32> = (0..LEN).map(|i| (i % 13) as f32).collect();
    let mut c = vec![0.0f32; LEN];
    let run = |c: &mut [f32]| {
        parallel_chunks_mut(c, CHUNK, |ci, chunk| {
            let off = ci * CHUNK;
            let (a, b) = (&a[off..off + CHUNK], &b[off..off + CHUNK]);
            for i in 0..CHUNK {
                chunk[i] = a[i] + 3.0 * b[i];
            }
        })
    };
    run(&mut c); // warm up: page in all three buffers
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        run(&mut c);
        best = best.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(&c);
    (12.0 * LEN as f64) / best / 1e9
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: roofline (takes no arguments)");
        std::process::exit(2);
    }
    let (peak, stream) = (measure_peak_gflops(), measure_stream_gbs());
    println!(
        "{{\"peak_gflops\":{},\"stream_gbs\":{},\"simd\":{},\"threads\":{}}}",
        json::number(peak),
        json::number(stream),
        json::string(gemm::simd_level_name()),
        num_threads()
    );
}
