//! A fixed piece of arithmetic the benchmark owns, timed around every
//! op to read how fast the host's core runs at that moment.
//!
//! Other tenants share the host's cores. In busy spells they slow the
//! vector arithmetic of a training step by up to 2x for minutes at a
//! time, with thread CPU time equal to wall time (no steal to
//! subtract), so raw op times move by more than any bound a regression
//! gate can use. The yardstick does the same kind of work, an f32
//! matrix product over an L2-sized working set, so it slows by a
//! similar factor, and a time divided by the yardstick times around it
//! cancels most of the host's state. It never calls the code under
//! test, so a change to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`Yardstick::time`] takes on the quiet host the
/// benchmark was written on (2-vCPU x86-64 VM, Xeon with AVX-512).
/// Scaled times read as seconds on that host at that speed.
pub const YARDSTICK_S: f64 = 0.019;

/// `(m, k, n)` of the product: 128 + 256 + 128 KiB of operands.
const M: usize = 128;
const K: usize = 256;
const N: usize = 256;
/// Products per [`Yardstick::time`]: 17.7-19.4 ms on the quiet host.
const REPS: usize = 18;

pub struct Yardstick {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        Yardstick {
            a: (0..M * K).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..K * N).map(|i| (i % 5) as f32 * 0.5).collect(),
            c: vec![0.0; M * N],
        }
    }

    /// Seconds `REPS` products take now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REPS {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for (arow, crow) in a.chunks_exact(K).zip(self.c.chunks_exact_mut(N)) {
                for (&aik, brow) in arow.iter().zip(b.chunks_exact(N)) {
                    for (c, &b) in crow.iter_mut().zip(brow) {
                        *c += aik * b;
                    }
                }
            }
            black_box(&mut self.c);
        }
        t.elapsed().as_secs_f64()
    }
}

/// `secs` at the quiet host's speed: scaled by `YARDSTICK_S` over the
/// mean of the yardstick times taken just before and just after it.
pub fn scaled(secs: f64, before: f64, after: f64) -> f64 {
    secs * YARDSTICK_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        assert_eq!(scaled(1.0, YARDSTICK_S, YARDSTICK_S), 1.0);
        assert_eq!(scaled(2.0, 2.0 * YARDSTICK_S, 2.0 * YARDSTICK_S), 1.0);
        assert_eq!(scaled(1.5, YARDSTICK_S, 2.0 * YARDSTICK_S), 1.0);
    }
}
