//! Cache-blocked, register-tiled GEMM: packed A/B panels multiplied in
//! MR×NR register tiles, with the unblocked scalar loops preserved in
//! [`reference`](mod@reference) as oracle, baseline and small-size fast path.
//!
//! # Bitwise contract
//!
//! Every kernel here produces *bit-identical* output to its counterpart
//! in [`reference`](mod@reference), on every input (including non-finite values), at
//! every thread count, on every machine. Three invariants make that hold:
//!
//! 1. **One accumulator per output element.** Each `out[i, j]` is the sum
//!    of its `k` products in strictly ascending `k` order, held in a
//!    single `f32` register until the final store. There is no k-blocking
//!    with partial stores and no FMA contraction, so every intermediate
//!    rounding matches the scalar loop exactly.
//! 2. **The zero skip is preserved.** The NN/TN reference loops skip
//!    terms whose A element is `0.0`; the microkernel keeps that test
//!    (`SKIP = true`), so even NaN/Inf in B (e.g. deliberately poisoned
//!    weights in health tests) cannot produce different bits. The NT
//!    reference has no skip, and neither does its microkernel.
//! 3. **Tiling only regroups independent elements.** Vectorization runs
//!    across the `NRW` output columns of a tile — distinct accumulators,
//!    never a reassociated reduction — and parallel dispatch assigns
//!    whole row tiles to workers over the deterministic [`ChunkGrid`], so
//!    each element is computed wholly by one thread in one order.
//!
//! # SIMD dispatch
//!
//! The microkernel is generic over its column width `NRW` and compiled
//! three ways: a portable baseline (`NRW = 8`, whatever vectors the
//! default target has), an AVX2 driver (`NRW = 8`, one 256-bit lane row
//! per tile row), and an AVX-512 driver (`NRW = 16`, one 512-bit lane
//! row). The widest available variant is picked once per process by
//! runtime CPU detection. Because of invariant 3 the width only changes
//! how many *independent* accumulators share a register, so all three
//! variants are bit-identical — the equivalence tests run every variant
//! the host supports against the scalar reference.
//!
//! Dispatch between packed and reference paths is purely shape-driven
//! (see `use_reference`); no path choice ever depends on data or
//! thread count.

pub mod conv;
pub mod depthwise;
pub mod int8;
pub(crate) mod lane;
pub mod reference;

use crate::par::{parallel_for_chunks, ChunkGrid};
use crate::simd::SimdLevel as Level;

/// Rows per register tile: each packed A panel feeds `MR` output rows.
pub const MR: usize = 8;

/// Baseline columns per register tile — the packed-B panel width for the
/// portable and AVX2 kernels. The AVX-512 kernel widens this to 16.
pub const NR: usize = 8;

// Dispatch telemetry: how many products took the packed path vs the
// small-size reference path. Counts depend only on operand shapes, so
// totals are identical at any thread count (the cq-trace diff gate
// compares them across CQ_THREADS runs).
static GEMM_PACKED: cq_obs::Counter = cq_obs::Counter::new("tensor.gemm.packed_calls");
static GEMM_SMALL: cq_obs::Counter = cq_obs::Counter::new("tensor.gemm.small_calls");

/// Raw pointer wrapper asserting cross-thread transfer is safe because
/// the caller guarantees disjoint writes.
pub(crate) struct SendPtr(pub(crate) *mut f32);
// SAFETY: used only with disjoint index ranges per thread.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Operand layout of a product (the transpose is folded into packing, the
/// operand is never materialised).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `a[m,k] @ b[k,n]` — forward passes.
    Nn,
    /// `a[m,k] @ b[n,k]ᵀ` — input gradients (`dX = dY @ Wᵀ`).
    Nt,
    /// `a[k,m]ᵀ @ b[k,n]` — weight gradients (`dW = Xᵀ @ dY`).
    Tn,
}

/// Packed-B panel width for a dispatch level.
fn pack_width(level: Level) -> usize {
    match level {
        Level::Portable => NR,
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => NR,
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => 2 * NR,
    }
}

/// Per-layout body choice, tuned by measurement (DESIGN.md §13.3):
/// the branchy zero-skip body (NN/TN) compiles to ideal broadcast-
/// multiply-add at 16 lanes, while the branch-free NT body register-
/// spills at 16 lanes but peaks at 8 — on this hardware ~38 GFLOP/s
/// 8-wide vs ~4.5 GFLOP/s 16-wide. Every choice is bit-identical, so
/// this affects speed only.
fn level_for(kind: Kind, level: Level) -> Level {
    #[cfg(target_arch = "x86_64")]
    if kind == Kind::Nt && level == Level::Avx512 {
        // avx512f hardware always carries avx2.
        return Level::Avx2;
    }
    let _ = kind;
    level
}

/// The widest level the host can run (see [`crate::simd`]).
fn simd_level() -> Level {
    Level::detect()
}

/// Name of the SIMD dispatch level the host selected (`baseline`,
/// `avx2`, `avx512`), printed by the `roofline` bin; speed metadata
/// only — every level produces the same bits (invariant 3 above).
pub fn simd_level_name() -> &'static str {
    simd_level().name()
}

/// Shape-only test for the unblocked fast path: degenerate `k`, outputs
/// narrower than one register tile, or products small enough that panel
/// packing would cost more than it saves.
fn use_reference(m: usize, n: usize, k: usize) -> bool {
    k == 0 || n < NR || m * n * k < 4096
}

/// One packed register tile: `acc[r][c] += ap[kk][r] * bp[kk][c]` for
/// `kk` strictly ascending. `SKIP` mirrors the reference kernels'
/// `a == 0.0` shortcut (NN/TN true, NT false). `inline(always)` so the
/// `#[target_feature]` drivers compile this body at their vector width.
#[inline(always)]
fn micro_tile<const SKIP: bool, const NRW: usize>(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [[f32; NRW]; MR],
) {
    debug_assert!(ap.len() >= k * MR);
    debug_assert!(bp.len() >= k * NRW);
    for kk in 0..k {
        let arow = &ap[kk * MR..kk * MR + MR];
        let brow = &bp[kk * NRW..kk * NRW + NRW];
        for r in 0..MR {
            let av = arow[r];
            if SKIP && av == 0.0 {
                continue;
            }
            let accr = &mut acc[r];
            for c in 0..NRW {
                accr[c] += av * brow[c];
            }
        }
    }
}

/// Writes the valid `mr`×`nr` corner of a register tile into row-major
/// `out` (leading dimension `n`, tile origin `(row0, j0)`).
#[inline(always)]
fn store_tile<const NRW: usize>(
    acc: &[[f32; NRW]; MR],
    out: &mut [f32],
    n: usize,
    row0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    for r in 0..mr {
        let orow = &mut out[(row0 + r) * n + j0..(row0 + r) * n + j0 + nr];
        for (o, &v) in orow.iter_mut().zip(&acc[r]) {
            *o = v;
        }
    }
}

/// Packs `mr` rows of row-major `a: [m,k]` starting at row `i0` into the
/// `[k][MR]` panel `ap` (zero-padded past `mr` so edge tiles reuse the
/// full-width microkernel).
#[inline(always)]
fn pack_a_rows(a: &[f32], k: usize, i0: usize, mr: usize, ap: &mut [f32]) {
    if mr < MR {
        ap.fill(0.0);
    }
    for r in 0..mr {
        let row = &a[(i0 + r) * k..(i0 + r) * k + k];
        for (kk, &v) in row.iter().enumerate() {
            ap[kk * MR + r] = v;
        }
    }
}

/// Packs `mr` columns of column-major-logical `a: [k,m]` (the TN layout)
/// starting at column `i0` into the `[k][MR]` panel `ap`; each `kk` row
/// is a contiguous copy.
#[inline(always)]
fn pack_a_cols(a: &[f32], k: usize, m: usize, i0: usize, mr: usize, ap: &mut [f32]) {
    if mr < MR {
        ap.fill(0.0);
    }
    for kk in 0..k {
        ap[kk * MR..kk * MR + mr].copy_from_slice(&a[kk * m + i0..kk * m + i0 + mr]);
    }
}

/// Packs all of row-major `b: [k,n]` into `ceil(n/NRW)` panels of layout
/// `[k][NRW]`, zero-padding the edge panel.
fn pack_b_nn<const NRW: usize>(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let np = n.div_ceil(NRW);
    let mut bp = vec![0.0f32; np * k * NRW];
    for (p, panel) in bp.chunks_exact_mut(k * NRW).enumerate() {
        let j0 = p * NRW;
        let nr = NRW.min(n - j0);
        for kk in 0..k {
            panel[kk * NRW..kk * NRW + nr].copy_from_slice(&b[kk * n + j0..kk * n + j0 + nr]);
        }
    }
    bp
}

/// Packs `b: [n,k]` (the NT layout, logical Bᵀ) into `[k][NRW]` panels:
/// row `j` of `b` becomes lane `j % NRW` of panel `j / NRW`.
fn pack_b_nt<const NRW: usize>(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let np = n.div_ceil(NRW);
    let mut bp = vec![0.0f32; np * k * NRW];
    for (p, panel) in bp.chunks_exact_mut(k * NRW).enumerate() {
        let j0 = p * NRW;
        let nr = NRW.min(n - j0);
        for c in 0..nr {
            let row = &b[(j0 + c) * k..(j0 + c) * k + k];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * NRW + c] = v;
            }
        }
    }
    bp
}

/// Packs B for `kind` at the panel width of `level`.
fn pack_b(level: Level, kind: Kind, b: &[f32], k: usize, n: usize) -> Vec<f32> {
    match (kind, pack_width(level)) {
        (Kind::Nn | Kind::Tn, w) if w == NR => pack_b_nn::<NR>(b, k, n),
        (Kind::Nn | Kind::Tn, _) => pack_b_nn::<16>(b, k, n),
        (Kind::Nt, w) if w == NR => pack_b_nt::<NR>(b, k, n),
        (Kind::Nt, _) => pack_b_nt::<16>(b, k, n),
    }
}

/// Multiplies row tiles `[t0, t1)` of A against every packed B panel
/// (width `NRW`), writing rows `t0*MR ..` of the output into `out_rows`
/// (which holds exactly those rows). `a_cols` selects the `[k,m]` A
/// layout (TN).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_row_tiles<const SKIP: bool, const NRW: usize>(
    a: &[f32],
    a_cols: bool,
    m: usize,
    k: usize,
    bp: &[f32],
    n: usize,
    t0: usize,
    t1: usize,
    out_rows: &mut [f32],
    ap: &mut [f32],
) {
    let np = n.div_ceil(NRW);
    for t in t0..t1 {
        let i0 = t * MR;
        let mr = MR.min(m - i0);
        if a_cols {
            pack_a_cols(a, k, m, i0, mr, ap);
        } else {
            pack_a_rows(a, k, i0, mr, ap);
        }
        for (p, panel) in bp.chunks_exact(k * NRW).enumerate().take(np) {
            let j0 = p * NRW;
            let nr = NRW.min(n - j0);
            let mut acc = [[0.0f32; NRW]; MR];
            micro_tile::<SKIP, NRW>(k, ap, panel, &mut acc);
            store_tile::<NRW>(&acc, out_rows, n, i0 - t0 * MR, j0, mr, nr);
        }
    }
}

/// AVX2 driver: same 8-wide tile body, compiled with 256-bit vectors.
///
/// # Safety
///
/// Caller must have verified AVX2 support (see [`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn run_row_tiles_avx2<const SKIP: bool>(
    a: &[f32],
    a_cols: bool,
    m: usize,
    k: usize,
    bp: &[f32],
    n: usize,
    t0: usize,
    t1: usize,
    out_rows: &mut [f32],
    ap: &mut [f32],
) {
    run_row_tiles::<SKIP, NR>(a, a_cols, m, k, bp, n, t0, t1, out_rows, ap)
}

/// AVX-512 driver: 16-wide tile body, one 512-bit accumulator per row.
///
/// # Safety
///
/// Caller must have verified AVX-512F support (see [`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn run_row_tiles_avx512<const SKIP: bool>(
    a: &[f32],
    a_cols: bool,
    m: usize,
    k: usize,
    bp: &[f32],
    n: usize,
    t0: usize,
    t1: usize,
    out_rows: &mut [f32],
    ap: &mut [f32],
) {
    run_row_tiles::<SKIP, 16>(a, a_cols, m, k, bp, n, t0, t1, out_rows, ap)
}

/// Runs row tiles through the driver for `level`. `bp` must have been
/// packed at `pack_width(level)`.
#[allow(clippy::too_many_arguments)]
fn run_tiles_level<const SKIP: bool>(
    level: Level,
    a: &[f32],
    a_cols: bool,
    m: usize,
    k: usize,
    bp: &[f32],
    n: usize,
    t0: usize,
    t1: usize,
    out_rows: &mut [f32],
    ap: &mut [f32],
) {
    match level {
        Level::Portable => run_row_tiles::<SKIP, NR>(a, a_cols, m, k, bp, n, t0, t1, out_rows, ap),
        // SAFETY: `level` comes from runtime CPU detection.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe {
            run_row_tiles_avx2::<SKIP>(a, a_cols, m, k, bp, n, t0, t1, out_rows, ap)
        },
        // SAFETY: `level` comes from runtime CPU detection.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe {
            run_row_tiles_avx512::<SKIP>(a, a_cols, m, k, bp, n, t0, t1, out_rows, ap)
        },
    }
}

/// Parallel blocked `out = op(a) @ op(b)` (`out: [m,n]`, overwritten),
/// dispatched over row tiles of the deterministic [`ChunkGrid`]; used by
/// `Tensor::matmul{,_nt,_tn}`. Bitwise-identical to the corresponding
/// [`reference`](mod@reference) kernel at any thread count.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`/`n`/`k`.
pub fn par_gemm(kind: Kind, a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    let (alen, blen) = match kind {
        Kind::Nn => (m * k, k * n),
        Kind::Nt => (m * k, n * k),
        Kind::Tn => (k * m, k * n),
    };
    assert_eq!(a.len(), alen, "par_gemm: lhs length mismatch");
    assert_eq!(b.len(), blen, "par_gemm: rhs length mismatch");
    assert_eq!(out.len(), m * n, "par_gemm: out length mismatch");
    if use_reference(m, n, k) {
        GEMM_SMALL.add(1);
        match kind {
            Kind::Nn => reference::gemm_nn(a, m, k, b, n, out),
            Kind::Nt => reference::gemm_nt(a, m, k, b, n, out),
            Kind::Tn => reference::gemm_tn(a, k, m, b, n, out),
        }
        return;
    }
    GEMM_PACKED.add(1);
    let level = level_for(kind, simd_level());
    let bp = pack_b(level, kind, b, k, n);
    let bp = &bp[..];
    let ntiles = m.div_ceil(MR);
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for_chunks(ChunkGrid::new(ntiles, 1), |_, t0, t1| {
        // Capture the Sync wrapper, not the raw pointer field.
        let out_ptr = &out_ptr;
        let rows0 = t0 * MR;
        let rows1 = (t1 * MR).min(m);
        // SAFETY: chunks own disjoint tile ranges, hence disjoint rows.
        let out_rows = unsafe {
            std::slice::from_raw_parts_mut(out_ptr.0.add(rows0 * n), (rows1 - rows0) * n)
        };
        let mut ap = vec![0.0f32; k * MR];
        match kind {
            Kind::Nn => {
                run_tiles_level::<true>(level, a, false, m, k, bp, n, t0, t1, out_rows, &mut ap)
            }
            Kind::Nt => {
                run_tiles_level::<false>(level, a, false, m, k, bp, n, t0, t1, out_rows, &mut ap)
            }
            Kind::Tn => {
                run_tiles_level::<true>(level, a, true, m, k, bp, n, t0, t1, out_rows, &mut ap)
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn randvec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// Random data with exact zeros mixed in so the SKIP path runs.
    fn randvec_zeros(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    // Shapes straddling every dispatch boundary: fast path, exact tiles,
    // edge tiles one off either side of MR/NR (and the 16-wide AVX-512
    // panel edge at 15/17/33).
    const SHAPES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (3, 9, 5),
        (8, 8, 8),
        (16, 16, 16),
        (17, 15, 9),
        (24, 33, 31),
        (25, 31, 40),
        (40, 41, 23),
    ];

    #[test]
    fn par_gemm_matches_reference_bitwise() {
        for &(m, n, k) in &SHAPES {
            for kind in [Kind::Nn, Kind::Nt, Kind::Tn] {
                let (alen, blen) = match kind {
                    Kind::Nn => (m * k, k * n),
                    Kind::Nt => (m * k, n * k),
                    Kind::Tn => (k * m, k * n),
                };
                let a = randvec_zeros(alen, 8 + m as u64);
                let b = randvec(blen, 9 + n as u64);
                let mut got = vec![1.0f32; m * n];
                let mut want = vec![2.0f32; m * n];
                par_gemm(kind, &a, &b, m, n, k, &mut got);
                match kind {
                    Kind::Nn => reference::gemm_nn(&a, m, k, &b, n, &mut want),
                    Kind::Nt => reference::gemm_nt(&a, m, k, &b, n, &mut want),
                    Kind::Tn => reference::gemm_tn(&a, k, m, &b, n, &mut want),
                }
                assert_eq!(bits(&got), bits(&want), "{kind:?} {m}x{n}x{k}");
            }
        }
    }

    #[test]
    fn every_simd_level_matches_reference_bitwise() {
        // The production entry points only run `level_for`'s choice per
        // layout; drive each available driver explicitly so AVX2/AVX-512
        // and the portable body are all proven against the scalar loops
        // for every layout, whatever host picked which.
        for level in Level::supported() {
            for &(m, n, k) in &SHAPES {
                if use_reference(m, n, k) {
                    continue;
                }
                let mut ap = vec![0.0f32; k * MR];
                let ntiles = m.div_ceil(MR);

                let a = randvec_zeros(m * k, 20 + m as u64);
                let b = randvec(k * n, 21 + n as u64);
                let bp = pack_b(level, Kind::Nn, &b, k, n);
                let mut got = vec![1.0f32; m * n];
                let mut want = vec![2.0f32; m * n];
                run_tiles_level::<true>(
                    level, &a, false, m, k, &bp, n, 0, ntiles, &mut got, &mut ap,
                );
                reference::gemm_nn(&a, m, k, &b, n, &mut want);
                assert_eq!(bits(&got), bits(&want), "{level:?} nn {m}x{n}x{k}");

                let bt = randvec(n * k, 22 + n as u64);
                let bp = pack_b(level, Kind::Nt, &bt, k, n);
                run_tiles_level::<false>(
                    level, &a, false, m, k, &bp, n, 0, ntiles, &mut got, &mut ap,
                );
                reference::gemm_nt(&a, m, k, &bt, n, &mut want);
                assert_eq!(bits(&got), bits(&want), "{level:?} nt {m}x{n}x{k}");

                let at = randvec_zeros(k * m, 23 + m as u64);
                let bp = pack_b(level, Kind::Tn, &b, k, n);
                run_tiles_level::<true>(
                    level, &at, true, m, k, &bp, n, 0, ntiles, &mut got, &mut ap,
                );
                reference::gemm_tn(&at, k, m, &b, n, &mut want);
                assert_eq!(bits(&got), bits(&want), "{level:?} tn {m}x{n}x{k}");
            }
        }
    }

    #[test]
    fn zero_skip_preserves_nonfinite_bits() {
        // A zero activation row times NaN weights: the skip must keep the
        // NaN out of the output, exactly as the scalar loops did.
        let m = 16;
        let (n, k) = (16, 16);
        let mut a = randvec(m * k, 10);
        for v in &mut a[..k] {
            *v = 0.0; // first row all zero
        }
        let mut b = randvec(k * n, 11);
        b[0] = f32::NAN;
        b[k] = f32::INFINITY;
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        par_gemm(Kind::Nn, &a, &b, m, n, k, &mut got);
        reference::gemm_nn(&a, m, k, &b, n, &mut want);
        assert_eq!(bits(&got), bits(&want));
        assert!(got[..n].iter().all(|v| *v == 0.0), "zero row stayed zero");
    }

    #[test]
    fn k_zero_yields_zeros() {
        let mut out = vec![7.0f32; 3 * 4];
        par_gemm(Kind::Nn, &[], &[], 3, 4, 0, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0));
    }
}
