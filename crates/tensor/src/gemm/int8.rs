//! Integer GEMM family for the i8 inference path: `i8 × i8 → i32`
//! accumulators on a pair-widened register tile, plus the scalar
//! references it is proven against.
//!
//! # Pair-widened register tile
//!
//! Both operands are packed as sign-extended `i16` *pairs* of consecutive
//! reduction steps. A row tile of A is `[⌈K/2⌉][MR]` words, each word the
//! two halves `(a[r][2p], a[r][2p+1])`; a column panel of B is
//! `[⌈K/2⌉][NRW][2]` halves, lane `c` holding `(b[2p][c], b[2p+1][c])`.
//! One tile step broadcasts a row's A word and adds
//! `a_lo·b_lo + a_hi·b_hi` into each of the `NRW` i32 lanes — one
//! `vpmaddwd` (`_mm512_madd_epi16` at 16 lanes, `_mm256_madd_epi16` at 8)
//! plus one `vpaddd` per row. The portable variant runs the same pair
//! loop in plain Rust. An odd `K` is padded with a zero pair half on both
//! sides.
//!
//! # Determinism contract
//!
//! The pair product is exact: both factors are i8 values, so each lane's
//! pair sum is at most `2·128² = 32768` in magnitude, which fits the i32
//! lane `vpmaddwd` writes. Integer addition is associative, so any tiling,
//! pair grouping or thread split of an i8 GEMM produces identical `i32`
//! bits *provided no accumulator overflows*. Overflow freedom is the
//! caller's contract: the quantflow pass (`cq-check`) statically proves
//! `K·(2^q−1)² + (2^q−1) ≤ i32::MAX` for every built-in config at the
//! integer-inference bit-widths, and `cq-infer` re-asserts the same
//! shared formula (`cq_quant::intmath::acc_fits_i32`) at model-conversion
//! time. Within that contract the packed, parallel and scalar-reference
//! kernels here are bitwise interchangeable at every SIMD level and
//! thread count — pinned by the equivalence tests below and the
//! `int8_thread_determinism` proptests.
//!
//! # SIMD dispatch
//!
//! The tile variant is chosen by [`I8Level`], detected independently of
//! the f32 kernels' level: the 512-bit `vpmaddwd` needs AVX-512BW, which
//! AVX-512F alone does not imply. Under Miri only the portable variant
//! runs.
//!
//! # Layouts
//!
//! The packed entry point [`par_gemm_i8`] has one layout, the f32 `Nt`:
//! linear layers as `acts[N,K] @ weights[O,K]ᵀ`. Convolutions do not
//! call it: [`super::conv::conv2d_i8`] packs its B panels straight from
//! the activation codes and shares the tile. [`gemm_i8_nn_ref`] remains
//! as the scalar `Nn` product inside the per-sample convolution oracle.
//! There is no backward pass through the integer path, so `Tn` has no i8
//! counterpart.

use super::{use_reference, MR};
use crate::par::{parallel_for_chunks, ChunkGrid};
use std::cell::Cell;
use std::sync::OnceLock;

// Dispatch telemetry, mirroring the f32 counters: shape-driven only, so
// totals are thread-count-invariant under the cq-trace diff gate.
pub(crate) static GEMM_I8_PACKED: cq_obs::Counter =
    cq_obs::Counter::new("tensor.gemm_i8.packed_calls");
static GEMM_I8_SMALL: cq_obs::Counter = cq_obs::Counter::new("tensor.gemm_i8.small_calls");

/// Register-tile variant of the i8 kernels: its `vpmaddwd` width, or the
/// portable pair loop. Affects speed only: every level produces the same
/// bits (see the module contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum I8Level {
    /// Plain-Rust pair loop, 8 columns per tile.
    Portable,
    /// `_mm256_madd_epi16`, 8 columns per tile.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `_mm512_madd_epi16`, 16 columns per tile.
    #[cfg(target_arch = "x86_64")]
    Avx512bw,
}

impl I8Level {
    /// Every level this host can run, narrowest first. Only
    /// [`I8Level::Portable`] under Miri, which does not interpret the
    /// vector intrinsics.
    pub fn supported() -> Vec<I8Level> {
        // Only pushed to on x86-64 outside Miri.
        #[allow(unused_mut)]
        let mut levels = vec![I8Level::Portable];
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                levels.push(I8Level::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512bw") {
                levels.push(I8Level::Avx512bw);
            }
        }
        levels
    }

    /// The widest level this host can run, detected once per process.
    fn detect() -> I8Level {
        static LEVEL: OnceLock<I8Level> = OnceLock::new();
        *LEVEL.get_or_init(|| *Self::supported().last().unwrap_or(&I8Level::Portable))
    }
}

thread_local! {
    /// Per-caller level override; see [`with_i8_level`].
    static LEVEL_OVERRIDE: Cell<Option<I8Level>> = const { Cell::new(None) };
}

/// Runs `f` with the i8 kernels it calls from this thread using the
/// `level` tile (the level is read once per kernel call, on the calling
/// thread, so pool workers follow it). Results are unaffected — this is
/// how the equivalence tests cover every level the host supports.
///
/// # Panics
///
/// Panics if the host cannot run `level`.
pub fn with_i8_level<R>(level: I8Level, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<I8Level>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|l| l.set(self.0));
        }
    }
    assert!(
        I8Level::supported().contains(&level),
        "with_i8_level: host cannot run {level:?}"
    );
    let _restore = Restore(LEVEL_OVERRIDE.with(|l| l.replace(Some(level))));
    f()
}

/// The level this thread's i8 kernels use.
fn i8_level() -> I8Level {
    LEVEL_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(I8Level::detect)
}

/// Raw pointer wrapper asserting cross-thread transfer is safe because
/// the caller guarantees disjoint writes (the i32 sibling of the parent's
/// `SendPtr`).
struct SendPtrI32(*mut i32);
// SAFETY: used only with disjoint index ranges per thread.
unsafe impl Send for SendPtrI32 {}
unsafe impl Sync for SendPtrI32 {}

/// Scalar reference `out[m,n] = a[m,k] @ b[k,n]` — the product inside
/// the per-sample convolution oracle.
pub fn gemm_i8_nn_ref(a: &[i8], m: usize, k: usize, b: &[i8], n: usize, out: &mut [i32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        orow.fill(0);
        for (kk, &av) in arow.iter().enumerate() {
            let av = av as i32;
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv as i32;
            }
        }
    }
}

/// Scalar reference `out[m,n] = a[m,k] @ b[n,k]ᵀ` — oracle and
/// small-size fast path for [`par_gemm_i8`].
pub fn gemm_i8_nt_ref(a: &[i8], m: usize, k: usize, b: &[i8], n: usize, out: &mut [i32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av as i32 * bv as i32;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Pair steps of a `k`-deep product: `⌈k/2⌉`, and at least one so a
/// zero-depth product runs the tile over one zero pair.
pub(crate) fn pair_steps(k: usize) -> usize {
    k.div_ceil(2).max(1)
}

/// One packed A word: the sign-extended halves `(lo, hi)`.
#[inline(always)]
fn word(lo: i8, hi: i8) -> i32 {
    (lo as i16 as u16 as u32 | (hi as i16 as u16 as u32) << 16) as i32
}

/// Packs every row tile of row-major `a: [m,k]` into consecutive
/// `[⌈K/2⌉][MR]` word tiles (rows past `m` and the odd-`k` half are
/// zero).
pub(crate) fn pack_a_pairs(a: &[i8], m: usize, k: usize, ap: &mut Vec<i32>) {
    let k2 = pair_steps(k);
    ap.clear();
    ap.resize(m.div_ceil(MR) * k2 * MR, 0);
    for (t, tile) in ap.chunks_exact_mut(k2 * MR).enumerate() {
        for r in 0..MR.min(m - t * MR) {
            let row = &a[(t * MR + r) * k..(t * MR + r + 1) * k];
            for (p, pair) in row.chunks(2).enumerate() {
                tile[p * MR + r] = word(pair[0], pair.get(1).copied().unwrap_or(0));
            }
        }
    }
}

/// Packs row-major `b: [n,k]` into `⌈n/NRW⌉` panels of
/// `[⌈K/2⌉][NRW][2]` halves, zero-padded.
fn pack_b_pairs<const NRW: usize>(b: &[i8], k: usize, n: usize) -> Vec<i16> {
    let k2 = pair_steps(k);
    let mut bp = vec![0i16; n.div_ceil(NRW) * k2 * 2 * NRW];
    for (q, panel) in bp.chunks_exact_mut(k2 * 2 * NRW).enumerate() {
        let j0 = q * NRW;
        for c in 0..NRW.min(n - j0) {
            for (kk, &v) in b[(j0 + c) * k..(j0 + c + 1) * k].iter().enumerate() {
                panel[((kk / 2) * NRW + c) * 2 + kk % 2] = v as i16;
            }
        }
    }
    bp
}

/// A block of register tiles: `out[t·np + q] = A_t · B_q` over `k2` pair
/// steps for every packed word tile `A_t` in `ap` and pair panel `B_q` in
/// `bp` (`np` panels). One call covers a whole block, so the per-call
/// cost of the dispatched kernel is paid per block, not per tile.
pub(crate) type I8Tiles<const NRW: usize> = fn(usize, &[i32], &[i16], &mut [[[i32; NRW]; MR]]);

/// An i8 kernel pass, generic over the register tile's width.
pub(crate) trait I8Pass {
    fn run<const NRW: usize>(self, tiles: I8Tiles<NRW>);
}

/// Runs `pass` with the register tile of this thread's [`I8Level`].
pub(crate) fn dispatch(pass: impl I8Pass) {
    match i8_level() {
        I8Level::Portable => pass.run::<8>(tiles_portable::<8>),
        #[cfg(target_arch = "x86_64")]
        I8Level::Avx2 => pass.run::<8>(|k2, ap, bp, out| {
            // SAFETY: `i8_level` only yields levels the host supports.
            unsafe { tiles_avx2(k2, ap, bp, out) }
        }),
        #[cfg(target_arch = "x86_64")]
        I8Level::Avx512bw => pass.run::<16>(|k2, ap, bp, out| {
            // SAFETY: `i8_level` only yields levels the host supports.
            unsafe { tiles_avx512bw(k2, ap, bp, out) }
        }),
    }
}

/// Portable [`I8Tiles`]: the pair loop in plain Rust.
fn tiles_portable<const NRW: usize>(
    k2: usize,
    ap: &[i32],
    bp: &[i16],
    out: &mut [[[i32; NRW]; MR]],
) {
    let np = bp.len() / (k2 * 2 * NRW);
    for (at, row) in ap.chunks_exact(k2 * MR).zip(out.chunks_exact_mut(np)) {
        for (bq, dst) in bp.chunks_exact(k2 * 2 * NRW).zip(row) {
            let mut acc = [[0i32; NRW]; MR];
            for (a, b) in at.chunks_exact(MR).zip(bq.chunks_exact(2 * NRW)) {
                for (accr, &w) in acc.iter_mut().zip(a) {
                    let (lo, hi) = (w as i16 as i32, w >> 16);
                    for (o, bc) in accr.iter_mut().zip(b.chunks_exact(2)) {
                        *o += lo * bc[0] as i32 + hi * bc[1] as i32;
                    }
                }
            }
            *dst = acc;
        }
    }
}

/// [`I8Tiles`] on 256-bit `vpmaddwd`.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tiles_avx2(k2: usize, ap: &[i32], bp: &[i16], out: &mut [[[i32; 8]; MR]]) {
    use std::arch::x86_64::*;
    let np = bp.len() / (k2 * 16);
    for (at, row) in ap.chunks_exact(k2 * MR).zip(out.chunks_exact_mut(np)) {
        for (bq, dst) in bp.chunks_exact(k2 * 16).zip(row) {
            let mut acc = [_mm256_setzero_si256(); MR];
            for (a, b) in at.chunks_exact(MR).zip(bq.chunks_exact(16)) {
                // SAFETY: `b` is 16 halves, one unaligned 256-bit load.
                let bv = unsafe { _mm256_loadu_si256(b.as_ptr().cast()) };
                for (accr, &w) in acc.iter_mut().zip(a) {
                    *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(_mm256_set1_epi32(w), bv));
                }
            }
            for (d, accr) in dst.iter_mut().zip(&acc) {
                // SAFETY: `d` is 8 i32 lanes, one unaligned 256-bit store.
                unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), *accr) };
            }
        }
    }
}

/// [`I8Tiles`] on 512-bit `vpmaddwd`.
///
/// # Safety
///
/// The host must support AVX-512BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
unsafe fn tiles_avx512bw(k2: usize, ap: &[i32], bp: &[i16], out: &mut [[[i32; 16]; MR]]) {
    use std::arch::x86_64::*;
    let np = bp.len() / (k2 * 32);
    for (at, row) in ap.chunks_exact(k2 * MR).zip(out.chunks_exact_mut(np)) {
        for (bq, dst) in bp.chunks_exact(k2 * 32).zip(row) {
            let mut acc = [_mm512_setzero_si512(); MR];
            for (a, b) in at.chunks_exact(MR).zip(bq.chunks_exact(32)) {
                // SAFETY: `b` is 32 halves, one unaligned 512-bit load.
                let bv = unsafe { _mm512_loadu_si512(b.as_ptr().cast()) };
                for (accr, &w) in acc.iter_mut().zip(a) {
                    *accr = _mm512_add_epi32(*accr, _mm512_madd_epi16(_mm512_set1_epi32(w), bv));
                }
            }
            for (d, accr) in dst.iter_mut().zip(&acc) {
                // SAFETY: `d` is 16 i32 lanes, one unaligned 512-bit store.
                unsafe { _mm512_storeu_si512(d.as_mut_ptr().cast(), *accr) };
            }
        }
    }
}

/// Parallel blocked integer GEMM `out[m,n] = a[m,k] @ b[n,k]ᵀ` (i32,
/// overwritten), dispatched over row tiles of the deterministic
/// [`ChunkGrid`]. Bitwise-identical to [`gemm_i8_nt_ref`] at any SIMD
/// level and thread count (integer accumulation is exact; see the module
/// contract).
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`/`n`/`k`.
pub fn par_gemm_i8(a: &[i8], b: &[i8], m: usize, n: usize, k: usize, out: &mut [i32]) {
    assert_eq!(a.len(), m * k, "gemm_i8: lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_i8: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_i8: out length mismatch");
    if use_reference(m, n, k) {
        GEMM_I8_SMALL.add(1);
        gemm_i8_nt_ref(a, m, k, b, n, out);
        return;
    }
    GEMM_I8_PACKED.add(1);
    dispatch(Gemm { a, b, m, n, k, out });
}

struct Gemm<'a> {
    a: &'a [i8],
    b: &'a [i8],
    m: usize,
    n: usize,
    k: usize,
    out: &'a mut [i32],
}

impl I8Pass for Gemm<'_> {
    fn run<const NRW: usize>(self, tiles: I8Tiles<NRW>) {
        let Gemm { a, b, m, n, k, out } = self;
        let (k2, np) = (pair_steps(k), n.div_ceil(NRW));
        let bp = pack_b_pairs::<NRW>(b, k, n);
        let bp = &bp[..];
        let out_ptr = SendPtrI32(out.as_mut_ptr());
        parallel_for_chunks(ChunkGrid::new(m.div_ceil(MR), 1), |_, t0, t1| {
            // Capture the Sync wrapper, not the raw pointer field.
            let out_ptr = &out_ptr;
            let (rows0, rows1) = (t0 * MR, (t1 * MR).min(m));
            // SAFETY: chunks own disjoint tile ranges, hence disjoint rows.
            let out_rows = unsafe {
                std::slice::from_raw_parts_mut(out_ptr.0.add(rows0 * n), (rows1 - rows0) * n)
            };
            let mut ap = Vec::new();
            pack_a_pairs(&a[rows0 * k..rows1 * k], rows1 - rows0, k, &mut ap);
            let mut acc = vec![[[0i32; NRW]; MR]; np];
            for (t, at) in ap.chunks_exact(k2 * MR).enumerate() {
                tiles(k2, at, bp, &mut acc);
                let i0 = t * MR;
                for (r, orow) in out_rows.chunks_exact_mut(n).skip(i0).take(MR).enumerate() {
                    for (dst, tile) in orow.chunks_mut(NRW).zip(&acc) {
                        dst.copy_from_slice(&tile[r][..dst.len()]);
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_thread_limit;
    use rand::{Rng, SeedableRng};

    fn randvec_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| rng.gen_range(-128i32..=127) as i8)
            .collect()
    }

    // The f32 kernels' dispatch-boundary shapes, plus packed-path shapes
    // at K = 1 and odd K (the zero pair half), and enough row tiles (513)
    // that the chunk grid's 256-chunk cap gives chunks several tiles.
    const SHAPES: [(usize, usize, usize); 12] = [
        (1, 1, 1),
        (3, 9, 5),
        (8, 8, 8),
        (16, 16, 16),
        (17, 15, 9),
        (24, 33, 31),
        (25, 31, 40),
        (40, 41, 23),
        (64, 64, 1),
        (9, 70, 7),
        (33, 17, 27),
        (4099, 9, 3),
    ];

    fn reference(a: &[i8], b: &[i8], m: usize, n: usize, k: usize) -> Vec<i32> {
        let mut want = vec![2i32; m * n];
        gemm_i8_nt_ref(a, m, k, b, n, &mut want);
        want
    }

    #[test]
    fn every_simd_level_matches_reference() {
        for level in I8Level::supported() {
            for &(m, n, k) in &SHAPES {
                let a = randvec_i8(m * k, 20 + m as u64);
                let b = randvec_i8(n * k, 21 + n as u64);
                for limit in [1, 2, 5] {
                    let mut got = vec![1i32; m * n];
                    with_i8_level(level, || {
                        with_thread_limit(limit, || par_gemm_i8(&a, &b, m, n, k, &mut got))
                    });
                    let want = reference(&a, &b, m, n, k);
                    assert_eq!(got, want, "{level:?} {m}x{n}x{k} at {limit} threads");
                }
            }
            // All −128: every pair sum is −128·−128 + −128·−128 = 32768,
            // one past i16::MAX and still exact in the i32 lane.
            let (m, n, k) = (16, 40, 9);
            let (a, b) = (vec![-128i8; m * k], vec![-128i8; n * k]);
            let mut got = vec![0i32; m * n];
            with_i8_level(level, || par_gemm_i8(&a, &b, m, n, k, &mut got));
            assert!(got.iter().all(|&v| v == 9 * 128 * 128), "{level:?}");
        }
    }

    #[test]
    fn extreme_codes_do_not_overflow_within_contract() {
        // Worst-case i8 products (−128·−128) over a K well inside the
        // quantflow-proven 8-bit tap ceiling must accumulate exactly.
        let (m, n, k) = (8, 8, 4608);
        let a = vec![-128i8; m * k];
        let b = vec![-128i8; k * n];
        let mut out = vec![0i32; m * n];
        par_gemm_i8(&a, &b, m, n, k, &mut out);
        assert!(out.iter().all(|&v| v == 4608 * 128 * 128));
    }

    #[test]
    fn k_zero_yields_zeros() {
        let mut out = vec![7i32; 3 * 4];
        par_gemm_i8(&[], &[], 3, 4, 0, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn packed_words_hold_sign_extended_pairs() {
        let mut ap = Vec::new();
        pack_a_pairs(&[-1, 2, -128], 1, 3, &mut ap);
        assert_eq!(ap.len(), 2 * MR);
        assert_eq!(ap[0], word(-1, 2));
        assert_eq!((ap[0] as i16, ap[0] >> 16), (-1, 2));
        assert_eq!((ap[MR] as i16, ap[MR] >> 16), (-128, 0));
        assert!(ap[1..MR].iter().all(|&w| w == 0));
    }

    #[test]
    fn the_detected_level_is_supported_and_overridable() {
        let levels = I8Level::supported();
        assert_eq!(levels[0], I8Level::Portable);
        assert!(levels.contains(&I8Level::detect()));
        with_i8_level(I8Level::Portable, || {
            assert_eq!(i8_level(), I8Level::Portable)
        });
        assert_eq!(i8_level(), I8Level::detect());
    }
}
