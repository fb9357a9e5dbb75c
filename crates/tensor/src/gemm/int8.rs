//! Integer GEMM family for the i8 inference path: `i8 × i8 → i32`
//! accumulators on a channel-quad register tile, plus the scalar
//! references it is proven against.
//!
//! # Quad tile
//!
//! One reduction step covers four consecutive taps (for a convolution,
//! one tap position of four consecutive input channels). Each operand
//! holds a step's four codes in one 32-bit word:
//!
//! - the *row* operand (activations) holds them shifted to u8
//!   (`code ^ 0x80`, i.e. `code + 128`), `NRW` columns of words side by
//!   side, so one step of a register tile is one `NRW`-word load;
//! - the *broadcast* operand (weights) holds them as plain i8, packed
//!   `[rows][steps]` by `pack_quads`, rows padded to whole `MR`-row
//!   tiles. Taps and rows past the end hold 0.
//!
//! A step adds, for each of the `MR` rows, the four-byte dot of the row's
//! broadcast word with every column's word into that column's i32 lane:
//! one `vpdpbusd` at [`I8Level::Avx512Vnni`], and otherwise the bytes
//! widened to i16 pairs for two `vpmaddwd` (or a plain loop). A tile can
//! also return each column's u8 byte sum, from the same loads. A
//! convolution's tile store then requantizes the tile, adds a residual,
//! applies a ReLU and folds the stored values into their range, all
//! before they leave the registers.
//!
//! # Determinism contract
//!
//! With `u = x + 128` a tile row holds `Σ u·w = Σ x·w + 128·Σ w`, so the
//! stored-code dot is that minus `128·Σw` of the row (`Quads::unshift`).
//! Both steps run in wrapping i32, which is exact whenever the stored dot
//! itself fits in i32: the wrapped sum is congruent to it modulo `2³²`.
//! The stored dot fits by the caller's contract: the quantflow pass
//! (`cq-check`) statically proves `K·(2^q−1)² + (2^q−1) ≤ i32::MAX` for
//! every built-in config at the integer-inference bit-widths, and
//! `cq-infer` re-asserts the same shared formula
//! (`cq_quant::intmath::acc_fits_i32`) at model-conversion time. Integer
//! addition is associative, so within that contract every tiling, lane
//! grouping and thread split here gives the scalar references' `i32`
//! bits, at every SIMD level and thread count — pinned by the equivalence
//! tests below and the `int8_thread_determinism` proptests.
//!
//! # SIMD dispatch
//!
//! The tile variant is chosen by [`I8Level`], detected independently of
//! the f32 kernels' level: the 512-bit integer multiplies need AVX-512BW,
//! and `vpdpbusd` AVX-512 VNNI, neither of which AVX-512F implies. Under
//! Miri only the portable variant runs.
//!
//! # Layouts
//!
//! The packed entry point [`par_gemm_i8`] has one layout, the f32 `Nt`:
//! linear layers as `acts[N,K] @ weights[O,K]ᵀ`. Convolutions do not
//! call it: [`super::conv::conv2d_i8`] lays the activations out as
//! padded channel quads once per call, and the tile reads them there.
//! [`gemm_i8_nn_ref`] remains as the scalar `Nn` product inside the
//! per-sample convolution oracle. There is no backward pass through the
//! integer path, so `Tn` has no i8 counterpart.

use super::conv::{Clamp, OutRange};
use super::{use_reference, MR};
use crate::par::{parallel_for_chunks, ChunkGrid};
use std::cell::Cell;
use std::sync::OnceLock;

// Dispatch telemetry, mirroring the f32 counters: shape-driven only, so
// totals are thread-count-invariant under the cq-trace diff gate.
pub(crate) static GEMM_I8_PACKED: cq_obs::Counter =
    cq_obs::Counter::new("tensor.gemm_i8.packed_calls");
static GEMM_I8_SMALL: cq_obs::Counter = cq_obs::Counter::new("tensor.gemm_i8.small_calls");

/// Register-tile variant of the i8 kernels. Affects speed only: every
/// level produces the same bits (see the module contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum I8Level {
    /// Plain-Rust byte loop, 8 columns per tile.
    Portable,
    /// `_mm256_madd_epi16` on i16-widened bytes, 8 columns per tile.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `_mm512_madd_epi16` on i16-widened bytes, 16 columns per tile.
    #[cfg(target_arch = "x86_64")]
    Avx512bw,
    /// `_mm512_dpbusd_epi32` (`vpdpbusd`), 16 columns per tile, with an
    /// AVX-512DQ requantizing epilogue.
    #[cfg(target_arch = "x86_64")]
    Avx512Vnni,
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
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                levels.push(I8Level::Avx2);
            }
            if has!("avx512bw") {
                levels.push(I8Level::Avx512bw);
            }
            if has!("avx512f")
                && has!("avx512bw")
                && has!("avx512dq")
                && has!("avx512vl")
                && has!("avx512vnni")
            {
                levels.push(I8Level::Avx512Vnni);
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

/// A stored i8 code as the row operand's u8 byte, `code + 128`.
#[inline(always)]
pub(crate) fn shifted(code: i8) -> u32 {
    u32::from(code as u8 ^ 0x80)
}

/// The broadcast operand of the quad tile: see [`pack_quads`].
pub(crate) struct Quads {
    /// `[⌈m/MR⌉·MR][steps]` words of four i8 codes.
    pub(crate) words: Vec<u32>,
    /// Per row (padded to whole tiles), `128·Σ codes` in wrapping i32: what
    /// the u8 shift of the row operand adds to the row's dot.
    pub(crate) unshift: Vec<i32>,
    /// Quad steps per row.
    pub(crate) steps: usize,
}

impl Quads {
    /// Each row tile's words (`[MR][steps]`) and unshift terms.
    pub(crate) fn tiles(&self) -> impl Iterator<Item = (&[u32], &[i32])> {
        self.words
            .chunks_exact(MR * self.steps)
            .zip(self.unshift.chunks_exact(MR))
    }
}

/// Packs the `m` rows of `a: [m, c·taps]`, each `c` channels of `taps`
/// codes, as quad-tile words: word `q·taps + t` of a row holds tap `t` of
/// channels `4q..4q + 4`, byte `i` from channel `4q + i`, and 0 for
/// channels past `c`. Rows past `m`, up to a whole tile, are zero. A
/// GEMM row of `k` codes is `k` channels of one tap.
///
/// # Panics
///
/// Panics if `c·taps` is zero.
pub(crate) fn pack_quads(a: &[i8], m: usize, c: usize, taps: usize) -> Quads {
    let steps = c.div_ceil(4) * taps;
    let rows = m.div_ceil(MR) * MR;
    let mut words = vec![0u32; rows * steps];
    let mut unshift = vec![0i32; rows];
    let dst = words.chunks_exact_mut(steps).zip(&mut unshift);
    for (row, (dst, u)) in a.chunks_exact(c * taps).take(m).zip(dst) {
        let sum = row.iter().fold(0i32, |s, &v| s.wrapping_add(i32::from(v)));
        *u = sum.wrapping_mul(128);
        for (q, quad) in dst.chunks_exact_mut(taps).enumerate() {
            let chans = 4 * q..(4 * q + 4).min(c);
            for (t, w) in quad.iter_mut().enumerate() {
                let byte = |ch: usize| u32::from(row[ch * taps + t] as u8);
                *w = chans.clone().rev().fold(0, |w, ch| w << 8 | byte(ch));
            }
        }
    }
    Quads {
        words,
        unshift,
        steps,
    }
}

/// One register tile: for every row `r < MR` and column `c < NRW`,
/// `acc[r][c] = Σ_t dot4(src[offs[t] + c], w[r][t])` in wrapping i32, where
/// `dot4` multiplies the four u8 bytes of the row-operand word with the
/// four i8 bytes of the broadcast word `w[r·steps + t]`. With `sums`, also
/// `sums[c] = Σ_t` (the byte sum of `src[offs[t] + c]`).
///
/// # Panics
///
/// Panics if `w` is not `MR·offs.len()` words or a row
/// `src[offs[t]..offs[t] + NRW]` is out of bounds.
pub(crate) type I8Tile<const NRW: usize> =
    fn(&[u32], &[usize], &[u32], Option<&mut [i32; NRW]>, &mut [[i32; NRW]; MR]);

/// The per-row terms of a convolution's requantizing epilogue.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RowTerms {
    /// The row's [`Quads::unshift`].
    pub(crate) unshift: i32,
    /// The exact column-independent correction (`Requant::row_corr`).
    pub(crate) corr: i64,
    /// Output multiplier.
    pub(crate) scale: f32,
    /// Output offset, added after the multiply.
    pub(crate) shift: f32,
}

/// How a convolution's tile store finishes a requantized tile.
#[derive(Clone, Copy)]
pub(crate) struct Tail<'a, const NRW: usize> {
    /// The residual addend at the tile's output positions.
    pub(crate) add: Option<&'a [[f32; NRW]; MR]>,
    /// The activation applied after the add.
    pub(crate) clamp: Clamp,
    /// The tile's real output rows and columns: the only ones stored, and
    /// so the only ones folded into the range.
    pub(crate) rows: usize,
    pub(crate) lanes: usize,
}

/// The requantizing epilogue of one register tile:
/// `vals[r][c] = clamp(scale·(i64(acc[r][c] − unshift) + corr + cols[c]) as f32
/// + shift + add[r][c])` with the terms of `rows[r]`, the integer terms
///   summed exactly in i64 and rounded to f32 once, then the real rows and
///   columns folded into `range`.
pub(crate) type I8Requant<const NRW: usize> = fn(
    &[[i32; NRW]; MR],
    &[RowTerms],
    &[i64; NRW],
    Tail<'_, NRW>,
    &mut LaneRange<NRW>,
    &mut [[f32; NRW]; MR],
);

/// The kernels of one [`I8Level`].
pub(crate) struct I8Kernels<const NRW: usize> {
    pub(crate) tile: I8Tile<NRW>,
    pub(crate) requant: I8Requant<NRW>,
}

/// An i8 kernel pass, generic over the register tile's width.
pub(crate) trait I8Pass {
    type Out;
    fn run<const NRW: usize>(self, kernels: I8Kernels<NRW>) -> Self::Out;
}

/// Runs `pass` with the kernels of this thread's [`I8Level`].
pub(crate) fn dispatch<P: I8Pass>(pass: P) -> P::Out {
    match i8_level() {
        I8Level::Portable => pass.run::<8>(I8Kernels {
            tile: tile_portable::<8>,
            requant: requant_body::<8>,
        }),
        #[cfg(target_arch = "x86_64")]
        I8Level::Avx2 => pass.run::<8>(I8Kernels {
            tile: |src, offs, w, sums, acc| {
                // SAFETY: `i8_level` only yields levels the host supports.
                unsafe { tile_avx2(src, offs, w, sums, acc) }
            },
            requant: requant_body::<8>,
        }),
        #[cfg(target_arch = "x86_64")]
        I8Level::Avx512bw => pass.run::<16>(I8Kernels {
            tile: |src, offs, w, sums, acc| {
                // SAFETY: `i8_level` only yields levels the host supports.
                unsafe { tile_avx512bw(src, offs, w, sums, acc) }
            },
            requant: requant_body::<16>,
        }),
        #[cfg(target_arch = "x86_64")]
        I8Level::Avx512Vnni => pass.run::<16>(I8Kernels {
            tile: |src, offs, w, sums, acc| {
                // SAFETY: `i8_level` only yields levels the host supports.
                unsafe { tile_vnni(src, offs, w, sums, acc) }
            },
            requant: |acc, rows, cols, tail, range, vals| {
                // SAFETY: as above; the VNNI level implies AVX-512DQ.
                unsafe { requant_avx512dq(acc, rows, cols, tail, range, vals) }
            },
        }),
    }
}

/// The `MR` rows of a tile's broadcast words (`[MR][steps]`).
///
/// # Panics
///
/// Panics if `w` is not `MR·steps` words.
#[inline(always)]
fn weight_rows(w: &[u32], steps: usize) -> [&[u32]; MR] {
    assert_eq!(w.len(), MR * steps, "i8 tile: weight tile length");
    std::array::from_fn(|r| &w[r * steps..(r + 1) * steps])
}

/// Portable [`I8Tile`]: the byte loop in plain Rust.
fn tile_portable<const NRW: usize>(
    src: &[u32],
    offs: &[usize],
    w: &[u32],
    sums: Option<&mut [i32; NRW]>,
    acc: &mut [[i32; NRW]; MR],
) {
    let w = weight_rows(w, offs.len());
    *acc = [[0; NRW]; MR];
    let mut s = [0i32; NRW];
    for (t, &off) in offs.iter().enumerate() {
        let row = &src[off..off + NRW];
        for (accr, wr) in acc.iter_mut().zip(&w) {
            let q = wr[t].to_le_bytes().map(|b| i32::from(b as i8));
            for (a, &u) in accr.iter_mut().zip(row) {
                let u = u.to_le_bytes().map(i32::from);
                let d = u[0] * q[0] + u[1] * q[1] + u[2] * q[2] + u[3] * q[3];
                *a = a.wrapping_add(d);
            }
        }
        for (s, &u) in s.iter_mut().zip(row) {
            *s = s.wrapping_add(u.to_le_bytes().iter().map(|&b| i32::from(b)).sum::<i32>());
        }
    }
    if let Some(sums) = sums {
        *sums = s;
    }
}

/// [`I8Tile`] on 256-bit `vpmaddwd`: each word's even and odd bytes
/// widened to i16 lanes, two multiplies per step and row.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(
    src: &[u32],
    offs: &[usize],
    w: &[u32],
    sums: Option<&mut [i32; 8]>,
    acc: &mut [[i32; 8]; MR],
) {
    use std::arch::x86_64::*;
    let w = weight_rows(w, offs.len());
    let (even, ones) = (_mm256_set1_epi16(0xff), _mm256_set1_epi16(1));
    let mut a = [_mm256_setzero_si256(); MR];
    let mut s = _mm256_setzero_si256();
    for (t, &off) in offs.iter().enumerate() {
        let row = &src[off..off + 8];
        // SAFETY: `row` is 8 words, one unaligned 256-bit load.
        let v = unsafe { _mm256_loadu_si256(row.as_ptr().cast()) };
        let (ve, vo) = (_mm256_and_si256(v, even), _mm256_srli_epi16::<8>(v));
        for (ar, wr) in a.iter_mut().zip(&w) {
            let wb = _mm256_set1_epi32(wr[t] as i32);
            let we = _mm256_srai_epi16::<8>(_mm256_slli_epi16::<8>(wb));
            let wo = _mm256_srai_epi16::<8>(wb);
            let d = _mm256_add_epi32(_mm256_madd_epi16(ve, we), _mm256_madd_epi16(vo, wo));
            *ar = _mm256_add_epi32(*ar, d);
        }
        s = _mm256_add_epi32(s, _mm256_madd_epi16(_mm256_add_epi16(ve, vo), ones));
    }
    for (d, ar) in acc.iter_mut().zip(&a) {
        // SAFETY: `d` is 8 i32 lanes, one unaligned 256-bit store.
        unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), *ar) };
    }
    if let Some(sums) = sums {
        // SAFETY: as above.
        unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), s) };
    }
}

/// [`I8Tile`] on 512-bit `vpmaddwd`, as [`tile_avx2`] at 16 columns.
///
/// # Safety
///
/// The host must support AVX-512BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
unsafe fn tile_avx512bw(
    src: &[u32],
    offs: &[usize],
    w: &[u32],
    sums: Option<&mut [i32; 16]>,
    acc: &mut [[i32; 16]; MR],
) {
    use std::arch::x86_64::*;
    let w = weight_rows(w, offs.len());
    let (even, ones) = (_mm512_set1_epi16(0xff), _mm512_set1_epi16(1));
    let mut a = [_mm512_setzero_si512(); MR];
    let mut s = _mm512_setzero_si512();
    for (t, &off) in offs.iter().enumerate() {
        let row = &src[off..off + 16];
        // SAFETY: `row` is 16 words, one unaligned 512-bit load.
        let v = unsafe { _mm512_loadu_si512(row.as_ptr().cast()) };
        let (ve, vo) = (_mm512_and_si512(v, even), _mm512_srli_epi16::<8>(v));
        for (ar, wr) in a.iter_mut().zip(&w) {
            let wb = _mm512_set1_epi32(wr[t] as i32);
            let we = _mm512_srai_epi16::<8>(_mm512_slli_epi16::<8>(wb));
            let wo = _mm512_srai_epi16::<8>(wb);
            let d = _mm512_add_epi32(_mm512_madd_epi16(ve, we), _mm512_madd_epi16(vo, wo));
            *ar = _mm512_add_epi32(*ar, d);
        }
        s = _mm512_add_epi32(s, _mm512_madd_epi16(_mm512_add_epi16(ve, vo), ones));
    }
    for (d, ar) in acc.iter_mut().zip(&a) {
        // SAFETY: `d` is 16 i32 lanes, one unaligned 512-bit store.
        unsafe { _mm512_storeu_si512(d.as_mut_ptr().cast(), *ar) };
    }
    if let Some(sums) = sums {
        // SAFETY: as above.
        unsafe { _mm512_storeu_si512(sums.as_mut_ptr().cast(), s) };
    }
}

/// [`I8Tile`] on `vpdpbusd`: one instruction per step and row, and one
/// against `0x01010101` per step for the column sums when asked.
///
/// # Safety
///
/// The host must support AVX-512F and AVX-512 VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn tile_vnni(
    src: &[u32],
    offs: &[usize],
    w: &[u32],
    sums: Option<&mut [i32; 16]>,
    acc: &mut [[i32; 16]; MR],
) {
    // The sums are asked for once per column panel, so they get their own
    // instantiation rather than a branch per step.
    match sums {
        Some(sums) => vnni_steps::<true>(src, offs, w, sums, acc),
        None => vnni_steps::<false>(src, offs, w, &mut [0; 16], acc),
    }
}

/// The loop of [`tile_vnni`], with the column sums iff `SUMS`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
fn vnni_steps<const SUMS: bool>(
    src: &[u32],
    offs: &[usize],
    w: &[u32],
    sums: &mut [i32; 16],
    acc: &mut [[i32; 16]; MR],
) {
    use std::arch::x86_64::*;
    let w = weight_rows(w, offs.len());
    let mut a = [_mm512_setzero_si512(); MR];
    let mut s = _mm512_setzero_si512();
    let ones = _mm512_set1_epi8(1);
    for (t, &off) in offs.iter().enumerate() {
        let row = &src[off..off + 16];
        // SAFETY: `row` is 16 words, one unaligned 512-bit load.
        let v = unsafe { _mm512_loadu_si512(row.as_ptr().cast()) };
        for (ar, wr) in a.iter_mut().zip(&w) {
            *ar = _mm512_dpbusd_epi32(*ar, v, _mm512_set1_epi32(wr[t] as i32));
        }
        if SUMS {
            s = _mm512_dpbusd_epi32(s, v, ones);
        }
    }
    for (d, ar) in acc.iter_mut().zip(&a) {
        // SAFETY: `d` is 16 i32 lanes, one unaligned 512-bit store.
        unsafe { _mm512_storeu_si512(d.as_mut_ptr().cast(), *ar) };
    }
    if SUMS {
        // SAFETY: as above.
        unsafe { _mm512_storeu_si512(sums.as_mut_ptr().cast(), s) };
    }
}

/// [`I8Requant`] per element.
fn requant_body<const NRW: usize>(
    acc: &[[i32; NRW]; MR],
    rows: &[RowTerms],
    cols: &[i64; NRW],
    tail: Tail<'_, NRW>,
    range: &mut LaneRange<NRW>,
    vals: &mut [[f32; NRW]; MR],
) {
    for ((v, a), t) in vals.iter_mut().zip(acc).zip(rows) {
        for ((v, &a), &c) in v.iter_mut().zip(a).zip(cols) {
            *v = t.scale * (i64::from(a.wrapping_sub(t.unshift)) + t.corr + c) as f32 + t.shift;
        }
    }
    for (r, v) in vals.iter_mut().enumerate().take(tail.rows) {
        if let Some(add) = tail.add {
            for (v, &a) in v.iter_mut().zip(&add[r]) {
                *v += a;
            }
        }
        match tail.clamp {
            Clamp::None => {}
            Clamp::Relu => v.iter_mut().for_each(|v| *v = Clamp::Relu.apply(*v)),
            Clamp::Relu6 => v.iter_mut().for_each(|v| *v = Clamp::Relu6.apply(*v)),
        }
        range.fold(v, tail.lanes);
    }
}

/// [`I8Requant`] at 16 columns: `vpsubd`, `vpmovsxdq`, two `vpaddq`,
/// `vcvtqq2ps`, then the multiply and the add as separate roundings, in
/// the scalar order; the residual add, the clamp (`vmaxps`/`vminps` with
/// the constant second, which is `Clamp::apply` for NaN and `±0` too) and
/// the range fold under the real-lane mask, all in registers.
///
/// # Safety
///
/// The host must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn requant_avx512dq(
    acc: &[[i32; 16]; MR],
    rows: &[RowTerms],
    cols: &[i64; 16],
    tail: Tail<'_, 16>,
    range: &mut LaneRange<16>,
    vals: &mut [[f32; 16]; MR],
) {
    use std::arch::x86_64::*;
    // SAFETY: `cols` is 16 i64 lanes, two unaligned 512-bit loads.
    let (cl, ch) = unsafe {
        (
            _mm512_loadu_si512(cols.as_ptr().cast()),
            _mm512_loadu_si512(cols[8..].as_ptr().cast()),
        )
    };
    let (zero, six) = (_mm512_setzero_ps(), _mm512_set1_ps(6.0));
    let real: __mmask16 = if tail.lanes >= 16 {
        !0
    } else {
        (1 << tail.lanes) - 1
    };
    // SAFETY: each range array is 16 lanes, one unaligned 512-bit load.
    let (mut lo, mut hi, mut bad) = unsafe {
        (
            _mm512_loadu_ps(range.lo.as_ptr()),
            _mm512_loadu_ps(range.hi.as_ptr()),
            _mm512_loadu_si512(range.nonfinite.as_ptr().cast()),
        )
    };
    for (r, ((v, a), t)) in vals.iter_mut().zip(acc).zip(rows).enumerate() {
        // SAFETY: `a` is 16 i32 lanes, one unaligned 512-bit load.
        let a = unsafe { _mm512_loadu_si512(a.as_ptr().cast()) };
        let d = _mm512_sub_epi32(a, _mm512_set1_epi32(t.unshift));
        let corr = _mm512_set1_epi64(t.corr);
        let l = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(d));
        let h = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(d));
        let l = _mm512_cvtepi64_ps(_mm512_add_epi64(_mm512_add_epi64(l, corr), cl));
        let h = _mm512_cvtepi64_ps(_mm512_add_epi64(_mm512_add_epi64(h, corr), ch));
        let f = _mm512_insertf32x8::<1>(_mm512_castps256_ps512(l), h);
        let mut y = _mm512_add_ps(
            _mm512_mul_ps(f, _mm512_set1_ps(t.scale)),
            _mm512_set1_ps(t.shift),
        );
        if let Some(add) = tail.add {
            // SAFETY: `add[r]` is 16 f32 lanes, one unaligned 512-bit load.
            y = _mm512_add_ps(y, unsafe { _mm512_loadu_ps(add[r].as_ptr()) });
        }
        // `vmaxps(y, 0)` is `y > 0 ? y : 0` (NaN and −0 give +0), and
        // `vminps(6, vmaxps(0, y))` keeps NaN and −0, as `Clamp::apply`.
        y = match tail.clamp {
            Clamp::None => y,
            Clamp::Relu => _mm512_max_ps(y, zero),
            Clamp::Relu6 => _mm512_min_ps(six, _mm512_max_ps(zero, y)),
        };
        // SAFETY: `v` is 16 f32 lanes, one unaligned 512-bit store.
        unsafe { _mm512_storeu_ps(v.as_mut_ptr(), y) };
        if r < tail.rows {
            // Ordered `|y| < ∞`: false for NaN and ±∞.
            let abs = _mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(y),
                _mm512_set1_epi32(i32::MAX),
            ));
            let finite =
                _mm512_mask_cmp_ps_mask::<_CMP_LT_OQ>(real, abs, _mm512_set1_ps(f32::INFINITY));
            bad = _mm512_mask_mov_epi32(bad, real & !finite, _mm512_set1_epi32(1));
            lo = _mm512_mask_min_ps(lo, finite, lo, y);
            hi = _mm512_mask_max_ps(hi, finite, hi, y);
        }
    }
    // SAFETY: as for the loads.
    unsafe {
        _mm512_storeu_ps(range.lo.as_mut_ptr(), lo);
        _mm512_storeu_ps(range.hi.as_mut_ptr(), hi);
        _mm512_storeu_si512(range.nonfinite.as_mut_ptr().cast(), bad);
    }
}

/// Per-lane range of the values a chunk of tiles stored: lane `c` folds
/// column `c` of every tile, over its finite values, as the range scan of
/// `cq_quant` does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneRange<const L: usize> {
    lo: [f32; L],
    hi: [f32; L],
    nonfinite: [u32; L],
}

impl<const L: usize> LaneRange<L> {
    pub(crate) fn new() -> Self {
        LaneRange {
            lo: [f32::INFINITY; L],
            hi: [f32::NEG_INFINITY; L],
            nonfinite: [0; L],
        }
    }

    /// Folds lanes `..lanes` of `v`. Compare-selects on finite values
    /// only, so a NaN never reaches them.
    #[inline(always)]
    pub(crate) fn fold(&mut self, v: &[f32; L], lanes: usize) {
        for (c, &x) in v.iter().enumerate() {
            let real = c < lanes;
            let finite = x.abs() < f32::INFINITY;
            self.nonfinite[c] |= u32::from(real && !finite);
            let (l, h) = if real && finite {
                (x, x)
            } else {
                (f32::INFINITY, f32::NEG_INFINITY)
            };
            self.lo[c] = if l < self.lo[c] { l } else { self.lo[c] };
            self.hi[c] = if h > self.hi[c] { h } else { self.hi[c] };
        }
    }

    /// The merged lanes.
    pub(crate) fn finish(&self) -> OutRange {
        (0..L).fold(OutRange::EMPTY, |r, c| {
            r.merge(OutRange {
                lo: self.lo[c],
                hi: self.hi[c],
                finite: self.nonfinite[c] == 0,
            })
        })
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
    type Out = ();

    fn run<const NRW: usize>(self, kernels: I8Kernels<NRW>) {
        let Gemm { a, b, m, n, k, out } = self;
        let steps = k.div_ceil(4);
        // B as the row operand: `[⌈n/NRW⌉][steps][NRW]` shifted words, zero
        // past `k` and `n`.
        let mut bp = vec![0u32; n.div_ceil(NRW) * steps * NRW];
        for (j, col) in b.chunks_exact(k).enumerate() {
            let panel = &mut bp[(j / NRW) * steps * NRW..][..steps * NRW];
            for (w, quad) in panel
                .iter_mut()
                .skip(j % NRW)
                .step_by(NRW)
                .zip(col.chunks(4))
            {
                *w = quad.iter().rev().fold(0, |w, &v| w << 8 | shifted(v));
            }
        }
        let bp = &bp[..];
        let offs: Vec<usize> = (0..steps).map(|t| t * NRW).collect();
        let out_ptr = SendPtrI32(out.as_mut_ptr());
        parallel_for_chunks(ChunkGrid::new(m.div_ceil(MR), 1), |_, t0, t1| {
            // Capture the Sync wrapper, not the raw pointer field.
            let out_ptr = &out_ptr;
            let (rows0, rows1) = (t0 * MR, (t1 * MR).min(m));
            // SAFETY: chunks own disjoint tile ranges, hence disjoint rows.
            let out_rows = unsafe {
                std::slice::from_raw_parts_mut(out_ptr.0.add(rows0 * n), (rows1 - rows0) * n)
            };
            let aq = pack_quads(&a[rows0 * k..rows1 * k], rows1 - rows0, k, 1);
            let mut acc = [[0i32; NRW]; MR];
            for ((wt, unshift), rows) in aq.tiles().zip(out_rows.chunks_mut(MR * n)) {
                for (panel, j0) in bp.chunks_exact(steps * NRW).zip((0..n).step_by(NRW)) {
                    (kernels.tile)(panel, &offs, wt, None, &mut acc);
                    for ((orow, tile), &u) in rows.chunks_exact_mut(n).zip(&acc).zip(unshift) {
                        for (dst, &v) in orow[j0..].iter_mut().zip(tile) {
                            *dst = v.wrapping_sub(u);
                        }
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
    // at K = 1 and K not a multiple of 4 (a partial last quad), and enough
    // row tiles (513) that the chunk grid's 256-chunk cap gives chunks
    // several tiles.
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
                for limit in [1, 2, 5, 8] {
                    let mut got = vec![1i32; m * n];
                    with_i8_level(level, || {
                        with_thread_limit(limit, || par_gemm_i8(&a, &b, m, n, k, &mut got))
                    });
                    let want = reference(&a, &b, m, n, k);
                    assert_eq!(got, want, "{level:?} {m}x{n}x{k} at {limit} threads");
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "K = 4608 is slow interpreted")]
    fn extreme_codes_stay_exact_at_every_level() {
        // ResNet-18's widest tap count, with the shifted operand (`b`) at
        // both ends of the u8 range: 127 (u8 255) against −128 gives the
        // largest u8 dot, and −128 (u8 0) against 127 leaves the whole dot
        // to the −128·Σa unshift. At K = 66000 the u8 dot of the first
        // pair wraps i32 while the stored dot still fits: the wrapping
        // steps must give it back exactly.
        for (av, bv, k) in [
            (-128i8, 127i8, 4608),
            (127, -128, 4608),
            (-128, -128, 4608),
            (-128, 127, 66_000),
        ] {
            let (m, n) = (9, 17);
            let (a, b) = (vec![av; m * k], vec![bv; n * k]);
            let want = k as i32 * i32::from(av) * i32::from(bv);
            for level in I8Level::supported() {
                let mut out = vec![0i32; m * n];
                with_i8_level(level, || par_gemm_i8(&a, &b, m, n, k, &mut out));
                assert!(out.iter().all(|&v| v == want), "{level:?} {av}·{bv}");
            }
        }
    }

    #[test]
    fn k_zero_yields_zeros() {
        let mut out = vec![7i32; 3 * 4];
        par_gemm_i8(&[], &[], 3, 4, 0, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn quads_hold_four_taps_per_word_and_the_row_unshift() {
        // Two rows of k = 5: two steps, the second with one real tap.
        let a = [-1i8, 2, -128, 127, 5, 1, 1, 1, 1, 1];
        let q = pack_quads(&a, 2, 5, 1);
        assert_eq!(q.words.len(), MR * 2);
        assert_eq!(q.words[0].to_le_bytes(), [0xff, 2, 0x80, 0x7f]);
        assert_eq!(q.words[1].to_le_bytes(), [5, 0, 0, 0]);
        assert_eq!(q.words[2], u32::from_le_bytes([1; 4]));
        assert!(q.words[4..].iter().all(|&w| w == 0));
        assert_eq!(&q.unshift[..3], &[128 * 5, 128 * 5, 0]);
        // A conv row of 5 channels × 2 taps: steps (quad 0, tap 0..2) then
        // (quad 1, tap 0..2), channel 4 alone in byte 0 of quad 1.
        let w: Vec<i8> = (0..10).collect();
        let q = pack_quads(&w, 1, 5, 2);
        let bytes: Vec<[u8; 4]> = q.words[..4].iter().map(|w| w.to_le_bytes()).collect();
        assert_eq!(
            bytes,
            [[0, 2, 4, 6], [1, 3, 5, 7], [8, 0, 0, 0], [9, 0, 0, 0]]
        );
        assert_eq!(shifted(-128), 0);
        assert_eq!(shifted(127), 255);
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
