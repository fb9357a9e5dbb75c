//! The elementwise quantization kernel: range scan, grid projection and
//! i8 code emission, each written once and compiled at every
//! [`SimdLevel`] the host runs.
//!
//! # Bitwise contract
//!
//! Every level produces the same bits as the per-element scalar rule it
//! vectorizes (pinned against a scalar oracle by the tests below):
//!
//! - **Range scan.** Each lane folds its own `(lo, hi, finite)` partial
//!   and the partials merge through [`RangeScan::merge`], whose docs show
//!   that any merge order yields the same quantized bits.
//! - **Projection.** `step * round_half_away(v / step)` is one IEEE
//!   division, one rounding and one multiply per element. Vector
//!   division is correctly rounded like the scalar one (no reciprocal
//!   multiply), Rust never contracts the multiply into an FMA, and under
//!   `#[target_feature]` LLVM lowers `f32::round` to
//!   `trunc(x + copysign(0.5 − ulp, x))` (`vroundps`/`vrndscaleps`),
//!   which is exact. `floor` is a native rounding mode.
//! - **i8 codes.** The rounded code is clamped in the f32 domain to
//!   `[zp − 128, zp + 127]` — integers far below 2^24, so the clamp and
//!   the following `− zp` are exact — before one in-range convert.
//!   NaN maps to true code 0, as the saturating `as i32` it replaced did.
//!
//! # Dispatch
//!
//! A kernel body implements `cq_tensor::simd::Body` with
//! `#[inline(always)]`, so each `#[target_feature]` entry of the shared
//! `cq_tensor::simd::dispatch` compiles it at that width: 16 lanes at
//! AVX-512F, 8 at AVX2, and 8 for the portable instantiation (the only
//! one Miri runs). The level comes from [`SimdLevel::detect`], the same
//! detection the f32 GEMM kernels use.

use cq_tensor::simd::{dispatch, Body, SimdLevel};
use cq_tensor::QuadGeom;

use crate::intmath::round_half_away;
use crate::{QuantMode, RangeScan};

/// Per-lane range-scan state: lane `i` folds elements `i`, `i + L`, ….
struct Lanes<const L: usize> {
    lo: [f32; L],
    hi: [f32; L],
    nonfinite: [u32; L],
}

impl<const L: usize> Lanes<L> {
    #[inline(always)]
    fn new() -> Self {
        Lanes {
            lo: [f32::INFINITY; L],
            hi: [f32::NEG_INFINITY; L],
            nonfinite: [0; L],
        }
    }

    /// Folds `v` into lane `i`. A non-finite `v` only clears the lane's
    /// finiteness: `lo`/`hi` range over the finite values, so the
    /// compare-selects below never see a NaN.
    #[inline(always)]
    fn fold(&mut self, i: usize, v: f32) {
        let finite = v.abs() < f32::INFINITY;
        self.nonfinite[i] |= u32::from(!finite);
        let (l, h) = if finite {
            (v, v)
        } else {
            (f32::INFINITY, f32::NEG_INFINITY)
        };
        self.lo[i] = if l < self.lo[i] { l } else { self.lo[i] };
        self.hi[i] = if h > self.hi[i] { h } else { self.hi[i] };
    }

    fn finish(self) -> RangeScan {
        let mut scan = RangeScan::new();
        for i in 0..L {
            scan.merge(RangeScan {
                lo: self.lo[i],
                hi: self.hi[i],
                finite: self.nonfinite[i] == 0,
            });
        }
        scan
    }
}

/// [`RangeScan::scan`] of a slice.
pub(crate) struct Scan<'a>(pub(crate) &'a [f32]);

impl Body for Scan<'_> {
    type Out = RangeScan;
    #[inline(always)]
    fn run<const L: usize>(self) -> RangeScan {
        let mut lanes = Lanes::<L>::new();
        let mut blocks = self.0.chunks_exact(L);
        for b in &mut blocks {
            for (i, &v) in b.iter().enumerate() {
                lanes.fold(i, v);
            }
        }
        for (i, &v) in blocks.remainder().iter().enumerate() {
            lanes.fold(i, v);
        }
        lanes.finish()
    }
}

/// Maps every element through `f` in place, scanning the results in the
/// same pass ([`RangeScan::map_scan`]).
pub(crate) struct MapScan<'a, F>(pub(crate) &'a mut [f32], pub(crate) F);

impl<F: Fn(f32) -> f32> Body for MapScan<'_, F> {
    type Out = RangeScan;
    #[inline(always)]
    fn run<const L: usize>(self) -> RangeScan {
        let MapScan(data, f) = self;
        let mut lanes = Lanes::<L>::new();
        let mut blocks = data.chunks_exact_mut(L);
        for b in &mut blocks {
            for (i, v) in b.iter_mut().enumerate() {
                *v = f(*v);
                lanes.fold(i, *v);
            }
        }
        for (i, v) in blocks.into_remainder().iter_mut().enumerate() {
            *v = f(*v);
            lanes.fold(i, *v);
        }
        lanes.finish()
    }
}

/// The Eq. 10 grid projection `step · round(v / step)` (or `floor`), in
/// place.
pub(crate) struct Project<'a> {
    pub(crate) data: &'a mut [f32],
    pub(crate) step: f32,
    pub(crate) mode: QuantMode,
}

impl Body for Project<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const L: usize>(self) {
        let Project { data, step, mode } = self;
        match mode {
            QuantMode::Round => {
                for v in data.iter_mut() {
                    *v = step * round_half_away(*v / step);
                }
            }
            QuantMode::Floor => {
                for v in data.iter_mut() {
                    *v = step * (*v / step).floor();
                }
            }
        }
    }
}

/// Largest zero-point magnitude [`emit_i8_codes`] accepts. An 8-bit
/// grid's zero point lies in `-127..=128`; the bound only has to keep the
/// stored window's ends exact in f32.
const MAX_ZP: u32 = 1 << 23;

/// The stored-code rule of a grid `(step, zp)`:
/// `clamp(round(v / step) − zp, −128, 127)`, with NaN at true code 0.
#[derive(Clone, Copy)]
struct Codes {
    step: f32,
    zp: f32,
    /// The stored window's ends as true codes, `zp − 128` and `zp + 127`.
    cmin: f32,
    cmax: f32,
}

impl Codes {
    /// # Panics
    ///
    /// Panics if `|zp| > 2^23`.
    #[inline(always)]
    fn new(step: f32, zp: i32) -> Codes {
        // Keeps `zp − 128`, `zp + 127` and `zp` exact in f32, which the
        // unchecked converts below rely on.
        assert!(
            zp.unsigned_abs() <= MAX_ZP,
            "emit_i8_codes: zero point {zp} outside ±2^23"
        );
        Codes {
            step,
            zp: zp as f32,
            cmin: (zp - 128) as f32,
            cmax: (zp + 127) as f32,
        }
    }

    /// The true code of `v` clamped to the stored window, as an exact
    /// integer-valued f32.
    #[inline(always)]
    fn clamped(self, v: f32) -> f32 {
        let r = round_half_away(v / self.step);
        let r = if r.is_nan() { 0.0 } else { r };
        self.clamp(r)
    }

    /// An integer-valued `r` clamped to the stored window.
    #[inline(always)]
    fn clamp(self, r: f32) -> f32 {
        if r < self.cmin {
            self.cmin
        } else if r > self.cmax {
            self.cmax
        } else {
            r
        }
    }

    /// The stored code of `v`, `clamped(v) − zp`.
    #[inline(always)]
    fn stored(self, v: f32) -> i8 {
        // SAFETY: `clamped` mapped NaN to 0 and clamped to the stored
        // window, whose bounds are exact (|zp| ≤ 2^23, asserted in
        // `new`), so the difference is an integer in [−128, 127] and the
        // unchecked convert is in range. The saturating `as` would
        // scalarize the loops.
        unsafe { (self.clamped(v) - self.zp).to_int_unchecked::<i32>() as i8 }
    }

    /// The stored code of `v` shifted to u8, `code + 128`.
    #[inline(always)]
    fn shifted(self, v: f32) -> u32 {
        // SAFETY: as in `stored`; the difference is in [0, 255].
        unsafe { (self.clamped(v) - self.cmin).to_int_unchecked::<i32>() as u32 }
    }
}

/// Stored i8 codes `clamp(round(v / step) − zp, −128, 127)`.
pub(crate) struct EmitI8<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) step: f32,
    pub(crate) zp: i32,
    pub(crate) out: &'a mut [i8],
}

impl Body for EmitI8<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const L: usize>(self) {
        let EmitI8 {
            data,
            step,
            zp,
            out,
        } = self;
        let codes = Codes::new(step, zp);
        for (o, &v) in out.iter_mut().zip(data) {
            *o = codes.stored(v);
        }
    }
}

/// How [`emit_quads`] codes one image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadGrid {
    /// First project each value onto the fake-quant grid of this step,
    /// `snap · round_half_away(v / snap)` (a post-activation snap); with
    /// `None`, code the values as they are.
    pub snap: Option<f32>,
    /// Write the projected values back over the inputs.
    pub keep: bool,
    /// The int8 grid step.
    pub step: f32,
    /// The int8 grid's zero point: real 0 is stored as `−zp`.
    pub zp: i32,
}

/// The shifted codes `code + 128` of one image's values, in the same
/// order: the first half of [`emit_quads`], vectorized over the whole
/// image. Each value is projected first iff `SNAP` (and written back iff
/// `KEEP`).
pub(crate) struct ShiftedCodes<'a> {
    pub(crate) vals: &'a mut [f32],
    pub(crate) grid: QuadGrid,
    pub(crate) out: &'a mut [u8],
}

impl Body for ShiftedCodes<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const L: usize>(self) {
        let grid = self.grid;
        match grid.snap {
            Some(snap) if grid.keep => self.codes::<true, true>(snap),
            Some(snap) => self.codes::<true, false>(snap),
            None => self.codes::<false, false>(1.0),
        }
    }
}

impl ShiftedCodes<'_> {
    #[inline(always)]
    fn codes<const SNAP: bool, const KEEP: bool>(self, snap: f32) {
        let ShiftedCodes { vals, grid, out } = self;
        let codes = Codes::new(grid.step, grid.zp);
        for (o, v) in out.iter_mut().zip(vals) {
            let s = if SNAP {
                snap * round_half_away(*v / snap)
            } else {
                *v
            };
            if KEEP {
                *v = s;
            }
            *o = codes.shifted(s) as u8;
        }
    }
}

/// The second half of [`emit_quads`]: the shifted codes `bytes`
/// (`[4·⌈C/4⌉, H, W]`, absent channels 0) interleaved four channels to a
/// word into the interior rows of one quad image.
pub(crate) struct Interleave<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) geom: QuadGeom,
    pub(crate) words: &'a mut [u32],
}

impl Body for Interleave<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const L: usize>(self) {
        let Interleave { bytes, geom, words } = self;
        let (h, w) = (geom.h, geom.w);
        for (q, quad) in bytes.chunks_exact(4 * h * w).enumerate() {
            let [c0, c1, c2, c3] = std::array::from_fn(|i| &quad[i * h * w..(i + 1) * h * w]);
            let chans = c0
                .chunks_exact(w)
                .zip(c1.chunks_exact(w))
                .zip(c2.chunks_exact(w))
                .zip(c3.chunks_exact(w));
            for (y, (((b0, b1), b2), b3)) in chans.enumerate() {
                let row = &mut words[geom.row(q, y)..][..w];
                for ((((d, &b0), &b1), &b2), &b3) in row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *d = u32::from(b0)
                        | u32::from(b1) << 8
                        | u32::from(b2) << 16
                        | u32::from(b3) << 24;
                }
            }
        }
    }
}

thread_local! {
    /// [`emit_quads`]'s byte scratch, one per thread, reused across calls.
    static BYTES: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Writes images of `vals` (`[C, H, W]` each) as the u8 channel quads of
/// `cq_tensor::ActQuads` images (`words`, `geom.image_words()` per image):
/// every value projected onto the fake-quant grid first when `grid.snap`
/// is set (and written back when `grid.keep`), then coded as
/// `clamp(round_half_away(v / step) − zp, −128, 127) + 128` (NaN at true
/// code 0, as [`emit_i8_codes`]) into byte `c % 4` of its word; padding
/// holds the shifted code of real zero. Bit-identical at every level to
/// projecting the whole tensor, then emitting its codes, then laying them
/// out as quads.
///
/// # Panics
///
/// Panics if `vals` and `words` disagree with `geom` or with each other
/// on the number of images, or if `|zp| > 2^23`.
pub fn emit_quads(
    level: SimdLevel,
    vals: &mut [f32],
    geom: QuadGeom,
    grid: QuadGrid,
    words: &mut [u32],
) {
    let (len, image_words) = (geom.c * geom.h * geom.w, geom.image_words());
    let n = words.len() / image_words.max(1);
    assert_eq!(words.len(), n * image_words, "emit_quads: words");
    assert_eq!(vals.len(), n * len, "emit_quads: values");
    if len == 0 {
        words
            .chunks_exact_mut(image_words.max(1))
            .for_each(|image| geom.fill_padding(image, grid.zp));
        return;
    }
    // One image at a time, so its bytes stay in L1 between the halves.
    let stride = 4 * geom.quads() * geom.h * geom.w;
    BYTES.with_borrow_mut(|bytes| {
        if bytes.len() < stride {
            bytes.resize(stride, 0);
        }
        let out = &mut bytes[..stride];
        // Channels past C read as code 0.
        out[len..].fill(0);
        for (vals, words) in vals
            .chunks_exact_mut(len)
            .zip(words.chunks_exact_mut(image_words))
        {
            let codes = &mut out[..len];
            dispatch(
                level,
                ShiftedCodes {
                    vals,
                    grid,
                    out: codes,
                },
            );
            geom.fill_padding(words, grid.zp);
            dispatch(
                level,
                Interleave {
                    bytes: out,
                    geom,
                    words,
                },
            );
        }
    });
}

/// Writes the stored i8 codes of `data` on the grid `(step, zp)` into
/// `out`: `clamp(round_half_away(v / step) − zp, −128, 127)` per element.
/// NaN takes true code 0; `+Inf` saturates to 127 and `−Inf` to −128.
///
/// # Panics
///
/// Panics if `out` and `data` differ in length, or if `|zp| > 2^23` (an
/// 8-bit grid's zero point lies in `-127..=128`).
pub fn emit_i8_codes(data: &[f32], step: f32, zp: i32, out: &mut [i8]) {
    emit_i8_codes_at(SimdLevel::detect(), data, step, zp, out);
}

pub(crate) fn emit_i8_codes_at(level: SimdLevel, data: &[f32], step: f32, zp: i32, out: &mut [i8]) {
    assert_eq!(data.len(), out.len(), "emit_i8_codes: length mismatch");
    dispatch(
        level,
        EmitI8 {
            data,
            step,
            zp,
            out,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fake_quant_into, Precision};
    use proptest::prelude::*;

    /// Per-element scalar oracle of the range scan (the sequential fold
    /// the kernel replaced, over finite values only).
    fn scan_oracle(data: &[f32]) -> (f32, f32, bool) {
        let (mut lo, mut hi, mut finite) = (f32::INFINITY, f32::NEG_INFINITY, true);
        for &v in data {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            } else {
                finite = false;
            }
        }
        (lo, hi, finite)
    }

    /// Per-element scalar oracle of the fake quantizer.
    fn fake_quant_oracle(data: &mut [f32], precision: Precision, mode: QuantMode) {
        let Precision::Bits(q) = precision else {
            return;
        };
        let (lo, hi, finite) = scan_oracle(data);
        let range = hi - lo;
        if data.is_empty() || !finite || range <= 0.0 {
            return;
        }
        let Ok(steps) = crate::intmath::grid_steps(q) else {
            return;
        };
        let step = range / steps as f32;
        for v in data.iter_mut() {
            *v = match mode {
                QuantMode::Round => step * (*v / step).round(),
                QuantMode::Floor => step * (*v / step).floor(),
            };
        }
    }

    /// Per-element scalar oracle of the i8 code emission.
    fn emit_oracle(v: f32, step: f32, zp: i32) -> i8 {
        let r = (v / step).round();
        if r.is_nan() {
            return (-zp).clamp(-128, 127) as i8;
        }
        (r as i64).saturating_sub(zp as i64).clamp(-128, 127) as i8
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Fake quantization through the kernel at `level`, exactly as
    /// `fake_quant_into` composes it.
    fn fake_quant_at(level: SimdLevel, data: &mut [f32], precision: Precision, mode: QuantMode) {
        let scan = dispatch(level, Scan(data));
        let elems = data.len();
        crate::quantizer::fake_quant_scanned_at(level, data, elems, scan, precision, mode);
    }

    /// Checks every kernel at every level against the scalar oracles.
    fn check_all_levels(data: &[f32]) {
        let (lo, hi, finite) = scan_oracle(data);
        for level in SimdLevel::supported() {
            let s = dispatch(level, Scan(data));
            assert_eq!(s.finite, finite, "{level:?} {data:?}");
            // lo/hi agree up to the sign of a zero tie (see RangeScan).
            assert!(s.lo == lo && s.hi == hi, "{level:?} {data:?}");
            for bits_q in 2..=16u8 {
                for mode in [QuantMode::Round, QuantMode::Floor] {
                    let p = Precision::Bits(bits_q);
                    let mut got = data.to_vec();
                    let mut want = data.to_vec();
                    fake_quant_at(level, &mut got, p, mode);
                    fake_quant_oracle(&mut want, p, mode);
                    assert_eq!(bits(&got), bits(&want), "{level:?} q={bits_q} {mode:?}");
                }
            }
            let lo0 = lo.min(0.0);
            let range = hi.max(0.0) - lo0;
            let step = if range > 0.0 { range / 255.0 } else { 1.0 };
            for zp in [
                -127,
                0,
                1,
                64,
                128,
                ((lo0 / step).round() as i32).saturating_add(128),
            ] {
                let mut got = vec![0i8; data.len()];
                emit_i8_codes_at(level, data, step, zp, &mut got);
                let want: Vec<i8> = data.iter().map(|&v| emit_oracle(v, step, zp)).collect();
                assert_eq!(got, want, "{level:?} zp={zp} {data:?}");
            }
        }
    }

    #[test]
    fn every_level_matches_the_scalar_oracle_on_fixed_cases() {
        let step = 0.25f32;
        // Exact ties (k + ½)·step of both signs, riding on a grid whose
        // step is exactly `step` (range 255·step at 8 bits).
        let mut ties: Vec<f32> = (-20..20).map(|k| (k as f32 + 0.5) * step).collect();
        ties.extend([-127.5 * step, 127.5 * step]);
        check_all_levels(&ties);
        // Signed zeros and subnormals, alone and among normal values.
        let tiny = f32::from_bits(1);
        let sub = f32::from_bits(0x007f_ffff);
        check_all_levels(&[0.0, -0.0, tiny, -tiny, sub, -sub]);
        check_all_levels(&[-0.0, 0.0, -0.0, 0.0]);
        check_all_levels(&[1.5, -0.0, tiny, -sub, 0.0, -3.25, 2.0, sub]);
        // Non-finite entries: the projection leaves the tensor alone.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0, 7, 16, 33] {
                let mut v: Vec<f32> = (0..40).map(|i| i as f32 * 0.37 - 5.0).collect();
                v[at] = bad;
                check_all_levels(&v);
            }
        }
        // Every length 0..=49, so every tail shape of both lane widths.
        for len in 0..50 {
            let v: Vec<f32> = (0..len)
                .map(|i| ((i * 37) % 23) as f32 * 0.13 - 1.1)
                .collect();
            check_all_levels(&v);
        }
    }

    #[test]
    fn projection_obeys_shared_rounding_contract_at_every_level() {
        // As in the quantizer's own contract test, anchors at ±127.5·32
        // make the 8-bit step exactly 32.0; 40 copies of the probe fill
        // whole vectors and a tail.
        for level in SimdLevel::supported() {
            crate::intmath::assert_round_half_away(|x| {
                let mut v = vec![x * 32.0; 40];
                v[0] = -4080.0;
                v[1] = 4080.0;
                fake_quant_at(level, &mut v, Precision::Bits(8), QuantMode::Round);
                assert!(v[2..].iter().all(|&y| y == v[2]), "{level:?} x={x}");
                v[2] / 32.0
            });
            // The i8 emission at step 1 and zp 0 stores round(x) itself
            // (clamped to the stored window).
            crate::intmath::assert_round_half_away(|x| {
                let mut out = [0i8; 40];
                emit_i8_codes_at(level, &[x; 40], 1.0, 0, &mut out);
                assert!(out.iter().all(|&c| c == out[0]), "{level:?} x={x}");
                let want = x.round().clamp(-128.0, 127.0);
                assert_eq!(out[0] as f32, want, "{level:?} x={x}");
                x.round()
            });
        }
    }

    #[test]
    #[should_panic(expected = "outside ±2^23")]
    fn emission_rejects_a_zero_point_whose_window_is_not_exact() {
        emit_i8_codes(&[1.0], 1.0, i32::MIN, &mut [0]);
    }

    #[test]
    fn quads_match_projection_then_codes_then_layout_at_every_level() {
        // Channel counts with and without a partial last quad, planes
        // shorter than, equal to and longer than a block (rows of 1, 2, 3
        // and 16), padding 0–2, each image coded on its own; values with
        // exact ties of both grids, NaN and ±Inf (coded, never snapped by
        // the callers but still exact here), a constant and a zero plane.
        let shapes = [
            (1, 1, 1),
            (3, 2, 3),
            (4, 4, 4),
            (5, 3, 1),
            (9, 2, 16),
            (8, 5, 7),
        ];
        for (si, &(c, h, w)) in shapes.iter().enumerate() {
            let hw = h * w;
            let mut vals: Vec<f32> = (0..c * hw)
                .map(|i| ((i * 37 + si) % 41) as f32 * 0.125 - 1.5)
                .collect();
            if c * hw > 9 {
                vals[3] = f32::NAN;
                vals[7] = f32::INFINITY;
                vals[9] = f32::NEG_INFINITY;
            }
            if c > 4 {
                vals[hw..2 * hw].fill(0.75);
                vals[2 * hw..3 * hw].fill(0.0);
            }
            for pad in 0..3 {
                let geom = QuadGeom { c, h, w, pad };
                for (snap, step, zp) in [
                    (None, 0.125, 12),
                    (Some(0.25), 0.25, 6),
                    (Some(0.125), 3.0 / 255.0, 128),
                    (None, 1.0, -127),
                    // One grid for both, with codes past the window's top
                    // (|k| up to 280 and 700).
                    (Some(0.0125), 0.0125, 0),
                    (Some(0.005), 0.005, -3),
                ] {
                    for keep in [false, true] {
                        let grid = QuadGrid {
                            snap,
                            keep,
                            step,
                            zp,
                        };
                        let mut want_vals = vals.clone();
                        if let Some(snap) = snap {
                            for v in &mut want_vals {
                                *v = snap * (*v / snap).round();
                            }
                        }
                        let codes: Vec<i8> = want_vals
                            .iter()
                            .map(|&v| emit_oracle(v, step, zp))
                            .collect();
                        let want = cq_tensor::ActQuads::from_codes(&codes, 1, geom, zp);
                        if !keep {
                            want_vals.clone_from(&vals);
                        }
                        for level in SimdLevel::supported() {
                            let mut got_vals = vals.clone();
                            let mut words = vec![0xdead_beef; geom.image_words()];
                            emit_quads(level, &mut got_vals, geom, grid, &mut words);
                            let at = format!("{level:?} {geom:?} {grid:?}");
                            assert_eq!(words, want.words(), "{at}");
                            let canon = |v: &[f32]| -> Vec<u32> {
                                v.iter()
                                    .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
                                    .collect()
                            };
                            assert_eq!(canon(&got_vals), canon(&want_vals), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_grid_for_snap_and_codes_matches_two_divisions() {
        // The snap and the codes on one grid, as after a ReLU: arbitrary
        // bit patterns (NaN, ±Inf, subnormal, huge) against the
        // two-division oracle, on steps from a subnormal to f32::MAX/512,
        // at zero points across −128..=128.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let steps = [
            f32::from_bits(3),
            1e-30,
            0.0125,
            1.0,
            3.0e35,
            f32::MAX / 512.0,
        ];
        let geom = QuadGeom {
            c: 5,
            h: 3,
            w: 7,
            pad: 1,
        };
        for &step in &steps {
            for zp in [-128, -1, 0, 77, 128] {
                let vals: Vec<f32> = (0..geom.c * geom.h * geom.w)
                    .map(|i| match i % 3 {
                        0 => f32::from_bits(next() as u32),
                        1 => step * ((next() % 1200) as f32 - 600.0),
                        _ => step * ((next() % 2000) as f32 * 0.37 - 370.0),
                    })
                    .collect();
                let want: Vec<i8> = vals
                    .iter()
                    .map(|&v| emit_oracle(step * (v / step).round(), step, zp))
                    .collect();
                let want = cq_tensor::ActQuads::from_codes(&want, 1, geom, zp);
                for level in SimdLevel::supported() {
                    let grid = QuadGrid {
                        snap: Some(step),
                        keep: false,
                        step,
                        zp,
                    };
                    let mut words = vec![0; geom.image_words()];
                    emit_quads(level, &mut vals.clone(), geom, grid, &mut words);
                    assert_eq!(words, want.words(), "{level:?} step {step:e} zp {zp}");
                }
            }
        }
    }

    #[test]
    fn map_scan_matches_map_then_scan() {
        let data: Vec<f32> = (0..45).map(|i| i as f32 * 0.31 - 7.0).collect();
        let mut poisoned = data.clone();
        poisoned[9] = f32::NAN;
        for level in SimdLevel::supported() {
            for src in [&data, &poisoned] {
                for f in [|v: f32| v.max(0.0), |v: f32| v.clamp(0.0, 6.0)] {
                    let mut got = src.clone();
                    let s = dispatch(level, MapScan(&mut got, f));
                    let want: Vec<f32> = src.iter().map(|&v| f(v)).collect();
                    assert_eq!(bits(&got), bits(&want), "{level:?}");
                    let (lo, hi, finite) = scan_oracle(&want);
                    assert!(s.lo == lo && s.hi == hi && s.finite == finite);
                }
            }
        }
    }

    #[test]
    fn detected_level_drives_the_public_entry_points() {
        let mut a: Vec<f32> = (0..100).map(|i| (i as f32 * 0.77).sin()).collect();
        let mut b = a.clone();
        fake_quant_into(&mut a, Precision::Bits(6), QuantMode::Round);
        fake_quant_oracle(&mut b, Precision::Bits(6), QuantMode::Round);
        assert_eq!(bits(&a), bits(&b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn every_level_matches_the_scalar_oracle(
            raw in collection::vec(0u32..=u32::MAX, 0..70),
            finite in collection::vec(-1000.0f32..1000.0, 0..70),
            pick in collection::vec(0u8..8, 0..70),
        ) {
            // Mostly finite values, with arbitrary bit patterns (NaN, ±Inf,
            // subnormals, huge magnitudes) mixed in at random positions.
            let data: Vec<f32> = finite
                .iter()
                .zip(raw.iter().chain(std::iter::repeat(&0)))
                .zip(pick.iter().chain(std::iter::repeat(&1)))
                .map(|((&f, &r), &p)| if p == 0 { f32::from_bits(r) } else { f })
                .collect();
            check_all_levels(&data);
        }
    }
}
