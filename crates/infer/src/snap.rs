//! The passes that carry an activation from one dense conv to the next:
//! the post-activation snap onto the 8-bit grid, and the coding of f32
//! values as the u8 channel quads a dense conv reads
//! ([`cq_tensor::ActQuads`]).
//!
//! The f32 path quantizes every Relu/Relu6 output with the fake
//! quantizer, and the integer path used to mirror it literally: snap the
//! tensor in place, then let the next conv scan the snapped tensor again,
//! emit an i8 code `Vec` and lay it out as quads. Here one pass does all
//! of it. The conv's tile store (or a standalone clamp pass) hands over
//! the clamped values with their finite range; [`snap_to_quads`] derives
//! the fake-quant step from that range, the conv grid from the *snapped*
//! range, and projects and codes every value in one read, writing the
//! snapped f32 values back only where an op reads them.
//!
//! The snapped range needs no second scan. The projection
//! `v ↦ step·round(v / step)` is monotone (IEEE division by a positive
//! step, rounding and the multiply all are), so the smallest and largest
//! snapped values are the projections of the smallest and largest
//! inputs, and the grid `quantize_activations` would derive from a scan
//! of the snapped tensor is the grid of those two values. The one
//! exception is a projection that overflows or underflows to a
//! non-finite value; that rare case snaps in place and scans.

use cq_quant::intmath::{round_half_away, INT_INFER_MAX_BITS};
use cq_quant::{
    check_projected, emit_quads, fake_quant_scanned, fake_quant_step, Precision, QuadGrid,
    QuantMode, RangeScan,
};
use cq_tensor::par::parallel_chunks_mut_pair;
use cq_tensor::simd::SimdLevel;
use cq_tensor::{ActQuads, Clamp, QuadGeom};

use crate::quantize::act_grid;

/// The grid every activation is snapped to.
const SNAP: Precision = Precision::Bits(INT_INFER_MAX_BITS);

/// A dense conv's input: the activation's codes as u8 channel quads, and
/// the grid step they dequantize with.
#[derive(Debug, Clone)]
pub(crate) struct Coded {
    pub(crate) quads: ActQuads,
    pub(crate) step: f32,
}

/// The post-activation snap, in place: `vals` hold an activation's
/// clamped values and `scan` their range, and are projected onto the
/// 8-bit grid at the same point, with the same quantizer (its warnings
/// and counters included), as the fake-quant training path
/// (post-activation quantization in `cq_nn::act`). Every consumer must
/// see grid values: the identity skip of a residual block and the pooled
/// features read them too, and skipping the projection there would let
/// sub-step errors accumulate per block instead of being absorbed by the
/// grid.
pub(crate) fn snap_to_grid(vals: &mut [f32], scan: RangeScan) {
    fake_quant_scanned(vals, scan, SNAP, QuantMode::Round);
}

/// [`snap_to_grid`] for an activation `[n, c, h, w]` = `dims` that a dense
/// conv reads: in the same read, every snapped value is coded as the
/// conv's u8 channel quads, padded by `pad` — the codes
/// `quantize_activations` gives the snapped tensor — and written back
/// over `vals` only if `keep`.
pub(crate) fn snap_to_quads(
    vals: &mut [f32],
    dims: [usize; 4],
    scan: RangeScan,
    pad: usize,
    keep: bool,
) -> Coded {
    let Some(snap) = fake_quant_step(scan, vals.len(), SNAP) else {
        // Left as they are (empty, constant or not all finite).
        return code(vals, dims, pad, scan);
    };
    let project = |v: f32| snap * round_half_away(v / snap);
    let (lo, hi) = (project(scan.lo()), project(scan.hi()));
    if !(lo.is_finite() && hi.is_finite()) {
        for v in vals.iter_mut() {
            *v = project(*v);
        }
        check_projected(vals, scan, snap);
        let scan = RangeScan::scan(vals);
        return code(vals, dims, pad, scan);
    }
    let (step, zp) = act_grid(lo, hi);
    let grid = QuadGrid {
        snap: Some(snap),
        keep,
        step,
        zp,
    };
    let coded = emit(vals, dims, pad, grid);
    // The projected values, or, where they are not kept, their extremes,
    // which bound them all.
    let extremes = [lo, hi];
    check_projected(if keep { vals } else { &extremes }, scan, snap);
    coded
}

/// Applies `clamp` to every value and scans the results, in one pass.
pub(crate) fn clamp_scan(vals: &mut [f32], clamp: Clamp) -> RangeScan {
    // A constant clamp per closure, so each loop vectorizes.
    match clamp {
        Clamp::None => RangeScan::scan(vals),
        Clamp::Relu => RangeScan::map_scan(vals, |v| Clamp::Relu.apply(v)),
        Clamp::Relu6 => RangeScan::map_scan(vals, |v| Clamp::Relu6.apply(v)),
    }
}

/// Codes `vals` (`[n, c, h, w]` = `dims`, finite range `scan`) as the
/// quads of a dense conv padded by `pad`, on the grid and with the codes
/// of `quantize_activations(vals)`. `vals` are left unchanged.
pub(crate) fn code(vals: &mut [f32], dims: [usize; 4], pad: usize, scan: RangeScan) -> Coded {
    let (step, zp) = act_grid(scan.lo(), scan.hi());
    let grid = QuadGrid {
        snap: None,
        keep: false,
        step,
        zp,
    };
    emit(vals, dims, pad, grid)
}

/// [`emit_quads`] over every image, in parallel.
fn emit(vals: &mut [f32], [n, c, h, w]: [usize; 4], pad: usize, grid: QuadGrid) -> Coded {
    let geom = QuadGeom { c, h, w, pad };
    let mut quads = ActQuads::new(n, geom, grid.zp);
    let (len, words) = (c * h * w, geom.image_words());
    // The level is read here: pool workers do not see a caller's
    // `with_simd_level`.
    let level = SimdLevel::detect();
    if len == 0 {
        // Padding only, if any.
        emit_quads(level, vals, geom, grid, quads.words_mut());
    } else {
        parallel_chunks_mut_pair(vals, quads.words_mut(), len, words, |_, v, q| {
            emit_quads(level, v, geom, grid, q);
        });
    }
    Coded {
        quads,
        step: grid.step,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::quantize::quantize_activations;
    use cq_tensor::gemm::int8::{with_i8_level, I8Level};
    use cq_tensor::par::with_thread_limit;
    use cq_tensor::simd::with_simd_level;
    use cq_tensor::{conv2d_i8, Conv2dSpec, ConvShape, Epilogue, Requant};

    /// Thread limits; under Miri, which interprets every byte, only two.
    const LIMITS: &[usize] = if cfg!(miri) { &[1, 2] } else { &[1, 2, 5, 8] };

    /// Shapes: a partial last quad, rows of 1, 3 and 16, padding 0–2.
    const SHAPES: [([usize; 4], usize); 4] = [
        ([3, 5, 4, 3], 1),
        ([2, 8, 16, 16], 1),
        ([17, 3, 1, 1], 0),
        ([2, 9, 3, 7], 2),
    ];

    /// [`SHAPES`], without the 16×16 one under Miri.
    fn shapes() -> impl Iterator<Item = (usize, &'static ([usize; 4], usize))> {
        let small = |(_, (dims, _)): &(usize, &([usize; 4], usize))| {
            !cfg!(miri) || dims.iter().product::<usize>() < 500
        };
        SHAPES.iter().enumerate().filter(small)
    }

    /// Seeded pre-activation values in about `[−3, 3)`, or `kind`'s
    /// hostile ones: 1 with a NaN and ±Inf, 2 a constant tensor, 3 all
    /// zero, 4 all negative, 5 on a grid (multiples of 0.0125 up to the
    /// top code's 255·0.0125), 6 with every other value −0, 7 all in
    /// `[1, 4)`.
    fn values(len: usize, kind: usize, seed: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len)
            .map(|i| ((i * 7919 + seed * 104_729) % 1013) as f32 * 0.006 - 3.0)
            .collect();
        match kind {
            1 => {
                v[len / 3] = f32::NAN;
                v[len / 2] = f32::INFINITY;
                v[len - 1] = f32::NEG_INFINITY;
            }
            2 => v.fill(1.75),
            3 => v.fill(0.0),
            4 => v.iter_mut().for_each(|x| *x = -x.abs() - 0.5),
            5 => {
                for (i, x) in v.iter_mut().enumerate() {
                    *x = (i % 256) as f32 * 0.0125;
                }
                v[len / 2] = 255.0 * 0.0125;
            }
            6 => v.iter_mut().step_by(2).for_each(|x| *x = -0.0),
            // No zero after the clamp: the snapped top is not the top.
            7 => v.iter_mut().for_each(|x| *x = x.abs() + 1.0),
            _ => {}
        }
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
            .collect()
    }

    /// The clamp-and-scan pass of the old Relu/Relu6 ops. Their ReLU was
    /// `v.max(0.0)`, whose result for `±0` is unspecified (optimized
    /// builds gave +0, unoptimized ones −0); this oracle spells out the
    /// +0 that `Clamp::apply` pins.
    pub(crate) fn map_scan(vals: &mut [f32], clamp: Clamp) -> RangeScan {
        match clamp {
            Clamp::None => RangeScan::scan(vals),
            Clamp::Relu => RangeScan::map_scan(vals, |v| if v > 0.0 { v } else { 0.0 }),
            Clamp::Relu6 => RangeScan::map_scan(vals, |v| v.clamp(0.0, 6.0)),
        }
    }

    /// What the old passes gave: clamp and scan, snap in place, then
    /// `quantize_activations` of the snapped tensor laid out as quads.
    fn oracle(x: &[f32], dims: [usize; 4], pad: usize, clamp: Clamp) -> (Vec<f32>, ActQuads, f32) {
        let mut snapped = x.to_vec();
        let scan = map_scan(&mut snapped, clamp);
        snap_to_grid(&mut snapped, scan);
        let q = quantize_activations(&snapped);
        let [n, c, h, w] = dims;
        let quads = ActQuads::from_codes(&q.codes, n, QuadGeom { c, h, w, pad }, q.zp);
        (snapped, quads, q.step)
    }

    #[test]
    fn the_snap_writes_the_quads_of_the_snapped_tensor() {
        for (si, &(dims, pad)) in shapes() {
            let len = dims.iter().product();
            for kind in 0..8 {
                let x = values(len, kind, si);
                for clamp in [Clamp::Relu, Clamp::Relu6] {
                    let (want_vals, want, step) = oracle(&x, dims, pad, clamp);
                    for level in cq_tensor::simd::SimdLevel::supported() {
                        for &limit in LIMITS {
                            for keep in [false, true] {
                                let mut v = x.clone();
                                let got = with_simd_level(level, || {
                                    with_thread_limit(limit, || {
                                        let scan = clamp_scan(&mut v, clamp);
                                        snap_to_quads(&mut v, dims, scan, pad, keep)
                                    })
                                });
                                let at =
                                    format!("{dims:?} kind {kind} {clamp:?} {level:?} {limit}");
                                assert_eq!(got.quads.words(), want.words(), "{at}");
                                assert_eq!(got.quads.za(), want.za(), "{at}");
                                assert_eq!(got.step.to_bits(), step.to_bits(), "{at}");
                                if keep {
                                    assert_eq!(bits(&v), bits(&want_vals), "{at}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_overflowing_snap_falls_back_to_a_scan() {
        // Range [−3e38, 3e38] overflows to an infinite fake-quant step, and
        // [2.5357e38, f32::MAX] projects its top value past f32::MAX: both
        // still give the old passes' codes.
        for (lo, hi) in [(-3e38f32, 3e38f32), (2.5357e38, f32::MAX)] {
            let step = (hi - lo) / 255.0;
            assert!(!(step * (hi / step).round()).is_finite());
            let dims = [1, 4, 2, 3];
            let mut x = vec![(lo + hi) / 2.0; 24];
            x[0] = lo;
            x[5] = hi;
            let (want_vals, want, _) = oracle(&x, dims, 1, Clamp::None);
            let mut v = x.clone();
            let scan = RangeScan::scan(&v);
            let got = snap_to_quads(&mut v, dims, scan, 1, true);
            assert_eq!(got.quads.words(), want.words(), "[{lo}, {hi}]");
            assert_eq!(bits(&v), bits(&want_vals), "[{lo}, {hi}]");
        }
    }

    #[test]
    fn raw_values_code_as_quantize_activations() {
        for (si, &(dims, pad)) in shapes() {
            let len = dims.iter().product();
            for kind in 0..8 {
                let x = values(len, kind, si + 7);
                let q = quantize_activations(&x);
                let [n, c, h, w] = dims;
                let want = ActQuads::from_codes(&q.codes, n, QuadGeom { c, h, w, pad }, q.zp);
                for &limit in LIMITS {
                    let mut v = x.clone();
                    let got =
                        with_thread_limit(limit, || code(&mut v, dims, pad, RangeScan::scan(&x)));
                    assert_eq!(got.quads.words(), want.words(), "{dims:?} kind {kind}");
                    assert_eq!(got.step.to_bits(), q.step.to_bits());
                    assert_eq!(bits(&v), bits(&x), "raw values stay as they are");
                }
            }
        }
    }

    #[test]
    fn the_relu_tile_store_is_the_conv_then_map_scan() {
        // The clamp and the range scan in `conv2d_i8`'s tile store against
        // the conv's plain output followed by `RangeScan::map_scan`, with
        // and without a residual addend, on pre-activations that are
        // partly or (with the −1e9 addend) wholly negative.
        let convs = [(3, 5, 6, 7, 3, 1), (17, 4, 4, 9, 3, 1), (2, 3, 5, 16, 1, 2)];
        let convs = if cfg!(miri) { &convs[2..] } else { &convs[..] };
        for (si, &(n, c, hw, o, k, stride)) in convs.iter().enumerate() {
            let s =
                ConvShape::new(n, c, hw, hw, o, Conv2dSpec::new(k, stride, k / 2)).expect("shape");
            let codes: Vec<i8> = (0..n * c * hw * hw)
                .map(|i| ((i * 37 + si) % 256) as i32 as u8 as i8)
                .collect();
            let wgt: Vec<i8> = (0..o * s.taps())
                .map(|i| ((i * 11) % 23) as i8 - 11)
                .collect();
            let wsum: Vec<i32> = wgt
                .chunks(s.taps())
                .map(|r| r.iter().map(|&v| i32::from(v)).sum())
                .collect();
            let mut scale: Vec<f32> = (0..o).map(|i| 0.001 * (i as f32 - 3.0)).collect();
            let mut shift: Vec<f32> = (0..o).map(|i| 0.1 * (i % 4) as f32 - 0.15).collect();
            // Channel 1 requantizes to −0 wherever its dot is ≥ 0.
            (scale[1], shift[1]) = (-0.0, -0.0);
            let rq = Requant {
                za: 17,
                zw: -3,
                wsum: &wsum,
                scale: &scale,
                shift: &shift,
            };
            let pad = s.spec.padding.0;
            let geom = QuadGeom {
                c,
                h: hw,
                w: hw,
                pad,
            };
            let xq = ActQuads::from_codes(&codes, n, geom, rq.za);
            let olen = n * o * s.positions();
            let add = values(olen, 1, si);
            let mut plain = vec![0.0; olen];
            conv2d_i8(&xq, &wgt, &s, &rq, Epilogue::default(), &mut plain);
            for clamp in [Clamp::Relu, Clamp::Relu6] {
                for add in [None, Some(&add[..]), Some(&vec![-1e9; olen][..])] {
                    let mut want = plain.clone();
                    if let Some(a) = add {
                        want.iter_mut().zip(a).for_each(|(v, &a)| *v += a);
                    }
                    let want_scan = map_scan(&mut want, clamp);
                    for level in I8Level::supported() {
                        for &limit in LIMITS {
                            let mut got = vec![f32::NAN; olen];
                            let range = with_i8_level(level, || {
                                with_thread_limit(limit, || {
                                    conv2d_i8(&xq, &wgt, &s, &rq, Epilogue { add, clamp }, &mut got)
                                })
                            });
                            let at = format!("{s:?} {clamp:?} {level:?} {limit}");
                            assert_eq!(bits(&got), bits(&want), "{at}");
                            let range = RangeScan::from(range);
                            assert_eq!(range.lo(), want_scan.lo(), "{at}");
                            assert_eq!(range.hi(), want_scan.hi(), "{at}");
                            assert_eq!(range.all_finite(), want_scan.all_finite(), "{at}");
                        }
                    }
                }
            }
        }
    }
}
