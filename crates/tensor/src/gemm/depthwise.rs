//! Depthwise convolution (groups = channels, MobileNetV2) over the whole
//! batch, in the image-minor lane layout of [`crate::lanes`].
//!
//! Each channel of a depthwise layer is its own tiny convolution. The
//! operands arrive as lane storage, `[N/16][C][H][W][16]`, in which one
//! 16-float vector is one pixel of one channel in 16 independent images,
//! so a `(lane block, channel)` plane is a tiny convolution of 16 images
//! at once, read and written in place. Which terms each output receives,
//! and in what order, is a table built once per call from the geometry
//! alone (`Taps`):
//!
//! - **forward**: per plane, one vector accumulator per output position
//!   over the position's in-bounds taps in ascending order, each term
//!   `x·w[c,t]` with the channel's weight broadcast;
//! - **input gradient**: per plane, one vector accumulator per input
//!   position over the `dY` positions that read it in raster order
//!   (descending taps), each term `g ≠ 0 ? g·w[c,t] : +0.0`;
//! - **weight gradient**: one running sum per (channel, tap) across a
//!   band's images in ascending order and over raster positions (the
//!   forward's table), each term `g ≠ 0 ? g·x : +0.0`. Images cannot be
//!   the lanes of that sum, so this pass copies `X` and `dY`, 16 channels
//!   of the images of one lane block at a time, into a channel-minor
//!   scratch (`crate::lanes::to_channels`: per pixel, one 16-channel ×
//!   16-image transpose in registers), and keeps one running vector per
//!   (tap, 16-channel block), written out as `[C][T]` at the band's end.
//!
//! The innermost loop of every pass runs over a table's terms and either
//! carries a floating-point sum in a register (forward, input gradient)
//! or adds into sums the table indexes (weight gradient). Neither lets
//! the compiler vectorize the loop a second time, across planes or
//! positions with gathers: each term stays one vector operation.
//!
//! The forward and the input gradient split the planes into chunks; the
//! weight gradient splits the images into at most [`WGRAD_BANDS`]
//! contiguous bands, a grid fixed by the batch size alone. A band is one
//! pool job with its own scratch, and the band partials are summed in
//! band order.
//!
//! # Bitwise contract
//!
//! Both entry points are bit-identical to the per-pixel loops in
//! [`reference`](super::reference) at every SIMD level and thread count.
//! Every lane is an independent output, so each output keeps the
//! oracle's summation order exactly:
//!
//! - a **forward** output adds the same in-bounds products, ascending
//!   `(ki, kj)`, from `+0.0`; padding taps are skipped, not multiplied;
//! - an **input-gradient** element receives one term per `dY` position
//!   that reads it. Ascending `oy` is descending `ki` and, within a row,
//!   ascending `ox` is descending `kj`, so the descending tap order adds
//!   the terms in the oracle's raster order;
//! - a **weight-gradient** element is one running sum over the band's
//!   images and raster positions, as in the oracle's band partial, and
//!   the partials are added into `+0.0` in band order.
//!
//! Selecting `+0.0` for a zero `g` is exact where the oracle skips the
//! term: every sum starts at `+0.0` and so never holds `-0.0`, and
//! `a + (+0.0) = a` for every other `a`, NaN and ±Inf included. The
//! select also keeps a NaN or ±Inf `x` or `w` out where `g` is zero.
//!
//! Pad lanes are computed like any other lane by the forward and the
//! input gradient, so they hold unspecified values there; the weight
//! gradient copies only real images, so they reach no `dw`.

use super::conv::{ConvShape, WGRAD_BANDS};
use super::lane::{dispatch_at, Lane, LaneBuf, LanePass, Transpose, LANES};
use super::{simd_level, Level, SendPtr};
use crate::conv::DEPTHWISE_FLOPS;
use crate::lanes::{as_lanes, as_lanes_mut, to_channels};
use crate::par::{parallel_for_chunks, parallel_map_chunks, ChunkGrid};
use std::ops::Range;

/// Depthwise convolution `out = dwconv(x, wgt)` over the whole batch.
/// `s` describes the layer with `s.o == s.c`; `x` is `[N,C,H,W]` and
/// `out` is `[N,C,OH,OW]` (overwritten), both lane storage (see
/// [`crate::lanes`]); `wgt` is `[C, KH·KW]`. On the real lanes,
/// bit-identical to
/// [`reference::depthwise_conv2d`](super::reference::depthwise_conv2d).
///
/// # Panics
///
/// Panics if `s.o != s.c`, a slice length disagrees with `s` or a lane
/// slice is not 64-byte aligned.
pub fn depthwise_conv2d(x: &[f32], wgt: &[f32], s: &ConvShape, out: &mut [f32]) {
    let g = Geom::new(s);
    assert_eq!(x.len(), s.input_lanes(), "depthwise: input length mismatch");
    assert_eq!(wgt.len(), s.c * g.taps, "depthwise: weight length mismatch");
    assert_eq!(
        out.len(),
        s.output_lanes(),
        "depthwise: output length mismatch"
    );
    let (x, out) = (as_lanes(x), as_lanes_mut(out));
    if s.n == 0 || s.c == 0 {
        return;
    }
    DEPTHWISE_FLOPS.add(g.flops());
    // SAFETY: `simd_level` detected the level on this host.
    unsafe { forward(simd_level(), x, wgt, &g, out) };
}

/// [`depthwise_conv2d`] at `level`, past its checks.
///
/// # Safety
///
/// The host must support `level`.
unsafe fn forward(level: Level, x: &[Lane], wgt: &[f32], g: &Geom, out: &mut [Lane]) {
    let taps = Taps::forward(g);
    // SAFETY: the caller guarantees `level`.
    unsafe { planes::<false>(level, x, wgt, g, &taps, out) };
}

/// Both gradients of a depthwise convolution: the input gradient `dx`
/// and the weight gradient `dw`, summed over the batch in
/// [`WGRAD_BANDS`] band partials. `x` and `dx` are `[N,C,H,W]` and `dy`
/// is `[N,C,OH,OW]`, all lane storage; `wgt` and `dw` are `[C, KH·KW]`;
/// `dx` and `dw` are overwritten. Bit-identical to
/// [`reference::depthwise_conv2d_backward`](super::reference::depthwise_conv2d_backward)
/// on the real lanes; pad lanes never reach `dw`.
///
/// # Panics
///
/// Panics if `s.o != s.c`, a slice length disagrees with `s` or a lane
/// slice is not 64-byte aligned.
pub fn depthwise_conv2d_backward(
    x: &[f32],
    dy: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    dx: &mut [f32],
    dw: &mut [f32],
) {
    let g = Geom::new(s);
    let name = "depthwise_backward";
    assert_eq!(x.len(), s.input_lanes(), "{name}: input length mismatch");
    assert_eq!(dy.len(), s.output_lanes(), "{name}: dy length mismatch");
    assert_eq!(wgt.len(), s.c * g.taps, "{name}: weight length mismatch");
    assert_eq!(dx.len(), x.len(), "{name}: dx length mismatch");
    assert_eq!(dw.len(), wgt.len(), "{name}: dw length mismatch");
    let (x, dy, dx) = (as_lanes(x), as_lanes(dy), as_lanes_mut(dx));
    if s.n == 0 || s.c == 0 {
        // Every weight-gradient element, if there is one, is an empty sum.
        dw.fill(0.0);
        return;
    }
    // The input and the weight gradient.
    DEPTHWISE_FLOPS.add(2 * g.flops());
    // SAFETY: `simd_level` detected the level on this host.
    unsafe { backward(simd_level(), x, dy, wgt, &g, dx, dw) };
}

/// [`depthwise_conv2d_backward`] at `level`, past its checks.
///
/// # Safety
///
/// The host must support `level`.
unsafe fn backward(
    level: Level,
    x: &[Lane],
    dy: &[Lane],
    wgt: &[f32],
    g: &Geom,
    dx: &mut [Lane],
    dw: &mut [f32],
) {
    let (forward, input) = (Taps::forward(g), Taps::input_gradient(g));
    // SAFETY: the caller guarantees `level`.
    unsafe { planes::<true>(level, dy, wgt, g, &input, dx) };
    let partials = parallel_map_chunks(
        bands(g.n),
        || vec![0.0f32; g.c * g.taps],
        |_, i0, i1, part| {
            let pass = WeightBand {
                x,
                dy,
                g,
                taps: &forward,
                images: (i0, i1),
                dw: part,
            };
            // SAFETY: the caller guarantees `level`.
            unsafe { dispatch_at(level, pass) };
        },
    );
    dw.fill(0.0);
    for part in &partials {
        for (d, &p) in dw.iter_mut().zip(part) {
            *d += p;
        }
    }
}

/// The forward (`SELECT = false`: `src` is `X`, `dst` is `Y`) or the
/// input gradient (`SELECT = true`: `src` is `dY`, `dst` is `dX`) over
/// every `(lane block, channel)` plane, in chunks of planes: each output
/// vector of a plane is [`gather`]ed from its source plane.
///
/// # Safety
///
/// The host must support `level`.
unsafe fn planes<const SELECT: bool>(
    level: Level,
    src: &[Lane],
    wgt: &[f32],
    g: &Geom,
    taps: &Taps,
    dst: &mut [Lane],
) {
    let (ns, nd) = (src.len() / (g.blocks * g.c), dst.len() / (g.blocks * g.c));
    let dst = SendPtr(dst.as_mut_ptr().cast());
    parallel_for_chunks(ChunkGrid::new(g.blocks * g.c, 1), |_, q0, q1| {
        let pass = Planes::<SELECT> {
            src,
            wgt,
            g,
            taps,
            lens: (ns, nd),
            dst: &dst,
            planes: q0..q1,
        };
        // SAFETY: the caller guarantees `level`.
        unsafe { dispatch_at(level, pass) };
    });
}

/// The band grid over `n` images.
fn bands(n: usize) -> ChunkGrid {
    ChunkGrid::with_max_chunks(n, 1, WGRAD_BANDS)
}

/// Per-call geometry shared by the passes.
struct Geom {
    /// Images and their blocks of [`LANES`].
    n: usize,
    blocks: usize,
    /// Channels and their blocks of [`LANES`].
    c: usize,
    cb: usize,
    /// Input and output height and width.
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    /// Kernel size, stride and padding.
    kh: usize,
    kw: usize,
    sh: usize,
    sw: usize,
    ph: usize,
    pw: usize,
    /// Taps per channel (`KH·KW`).
    taps: usize,
}

impl Geom {
    fn new(s: &ConvShape) -> Geom {
        assert_eq!(
            s.o, s.c,
            "depthwise: output channels must equal input channels"
        );
        let ((kh, kw), (sh, sw), (ph, pw)) = (s.spec.kernel, s.spec.stride, s.spec.padding);
        Geom {
            n: s.n,
            blocks: s.n.div_ceil(LANES),
            c: s.c,
            cb: s.c.div_ceil(LANES),
            h: s.h,
            w: s.w,
            oh: s.oh,
            ow: s.ow,
            kh,
            kw,
            sh,
            sw,
            ph,
            pw,
            taps: kh * kw,
        }
    }

    /// Multiply-add FLOPs of one pass (`2·C·T·N·P`), padding taps
    /// included.
    fn flops(&self) -> u64 {
        2 * (self.c * self.taps) as u64 * (self.n * self.oh * self.ow) as u64
    }

    /// In-bounds kernel rows `[ki0, ki1)` of output row `oy`.
    fn rows(&self, oy: usize) -> (usize, usize) {
        span(oy * self.sh, self.ph, self.h, self.kh)
    }

    /// In-bounds kernel columns `[kj0, kj1)` of output column `ox`.
    fn cols(&self, ox: usize) -> (usize, usize) {
        span(ox * self.sw, self.pw, self.w, self.kw)
    }
}

/// Kernel offsets `k < kn` whose input coordinate `at + k − pad` lies in
/// `[0, len)`, as a half-open range.
fn span(at: usize, pad: usize, len: usize, kn: usize) -> (usize, usize) {
    let k0 = pad.saturating_sub(at).min(kn);
    let k1 = (len + pad).saturating_sub(at).clamp(k0, kn);
    (k0, k1)
}

/// For every destination position of a pass, its terms in summation
/// order: the source position within its plane and the tap.
struct Taps {
    /// Terms of position `p`: `terms[start[p]..start[p + 1]]`.
    start: Vec<usize>,
    terms: Vec<(usize, usize)>,
}

impl Taps {
    fn new(positions: usize, mut push: impl FnMut(usize, &mut Vec<(usize, usize)>)) -> Taps {
        let mut taps = Taps {
            start: vec![0],
            terms: Vec::new(),
        };
        for p in 0..positions {
            push(p, &mut taps.terms);
            taps.start.push(taps.terms.len());
        }
        taps
    }

    /// The forward's terms: for output `(oy, ox)`, its in-bounds taps in
    /// ascending order.
    fn forward(g: &Geom) -> Taps {
        Taps::new(g.oh * g.ow, |p, terms| {
            let (oy, ox) = (p / g.ow, p % g.ow);
            let ((ki0, ki1), (kj0, kj1)) = (g.rows(oy), g.cols(ox));
            for ki in ki0..ki1 {
                let iy = oy * g.sh + ki - g.ph;
                for kj in kj0..kj1 {
                    let ix = ox * g.sw + kj - g.pw;
                    terms.push((iy * g.w + ix, ki * g.kw + kj));
                }
            }
        })
    }

    /// The input gradient's terms: for input `(iy, ix)`, the `dY`
    /// positions whose taps read it, in raster order (descending taps).
    fn input_gradient(g: &Geom) -> Taps {
        Taps::new(g.h * g.w, |p, terms| {
            let (iy, ix) = (p / g.w, p % g.w);
            for ki in (0..g.kh).rev() {
                let Some(oy) = source(iy, ki, g.ph, g.sh, g.oh) else {
                    continue;
                };
                for kj in (0..g.kw).rev() {
                    if let Some(ox) = source(ix, kj, g.pw, g.sw, g.ow) {
                        terms.push((oy * g.ow + ox, ki * g.kw + kj));
                    }
                }
            }
        })
    }
}

/// The output coordinate whose kernel offset `k` reads input coordinate
/// `i` (`o·stride + k − pad = i`), if there is one.
fn source(i: usize, k: usize, pad: usize, stride: usize, on: usize) -> Option<usize> {
    let at = (i + pad).checked_sub(k)?;
    (at % stride == 0 && at / stride < on).then_some(at / stride)
}

/// The forward or the input gradient over a chunk of planes (see
/// [`planes`]).
struct Planes<'a, const SELECT: bool> {
    src: &'a [Lane],
    wgt: &'a [f32],
    g: &'a Geom,
    taps: &'a Taps,
    /// Lanes per plane of `src` and of `dst`.
    lens: (usize, usize),
    dst: &'a SendPtr,
    /// Plane `q` is channel `q % C` of lane block `q / C`.
    planes: Range<usize>,
}

impl<const SELECT: bool> LanePass for Planes<'_, SELECT> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let Planes {
            src,
            wgt,
            g,
            taps,
            lens: (ns, nd),
            dst,
            planes,
        } = self;
        for q in planes {
            let w = &wgt[(q % g.c) * g.taps..][..g.taps];
            // SAFETY: plane `q` is `nd` lanes inside `dst`, and chunks
            // cover disjoint planes, so they are this job's alone.
            let out =
                unsafe { std::slice::from_raw_parts_mut(dst.0.cast::<Lane>().add(q * nd), nd) };
            gather::<SELECT>(&src[q * ns..][..ns], w, taps, out);
        }
    }
}

/// One plane of the forward (`SELECT = false`) or the input gradient
/// (`SELECT = true`): each `dst[pos]` is one accumulator over `pos`'s
/// terms in order, each `s·w`, or `s ≠ 0 ? s·w : +0.0` with `SELECT`,
/// where `s` is the term's source vector and `w` the channel's weight
/// `w[t]` at the term's tap, broadcast.
#[inline(always)]
fn gather<const SELECT: bool>(src: &[Lane], w: &[f32], taps: &Taps, dst: &mut [Lane]) {
    for (p, d) in dst.iter_mut().enumerate() {
        let mut acc = [0.0f32; LANES];
        for &(so, t) in &taps.terms[taps.start[p]..taps.start[p + 1]] {
            let term = product::<SELECT>(&src[so].0, &[w[t]; LANES]);
            for l in 0..LANES {
                acc[l] += term[l];
            }
        }
        d.0 = acc;
    }
}

/// `s·v` per lane, or with `SELECT`, `s ≠ 0 ? s·v : +0.0`. The product is
/// formed unconditionally, so the select compiles to a vector compare and
/// mask rather than a branch per lane.
#[inline(always)]
fn product<const SELECT: bool>(s: &[f32; LANES], v: &[f32; LANES]) -> [f32; LANES] {
    std::array::from_fn(|l| {
        let p = s[l] * v[l];
        if !SELECT || s[l] != 0.0 {
            p
        } else {
            0.0
        }
    })
}

/// The images `i0..i1` as runs within one block of 16: `(block, lanes)`.
fn block_runs(i0: usize, i1: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut i = i0;
    std::iter::from_fn(move || {
        (i < i1).then(|| {
            let (blk, l0) = (i / LANES, i % LANES);
            let m = (LANES - l0).min(i1 - i);
            i += m;
            (blk, l0..l0 + m)
        })
    })
}

/// The weight gradient over a band of images.
struct WeightBand<'a> {
    x: &'a [Lane],
    dy: &'a [Lane],
    g: &'a Geom,
    /// The forward's terms, which the weight gradient walks.
    taps: &'a Taps,
    images: (usize, usize),
    /// The band's partial, `[C][T]`.
    dw: &'a mut [f32],
}

impl LanePass for WeightBand<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let WeightBand {
            x,
            dy,
            g,
            taps,
            images: (i0, i1),
            dw,
        } = self;
        let (hw, p) = (g.h * g.w, g.oh * g.ow);
        // The copies are written in full for each run's images; the
        // partial accumulates from zero.
        let mut xs = LaneBuf::written(LANES * hw);
        let mut dys = LaneBuf::written(LANES * p);
        let mut part = LaneBuf::zeroed(g.cb * g.taps);
        let (xs, dys, part) = (xs.lanes_mut(), dys.lanes_mut(), part.lanes_mut());
        for (blk, lanes) in block_runs(i0, i1) {
            for b in 0..g.cb {
                let chans = b * LANES..g.c.min((b + 1) * LANES);
                // SAFETY: the caller guarantees `T`'s level.
                unsafe {
                    let xb = &x[blk * g.c * hw..][..g.c * hw];
                    to_channels::<T>(xb, hw, chans.clone(), lanes.clone(), xs);
                    let dyb = &dy[blk * g.c * p..][..g.c * p];
                    to_channels::<T>(dyb, p, chans, lanes.clone(), dys);
                }
                let sums = &mut part[b * g.taps..][..g.taps];
                for i in 0..lanes.len() {
                    weight_image(&xs[i * hw..][..hw], &dys[i * p..][..p], taps, sums);
                }
            }
        }
        for (ch, row) in dw.chunks_exact_mut(g.taps).enumerate() {
            for (t, d) in row.iter_mut().enumerate() {
                *d = part[(ch / LANES) * g.taps + t].0[ch % LANES];
            }
        }
    }
}

/// Adds one image's weight-gradient terms `g ≠ 0 ? g·x : +0.0` in one
/// channel block into its band partial `sums[t]`: output positions in
/// raster order, each over its in-bounds taps (the forward's terms).
#[inline(always)]
fn weight_image(xs: &[Lane], dys: &[Lane], taps: &Taps, sums: &mut [Lane]) {
    for (p, w) in taps.start.windows(2).enumerate() {
        let gv = &dys[p].0;
        for &(xo, t) in &taps.terms[w[0]..w[1]] {
            let term = product::<true>(gv, &xs[xo].0);
            for (s, v) in sums[t].0.iter_mut().zip(term) {
                *s += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::*;
    use crate::lanes::testing::via_lanes;
    use crate::lanes::PadLanes;
    use crate::par::with_thread_limit;
    use crate::{Conv2dSpec, Layout, Tensor};
    use rand::{Rng, SeedableRng};

    /// Random data with exact zeros mixed in, so the `g ≠ 0` select runs.
    fn randvec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
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

    /// `x`, `wgt` and `dy` of a depthwise layer of shape `s`.
    struct Case {
        x: Vec<f32>,
        wgt: Vec<f32>,
        dy: Vec<f32>,
    }

    type Passes<'a> = &'a dyn Fn(&[f32], &[f32], &[f32], &mut [f32], &mut [f32], &mut [f32]);

    impl Case {
        fn new(s: &ConvShape, seed: u64) -> Case {
            let (kh, kw) = s.spec.kernel;
            Case {
                x: randvec(s.n * s.c * s.h * s.w, seed),
                wgt: randvec(s.c * kh * kw, seed + 1),
                dy: randvec(s.n * s.c * s.positions(), seed + 2),
            }
        }

        /// Output bits of the forward, `dx` and `dw` as run by `run(x,
        /// wgt, dy, y, dx, dw)`, outputs pre-filled with NaN.
        fn run(&self, run: Passes) -> [Vec<u32>; 3] {
            let mut y = vec![f32::NAN; self.dy.len()];
            let mut dx = vec![f32::NAN; self.x.len()];
            let mut dw = vec![f32::NAN; self.wgt.len()];
            run(&self.x, &self.wgt, &self.dy, &mut y, &mut dx, &mut dw);
            [bits(&y), bits(&dx), bits(&dw)]
        }

        fn oracle(&self, s: &ConvShape) -> [Vec<u32>; 3] {
            self.run(&|x, w, dy, y, dx, dw| {
                reference::depthwise_conv2d(x, w, s, y);
                reference::depthwise_conv2d_backward(x, dy, w, s, dx, dw);
            })
        }

        /// Both passes compiled for `level`.
        fn lanes(&self, s: &ConvShape, level: Level) -> [Vec<u32>; 3] {
            let g = Geom::new(s);
            self.run(&|x, w, dy, y, dx, dw| {
                via_lanes(s, (x, dy), (y, dx), |x, dy, y, dx| {
                    let (x, dy) = (as_lanes(x), as_lanes(dy));
                    // SAFETY: callers pass only levels this host supports.
                    unsafe {
                        forward(level, x, w, &g, as_lanes_mut(y));
                        backward(level, x, dy, w, &g, as_lanes_mut(dx), dw);
                    }
                })
            })
        }
    }

    /// Both public entry points through [`via_lanes`].
    fn public(
        s: &ConvShape,
        x: &[f32],
        w: &[f32],
        dy: &[f32],
        y: &mut [f32],
        dx: &mut [f32],
        dw: &mut [f32],
    ) {
        via_lanes(s, (x, dy), (y, dx), |x, dy, y, dx| {
            depthwise_conv2d(x, w, s, y);
            depthwise_conv2d_backward(x, dy, w, s, dx, dw);
        })
    }

    /// The public forward through [`via_lanes`].
    fn forward_nchw(s: &ConvShape, x: &[f32], w: &[f32], y: &mut [f32]) {
        let dy = vec![0.0; y.len()];
        let mut dx = x.to_vec();
        via_lanes(s, (x, &dy), (y, &mut dx), |x, _, y, _| {
            depthwise_conv2d(x, w, s, y)
        });
    }

    /// Channel counts around the 16-lane block, and MobileNetV2's.
    const CHANNELS: [usize; 9] = [1, 2, 8, 15, 16, 17, 48, 96, 192];

    /// Batches below, at and above the 8 weight-gradient bands, so bands
    /// hold one image or several.
    const BATCHES: [usize; 6] = [1, 2, 7, 9, 16, 33];

    /// Kernels as (size, stride, padding): 3×3 at stride 1 and 2 and
    /// padding 0–2, 1×1, and 5×5 at strides 1 and 2.
    const KERNELS: [(usize, usize, usize); 9] = [
        (3, 1, 0),
        (3, 2, 0),
        (3, 1, 1),
        (3, 2, 1),
        (3, 1, 2),
        (3, 2, 2),
        (1, 1, 0),
        (5, 1, 2),
        (5, 2, 1),
    ];

    /// Every channel count × batch on a non-square 7×5 input, the kernel
    /// cycling so that each one meets several channel counts and
    /// batches. Under Miri, which checks the unsafe copies rather than
    /// the arithmetic, only up to two channel blocks and nine images.
    fn shapes() -> impl Iterator<Item = ConvShape> {
        CHANNELS
            .into_iter()
            .flat_map(|c| BATCHES.into_iter().map(move |n| (c, n)))
            .enumerate()
            .filter(|&(_, (c, n))| !cfg!(miri) || (c <= 17 && n <= 9))
            .map(|(i, (c, n))| {
                let (k, st, pd) = KERNELS[i % KERNELS.len()];
                ConvShape::new(n, c, 7, 5, c, Conv2dSpec::new(k, st, pd)).expect("valid shape")
            })
    }

    #[test]
    fn lanes_match_oracle_at_every_level_and_thread_limit() {
        for (i, s) in shapes().enumerate() {
            let case = Case::new(&s, 100 + 10 * i as u64);
            let want = case.oracle(&s);
            for level in Level::supported() {
                for limit in [1, 2, 5, 8] {
                    let got = with_thread_limit(limit, || case.lanes(&s, level));
                    for (pass, (g, w)) in ["forward", "dx", "dw"].iter().zip(got.iter().zip(&want))
                    {
                        assert_eq!(g, w, "{pass} {s:?} {level:?} at {limit} threads");
                    }
                }
            }
        }
    }

    /// The lane storage of the row-major `v` of `dims` with every pad
    /// lane NaN, as a debug build's conversions write them.
    fn nan_padded(v: &[f32], dims: &[usize]) -> Tensor {
        let mut t = Tensor::from_vec(v.to_vec(), dims)
            .and_then(|t| t.to_lanes())
            .expect("rank 4");
        let pad = PadLanes::of(&t).expect("a partial block");
        let mut real = vec![false; t.len()];
        pad.real_runs(0, t.len(), |lo, hi| real[lo..hi].fill(true));
        for (v, r) in t.as_mut_slice().iter_mut().zip(real) {
            if !r {
                *v = f32::NAN;
            }
        }
        t
    }

    #[test]
    fn nan_pad_lanes_reach_no_weight_gradient_and_no_real_lane() {
        // 17 and 33 images: 15 pad lanes in the last block, NaN in every
        // build here, while the real values are finite.
        for n in [17, 33] {
            let s = ConvShape::new(n, 18, 6, 5, 18, Conv2dSpec::new(3, 2, 1)).expect("shape");
            let case = Case::new(&s, 21);
            let want = case.oracle(&s);
            let g = Geom::new(&s);
            let x = nan_padded(&case.x, &[s.n, s.c, s.h, s.w]);
            let dy = nan_padded(&case.dy, &[s.n, s.c, s.oh, s.ow]);
            for level in Level::supported() {
                let mut y = Tensor::written(&[s.n, s.c, s.oh, s.ow], Layout::Lanes);
                let mut dx = Tensor::written(&[s.n, s.c, s.h, s.w], Layout::Lanes);
                let mut dw = vec![f32::NAN; case.wgt.len()];
                let (xl, dyl) = (as_lanes(x.as_slice()), as_lanes(dy.as_slice()));
                // SAFETY: `supported` lists only levels this host runs.
                unsafe {
                    forward(level, xl, &case.wgt, &g, as_lanes_mut(y.as_mut_slice()));
                    let dxl = as_lanes_mut(dx.as_mut_slice());
                    backward(level, xl, dyl, &case.wgt, &g, dxl, &mut dw);
                }
                let got = [y.to_nchw(), dx.to_nchw()].map(|t| bits(t.as_slice()));
                assert_eq!(got[0], want[0], "forward n={n} {level:?}");
                assert_eq!(got[1], want[1], "dx n={n} {level:?}");
                assert_eq!(bits(&dw), want[2], "dw n={n} {level:?}");
            }
        }
    }

    #[test]
    fn entry_points_match_oracle_on_every_kernel() {
        // Through the public entries (host level), each kernel on a
        // square and a non-square input.
        for (i, &(k, st, pd)) in KERNELS.iter().enumerate() {
            for (n, c, h, w) in [(9, 17, 6, 6), (3, 5, 7, 5)] {
                let s = ConvShape::new(n, c, h, w, c, Conv2dSpec::new(k, st, pd)).expect("shape");
                let case = Case::new(&s, 10 * i as u64);
                let got = case.run(&|x, w, dy, y, dx, dw| public(&s, x, w, dy, y, dx, dw));
                assert_eq!(got, case.oracle(&s), "{s:?}");
            }
        }
    }

    #[test]
    fn zero_output_gradients_keep_nonfinite_operands_out() {
        // Where dY is 0 the oracle skips the term, so a NaN or ±Inf
        // input (weight gradient) or weight (input gradient) under it
        // must contribute +0.0, not NaN.
        let s = ConvShape::new(9, 17, 5, 4, 17, Conv2dSpec::new(3, 1, 1)).expect("shape");
        let mut case = Case::new(&s, 3);
        for (i, v) in case.x.iter_mut().enumerate() {
            if i % 7 == 0 {
                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
            }
        }
        case.wgt[4] = f32::NAN;
        case.wgt[20] = f32::INFINITY;
        case.dy.fill(0.0);
        let want = case.oracle(&s);
        for level in Level::supported() {
            let got = case.lanes(&s, level);
            assert_eq!(got[1..], want[1..], "{level:?}");
            assert!(got[1].iter().chain(&got[2]).all(|&b| b == 0), "+0.0 sums");
        }
    }

    /// Bits with every NaN replaced by one canonical NaN: where a NaN
    /// flows through, only its being NaN is part of the contract.
    fn canon(v: &[u32]) -> Vec<u32> {
        v.iter()
            .map(|&b| {
                if f32::from_bits(b).is_nan() {
                    f32::NAN.to_bits()
                } else {
                    b
                }
            })
            .collect()
    }

    #[test]
    fn nonfinite_operands_propagate_as_in_the_oracle() {
        let s = ConvShape::new(7, 20, 6, 5, 20, Conv2dSpec::new(3, 2, 1)).expect("shape");
        let mut case = Case::new(&s, 5);
        case.x[3] = f32::NAN;
        case.x[100] = f32::INFINITY;
        case.wgt[11] = f32::NEG_INFINITY;
        case.dy[8] = f32::INFINITY;
        let want = case.oracle(&s).map(|v| canon(&v));
        for level in Level::supported() {
            let got = case.lanes(&s, level).map(|v| canon(&v));
            assert_eq!(got, want, "{level:?}");
        }
    }

    #[test]
    fn empty_batch_or_channels_are_empty_sums() {
        for (n, c) in [(0, 3), (2, 0), (0, 0)] {
            let s = ConvShape::new(n, c, 5, 4, c, Conv2dSpec::new(3, 2, 1)).expect("shape");
            let got = Case::new(&s, 1).run(&|x, w, dy, y, dx, dw| public(&s, x, w, dy, y, dx, dw));
            assert!(got[0].is_empty() && got[1].is_empty(), "{s:?}");
            assert_eq!(got[2], vec![0u32; c * 9], "{s:?}");
        }
    }

    #[test]
    fn each_channel_is_a_one_channel_dense_convolution() {
        // With finite inputs, padding products and zero-weight skips add
        // only ±0.0 to sums that start at +0.0, so the per-channel dense
        // oracle gives the same bits.
        let s = ConvShape::new(3, 4, 6, 5, 4, Conv2dSpec::new(3, 2, 1)).expect("shape");
        let case = Case::new(&s, 9);
        let mut y = vec![0.0f32; s.n * s.c * s.positions()];
        forward_nchw(&s, &case.x, &case.wgt, &mut y);
        let one = ConvShape::new(1, 1, s.h, s.w, 1, s.spec).expect("shape");
        let mut want = vec![0.0f32; s.positions()];
        for (i, plane) in y.chunks_exact(s.positions()).enumerate() {
            let x = &case.x[i * s.h * s.w..][..s.h * s.w];
            reference::conv2d(x, &case.wgt[(i % s.c) * 9..][..9], &one, &mut want);
            assert_eq!(bits(plane), bits(&want), "plane {i}");
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let s = ConvShape::new(2, 2, 4, 4, 2, Conv2dSpec::new(3, 1, 1)).expect("shape");
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mut draw =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-0.5..0.5)).collect() };
        let (x, wgt) = (draw(s.n * s.c * 16), draw(s.c * 9));
        // Loss = sum(out), so dy = ones.
        let dy = vec![1.0f32; s.n * s.c * s.positions()];
        let (mut dx, mut dw) = (vec![0.0f32; x.len()], vec![0.0f32; wgt.len()]);
        let mut y = vec![0.0f32; dy.len()];
        public(&s, &x, &wgt, &dy, &mut y, &mut dx, &mut dw);
        let loss = |x: &[f32], w: &[f32]| -> f32 {
            let mut y = vec![0.0f32; dy.len()];
            forward_nchw(&s, x, w, &mut y);
            y.iter().sum()
        };
        let eps = 1e-3;
        let nudge = |v: &[f32], i: usize, d: f32| {
            let mut v = v.to_vec();
            v[i] += d;
            v
        };
        for i in [0usize, 5, 9, 17] {
            let (up, down) = (nudge(&wgt, i, eps), nudge(&wgt, i, -eps));
            let fd = (loss(&x, &up) - loss(&x, &down)) / (2.0 * eps);
            assert!((fd - dw[i]).abs() < 1e-2, "w[{i}]: fd {fd} vs {}", dw[i]);
        }
        for i in [0usize, 7, 15, 31] {
            let (up, down) = (nudge(&x, i, eps), nudge(&x, i, -eps));
            let fd = (loss(&up, &wgt) - loss(&down, &wgt)) / (2.0 * eps);
            assert!((fd - dx[i]).abs() < 1e-2, "x[{i}]: fd {fd} vs {}", dx[i]);
        }
    }
}
