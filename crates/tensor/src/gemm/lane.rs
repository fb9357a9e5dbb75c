//! Batch-lane convolution: the three dense f32 passes with 16 images as
//! the SIMD lanes of every register. It is the only f32 lowering of
//! [`conv2d`](super::conv::conv2d) and
//! [`conv2d_backward`](super::conv::conv2d_backward), for every kernel
//! size, stride, padding and batch.
//!
//! The layers it serves are narrow, with 2×2 to 16×16 outputs, but the
//! batch is always wide. So each pass copies its operands once into an
//! image-minor layout, `[N/16][C][H][W][16]`, in which one 16-float
//! vector holds one pixel of 16 *independent* images.
//! Every register tile is then a plain tile over contiguous vector loads,
//! read in place: no tap packing, no `dcols` buffer and no col2im scatter.
//! The lanes of a partial last block are zero, so a batch below 16 images
//! costs a whole block.
//!
//! - **forward**: `acc[o][pos] += W[o,t] · X[tap t at pos]` over ascending
//!   taps `t`, skipping zero weights, from a zero-padded copy of `X`.
//! - **input gradient**: per tap `(ki, kj)` in ascending order,
//!   `inner[c][pos] = Σ_o↑ W[o,(c,ki,kj)] · dY[o,pos]` (zero skip), then
//!   `dX[c][target(pos)] += inner`, over the `dY` positions only. A tap
//!   whose source falls outside `dY` is never added, and one whose target
//!   falls in padding lands in a padded accumulation buffer that is
//!   cropped.
//! - **weight gradient**: one accumulator per `(o, t, image)` over
//!   ascending positions, then a 16×16 in-register transpose, so each
//!   image's dots form one vector over 16 `(o, t)` pairs. Those vectors
//!   are added into the [`WGRAD_BANDS`] band partial in image order, and
//!   each band's partial into the total in band order.
//!
//! # Bitwise contract
//!
//! Each pass is bit-identical to the per-sample oracle in
//! [`reference`](super::reference), at every SIMD level and thread count:
//!
//! - **forward** adds the same products into one accumulator in the same
//!   order as `gemm_nn` over one image's column matrix; padding taps read
//!   the same exact `0.0`;
//! - **input gradient**: each `inner` is one `dcols` entry of `gemm_tn`
//!   (one accumulator, ascending output channels, zero skip), and each
//!   `dX` element receives its entries in ascending tap order, exactly the
//!   entries `col2im` adds and in its order;
//! - **weight gradient**: each dot is `gemm_nt_acc`'s (one accumulator over
//!   ascending positions, padding products included, no skip), and the
//!   band and total sums add the same values in the same order as the
//!   oracle's partials.
//!
//! Lanes are independent outputs, so the vector width changes speed,
//! never bits. Forward and input-gradient work is split over image
//! blocks, weight-gradient work over `(o, t)` tiles, and every output is
//! computed wholly by one chunk in a fixed order.

use super::conv::{ConvShape, WGRAD_BANDS};
use super::{Level, SendPtr};
use crate::par::{parallel_for_chunks, ChunkGrid};
use crate::recycle;

/// Images per block: the lanes of every vector in this module (and
/// channels per block in [`super::depthwise`]).
pub(super) const LANES: usize = 16;

/// Register tile side. Forward tiles are `TILE` output channels × `TILE`
/// positions, input-gradient tiles `TILE` input channels × `TILE`
/// positions, weight-gradient tiles `TILE` output channels × `TILE` taps;
/// `TILE²` is [`LANES`], so a weight-gradient tile transposes as one
/// square.
const TILE: usize = 4;
const _: () = assert!(TILE * TILE == LANES);

/// Cap on weight-gradient chunks: each chunk streams every block of `X`
/// and `dY` once.
const DW_MAX_CHUNKS: usize = 4;

// NCHW elements copied into or out of the image-minor layout.
// Shape-only, so totals are identical at any thread count.
static LANE_ELEMS: cq_obs::Counter = cq_obs::Counter::new("tensor.conv.lane_elems");

/// One pixel of a block's 16 images, aligned to a cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(super) struct Lane(pub(super) [f32; LANES]);

pub(super) const ZERO: Lane = Lane([0.0; LANES]);

/// A run of lanes, cache-line aligned inside a plain `f32` allocation
/// from the recycler, to which it returns on drop. (An over-aligned
/// `Vec<Lane>` would take the allocator's aligned path, which measurably
/// raises a training step's peak RSS.)
pub(super) struct LaneBuf {
    raw: Vec<f32>,
    off: usize,
    len: usize,
}

impl LaneBuf {
    /// `len` zero lanes.
    pub(super) fn zeroed(len: usize) -> LaneBuf {
        LaneBuf::over(recycle::take_zeroed((len + 1) * LANES), len)
    }

    /// `len` lanes that the caller writes in full before reading them.
    pub(super) fn written(len: usize) -> LaneBuf {
        LaneBuf::over(recycle::take_written((len + 1) * LANES), len)
    }

    fn over(raw: Vec<f32>, len: usize) -> LaneBuf {
        // Floats up to the first 64-byte boundary.
        let off = (raw.as_ptr() as usize).wrapping_neg() % 64 / 4;
        LaneBuf { raw, off, len }
    }

    pub(super) fn lanes(&self) -> &[Lane] {
        let floats = &self.raw[self.off..self.off + self.len * LANES];
        // SAFETY: `floats` starts on a 64-byte boundary and holds `len`
        // runs of 16 f32s; a `Lane` is exactly 16 f32s (`repr(C)`), and
        // every bit pattern is a valid one.
        unsafe { std::slice::from_raw_parts(floats.as_ptr().cast(), self.len) }
    }

    pub(super) fn lanes_mut(&mut self) -> &mut [Lane] {
        let floats = &mut self.raw[self.off..self.off + self.len * LANES];
        // SAFETY: as for `lanes`, borrowed uniquely.
        unsafe { std::slice::from_raw_parts_mut(floats.as_mut_ptr().cast(), self.len) }
    }
}

impl Drop for LaneBuf {
    fn drop(&mut self) {
        recycle::give(std::mem::take(&mut self.raw));
    }
}

/// A 16×16 transpose of a square of lanes, compiled per SIMD level.
pub(super) trait Transpose {
    /// # Safety
    ///
    /// The host must support the level the implementation is compiled
    /// for: [`dispatch_at`] picks it from the level it was given.
    unsafe fn transpose(t: &mut [Lane; LANES]);
}

/// Element swaps: the portable and AVX2 levels.
struct Swaps;

impl Transpose for Swaps {
    #[inline(always)]
    unsafe fn transpose(t: &mut [Lane; LANES]) {
        for i in 0..LANES {
            for j in i + 1..LANES {
                let v = t[i].0[j];
                t[i].0[j] = t[j].0[i];
                t[j].0[i] = v;
            }
        }
    }
}

/// Four shuffle stages on sixteen 512-bit registers.
#[cfg(target_arch = "x86_64")]
struct Shuffles;

#[cfg(target_arch = "x86_64")]
impl Transpose for Shuffles {
    #[inline(always)]
    unsafe fn transpose(t: &mut [Lane; LANES]) {
        // SAFETY: the caller guarantees AVX-512F.
        unsafe { transpose_avx512(t) }
    }
}

/// Transposes `t` in registers: `unpack{lo,hi}_ps` interleaves row pairs,
/// `unpack{lo,hi}_pd` row quads, and two rounds of `shuffle_f32x4` move
/// the 128-bit quarters into place.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_avx512(t: &mut [Lane; LANES]) {
    use std::arch::x86_64::*;
    let mut r = [_mm512_setzero_ps(); LANES];
    for (v, row) in r.iter_mut().zip(t.iter()) {
        // SAFETY: each `Lane` is 16 aligned f32s, one 512-bit load.
        *v = unsafe { _mm512_load_ps(row.0.as_ptr()) };
    }
    let mut a = [_mm512_setzero_ps(); LANES];
    for i in (0..LANES).step_by(2) {
        a[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
        a[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    let mut b = [_mm512_setzero_ps(); LANES];
    for q in (0..LANES).step_by(4) {
        let (a0, a1) = (_mm512_castps_pd(a[q]), _mm512_castps_pd(a[q + 1]));
        let (a2, a3) = (_mm512_castps_pd(a[q + 2]), _mm512_castps_pd(a[q + 3]));
        b[q] = _mm512_castpd_ps(_mm512_unpacklo_pd(a0, a2));
        b[q + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a0, a2));
        b[q + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(a1, a3));
        b[q + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(a1, a3));
    }
    // b[4g + j] holds column j (and j + 4, 8, 12 in its other quarters)
    // of rows 4g..4g+4.
    let mut c = [_mm512_setzero_ps(); LANES];
    for h in [0, 8] {
        for j in 0..4 {
            c[h + j] = _mm512_shuffle_f32x4::<0x88>(b[h + j], b[h + 4 + j]);
            c[h + 4 + j] = _mm512_shuffle_f32x4::<0xdd>(b[h + j], b[h + 4 + j]);
        }
    }
    for j in 0..8 {
        let (lo, hi) = (
            _mm512_shuffle_f32x4::<0x88>(c[j], c[8 + j]),
            _mm512_shuffle_f32x4::<0xdd>(c[j], c[8 + j]),
        );
        // SAFETY: as for the loads.
        unsafe {
            _mm512_store_ps(t[j].0.as_mut_ptr(), lo);
            _mm512_store_ps(t[8 + j].0.as_mut_ptr(), hi);
        }
    }
}

/// A pass over a range of chunk indices, generic over the transpose.
pub(super) trait LanePass {
    /// # Safety
    ///
    /// The host must support `T`'s level (see [`Transpose::transpose`]).
    unsafe fn run<T: Transpose>(self);
}

/// Runs `pass` compiled for `level`.
///
/// # Safety
///
/// The host must support `level`.
pub(super) unsafe fn dispatch_at(level: Level, pass: impl LanePass) {
    match level {
        // SAFETY: `Swaps` runs at every level.
        Level::Portable => unsafe { pass.run::<Swaps>() },
        // SAFETY: the caller guarantees the level.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { run_avx2(pass) },
        // SAFETY: the caller guarantees the level.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { run_avx512(pass) },
    }
}

/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(pass: impl LanePass) {
    // SAFETY: `Swaps` runs at every level.
    unsafe { pass.run::<Swaps>() }
}

/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512(pass: impl LanePass) {
    // SAFETY: the caller guarantees AVX-512F, `Shuffles`' level.
    unsafe { pass.run::<Shuffles>() }
}

/// Per-call geometry shared by the passes.
struct Geom {
    /// Input and output channels.
    c: usize,
    o: usize,
    /// Blocks of [`LANES`] images (the last one may be partial).
    blocks: usize,
    /// Cells per zero-padded plane (`(H+2·PH)·(W+2·PW)`).
    plane: usize,
    /// Offset within a padded plane of each output position's top-left
    /// tap, in raster order.
    pos: Vec<usize>,
    /// Offset within a padded block of each tap `(c, ki, kj)`, in weight
    /// row order.
    taps: Vec<usize>,
}

impl Geom {
    fn new(s: &ConvShape) -> Geom {
        let (hp, wp) = s.padded_hw();
        Geom {
            c: s.c,
            o: s.o,
            blocks: s.n.div_ceil(LANES),
            plane: hp * wp,
            pos: (0..s.oh)
                .flat_map(|oy| (0..s.ow).map(move |ox| s.origin(oy, ox)))
                .collect(),
            taps: s.tap_offsets(s.c),
        }
    }
}

/// A block's geometry in NCHW: which images it covers and where each
/// element of an image sits in the lane layout's (possibly padded)
/// planes.
struct Planes {
    /// Images in the batch.
    n: usize,
    /// Elements per image (`C·H·W`).
    len: usize,
    /// Lane-layout cells per block.
    block: usize,
    /// Lane-layout cell of each element of an image, in NCHW order.
    cells: Vec<usize>,
    /// The padding cells of a block, which no copy writes.
    pads: Vec<usize>,
}

impl Planes {
    /// `n` images of `c` planes of `h`×`w`, padded by `pad` in the lane
    /// layout.
    fn new(n: usize, c: usize, (h, w): (usize, usize), pad: (usize, usize)) -> Planes {
        let (hp, wp) = (h + 2 * pad.0, w + 2 * pad.1);
        let cells = (0..c)
            .flat_map(|ch| (0..h).flat_map(move |y| (0..w).map(move |x| (ch, y, x))))
            .map(|(ch, y, x)| (ch * hp + y + pad.0) * wp + x + pad.1)
            .collect();
        let inside =
            |y: usize, x: usize| (pad.0..h + pad.0).contains(&y) && (pad.1..w + pad.1).contains(&x);
        let pads = (0..c * hp * wp)
            .filter(|&cell| !inside(cell / wp % hp, cell % wp))
            .collect();
        Planes {
            n,
            len: c * h * w,
            block: c * hp * wp,
            cells,
            pads,
        }
    }

    /// Zeroes the padding cells of `block`, one block of this layout.
    fn zero_padding(&self, block: &mut [Lane]) {
        for &cell in &self.pads {
            block[cell] = ZERO;
        }
    }

    /// An image's elements in runs of at most [`LANES`], with their
    /// cells: the first run is cut short so that the rest start on a
    /// cache-line boundary of the NCHW buffer at `base` (of every image
    /// when the image length is a multiple of 16 floats), so a full run
    /// is one aligned vector per image.
    #[inline(always)]
    fn chunks(&self, base: *const f32) -> impl Iterator<Item = (usize, &[usize])> {
        let first = ((base as usize).wrapping_neg() % 64 / 4).min(self.len);
        let (head, tail) = self.cells.split_at(first);
        let head = (first > 0).then_some((0, head));
        head.into_iter()
            .chain((first..).step_by(LANES).zip(tail.chunks(LANES)))
    }

    /// First image and image count of block `b`.
    fn images(&self, b: usize) -> (usize, usize) {
        let img0 = b * LANES;
        (img0, LANES.min(self.n - img0))
    }
}

/// Copies block `b` of NCHW `src` into `dst` (one block of the lane
/// layout of `g`), sixteen elements of sixteen images at a time through a
/// transpose. Padding cells are left as they are; lanes past the batch
/// end are zeroed.
///
/// # Safety
///
/// The host must support `T`'s level.
#[inline(always)]
unsafe fn load_block<T: Transpose>(src: &[f32], g: &Planes, b: usize, dst: &mut [Lane]) {
    let (img0, nimg) = g.images(b);
    let mut t = [ZERO; LANES];
    for (f0, cells) in g.chunks(src.as_ptr()) {
        let m = cells.len();
        for (i, row) in t.iter_mut().enumerate() {
            if i < nimg {
                let at = (img0 + i) * g.len + f0;
                copy_prefix(&mut row.0, &src[at..at + m]);
            } else {
                *row = ZERO;
            }
        }
        // SAFETY: the caller guarantees `T`'s level.
        unsafe { T::transpose(&mut t) };
        for (&cell, row) in cells.iter().zip(&t) {
            dst[cell] = *row;
        }
    }
}

/// Copies block `b` of the lane layout `src` (one block of `g`) into its
/// images of NCHW `dst`, cropping padding.
///
/// # Safety
///
/// `dst` must point to an NCHW buffer of `g.n` images whose images of
/// block `b` no other thread accesses during the call, and the host must
/// support `T`'s level.
#[inline(always)]
unsafe fn store_block<T: Transpose>(src: &[Lane], g: &Planes, b: usize, dst: &SendPtr) {
    let (img0, nimg) = g.images(b);
    let mut t = [ZERO; LANES];
    for (f0, cells) in g.chunks(dst.0) {
        let m = cells.len();
        for (&cell, row) in cells.iter().zip(t.iter_mut()) {
            *row = src[cell];
        }
        // SAFETY: the caller guarantees `T`'s level.
        unsafe { T::transpose(&mut t) };
        for (i, row) in t.iter().enumerate().take(nimg) {
            // SAFETY: elements `f0..f0 + m` of image `img0 + i < n` lie
            // inside `dst`, and the caller guarantees block `b`'s images
            // are this thread's alone. A full row is one fixed-size
            // (vector) store.
            unsafe {
                let d = dst.0.add((img0 + i) * g.len + f0);
                if m == LANES {
                    d.cast::<[f32; LANES]>().write_unaligned(row.0);
                } else {
                    std::ptr::copy_nonoverlapping(row.0.as_ptr(), d, m);
                }
            }
        }
    }
}

/// `dst[..src.len()] = src`; a full row is a fixed-size copy, so it
/// compiles to a vector move rather than a `memcpy` call.
#[inline(always)]
pub(super) fn copy_prefix(dst: &mut [f32; LANES], src: &[f32]) {
    match <&[f32; LANES]>::try_from(src) {
        Ok(full) => *dst = *full,
        Err(_) => dst[..src.len()].copy_from_slice(src),
    }
}

/// Copies a whole NCHW batch into the lane layout of `g` (padding zero),
/// in parallel over blocks.
fn to_lanes(level: Level, src: &[f32], g: &Planes) -> LaneBuf {
    let blocks = g.n.div_ceil(LANES);
    let mut dst = LaneBuf::written(blocks * g.block);
    let ptr = SendPtr(dst.lanes_mut().as_mut_ptr().cast());
    parallel_for_chunks(ChunkGrid::new(blocks, 1), |_, b0, b1| {
        let ptr = &ptr;
        // SAFETY: `ptr` points to `blocks · g.block` lanes, and block
        // ranges are disjoint across chunks.
        let chunk = unsafe {
            let at = ptr.0.add(b0 * g.block * LANES).cast::<Lane>();
            std::slice::from_raw_parts_mut(at, (b1 - b0) * g.block)
        };
        // SAFETY: the caller guarantees `level`.
        unsafe {
            dispatch_at(
                level,
                ToLanes {
                    src,
                    g,
                    b0,
                    dst: chunk,
                },
            )
        };
    });
    dst
}

struct ToLanes<'a> {
    src: &'a [f32],
    g: &'a Planes,
    b0: usize,
    dst: &'a mut [Lane],
}

impl LanePass for ToLanes<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let ToLanes { src, g, b0, dst } = self;
        for (i, block) in dst.chunks_exact_mut(g.block).enumerate() {
            // SAFETY: the caller guarantees `T`'s level.
            unsafe { load_block::<T>(src, g, b0 + i, block) };
            g.zero_padding(block);
        }
    }
}

/// Forward convolution on the lane layout; same contract as
/// [`super::conv::conv2d`], whose shape checks and empty-shape return it
/// relies on.
///
/// # Safety
///
/// The host must support `level`.
pub(super) unsafe fn forward(level: Level, x: &[f32], wgt: &[f32], s: &ConvShape, out: &mut [f32]) {
    let (k, o) = (s.taps(), s.o);
    let geom = Geom::new(s);
    // Weights tap-major, channels padded to whole tiles with zeros (which
    // the zero skip passes over): wt[t·OP + o] = W[o, t].
    let op = o.next_multiple_of(TILE);
    let mut wt = vec![0.0f32; k * op];
    for (co, row) in wgt.chunks_exact(k).enumerate() {
        for (t, &v) in row.iter().enumerate() {
            wt[t * op + co] = v;
        }
    }
    let xg = Planes::new(s.n, s.c, (s.h, s.w), s.spec.padding);
    let yg = Planes::new(s.n, o, (s.oh, s.ow), (0, 0));
    LANE_ELEMS.add((s.n * (s.c * s.h * s.w + o * s.positions())) as u64);
    let out = SendPtr(out.as_mut_ptr());
    parallel_for_chunks(ChunkGrid::new(geom.blocks, 1), |_, b0, b1| {
        let pass = Forward {
            x,
            wt: &wt,
            geom: &geom,
            xg: &xg,
            yg: &yg,
            out: &out,
            blocks: (b0, b1),
        };
        // SAFETY: the caller guarantees `level`.
        unsafe { dispatch_at(level, pass) };
    });
}

struct Forward<'a> {
    x: &'a [f32],
    wt: &'a [f32],
    geom: &'a Geom,
    xg: &'a Planes,
    yg: &'a Planes,
    out: &'a SendPtr,
    blocks: (usize, usize),
}

impl LanePass for Forward<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let Forward {
            x,
            wt,
            geom,
            xg,
            yg,
            out,
            blocks: (b0, b1),
        } = self;
        // Padding cells are zeroed once and never written; every other
        // cell is written for each block.
        let mut xb = LaneBuf::written(xg.block);
        let mut yb = LaneBuf::written(yg.block);
        let (xb, yb) = (xb.lanes_mut(), yb.lanes_mut());
        xg.zero_padding(xb);
        for b in b0..b1 {
            // SAFETY: the caller guarantees `T`'s level.
            unsafe { load_block::<T>(x, xg, b, xb) };
            forward_block(xb, wt, geom, yb);
            // SAFETY: as above; block ranges are disjoint across chunks,
            // so are the images they store.
            unsafe { store_block::<T>(yb, yg, b, out) };
        }
    }
}

/// One block's forward outputs `yb[o][pos]` from its padded input `xb`.
#[inline(always)]
fn forward_block(xb: &[Lane], wt: &[f32], geom: &Geom, yb: &mut [Lane]) {
    let (o, p) = (geom.o, geom.pos.len());
    let op = o.next_multiple_of(TILE);
    for o0 in (0..o).step_by(TILE) {
        for p0 in (0..p).step_by(TILE) {
            // An edge tile repeats the last position; its copies are not
            // stored.
            let pos: [usize; TILE] = std::array::from_fn(|i| geom.pos[(p0 + i).min(p - 1)]);
            let mut acc = [[[0.0f32; LANES]; TILE]; TILE];
            for (&tap, wrow) in geom.taps.iter().zip(wt.chunks_exact(op)) {
                let xs: [[f32; LANES]; TILE] = std::array::from_fn(|i| xb[pos[i] + tap].0);
                let ws = &wrow[o0..o0 + TILE];
                for oi in 0..TILE {
                    let w = ws[oi];
                    if w == 0.0 {
                        continue;
                    }
                    for pi in 0..TILE {
                        for l in 0..LANES {
                            acc[oi][pi][l] += w * xs[pi][l];
                        }
                    }
                }
            }
            for (co, acc_o) in acc.iter().enumerate().take(o - o0) {
                let dst = &mut yb[(o0 + co) * p + p0..];
                for (d, a) in dst.iter_mut().zip(acc_o).take(p - p0) {
                    d.0 = *a;
                }
            }
        }
    }
}

/// Input and weight gradients on the lane layout, sharing one copy of
/// `dY`. Same contract as [`super::conv::conv2d_backward`], whose shape
/// checks and empty-shape return it relies on.
///
/// # Safety
///
/// The host must support `level`.
pub(super) unsafe fn backward(
    level: Level,
    x: &[f32],
    dy: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    dx: &mut [f32],
    dw: &mut [f32],
) {
    let geom = Geom::new(s);
    let yg = Planes::new(s.n, s.o, (s.oh, s.ow), (0, 0));
    let xg = Planes::new(s.n, s.c, (s.h, s.w), s.spec.padding);
    // dY and X in, dX out.
    LANE_ELEMS.add((s.n * (s.o * s.positions() + 2 * s.c * s.h * s.w)) as u64);
    let dyl = to_lanes(level, dy, &yg);
    let xl = to_lanes(level, x, &xg);
    let wx = input_weights(wgt, s);
    let (dx, dw) = (SendPtr(dx.as_mut_ptr()), SendPtr(dw.as_mut_ptr()));
    // Whether each image closes its weight-gradient band.
    let bands = ChunkGrid::with_max_chunks(s.n, 1, WGRAD_BANDS);
    let mut band_end = vec![false; s.n];
    for b in 0..bands.n_chunks() {
        band_end[bands.range(b).1 - 1] = true;
    }
    let tiles = s.o.div_ceil(TILE) * s.taps().div_ceil(TILE);
    let dw_grid = ChunkGrid::with_max_chunks(tiles, 1, DW_MAX_CHUNKS);
    // One job runs both passes, so neither waits on the other's last
    // chunk: the input gradient's image blocks come first, then the
    // weight gradient's tile chunks.
    let nx = geom.blocks;
    let yblock = s.o * s.positions();
    parallel_for_chunks(ChunkGrid::new(nx + dw_grid.n_chunks(), 1), |_, c0, c1| {
        for c in c0..c1 {
            if c < nx {
                let pass = BackwardInput {
                    dyb: &dyl.lanes()[c * yblock..(c + 1) * yblock],
                    wx: &wx,
                    geom: &geom,
                    xg: &xg,
                    out: &dx,
                    b: c,
                };
                // SAFETY: the caller guarantees `level`.
                unsafe { dispatch_at(level, pass) };
            } else {
                let pass = BackwardWeight {
                    dyl: dyl.lanes(),
                    xl: xl.lanes(),
                    geom: &geom,
                    xblock: xg.block,
                    band_end: &band_end,
                    out: &dw,
                    tiles: dw_grid.range(c - nx),
                };
                // SAFETY: the caller guarantees `level`.
                unsafe { dispatch_at(level, pass) };
            }
        }
    });
}

/// The weights as the input gradient reads them: tap-major, then output
/// channel, input channels padded to whole tiles with zeros:
/// `wx[(j·O + o)·CP + c] = W[o, c·KK + j]`.
fn input_weights(wgt: &[f32], s: &ConvShape) -> Vec<f32> {
    let (k, o, c) = (s.taps(), s.o, s.c);
    let kk = s.spec.kernel.0 * s.spec.kernel.1;
    let cp = c.next_multiple_of(TILE);
    let mut wx = vec![0.0f32; kk * o * cp];
    for (co, row) in wgt.chunks_exact(k).enumerate() {
        for (t, &v) in row.iter().enumerate() {
            wx[((t % kk) * o + co) * cp + t / kk] = v;
        }
    }
    wx
}

struct BackwardInput<'a> {
    dyb: &'a [Lane],
    wx: &'a [f32],
    geom: &'a Geom,
    xg: &'a Planes,
    out: &'a SendPtr,
    b: usize,
}

impl LanePass for BackwardInput<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let BackwardInput {
            dyb,
            wx,
            geom,
            xg,
            out,
            b,
        } = self;
        let mut dxb = LaneBuf::zeroed(xg.block);
        let dxb = dxb.lanes_mut();
        backward_input_block(dyb, wx, geom, dxb);
        // SAFETY: the caller guarantees `T`'s level; each chunk stores its
        // own block's images.
        unsafe { store_block::<T>(dxb, xg, b, out) };
    }
}

/// One block's input gradient, accumulated into the zeroed padded `dxb`
/// from its `dyb[o][pos]`.
#[inline(always)]
fn backward_input_block(dyb: &[Lane], wx: &[f32], geom: &Geom, dxb: &mut [Lane]) {
    let (c, o, p) = (geom.c, geom.o, geom.pos.len());
    let cp = c.next_multiple_of(TILE);
    for c0 in (0..c).step_by(TILE) {
        // Taps `(ki, kj)` in ascending order: channel 0's offsets.
        for (&koff, wk) in geom.taps.iter().zip(wx.chunks_exact(o * cp)) {
            for p0 in (0..p).step_by(TILE) {
                // An edge tile repeats the last position; its copies are
                // not added.
                let idx: [usize; TILE] = std::array::from_fn(|i| (p0 + i).min(p - 1));
                let mut inner = [[[0.0f32; LANES]; TILE]; TILE];
                for (dyo, wo) in dyb.chunks_exact(p).zip(wk.chunks_exact(cp)) {
                    let dv: [[f32; LANES]; TILE] = std::array::from_fn(|i| dyo[idx[i]].0);
                    let ws = &wo[c0..c0 + TILE];
                    for ci in 0..TILE {
                        let w = ws[ci];
                        if w == 0.0 {
                            continue;
                        }
                        for pi in 0..TILE {
                            for l in 0..LANES {
                                inner[ci][pi][l] += w * dv[pi][l];
                            }
                        }
                    }
                }
                for (ci, inner_c) in inner.iter().enumerate().take(c - c0) {
                    let base = (c0 + ci) * geom.plane + koff;
                    for (&pos, a) in geom.pos[p0..].iter().zip(inner_c).take(p - p0) {
                        let d = &mut dxb[base + pos].0;
                        for l in 0..LANES {
                            d[l] += a[l];
                        }
                    }
                }
            }
        }
    }
}

struct BackwardWeight<'a> {
    dyl: &'a [Lane],
    xl: &'a [Lane],
    geom: &'a Geom,
    xblock: usize,
    /// Per image: whether it closes its weight-gradient band.
    band_end: &'a [bool],
    out: &'a SendPtr,
    tiles: (usize, usize),
}

impl LanePass for BackwardWeight<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let BackwardWeight {
            dyl,
            xl,
            geom,
            xblock,
            band_end,
            out,
            tiles: (q0, q1),
        } = self;
        let (k, o, p) = (geom.taps.len(), geom.o, geom.pos.len());
        let ktiles = k.div_ceil(TILE);
        // Per tile: the running band partial and total, lane = (o, t) pair.
        let (mut parts, mut totals) = (LaneBuf::zeroed(q1 - q0), LaneBuf::zeroed(q1 - q0));
        let (parts, totals) = (parts.lanes_mut(), totals.lanes_mut());
        for (b, (xb, dyb)) in xl
            .chunks_exact(xblock)
            .zip(dyl.chunks_exact(o * p))
            .enumerate()
        {
            let img0 = b * LANES;
            let nimg = LANES.min(band_end.len() - img0);
            for (q, (pt, tt)) in (q0..q1).zip(parts.iter_mut().zip(totals.iter_mut())) {
                let (o0, t0) = ((q / ktiles) * TILE, (q % ktiles) * TILE);
                // Edge tiles repeat the last channel or tap; their copies
                // are not stored.
                let rows: [&[Lane]; TILE] =
                    std::array::from_fn(|i| &dyb[(o0 + i).min(o - 1) * p..][..p]);
                let taps: [usize; TILE] = std::array::from_fn(|i| geom.taps[(t0 + i).min(k - 1)]);
                // acc[oi·TILE + ti] lane i: image i's dot.
                let mut acc = [[0.0f32; LANES]; LANES];
                for (j, &pos) in geom.pos.iter().enumerate() {
                    let xs: [[f32; LANES]; TILE] = std::array::from_fn(|i| xb[pos + taps[i]].0);
                    let dv: [[f32; LANES]; TILE] = std::array::from_fn(|i| rows[i][j].0);
                    for oi in 0..TILE {
                        for ti in 0..TILE {
                            for l in 0..LANES {
                                acc[oi * TILE + ti][l] += dv[oi][l] * xs[ti][l];
                            }
                        }
                    }
                }
                let mut acc = acc.map(Lane);
                // acc[i] lane oi·TILE + ti: image i's dot.
                // SAFETY: the caller guarantees `T`'s level.
                unsafe { T::transpose(&mut acc) };
                // Locals, so the running sums stay in registers.
                let (mut part, mut total) = (pt.0, tt.0);
                for (img, dots) in (img0..).zip(&acc).take(nimg) {
                    for (p, &d) in part.iter_mut().zip(&dots.0) {
                        *p += d;
                    }
                    if band_end[img] {
                        for (t, &p) in total.iter_mut().zip(&part) {
                            *t += p;
                        }
                        part = [0.0; LANES];
                    }
                }
                (pt.0, tt.0) = (part, total);
            }
        }
        for (q, tt) in (q0..q1).zip(totals.iter()) {
            let (o0, t0) = ((q / ktiles) * TILE, (q % ktiles) * TILE);
            for (oi, vals) in tt.0.chunks_exact(TILE).enumerate().take(o - o0) {
                let len = TILE.min(k - t0);
                // SAFETY: row `o0 + oi < o`, taps `t0..t0 + len` lie inside
                // `dw`; tile ranges are disjoint across chunks, so no other
                // chunk writes them.
                unsafe {
                    std::ptr::copy_nonoverlapping(vals.as_ptr(), out.0.add((o0 + oi) * k + t0), len)
                };
            }
        }
    }
}
