//! Batch-lane convolution: the three dense f32 passes with 16 images as
//! the SIMD lanes of every register. It is the only f32 lowering of
//! [`conv2d`](super::conv::conv2d) and
//! [`conv2d_backward`](super::conv::conv2d_backward), for every kernel
//! size, stride, padding and batch.
//!
//! The layers it serves are narrow, with 2×2 to 16×16 outputs, but the
//! batch is always wide. So their operands live in the image-minor lane
//! layout of [`crate::lanes`], `[N/16][C][H][W][16]`, in which one
//! 16-float vector holds one pixel of 16 *independent* images, and every
//! register tile is a plain tile over contiguous vector loads, read in
//! place: no tap packing, no `dcols` buffer, no col2im scatter and no
//! transpose. A conv with padding copies each input block, by whole
//! lanes, into a zero-bordered scratch first; one without padding reads
//! the block itself. A batch below 16 images still costs a whole block.
//!
//! - **forward**: `acc[o][pos] += W[o,t] · X[tap t at pos]` over ascending
//!   taps `t`, skipping zero weights, stored straight into `Y`'s lanes.
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
//!   each band's partial into the total in band order. Pad lanes are
//!   never added.
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
pub(crate) use crate::lanes::LANES;

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

/// One pixel of a block's 16 images, aligned to a cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Lane(pub(crate) [f32; LANES]);

pub(crate) const ZERO: Lane = Lane([0.0; LANES]);

/// A run of lanes, cache-line aligned inside a plain `f32` allocation
/// from the recycler, to which it returns on drop: the scratch of the
/// conv passes. (An over-aligned `Vec<Lane>` would take the allocator's
/// aligned path, which measurably raises a training step's peak RSS.)
pub(crate) struct LaneBuf {
    raw: Vec<f32>,
    off: usize,
    len: usize,
}

impl LaneBuf {
    /// `len` zero lanes.
    pub(crate) fn zeroed(len: usize) -> LaneBuf {
        LaneBuf::over(recycle::take_zeroed((len + 1) * LANES), len)
    }

    /// `len` lanes that the caller writes in full before reading them.
    pub(crate) fn written(len: usize) -> LaneBuf {
        LaneBuf::over(recycle::take_written((len + 1) * LANES), len)
    }

    fn over(raw: Vec<f32>, len: usize) -> LaneBuf {
        // Floats up to the first 64-byte boundary.
        let off = (raw.as_ptr() as usize).wrapping_neg() % 64 / 4;
        LaneBuf { raw, off, len }
    }

    pub(crate) fn lanes(&self) -> &[Lane] {
        crate::lanes::as_lanes(&self.raw[self.off..self.off + self.len * LANES])
    }

    pub(crate) fn lanes_mut(&mut self) -> &mut [Lane] {
        crate::lanes::as_lanes_mut(&mut self.raw[self.off..self.off + self.len * LANES])
    }
}

impl Drop for LaneBuf {
    fn drop(&mut self) {
        recycle::give(std::mem::take(&mut self.raw));
    }
}

/// A 16×16 transpose of a square of lanes, compiled per SIMD level.
pub(crate) trait Transpose {
    /// Transposes the square `t` in place.
    ///
    /// # Safety
    ///
    /// The host must support the level the implementation is compiled
    /// for: [`dispatch_at`] picks it from the level it was given.
    unsafe fn transpose(t: &mut [Lane; LANES]);

    /// Transposes one square per position `pos < p` of planes of `p`
    /// lanes: row `j` of the square is lane `pos` of source plane `j` for
    /// `j < rows`, and zero after; row `i` of the result, for each `i` in
    /// `keep`, goes to lane `pos` of destination plane `i − keep.start`.
    /// One load and one store per lane, nothing in between but the
    /// transpose.
    ///
    /// # Safety
    ///
    /// The `rows` planes at `src` must be readable and the `keep.len()`
    /// planes at `dst` writable, `rows ≤ 16` and `keep ⊆ 0..16`, and the
    /// host must support the implementation's level (as for
    /// [`Self::transpose`]).
    unsafe fn transpose_planes(
        src: *const Lane,
        rows: usize,
        dst: *mut Lane,
        keep: std::ops::Range<usize>,
        p: usize,
    );
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

    #[inline(always)]
    unsafe fn transpose_planes(
        src: *const Lane,
        rows: usize,
        dst: *mut Lane,
        keep: std::ops::Range<usize>,
        p: usize,
    ) {
        for pos in 0..p {
            for (k, i) in keep.clone().enumerate() {
                let mut row = ZERO;
                for (j, v) in row.0.iter_mut().enumerate().take(rows) {
                    // SAFETY: the caller guarantees source plane `j`.
                    *v = unsafe { (*src.add(j * p + pos)).0[i] };
                }
                // SAFETY: the caller guarantees destination plane `k`.
                unsafe { dst.add(k * p + pos).write(row) };
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
        let rows = t.as_mut_ptr();
        // SAFETY: `t` is 16 planes of one lane, read and written in
        // place; the caller guarantees AVX-512F.
        unsafe { transpose_avx512(rows, LANES, rows, 0..LANES, 1) }
    }

    #[inline(always)]
    unsafe fn transpose_planes(
        src: *const Lane,
        rows: usize,
        dst: *mut Lane,
        keep: std::ops::Range<usize>,
        p: usize,
    ) {
        // SAFETY: the caller's guarantees, passed on.
        unsafe { transpose_avx512(src, rows, dst, keep, p) }
    }
}

/// [`Transpose::transpose_planes`] in registers: `unpack{lo,hi}_ps`
/// interleaves row pairs, `unpack{lo,hi}_pd` row quads, and two rounds of
/// `shuffle_f32x4` move the 128-bit quarters into place. Every source
/// row of a square is loaded before any of its result rows is stored, so
/// the source and the destination may be the same lanes.
///
/// # Safety
///
/// As [`Transpose::transpose_planes`], on a host with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_avx512(
    src: *const Lane,
    rows: usize,
    dst: *mut Lane,
    keep: std::ops::Range<usize>,
    p: usize,
) {
    use std::arch::x86_64::*;
    for pos in 0..p {
        // Both row loops test every row rather than loop over a runtime
        // range, so that they unroll and the rows stay in registers.
        let mut r = [_mm512_setzero_ps(); LANES];
        for (j, v) in r.iter_mut().enumerate() {
            if j < rows {
                // SAFETY: each `Lane` is 16 aligned f32s, one 512-bit
                // load; the caller guarantees source plane `j < rows`.
                *v = unsafe { _mm512_load_ps(src.add(j * p + pos).cast()) };
            }
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
        // b[4g + j] holds column j (and j + 4, 8, 12 in its other
        // quarters) of rows 4g..4g+4.
        let mut c = [_mm512_setzero_ps(); LANES];
        for h in [0, 8] {
            for j in 0..4 {
                c[h + j] = _mm512_shuffle_f32x4::<0x88>(b[h + j], b[h + 4 + j]);
                c[h + 4 + j] = _mm512_shuffle_f32x4::<0xdd>(b[h + j], b[h + 4 + j]);
            }
        }
        let mut out = [_mm512_setzero_ps(); LANES];
        for j in 0..8 {
            out[j] = _mm512_shuffle_f32x4::<0x88>(c[j], c[8 + j]);
            out[8 + j] = _mm512_shuffle_f32x4::<0xdd>(c[j], c[8 + j]);
        }
        for (i, &v) in out.iter().enumerate() {
            if keep.contains(&i) {
                let at = (i - keep.start) * p + pos;
                // SAFETY: as for the loads; the caller guarantees
                // destination plane `i − keep.start`.
                unsafe { _mm512_store_ps(dst.add(at).cast(), v) };
            }
        }
    }
}

/// A pass over a range of chunk indices, generic over the transpose.
pub(crate) trait LanePass {
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
pub(crate) unsafe fn dispatch_at(level: Level, pass: impl LanePass) {
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

/// `dst[..src.len()] = src`; a full row is a fixed-size copy, so it
/// compiles to a vector move rather than a `memcpy` call.
#[inline(always)]
pub(crate) fn copy_prefix(dst: &mut [f32; LANES], src: &[f32]) {
    match <&[f32; LANES]>::try_from(src) {
        Ok(full) => *dst = *full,
        Err(_) => dst[..src.len()].copy_from_slice(src),
    }
}

/// Per-call geometry shared by the passes.
struct Geom {
    /// Input and output channels.
    c: usize,
    o: usize,
    /// Input height and width, and the padding.
    h: usize,
    w: usize,
    pad: (usize, usize),
    /// Blocks of [`LANES`] images (the last one may be partial).
    blocks: usize,
    /// Lanes per block of `X` (`C·H·W`) and of `Y` (`O·OH·OW`).
    xblock: usize,
    yblock: usize,
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
            h: s.h,
            w: s.w,
            pad: s.spec.padding,
            blocks: s.n.div_ceil(LANES),
            xblock: s.c * s.h * s.w,
            yblock: s.o * s.positions(),
            plane: hp * wp,
            pos: (0..s.oh)
                .flat_map(|oy| (0..s.ow).map(move |ox| s.origin(oy, ox)))
                .collect(),
            taps: s.tap_offsets(s.c, s.padded_hw()),
        }
    }

    fn padded(&self) -> bool {
        self.pad != (0, 0)
    }

    /// Each row of every plane of the unpadded block `src`, with its row
    /// in the padded block: `(source run, first padded cell)`.
    fn rows(&self) -> impl Iterator<Item = (std::ops::Range<usize>, usize)> + '_ {
        let (ph, pw) = self.pad;
        let wp = self.w + 2 * pw;
        let hp = self.plane / wp;
        (0..self.c * self.h).map(move |r| {
            let (ch, y) = (r / self.h, r % self.h);
            (r * self.w..(r + 1) * self.w, (ch * hp + y + ph) * wp + pw)
        })
    }

    /// Copies the unpadded block `src` into the interior of the padded
    /// block `dst`, whose border the caller zeroed.
    fn pad_into(&self, src: &[Lane], dst: &mut [Lane]) {
        for (run, at) in self.rows() {
            dst[at..at + self.w].copy_from_slice(&src[run]);
        }
    }

    /// Copies the interior of the padded block `src` into the unpadded
    /// block `dst`.
    fn crop_into(&self, src: &[Lane], dst: &mut [Lane]) {
        for (run, at) in self.rows() {
            dst[run].copy_from_slice(&src[at..at + self.w]);
        }
    }
}

/// A block of `X` as the passes read it: the block itself when the conv
/// has no padding, else its copy in a zero-bordered scratch, whose border
/// is zeroed once and never written.
struct InputBlock(Option<LaneBuf>);

impl InputBlock {
    fn new(g: &Geom) -> InputBlock {
        InputBlock(g.padded().then(|| LaneBuf::zeroed(g.c * g.plane)))
    }

    fn get<'a>(&'a mut self, g: &Geom, x: &'a [Lane]) -> &'a [Lane] {
        match &mut self.0 {
            None => x,
            Some(buf) => {
                g.pad_into(x, buf.lanes_mut());
                buf.lanes()
            }
        }
    }
}

/// Block `b` of `blen` lanes of the lane buffer at `base`.
///
/// # Safety
///
/// The block must lie inside the buffer, and no other live reference may
/// touch it.
unsafe fn block_mut<'a>(base: &SendPtr, b: usize, blen: usize) -> &'a mut [Lane] {
    // SAFETY: guaranteed by the caller.
    unsafe { std::slice::from_raw_parts_mut(base.0.cast::<Lane>().add(b * blen), blen) }
}

/// Forward convolution on the lane layout; same contract as
/// [`super::conv::conv2d`], whose shape checks and empty-shape return it
/// relies on.
///
/// # Safety
///
/// The host must support `level`.
pub(super) unsafe fn forward(
    level: Level,
    x: &[Lane],
    wgt: &[f32],
    s: &ConvShape,
    out: &mut [Lane],
) {
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
    let out = SendPtr(out.as_mut_ptr().cast());
    parallel_for_chunks(ChunkGrid::new(geom.blocks, 1), |_, b0, b1| {
        let pass = Forward {
            x,
            wt: &wt,
            geom: &geom,
            out: &out,
            blocks: (b0, b1),
        };
        // SAFETY: the caller guarantees `level`.
        unsafe { dispatch_at(level, pass) };
    });
}

struct Forward<'a> {
    x: &'a [Lane],
    wt: &'a [f32],
    geom: &'a Geom,
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
            out,
            blocks: (b0, b1),
        } = self;
        let mut input = InputBlock::new(geom);
        for b in b0..b1 {
            let xb = input.get(geom, &x[b * geom.xblock..(b + 1) * geom.xblock]);
            // SAFETY: block `b` of `Y`; block ranges are disjoint across
            // chunks.
            let yb = unsafe { block_mut(out, b, geom.yblock) };
            forward_block(xb, wt, geom, yb);
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

/// Input and weight gradients on the lane layout, reading `X` and `dY`
/// in place. Same contract as [`super::conv::conv2d_backward`], whose
/// shape checks and empty-shape return it relies on.
///
/// # Safety
///
/// The host must support `level`.
pub(super) unsafe fn backward(
    level: Level,
    x: &[Lane],
    dy: &[Lane],
    wgt: &[f32],
    s: &ConvShape,
    dx: &mut [Lane],
    dw: &mut [f32],
) {
    let geom = Geom::new(s);
    let wx = input_weights(wgt, s);
    let (dx, dw) = (SendPtr(dx.as_mut_ptr().cast()), SendPtr(dw.as_mut_ptr()));
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
    parallel_for_chunks(ChunkGrid::new(nx + dw_grid.n_chunks(), 1), |_, c0, c1| {
        for c in c0..c1 {
            if c < nx {
                let pass = BackwardInput {
                    dyb: &dy[c * geom.yblock..(c + 1) * geom.yblock],
                    wx: &wx,
                    geom: &geom,
                    // SAFETY: block `c` of `dX`, this chunk's alone.
                    dxb: unsafe { block_mut(&dx, c, geom.xblock) },
                };
                // SAFETY: the caller guarantees `level`.
                unsafe { dispatch_at(level, pass) };
            } else {
                let pass = BackwardWeight {
                    x,
                    dy,
                    geom: &geom,
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
    dxb: &'a mut [Lane],
}

impl LanePass for BackwardInput<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let BackwardInput { dyb, wx, geom, dxb } = self;
        if geom.padded() {
            // Taps that land in padding accumulate into the border, which
            // is cropped.
            let mut acc = LaneBuf::zeroed(geom.c * geom.plane);
            backward_input_block(dyb, wx, geom, acc.lanes_mut());
            geom.crop_into(acc.lanes(), dxb);
        } else {
            dxb.fill(ZERO);
            backward_input_block(dyb, wx, geom, dxb);
        }
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
    x: &'a [Lane],
    dy: &'a [Lane],
    geom: &'a Geom,
    /// Per image: whether it closes its weight-gradient band.
    band_end: &'a [bool],
    out: &'a SendPtr,
    tiles: (usize, usize),
}

impl LanePass for BackwardWeight<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let BackwardWeight {
            x,
            dy,
            geom,
            band_end,
            out,
            tiles: (q0, q1),
        } = self;
        let (k, o, p) = (geom.taps.len(), geom.o, geom.pos.len());
        let ktiles = k.div_ceil(TILE);
        // Per tile: the running band partial and total, lane = (o, t) pair.
        let (mut parts, mut totals) = (LaneBuf::zeroed(q1 - q0), LaneBuf::zeroed(q1 - q0));
        let (parts, totals) = (parts.lanes_mut(), totals.lanes_mut());
        let mut input = InputBlock::new(geom);
        for b in 0..geom.blocks {
            let xb = input.get(geom, &x[b * geom.xblock..(b + 1) * geom.xblock]);
            let dyb = &dy[b * geom.yblock..(b + 1) * geom.yblock];
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
