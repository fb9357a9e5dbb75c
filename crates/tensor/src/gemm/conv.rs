//! Dense NCHW convolution over the whole batch, with no im2col matrix
//! ever materialised. Each entry point picks one of two lowerings from the
//! shape alone:
//!
//! - **batch lanes** (the private `gemm::lane` module) when the kernel
//!   has more than one tap and the batch has at least 12 images: sixteen
//!   images are the SIMD lanes of every register, read in place from an
//!   image-minor copy of the operands;
//! - **implicit GEMM** (this module) otherwise — 1×1 kernels and batches
//!   below 12 images: each pass is one packed GEMM over the batch.
//!
//! [`conv2d_backward`] runs both gradients, sharing the lane layout of
//! `dy` when the batch-lane lowering applies.
//!
//! # Implicit GEMM
//!
//! For a layer with `O` output channels, `T = C·KH·KW` kernel taps and an
//! `N`-image batch of `P = OH·OW` output positions, GEMM column
//! `j = img·P + oy·OW + ox` ranges over all `N·P` positions:
//!
//! | pass | product | A (packed once) | B (packed by stride) |
//! |---|---|---|---|
//! | forward | `Y[O, N·P] = W · cols(X)` | weight rows | taps of `X` under each column |
//! | input gradient | `dcols[T, N·P] = Wᵀ · dY`, scattered into `dX` | weight columns | `dY` across images |
//! | weight gradient | `dW[O, T] = Σ_img dY_img · cols(X_img)ᵀ` | one image's `dY` rows | one image's taps |
//!
//! The B packers read their operands in place through the NCHW strides;
//! im2col is a packing mode here, not a buffer. A padded convolution packs
//! from a zero-padded copy of `X` (and scatters its input gradient into a
//! zero-padded buffer that is then cropped), so every tap reads inside the
//! buffer: a run of columns that shares an image and output row is one
//! strided copy, with no bounds tests. The register tile is the plain
//! GEMMs' `micro_tile`, at the same per-layout SIMD widths.
//!
//! The int8 forward [`conv2d_i8`] is the same forward product over stored
//! i8 codes, on the pair-widened tile of [`super::int8`]: its padded copy
//! holds the code of real zero, and each register tile is requantized
//! into f32 and stored into NCHW directly. It is bit-identical to
//! [`reference::conv2d_i8_per_sample`](super::reference::conv2d_i8_per_sample).
//!
//! # Bitwise contract
//!
//! Both lowerings are bit-identical to the per-sample lowering (im2col +
//! GEMM per image) that [`reference`](super::reference) keeps as the
//! oracle; for the implicit GEMM:
//!
//! - **forward**: each output is one accumulator over ascending taps with
//!   zero weights skipped — `gemm_nn` on one image's column matrix;
//! - **input gradient**: each `dcols` entry is one accumulator over
//!   ascending output channels with zero weights skipped (`gemm_tn`), and
//!   entries are added into the zeroed `dX` in ascending tap order — the
//!   order `col2im` adds them;
//! - **weight gradient**: each image's dot over its `P` positions is one
//!   accumulator (`gemm_nt_acc`), dots are added into their band's partial
//!   in image order, and the [`WGRAD_BANDS`] band partials are summed in
//!   band order.
//!
//! Work is split over column panels (forward), image chunks (input
//! gradient) or weight-gradient tap panels. Each output element is
//! computed wholly by one thread in a fixed order, so results are
//! identical at any thread count.

use super::int8::{self, pack_a_pairs, pair_steps, I8Pass, I8Tiles, GEMM_I8_PACKED};
use super::{lane, GEMM_PACKED, MR, NR};
use super::{level_for, micro_tile, pack_a_cols, pack_a_rows, simd_level, Kind, Level, SendPtr};
use crate::par::{parallel_for_chunks, ChunkGrid};
use crate::{Conv2dSpec, Result};
use std::borrow::Cow;

// Conv FLOPs (2·O·T·N·P per pass, on either lowering) and elements the
// implicit GEMM gathers into packed panels. Shape-only, so totals are
// identical at any thread count.
static CONV_FLOPS: cq_obs::Counter = cq_obs::Counter::new("tensor.conv.flops");
static CONV_PACKED: cq_obs::Counter = cq_obs::Counter::new("tensor.conv.packed_elems");

/// Number of weight-gradient band partials: images are split into at most
/// this many contiguous bands (a grid fixed by the batch size alone), each
/// band's per-image dots are summed first, then the bands in order. Part
/// of the bitwise contract — changing it changes gradient bits.
pub const WGRAD_BANDS: usize = 8;

/// Minimum GEMM columns per input-gradient chunk: whole images are grouped
/// until a chunk spans at least this many columns, so small late-layer
/// images still fill the register tile's lanes.
const DX_CHUNK_COLS: usize = 256;

/// Cap on weight-gradient panel chunks; each chunk repacks every image's
/// `dY`, so fewer chunks mean less repacking.
const DW_MAX_CHUNKS: usize = 2;

/// Geometry of a dense convolution over an NCHW batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output channels.
    pub o: usize,
    /// Kernel, stride and padding.
    pub spec: Conv2dSpec,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
}

/// A maximal run of consecutive GEMM columns in one image and output row:
/// panel lanes `lane..lane + len`, whose top-left taps start at offset
/// `src` of the padded input.
#[derive(Debug, Clone, Copy)]
struct Run {
    lane: usize,
    len: usize,
    src: usize,
}

impl ConvShape {
    /// Geometry of a `c`→`o` convolution over `n` images of `h`×`w`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::InvalidGeometry`] if the kernel does
    /// not fit the padded input or a stride is zero.
    pub fn new(n: usize, c: usize, h: usize, w: usize, o: usize, spec: Conv2dSpec) -> Result<Self> {
        let (oh, ow) = spec.out_hw(h, w)?;
        Ok(ConvShape {
            n,
            c,
            h,
            w,
            o,
            spec,
            oh,
            ow,
        })
    }

    /// Kernel taps per output channel (`C·KH·KW`): the GEMM depth of the
    /// forward pass and the weight's row length.
    pub fn taps(&self) -> usize {
        self.spec.col_rows(self.c)
    }

    /// Output positions per image (`OH·OW`).
    pub fn positions(&self) -> usize {
        self.oh * self.ow
    }

    /// Multiply-add FLOPs of one pass (`2·O·T·N·P`); forward, input
    /// gradient and weight gradient each cost this much.
    pub fn flops(&self) -> u64 {
        2 * (self.o * self.taps()) as u64 * (self.n * self.positions()) as u64
    }

    /// Input elements per image (`C·H·W`).
    fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Whether the convolution has zero padding.
    fn is_padded(&self) -> bool {
        self.spec.padding != (0, 0)
    }

    /// Height and width of a zero-padded input image.
    pub(super) fn padded_hw(&self) -> (usize, usize) {
        let (ph, pw) = self.spec.padding;
        (self.h + 2 * ph, self.w + 2 * pw)
    }

    /// Elements per zero-padded input image.
    fn padded_len(&self) -> usize {
        let (hp, wp) = self.padded_hw();
        self.c * hp * wp
    }

    /// Offset of every tap `(ci, ki, kj)` within a padded image, in
    /// weight-row order.
    pub(super) fn tap_offsets(&self) -> Vec<usize> {
        let (kh, kw) = self.spec.kernel;
        let (hp, wp) = self.padded_hw();
        (0..self.c)
            .flat_map(|ci| (0..kh).flat_map(move |ki| (0..kw).map(move |kj| (ci, ki, kj))))
            .map(|(ci, ki, kj)| (ci * hp + ki) * wp + kj)
            .collect()
    }

    /// Offset within a padded image of output `(oy, ox)`'s top-left tap.
    pub(super) fn origin(&self, oy: usize, ox: usize) -> usize {
        oy * self.spec.stride.0 * self.padded_hw().1 + ox * self.spec.stride.1
    }

    /// Splits GEMM columns `[j0, j1)` into per-image, per-row runs.
    fn runs(&self, j0: usize, j1: usize, out: &mut Vec<Run>) {
        out.clear();
        let (p, plen) = (self.positions(), self.padded_len());
        let mut j = j0;
        while j < j1 {
            let (img, q) = (j / p, j % p);
            let (oy, ox) = (q / self.ow, q % self.ow);
            let len = (self.ow - ox).min(j1 - j);
            out.push(Run {
                lane: j - j0,
                len,
                src: img * plen + self.origin(oy, ox),
            });
            j += len;
        }
    }
}

/// `x` with its padding materialised as `fill` (`[N, C, H+2·PH, W+2·PW]`),
/// or `x` itself when the convolution is unpadded. Every tap then reads
/// inside the buffer, so packing needs no bounds tests, and padding taps
/// read the exact value the per-sample lowering wrote (`0.0`, or the i8
/// pad code).
fn pad_input<'a, T: Copy>(x: &'a [T], s: &ConvShape, fill: T) -> Cow<'a, [T]> {
    if !s.is_padded() {
        return Cow::Borrowed(x);
    }
    let pw = s.spec.padding.1;
    let mut xp = vec![fill; s.n * s.padded_len()];
    for (src, dst) in x.chunks_exact(s.w).zip(padded_rows(s, &mut xp)) {
        dst[pw..pw + s.w].copy_from_slice(src);
    }
    Cow::Owned(xp)
}

/// The padded rows of `buf` (a padded batch) that hold input rows, in
/// input-row order: padded row `y + PH` of every channel plane.
fn padded_rows<'a, T>(s: &ConvShape, buf: &'a mut [T]) -> impl Iterator<Item = &'a mut [T]> {
    let (ph, _) = s.spec.padding;
    let (hp, wp) = s.padded_hw();
    buf.chunks_exact_mut(hp * wp)
        .flat_map(move |plane| plane.chunks_exact_mut(wp).skip(ph).take(hp - 2 * ph))
}

/// Copies `src[i·stride]` into `dst[i]`. Unit-stride runs of a register
/// panel's width are fixed-size copies, so they compile to vector moves
/// rather than `memcpy` calls.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32], stride: usize) {
    if stride != 1 {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = v;
        }
        return;
    }
    match dst.len() {
        16 => dst.copy_from_slice(&src[..16]),
        8 => dst.copy_from_slice(&src[..8]),
        4 => dst.copy_from_slice(&src[..4]),
        n => dst.copy_from_slice(&src[..n]),
    }
}

/// Packs every row tile of `a` (row-major `[m,k]`, or `[k,m]` when
/// `a_cols`) into consecutive `[k][MR]` panels.
fn pack_a_tiles(a: &[f32], m: usize, k: usize, a_cols: bool, ap: &mut Vec<f32>) {
    // Every element is overwritten (edge tiles zero-fill their own
    // padding), so a reused buffer needs no clearing.
    ap.resize(m.div_ceil(MR) * k * MR, 0.0);
    for (t, panel) in ap.chunks_exact_mut(k * MR).enumerate() {
        let (i0, mr) = (t * MR, MR.min(m - t * MR));
        if a_cols {
            pack_a_cols(a, k, m, i0, mr, panel);
        } else {
            pack_a_rows(a, k, i0, mr, panel);
        }
    }
}

/// A block of register tiles: `out[t·np + q] = A_t · B_q` over depth `k`
/// for every packed `[k][MR]` tile `A_t` in `ap` and `[k][NRW]` panel
/// `B_q` in `bp` (`np` panels). One call covers a whole block, so the
/// per-call cost of the dispatched kernel is paid per block, not per tile.
type Tiles<const NRW: usize> = fn(usize, &[f32], &[f32], &mut [[[f32; NRW]; MR]]);

/// A convolution pass, generic over the register tile's width.
trait ConvPass {
    fn run<const NRW: usize>(self, tiles: Tiles<NRW>);
}

#[inline(always)]
fn tiles<const SKIP: bool, const NRW: usize>(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    out: &mut [[[f32; NRW]; MR]],
) {
    let np = bp.len() / (k * NRW);
    for (at, row) in ap.chunks_exact(k * MR).zip(out.chunks_exact_mut(np)) {
        for (bq, dst) in bp.chunks_exact(k * NRW).zip(row) {
            // A local accumulator, so it lives in registers.
            let mut acc = [[0.0f32; NRW]; MR];
            micro_tile::<SKIP, NRW>(k, at, bq, &mut acc);
            *dst = acc;
        }
    }
}

/// [`tiles`] compiled with 256-bit vectors.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tiles_avx2<const SKIP: bool>(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    out: &mut [[[f32; NR]; MR]],
) {
    tiles::<SKIP, NR>(k, ap, bp, out)
}

/// [`tiles`] compiled with 512-bit vectors.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tiles_avx512<const SKIP: bool>(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    out: &mut [[[f32; 16]; MR]],
) {
    tiles::<SKIP, 16>(k, ap, bp, out)
}

/// Runs `pass` with the register tile the host's SIMD level uses for the
/// `kind` layout (`SKIP` = the layout's zero-skip rule).
fn dispatch<const SKIP: bool>(kind: Kind, pass: impl ConvPass) {
    // SAFETY: `simd_level` detected the level on this host.
    unsafe { dispatch_at::<SKIP>(level_for(kind, simd_level()), pass) };
}

/// Runs `pass` with the register tile of `level`.
///
/// # Safety
///
/// The host must support `level`.
unsafe fn dispatch_at<const SKIP: bool>(level: Level, pass: impl ConvPass) {
    match level {
        Level::Portable => pass.run::<NR>(tiles::<SKIP, NR>),
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => pass.run::<NR>(|k, ap, bp, out| {
            // SAFETY: the caller guarantees AVX2.
            unsafe { tiles_avx2::<SKIP>(k, ap, bp, out) }
        }),
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => pass.run::<16>(|k, ap, bp, out| {
            // SAFETY: the caller guarantees AVX-512F.
            unsafe { tiles_avx512::<SKIP>(k, ap, bp, out) }
        }),
    }
}

/// Forward convolution `out = conv(x, wgt)` over the whole batch as one
/// GEMM. `x` is `[N,C,H,W]`, `wgt` is `[O, C·KH·KW]`, `out` is
/// `[N,O,OH,OW]` (overwritten). Bit-identical to
/// [`reference::conv2d`](super::reference::conv2d).
///
/// # Panics
///
/// Panics if a slice length disagrees with `s`.
pub fn conv2d(x: &[f32], wgt: &[f32], s: &ConvShape, out: &mut [f32]) {
    assert_eq!(
        x.len(),
        s.n * s.image_len(),
        "conv2d: input length mismatch"
    );
    assert_eq!(wgt.len(), s.o * s.taps(), "conv2d: weight length mismatch");
    assert_eq!(
        out.len(),
        s.n * s.o * s.positions(),
        "conv2d: output length mismatch"
    );
    if s.taps() == 0 {
        out.fill(0.0);
        return;
    }
    CONV_FLOPS.add(s.flops());
    if lane::fits(s) {
        // SAFETY: `simd_level` detected the level on this host.
        unsafe { lane::forward(simd_level(), x, wgt, s, out) };
        return;
    }
    count_packed(s, s.taps());
    dispatch::<true>(Kind::Nn, Forward { x, wgt, s, out });
}

struct Forward<'a> {
    x: &'a [f32],
    wgt: &'a [f32],
    s: &'a ConvShape,
    out: &'a mut [f32],
}

impl ConvPass for Forward<'_> {
    fn run<const NRW: usize>(self, tiles: Tiles<NRW>) {
        let Forward { x, wgt, s, out } = self;
        let (k, p) = (s.taps(), s.positions());
        let ncols = s.n * p;
        let mut ap = Vec::new();
        pack_a_tiles(wgt, s.o, k, false, &mut ap);
        let xp = pad_input(x, s, 0.0);
        let taps = s.tap_offsets();
        let sw = s.spec.stride.1;
        // Whole panels lie inside one image as NRW consecutive positions.
        let whole = p % NRW == 0;
        let out_ptr = SendPtr(out.as_mut_ptr());
        parallel_for_chunks(ChunkGrid::new(ncols.div_ceil(NRW), 1), |_, q0, q1| {
            // Capture the Sync wrapper, not the raw pointer field.
            let out_ptr = &out_ptr;
            let mut bp = vec![0.0f32; k * NRW];
            let mut acc = vec![[[0.0f32; NRW]; MR]; s.o.div_ceil(MR)];
            let mut runs = Vec::with_capacity(NRW);
            for q in q0..q1 {
                let j0 = q * NRW;
                let j1 = (j0 + NRW).min(ncols);
                s.runs(j0, j1, &mut runs);
                for (&tap, row) in taps.iter().zip(bp.chunks_exact_mut(NRW)) {
                    for r in &runs {
                        copy_run(&mut row[r.lane..r.lane + r.len], &xp[r.src + tap..], sw);
                    }
                }
                tiles(k, &ap, &bp, &mut acc);
                // Column panels are disjoint across chunks, and distinct
                // (channel, column) pairs are distinct output elements, so
                // no two stores below, in any chunk, overlap.
                let rows = acc.iter().flatten().take(s.o).enumerate();
                if whole {
                    let (img, pos) = (j0 / p, j0 % p);
                    for (co, accr) in rows {
                        let dst = (img * s.o + co) * p + pos;
                        // SAFETY: `dst..dst + NRW` are this panel's NRW
                        // positions of channel `co`, inside `out` (checked
                        // length) and written by no other chunk; f32 arrays
                        // have f32 alignment.
                        unsafe { *out_ptr.0.add(dst).cast::<[f32; NRW]>() = *accr };
                    }
                    continue;
                }
                for (co, accr) in rows {
                    for (j, &v) in (j0..j1).zip(accr) {
                        let dst = ((j / p) * s.o + co) * p + j % p;
                        // SAFETY: column `j < ncols` of channel `co < o` is
                        // inside `out` and written by no other chunk.
                        unsafe { *out_ptr.0.add(dst) = v };
                    }
                }
            }
        });
    }
}

/// Input gradient `dx = convᵀ(dy, wgt)` on the implicit GEMM: one GEMM
/// over the whole batch plus a tap-ordered scatter. `dy` is
/// `[N,O,OH,OW]`, `wgt` is `[O, C·KH·KW]`, `dx` is `[N,C,H,W]`
/// (overwritten). Bit-identical to
/// [`reference::conv2d_backward_input`](super::reference::conv2d_backward_input).
fn implicit_backward_input(dy: &[f32], wgt: &[f32], s: &ConvShape, dx: &mut [f32]) {
    CONV_FLOPS.add(s.flops());
    count_packed(s, s.o);
    dispatch::<true>(Kind::Tn, BackwardInput { dy, wgt, s, dx });
}

struct BackwardInput<'a> {
    dy: &'a [f32],
    wgt: &'a [f32],
    s: &'a ConvShape,
    dx: &'a mut [f32],
}

impl ConvPass for BackwardInput<'_> {
    fn run<const NRW: usize>(self, tiles: Tiles<NRW>) {
        let BackwardInput { dy, wgt, s, dx } = self;
        let (k, p, o) = (s.taps(), s.positions(), s.o);
        let (img_len, plen) = (s.image_len(), s.padded_len());
        let pw = s.spec.padding.1;
        let sw = s.spec.stride.1;
        // A = Wᵀ: rows are taps, depth is output channels.
        let mut ap = Vec::new();
        pack_a_tiles(wgt, k, o, true, &mut ap);
        let taps = s.tap_offsets();
        let origins: Vec<usize> = (0..s.oh).map(|oy| s.origin(oy, 0)).collect();
        let dx_ptr = SendPtr(dx.as_mut_ptr());
        let grid = ChunkGrid::new(s.n, DX_CHUNK_COLS.div_ceil(p));
        parallel_for_chunks(grid, |_, i0, i1| {
            let dx_ptr = &dx_ptr;
            // SAFETY: image chunks are disjoint, so are their dx slices.
            let dxc = unsafe {
                std::slice::from_raw_parts_mut(dx_ptr.0.add(i0 * img_len), (i1 - i0) * img_len)
            };
            let jn = (i1 - i0) * p;
            // B = dY for this chunk's columns: [panel][channel][NRW], each
            // channel row of an image copied in panel-sized segments.
            let mut bp = vec![0.0f32; jn.div_ceil(NRW) * o * NRW];
            for (i, dyi) in dy[i0 * o * p..i1 * o * p].chunks_exact(o * p).enumerate() {
                for (ch, mut src) in dyi.chunks_exact(p).enumerate() {
                    let mut j = i * p;
                    while !src.is_empty() {
                        let (q, lane) = (j / NRW, j % NRW);
                        let len = (NRW - lane).min(src.len());
                        let at = (q * o + ch) * NRW + lane;
                        copy_run(&mut bp[at..at + len], src, 1);
                        src = &src[len..];
                        j += len;
                    }
                }
            }
            // Scatter target: a zeroed padded buffer (cropped into dx at
            // the end) or, unpadded, dx itself.
            let mut padded = vec![0.0f32; if s.is_padded() { (i1 - i0) * plen } else { 0 }];
            let target: &mut [f32] = if s.is_padded() {
                &mut padded
            } else {
                dxc.fill(0.0);
                &mut *dxc
            };
            // One row tile of dcols at a time, scattered tap by tap in
            // ascending order (col2im's order) before the next tile.
            let np = jn.div_ceil(NRW);
            let mut acc = vec![[[0.0f32; NRW]; MR]; np];
            let mut dcols = vec![0.0f32; MR * jn];
            for (t, at) in ap.chunks_exact(o * MR).enumerate() {
                tiles(o, at, &bp, &mut acc);
                for (q, accq) in acc.iter().enumerate() {
                    let nr = NRW.min(jn - q * NRW);
                    for (dst, accr) in dcols.chunks_exact_mut(jn).zip(accq) {
                        dst[q * NRW..q * NRW + nr].copy_from_slice(&accr[..nr]);
                    }
                }
                for (&tap, drow) in taps[t * MR..].iter().zip(dcols.chunks_exact(jn)) {
                    for (img, dimg) in drow.chunks_exact(p).enumerate() {
                        for (&origin, drun) in origins.iter().zip(dimg.chunks_exact(s.ow)) {
                            let base = img * plen + origin + tap;
                            for (i, &v) in drun.iter().enumerate() {
                                target[base + i * sw] += v;
                            }
                        }
                    }
                }
            }
            if s.is_padded() {
                for (dst, src) in dxc.chunks_exact_mut(s.w).zip(padded_rows(s, &mut padded)) {
                    dst.copy_from_slice(&src[pw..pw + s.w]);
                }
            }
        });
    }
}

/// Weight gradient `dw = Σ_img dy_img · cols(x_img)ᵀ` on the implicit
/// GEMM: one GEMM over the whole batch with per-image, per-band
/// accumulation. `x` is `[N,C,H,W]`, `dy` is `[N,O,OH,OW]`, `dw` is
/// `[O, C·KH·KW]` (overwritten). Bit-identical to
/// [`reference::conv2d_backward_weight`](super::reference::conv2d_backward_weight).
fn implicit_backward_weight(x: &[f32], dy: &[f32], s: &ConvShape, dw: &mut [f32]) {
    CONV_FLOPS.add(s.flops());
    count_packed(s, s.taps());
    dispatch::<false>(Kind::Nt, BackwardWeight { x, dy, s, dw });
}

/// Both gradients of a convolution: the input gradient
/// `dx = convᵀ(dy, wgt)` and the weight gradient
/// `dw = Σ_img dy_img · cols(x_img)ᵀ`. `x` and `dx` are `[N,C,H,W]`, `dy`
/// is `[N,O,OH,OW]`, `wgt` and `dw` are `[O, C·KH·KW]`; `dx` and `dw` are
/// overwritten. Bit-identical to
/// [`reference::conv2d_backward_input`](super::reference::conv2d_backward_input)
/// and
/// [`reference::conv2d_backward_weight`](super::reference::conv2d_backward_weight).
/// On the batch-lane lowering the two passes share one image-minor copy
/// of `dy`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `s`.
pub fn conv2d_backward(
    x: &[f32],
    dy: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    dx: &mut [f32],
    dw: &mut [f32],
) {
    let n_dy = s.n * s.o * s.positions();
    assert_eq!(
        x.len(),
        s.n * s.image_len(),
        "conv2d_backward: input length mismatch"
    );
    assert_eq!(dy.len(), n_dy, "conv2d_backward: dy length mismatch");
    assert_eq!(
        wgt.len(),
        s.o * s.taps(),
        "conv2d_backward: weight length mismatch"
    );
    assert_eq!(dx.len(), x.len(), "conv2d_backward: dx length mismatch");
    assert_eq!(dw.len(), wgt.len(), "conv2d_backward: dw length mismatch");
    if s.o == 0 || s.taps() == 0 {
        dx.fill(0.0);
        dw.fill(0.0);
        return;
    }
    if lane::fits(s) {
        CONV_FLOPS.add(2 * s.flops());
        // SAFETY: `simd_level` detected the level on this host.
        unsafe { lane::backward(simd_level(), x, dy, wgt, s, dx, dw) };
        return;
    }
    if s.n == 0 {
        dw.fill(0.0);
    } else {
        implicit_backward_weight(x, dy, s, dw);
    }
    implicit_backward_input(dy, wgt, s, dx);
}

struct BackwardWeight<'a> {
    x: &'a [f32],
    dy: &'a [f32],
    s: &'a ConvShape,
    dw: &'a mut [f32],
}

impl ConvPass for BackwardWeight<'_> {
    fn run<const NRW: usize>(self, tiles: Tiles<NRW>) {
        let BackwardWeight { x, dy, s, dw } = self;
        let (k, p, o) = (s.taps(), s.positions(), s.o);
        let taps = s.tap_offsets();
        let (xp, plen) = (pad_input(x, s, 0.0), s.padded_len());
        let bands = ChunkGrid::with_max_chunks(s.n, 1, WGRAD_BANDS);
        let dw_ptr = SendPtr(dw.as_mut_ptr());
        let grid = ChunkGrid::with_max_chunks(k.div_ceil(NRW), 1, DW_MAX_CHUNKS);
        parallel_for_chunks(grid, |_, q0, q1| {
            let dw_ptr = &dw_ptr;
            let width = (q1 - q0) * NRW;
            let mut part = vec![0.0f32; o * width];
            let mut total = vec![0.0f32; o * width];
            let mut ap = Vec::new();
            let mut bp = vec![0.0f32; p * NRW];
            let mut acc = vec![[[0.0f32; NRW]; MR]; o.div_ceil(MR)];
            let sw = s.spec.stride.1;
            for b in 0..bands.n_chunks() {
                let (b0, b1) = bands.range(b);
                part.fill(0.0);
                for img in b0..b1 {
                    pack_a_tiles(&dy[img * o * p..(img + 1) * o * p], o, p, false, &mut ap);
                    for q in q0..q1 {
                        // B = this image's taps q·NRW.. as lanes, positions
                        // as depth: lane c of row oy·OW + ox is tap c's
                        // input under output (oy, ox).
                        let lanes = &taps[q * NRW..((q + 1) * NRW).min(k)];
                        for (oy, rows) in bp.chunks_exact_mut(s.ow * NRW).enumerate() {
                            let src = img * plen + s.origin(oy, 0);
                            for (c, &tap) in lanes.iter().enumerate() {
                                let lane = rows.iter_mut().skip(c).step_by(NRW);
                                for (d, &v) in lane.zip(xp[src + tap..].iter().step_by(sw)) {
                                    *d = v;
                                }
                            }
                        }
                        tiles(p, &ap, &bp, &mut acc);
                        let col0 = (q - q0) * NRW;
                        for (prow, accr) in part.chunks_exact_mut(width).zip(acc.iter().flatten()) {
                            let prow = &mut prow[col0..col0 + lanes.len()];
                            for (pv, &v) in prow.iter_mut().zip(accr) {
                                *pv += v;
                            }
                        }
                    }
                }
                for (tv, &pv) in total.iter_mut().zip(&part) {
                    *tv += pv;
                }
            }
            let (t0, t1) = (q0 * NRW, (q1 * NRW).min(k));
            for (co, trow) in total.chunks_exact(width).enumerate() {
                // SAFETY: tap panels are disjoint across chunks, hence
                // disjoint column ranges of every dw row.
                unsafe {
                    std::ptr::copy_nonoverlapping(trow.as_ptr(), dw_ptr.0.add(co * k + t0), t1 - t0)
                };
            }
        });
    }
}

/// Requantization of an i8 convolution's accumulators into f32 outputs,
/// applied per element straight from the register tile:
///
/// ```text
/// out[o, j] = scale[o] · (acc[o, j] + za·wsum[o] + zw·asum[j] + K·za·zw) + shift[o]
/// ```
///
/// where `acc` is the stored-code dot product, `asum[j]` the stored-code
/// sum of column `j`'s taps (pad codes included) and the integer terms are
/// summed exactly in i64 before the one rounding to f32. With stored
/// codes offset by the zero points (`true = stored + z`) this is
/// `scale[o]·Σ true_a·true_w + shift[o]`.
#[derive(Debug, Clone, Copy)]
pub struct Requant<'a> {
    /// Activation zero point.
    pub za: i32,
    /// Weight zero point.
    pub zw: i32,
    /// Per-output-channel stored weight-code sums.
    pub wsum: &'a [i32],
    /// Per-output-channel multiplier.
    pub scale: &'a [f32],
    /// Per-output-channel offset, added after the multiply.
    pub shift: &'a [f32],
}

impl Requant<'_> {
    /// The column-independent integer correction of channel `o` at depth
    /// `k`: `za·wsum[o] + K·za·zw`.
    pub(crate) fn row_corr(&self, o: usize, k: usize) -> i64 {
        let za = i64::from(self.za);
        za * i64::from(self.wsum[o]) + k as i64 * za * i64::from(self.zw)
    }

    /// The stored code of real zero, `(−za) as i8`: the byte padding taps
    /// read, so they cancel exactly inside the zero-point correction.
    pub(crate) fn pad_code(&self) -> i8 {
        (-self.za) as i8
    }
}

/// Int8 forward convolution over the whole batch as one packed i8 GEMM,
/// requantized into f32. `x` holds the stored activation codes
/// `[N,C,H,W]` (padding taps read the code of real zero, `(−za) as i8`),
/// `wgt` holds the stored weight codes `[O, C·KH·KW]`, and `out` is
/// `[N,O,OH,OW]` (overwritten).
/// Bit-identical to
/// [`reference::conv2d_i8_per_sample`](super::reference::conv2d_i8_per_sample)
/// at every [`I8Level`](super::int8::I8Level) and thread count, under the
/// i8 GEMM overflow contract.
///
/// # Panics
///
/// Panics if a slice length disagrees with `s`.
pub fn conv2d_i8(x: &[i8], wgt: &[i8], s: &ConvShape, rq: &Requant, out: &mut [f32]) {
    assert_eq!(
        x.len(),
        s.n * s.image_len(),
        "conv2d_i8: input length mismatch"
    );
    assert_eq!(
        wgt.len(),
        s.o * s.taps(),
        "conv2d_i8: weight length mismatch"
    );
    assert_eq!(
        out.len(),
        s.n * s.o * s.positions(),
        "conv2d_i8: output length mismatch"
    );
    for (name, len) in [
        ("wsum", rq.wsum.len()),
        ("scale", rq.scale.len()),
        ("shift", rq.shift.len()),
    ] {
        assert_eq!(len, s.o, "conv2d_i8: requant {name} length mismatch");
    }
    GEMM_I8_PACKED.add(1);
    int8::dispatch(ForwardI8 { x, wgt, s, rq, out });
}

struct ForwardI8<'a> {
    x: &'a [i8],
    wgt: &'a [i8],
    s: &'a ConvShape,
    rq: &'a Requant<'a>,
    out: &'a mut [f32],
}

impl I8Pass for ForwardI8<'_> {
    fn run<const NRW: usize>(self, tiles: I8Tiles<NRW>) {
        let ForwardI8 { x, wgt, s, rq, out } = self;
        let (k, p) = (s.taps(), s.positions());
        let (k2, ncols) = (pair_steps(k), s.n * p);
        let mut ap = Vec::new();
        pack_a_pairs(wgt, s.o, k, &mut ap);
        let xp = pad_input(x, s, rq.pad_code());
        let taps = s.tap_offsets();
        let sw = s.spec.stride.1;
        let row_corr: Vec<i64> = (0..s.o).map(|o| rq.row_corr(o, k)).collect();
        let zw = i64::from(rq.zw);
        // Whole panels lie inside one image as NRW consecutive positions.
        let whole = p % NRW == 0;
        let out_ptr = SendPtr(out.as_mut_ptr());
        parallel_for_chunks(ChunkGrid::new(ncols.div_ceil(NRW), 1), |_, q0, q1| {
            // Capture the Sync wrapper, not the raw pointer field.
            let out_ptr = &out_ptr;
            // The hi halves of an odd K's last pair are never written and
            // stay zero.
            let mut bp = vec![0i16; k2 * 2 * NRW];
            let mut acc = vec![[[0i32; NRW]; MR]; s.o.div_ceil(MR)];
            let mut runs = Vec::with_capacity(NRW);
            // Per image the panel touches: its first lane, its lane count
            // and the output offset of its first position in channel 0.
            let mut segs = Vec::with_capacity(NRW);
            for q in q0..q1 {
                let j0 = q * NRW;
                let j1 = (j0 + NRW).min(ncols);
                s.runs(j0, j1, &mut runs);
                for r in &runs {
                    pack_run(&mut bp, NRW, r, &xp[r.src..], &taps, sw);
                }
                // Each column's stored-code sum, from the packed panel.
                let mut asum = [0i32; NRW];
                for row in bp.chunks_exact(2 * NRW) {
                    for (a, pr) in asum.iter_mut().zip(row.chunks_exact(2)) {
                        *a += i32::from(pr[0]) + i32::from(pr[1]);
                    }
                }
                let col_corr = asum.map(|a| zw * i64::from(a));
                tiles(k2, &ap, &bp, &mut acc);
                segs.clear();
                let mut j = j0;
                while j < j1 {
                    let len = (p - j % p).min(j1 - j);
                    segs.push((j - j0, len, (j / p) * s.o * p + j % p));
                    j += len;
                }
                // Column panels are disjoint across chunks, and distinct
                // (channel, column) pairs are distinct output elements, so
                // no two stores below, in any chunk, overlap.
                for (co, accr) in acc.iter().flatten().take(s.o).enumerate() {
                    let (scale, shift, rc) = (rq.scale[co], rq.shift[co], row_corr[co]);
                    let mut vals = [0.0f32; NRW];
                    for ((v, &a), &cc) in vals.iter_mut().zip(accr).zip(&col_corr) {
                        *v = scale * (i64::from(a) + rc + cc) as f32 + shift;
                    }
                    if whole {
                        let dst = ((j0 / p) * s.o + co) * p + j0 % p;
                        // SAFETY: `dst..dst + NRW` are this panel's NRW
                        // positions of channel `co`, inside `out` (checked
                        // length) and written by no other chunk; f32 arrays
                        // have f32 alignment.
                        unsafe { *out_ptr.0.add(dst).cast::<[f32; NRW]>() = vals };
                        continue;
                    }
                    for &(lane, len, base) in &segs {
                        // SAFETY: the segment's `len` columns are consecutive
                        // positions of one image, so `base + co·P ..` spans
                        // `len` elements of channel `co` inside `out`, written
                        // by no other chunk.
                        unsafe {
                            let dst = out_ptr.0.add(base + co * p);
                            std::ptr::copy_nonoverlapping(vals[lane..].as_ptr(), dst, len);
                        }
                    }
                }
            }
        });
    }
}

/// Packs the lanes of column run `r` into every pair row of the panel
/// `bp` (`[⌈K/2⌉][nrw][2]`): lane `r.lane + i` of pair row `p` holds the
/// sign-extended `(x[taps[2p] + i·stride], x[taps[2p+1] + i·stride])`,
/// where `x` starts at the run's first column. Unit-stride runs of 16, 8,
/// 4 or 2 lanes (whole output rows of those widths, or a panel of them)
/// are fixed-size loops, so they compile to vector widen-and-interleave;
/// other runs are packed lane by lane.
#[inline(always)]
fn pack_run(bp: &mut [i16], nrw: usize, r: &Run, x: &[i8], taps: &[usize], stride: usize) {
    match (r.len, stride) {
        (16, 1) => pack_lanes::<16>(bp, nrw, r.lane, x, taps),
        (8, 1) => pack_lanes::<8>(bp, nrw, r.lane, x, taps),
        (4, 1) => pack_lanes::<4>(bp, nrw, r.lane, x, taps),
        (2, 1) => pack_lanes::<2>(bp, nrw, r.lane, x, taps),
        _ => {
            for i in 0..r.len {
                pack_lanes::<1>(bp, nrw, r.lane + i, &x[i * stride..], taps);
            }
        }
    }
}

/// [`pack_run`] for `L` unit-stride lanes starting at `lane`. An odd K's
/// last pair row gets only its lo halves.
#[inline(always)]
fn pack_lanes<const L: usize>(bp: &mut [i16], nrw: usize, lane: usize, x: &[i8], taps: &[usize]) {
    let (pairs, odd) = taps.split_at(taps.len() & !1);
    let mut rows = bp.chunks_exact_mut(2 * nrw);
    // Pairs drive the zip, so the row after the last pair is not consumed.
    for (pair, row) in pairs.chunks_exact(2).zip(rows.by_ref()) {
        let dst = &mut row[2 * lane..2 * (lane + L)];
        let (lo, hi) = (&x[pair[0]..pair[0] + L], &x[pair[1]..pair[1] + L]);
        for i in 0..L {
            dst[2 * i] = i16::from(lo[i]);
            dst[2 * i + 1] = i16::from(hi[i]);
        }
    }
    if let (Some(row), Some(&t)) = (rows.next(), odd.first()) {
        let (dst, lo) = (&mut row[2 * lane..2 * (lane + L)], &x[t..t + L]);
        for i in 0..L {
            dst[2 * i] = i16::from(lo[i]);
        }
    }
}

/// Records one implicit-GEMM conv pass, whose packed B operand has
/// `rows` rows of `N·P` elements, in the kernel counters.
fn count_packed(s: &ConvShape, rows: usize) {
    GEMM_PACKED.add(1);
    CONV_PACKED.add((rows * s.n * s.positions()) as u64);
}

#[cfg(test)]
mod tests {
    use super::super::int8::{with_i8_level, I8Level};
    use super::super::reference;
    use super::*;
    use crate::par::with_thread_limit;
    use rand::{Rng, SeedableRng};

    /// Random data with exact zeros mixed in, so the zero skip runs.
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

    /// (n, c, h, w, o, kernel, stride, padding).
    type Case = (usize, usize, usize, usize, usize, usize, usize, usize);

    /// Tile-edge channel counts, rows narrower and wider than a panel, odd
    /// strides and padding wider than the kernel reach, 1x1 shortcuts,
    /// one-pixel outputs, and batches that do and do not split evenly into
    /// the weight-gradient bands.
    const SHAPES: [Case; 10] = [
        (1, 1, 1, 1, 1, 1, 1, 0),
        (2, 3, 5, 4, 4, 3, 2, 1),
        (3, 2, 6, 6, 9, 3, 1, 1),
        (5, 4, 7, 3, 8, 3, 1, 2),
        (9, 8, 4, 4, 17, 1, 2, 0),
        (4, 3, 16, 16, 8, 3, 1, 1),
        (17, 5, 2, 2, 7, 3, 1, 1),
        (2, 1, 9, 11, 3, 5, 3, 2),
        (11, 16, 8, 8, 16, 3, 2, 1),
        (1, 7, 3, 5, 33, 2, 1, 0),
    ];

    fn shapes() -> impl Iterator<Item = ConvShape> {
        SHAPES.iter().map(|&(n, c, h, w, o, k, st, pd)| {
            ConvShape::new(n, c, h, w, o, Conv2dSpec::new(k, st, pd)).expect("valid shape")
        })
    }

    /// Output bits of the three passes as run by `run(x, w, dy, y, dx, dw)`
    /// on seeded inputs, outputs pre-filled with NaN.
    type Passes<'a> = &'a dyn Fn(&[f32], &[f32], &[f32], &mut [f32], &mut [f32], &mut [f32]);

    fn passes(s: &ConvShape, seed: u64, run: Passes) -> [Vec<u32>; 3] {
        let x = randvec(s.n * s.image_len(), seed);
        let wgt = randvec(s.o * s.taps(), seed + 1);
        let dy = randvec(s.n * s.o * s.positions(), seed + 2);
        let mut y = vec![f32::NAN; dy.len()];
        let mut dx = vec![f32::NAN; x.len()];
        let mut dw = vec![f32::NAN; wgt.len()];
        run(&x, &wgt, &dy, &mut y, &mut dx, &mut dw);
        [bits(&y), bits(&dx), bits(&dw)]
    }

    fn oracle(s: &ConvShape, seed: u64) -> [Vec<u32>; 3] {
        passes(s, seed, &|x, w, dy, y, dx, dw| {
            reference::conv2d(x, w, s, y);
            reference::conv2d_backward_input(dy, w, s, dx);
            reference::conv2d_backward_weight(x, dy, s, dw);
        })
    }

    /// Batches on the batch-lane lowering: the smallest (one partial
    /// block), one block, a block and one image, two blocks and one, and
    /// 100 images, whose 13-image weight-gradient bands split 16-lane
    /// blocks.
    const LANE_BATCHES: [usize; 5] = [12, 16, 17, 33, 100];

    /// Output channel counts around the lane tile (4) and the implicit
    /// GEMM's row tile (`MR = 8`).
    const OUTPUTS: [usize; 7] = [1, 2, 3, 4, 7, 8, 9];

    /// Every lane batch × output count × stride 1 and 2 × padding 0–2,
    /// on a 2-channel 5×4 input under a 3×3 kernel.
    fn lane_shapes() -> impl Iterator<Item = ConvShape> {
        LANE_BATCHES.into_iter().flat_map(|n| {
            OUTPUTS.into_iter().flat_map(move |o| {
                (1..=2).flat_map(move |stride| {
                    (0..=2).map(move |pad| {
                        ConvShape::new(n, 2, 5, 4, o, Conv2dSpec::new(3, stride, pad))
                            .expect("valid shape")
                    })
                })
            })
        })
    }

    #[test]
    fn implicit_conv_matches_per_sample_oracle_bitwise() {
        // Through the public entry points: the implicit shapes, and one
        // shape per lane batch.
        let lane = lane_shapes().step_by(OUTPUTS.len() * 6);
        for (i, s) in shapes().chain(lane).enumerate() {
            let want = oracle(&s, 10 * i as u64);
            for limit in [1, 2, 5] {
                let got = with_thread_limit(limit, || {
                    passes(&s, 10 * i as u64, &|x, w, dy, y, dx, dw| {
                        conv2d(x, w, &s, y);
                        conv2d_backward(x, dy, w, &s, dx, dw);
                    })
                });
                for (pass, (g, w)) in ["forward", "dx", "dw"].iter().zip(got.iter().zip(&want)) {
                    assert_eq!(g, w, "{pass} {s:?} at {limit} threads");
                }
            }
        }
    }

    /// The three passes through the lane lowering at `level`.
    fn lane_passes(s: &ConvShape, seed: u64, level: Level) -> [Vec<u32>; 3] {
        passes(s, seed, &|x, wgt, dy, y, dx, dw| {
            // SAFETY: callers pass only levels this host supports.
            unsafe {
                lane::forward(level, x, wgt, s, y);
                lane::backward(level, x, dy, wgt, s, dx, dw);
            }
        })
    }

    #[test]
    fn lane_lowering_matches_oracle_at_every_level_and_thread_limit() {
        for (i, s) in lane_shapes().enumerate() {
            assert!(lane::fits(&s), "{s:?} must take the lane path");
            let seed = 1000 + 10 * i as u64;
            let want = oracle(&s, seed);
            for level in Level::supported() {
                for limit in [1, 2, 5, 8] {
                    let got = with_thread_limit(limit, || lane_passes(&s, seed, level));
                    for (pass, (g, w)) in ["forward", "dx", "dw"].iter().zip(got.iter().zip(&want))
                    {
                        assert_eq!(g, w, "{pass} {s:?} {level:?} at {limit} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn lowering_is_chosen_by_shape_alone() {
        let shape =
            |n, k| ConvShape::new(n, 4, 8, 8, 4, Conv2dSpec::new(k, 1, k / 2)).expect("shape");
        assert!(lane::fits(&shape(12, 3)) && lane::fits(&shape(128, 3)));
        assert!(!lane::fits(&shape(11, 3)), "a batch below 12 images");
        assert!(!lane::fits(&shape(128, 1)), "a 1x1 kernel");
    }

    #[test]
    fn every_simd_level_matches_oracle_bitwise() {
        for level in Level::supported() {
            for (i, s) in shapes().enumerate() {
                let got = passes(&s, 10 * i as u64, &|x, wgt, dy, out, dx, dw| {
                    let s = &s;
                    // SAFETY: `levels` holds only levels this host supports.
                    unsafe {
                        dispatch_at::<true>(level, Forward { x, wgt, s, out });
                        dispatch_at::<true>(level, BackwardInput { dy, wgt, s, dx });
                        dispatch_at::<false>(level, BackwardWeight { x, dy, s, dw });
                    }
                });
                assert_eq!(got, oracle(&s, 10 * i as u64), "{level:?} {s:?}");
            }
        }
    }

    #[test]
    fn zero_weights_keep_nonfinite_inputs_out() {
        // The zero skip is part of the contract: a zero weight times an
        // Inf/NaN input must contribute nothing, as in the scalar loops.
        for n in [2, 16] {
            let s = ConvShape::new(n, 2, 4, 4, 3, Conv2dSpec::new(3, 1, 1)).expect("shape");
            let mut x = randvec(s.n * s.image_len(), 1);
            x[5] = f32::NAN;
            x[17] = f32::INFINITY;
            let wgt = vec![0.0f32; s.o * s.taps()];
            let mut y = vec![1.0; s.n * s.o * s.positions()];
            let mut want = y.clone();
            conv2d(&x, &wgt, &s, &mut y);
            reference::conv2d(&x, &wgt, &s, &mut want);
            assert_eq!(bits(&y), bits(&want));
            assert!(y.iter().all(|&v| v == 0.0));
        }
    }

    /// Bits with every NaN mapped to one pattern: which outputs are NaN
    /// is pinned, its payload (which the hardware picks from whichever
    /// NaN operand comes first) is not.
    fn canon_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// Fills the outputs `(y, dx, dw)` of the three passes.
    type Outputs<'a> = &'a dyn Fn(&mut [f32], &mut [f32], &mut [f32]);

    #[test]
    fn nonfinite_operands_match_oracle_on_both_lowerings() {
        // ±Inf and NaN weights beside exact zeros, and ±Inf/NaN in `x` and
        // `dy` on border pixels. Padding taps must behave as the oracle's:
        // the forward multiplies them as exact zeros, the weight gradient
        // includes their `dy · 0` products, and the input gradient skips
        // every tap whose source falls outside `dy`, so a non-finite
        // weight reaches no `dx` element through padding.
        for (n, stride, pad) in [(3, 1, 1), (3, 2, 2), (17, 1, 1), (17, 2, 1), (33, 2, 2)] {
            let s = ConvShape::new(n, 2, 6, 5, 3, Conv2dSpec::new(3, stride, pad)).expect("shape");
            let (k, p) = (s.taps(), s.positions());
            let mut x = randvec(s.n * s.image_len(), 21);
            let mut wgt = randvec(s.o * k, 22);
            let mut dy = randvec(s.n * s.o * p, 23);
            // Output channel 2 keeps finite weights.
            wgt[0] = f32::INFINITY; // o = 0, tap (0, 0, 0)
            wgt[k - 1] = f32::NAN; // o = 0, last tap
            wgt[k + 9 + 7] = f32::NEG_INFINITY; // o = 1, tap (1, 2, 1)
            let plane = s.h * s.w;
            for img in (0..s.n).step_by(2) {
                let xi = img * s.image_len();
                x[xi] = f32::INFINITY; // channel 0, top-left
                x[xi + 2 * plane - 1] = f32::NAN; // channel 1, bottom-right
                x[xi + plane + s.w] = f32::NEG_INFINITY; // channel 1, left edge
                                                         // Only output channel 0 of `dy`.
                let di = img * s.o * p;
                dy[di] = f32::INFINITY; // top-left
                dy[di + p - 1] = f32::NAN; // bottom-right
                dy[di + s.ow - 1] = f32::NEG_INFINITY; // top-right
            }
            let run = |f: Outputs| {
                let mut y = vec![f32::NAN; dy.len()];
                let mut dx = vec![f32::NAN; x.len()];
                let mut dw = vec![f32::NAN; wgt.len()];
                f(&mut y, &mut dx, &mut dw);
                [canon_bits(&y), canon_bits(&dx), canon_bits(&dw)]
            };
            let want = run(&|y, dx, dw| {
                reference::conv2d(&x, &wgt, &s, y);
                reference::conv2d_backward_input(&dy, &wgt, &s, dx);
                reference::conv2d_backward_weight(&x, &dy, &s, dw);
            });
            let got = run(&|y, dx, dw| {
                conv2d(&x, &wgt, &s, y);
                conv2d_backward(&x, &dy, &wgt, &s, dx, dw);
            });
            for (pass, (g, w)) in ["forward", "dx", "dw"].iter().zip(got.iter().zip(&want)) {
                assert_eq!(g, w, "{pass} {s:?} (lane path: {})", lane::fits(&s));
            }
            // The poison reaches some outputs of every pass but not all.
            for (pass, w) in ["forward", "dx", "dw"].iter().zip(&want) {
                let bad = w
                    .iter()
                    .filter(|&&b| !f32::from_bits(b).is_finite())
                    .count();
                assert!(bad > 0 && bad < w.len(), "{pass} {s:?}: {bad} non-finite");
            }
        }
    }

    #[test]
    fn conv_matches_direct_loops() {
        // Independent of the oracle's lowering: the textbook six-loop sum.
        let s = ConvShape::new(2, 3, 6, 5, 4, Conv2dSpec::new(3, 2, 1)).expect("shape");
        let x = randvec(s.n * s.image_len(), 3);
        let wgt = randvec(s.o * s.taps(), 4);
        let mut y = vec![0.0; s.n * s.o * s.positions()];
        conv2d(&x, &wgt, &s, &mut y);
        let (kh, kw) = s.spec.kernel;
        for img in 0..s.n {
            for co in 0..s.o {
                for oy in 0..s.oh {
                    for ox in 0..s.ow {
                        let mut acc = 0.0f64;
                        for (t, &wv) in wgt[co * s.taps()..(co + 1) * s.taps()].iter().enumerate() {
                            let (ci, ki, kj) = (t / (kh * kw), t / kw % kh, t % kw);
                            let iy = (oy * 2 + ki) as isize - 1;
                            let ix = (ox * 2 + kj) as isize - 1;
                            if (0..s.h as isize).contains(&iy) && (0..s.w as isize).contains(&ix) {
                                let xi = ((img * s.c + ci) * s.h + iy as usize) * s.w + ix as usize;
                                acc += f64::from(wv) * f64::from(x[xi]);
                            }
                        }
                        let got = y[((img * s.o + co) * s.oh + oy) * s.ow + ox];
                        assert!((f64::from(got) - acc).abs() < 1e-4, "{got} vs {acc}");
                    }
                }
            }
        }
    }

    #[test]
    fn backward_is_adjoint_of_forward() {
        // <conv(x), dy> == <x, dx(dy)> == <w, dw(x, dy)>: the defining
        // property of both gradients.
        let s = ConvShape::new(3, 2, 5, 4, 3, Conv2dSpec::new(3, 2, 1)).expect("shape");
        let x = randvec(s.n * s.image_len(), 5);
        let wgt = randvec(s.o * s.taps(), 6);
        let dy = randvec(s.n * s.o * s.positions(), 7);
        let mut y = vec![0.0; dy.len()];
        let mut dx = vec![0.0; x.len()];
        let mut dw = vec![0.0; wgt.len()];
        conv2d(&x, &wgt, &s, &mut y);
        conv2d_backward(&x, &dy, &wgt, &s, &mut dx, &mut dw);
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(&u, &v)| f64::from(u) * f64::from(v))
                .sum()
        };
        let lhs = dot(&y, &dy);
        assert!((lhs - dot(&x, &dx)).abs() < 1e-3, "dx adjoint");
        assert!((lhs - dot(&wgt, &dw)).abs() < 1e-3, "dw adjoint");
    }

    /// Seeded i8 conv operands: full-range codes, zero points and a
    /// requantization whose `wsum` matches the weights.
    struct I8Case {
        x: Vec<i8>,
        wgt: Vec<i8>,
        za: i32,
        zw: i32,
        wsum: Vec<i32>,
        scale: Vec<f32>,
        shift: Vec<f32>,
    }

    impl I8Case {
        fn new(s: &ConvShape, seed: u64) -> I8Case {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut codes = |len: usize| -> Vec<i8> {
                (0..len)
                    .map(|_| rng.gen_range(-128i32..=127) as i8)
                    .collect()
            };
            let x = codes(s.n * s.image_len());
            let wgt = codes(s.o * s.taps());
            let wsum = wgt
                .chunks(s.taps().max(1))
                .map(|r| r.iter().map(|&v| i32::from(v)).sum())
                .chain(std::iter::repeat(0))
                .take(s.o)
                .collect();
            let za = rng.gen_range(-127i32..=128);
            let zw = rng.gen_range(-127i32..=128);
            let scale = (0..s.o).map(|_| rng.gen_range(-0.01f32..0.01)).collect();
            let shift = (0..s.o).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            I8Case {
                x,
                wgt,
                za,
                zw,
                wsum,
                scale,
                shift,
            }
        }

        fn run(&self, s: &ConvShape, conv: ConvI8) -> Vec<u32> {
            let rq = Requant {
                za: self.za,
                zw: self.zw,
                wsum: &self.wsum,
                scale: &self.scale,
                shift: &self.shift,
            };
            let mut out = vec![f32::NAN; s.n * s.o * s.positions()];
            conv(&self.x, &self.wgt, s, &rq, &mut out);
            bits(&out)
        }
    }

    type ConvI8 = fn(&[i8], &[i8], &ConvShape, &Requant, &mut [f32]);

    #[test]
    fn conv2d_i8_matches_per_sample_oracle_at_every_level_and_thread_count() {
        for (i, s) in shapes().enumerate() {
            let case = I8Case::new(&s, 100 + i as u64);
            let want = case.run(&s, reference::conv2d_i8_per_sample);
            for level in I8Level::supported() {
                for limit in [1, 2, 5] {
                    let got = with_i8_level(level, || {
                        with_thread_limit(limit, || case.run(&s, conv2d_i8))
                    });
                    assert_eq!(got, want, "{s:?} {level:?} at {limit} threads");
                }
            }
        }
    }

    #[test]
    fn conv2d_i8_matches_true_code_loops() {
        // Independent of the oracle's zero-point algebra: the six-loop sum
        // of true codes (stored + zero point; padding is true code 0).
        let s = ConvShape::new(2, 3, 6, 5, 9, Conv2dSpec::new(3, 2, 1)).expect("shape");
        let case = I8Case::new(&s, 7);
        let got = case.run(&s, conv2d_i8);
        let (kh, kw) = s.spec.kernel;
        for (idx, &g) in got.iter().enumerate() {
            let (img, co, oy, ox) = (
                idx / (s.o * s.positions()),
                idx / s.positions() % s.o,
                idx / s.ow % s.oh,
                idx % s.ow,
            );
            let mut t = 0i64;
            for (tap, &wv) in case.wgt[co * s.taps()..(co + 1) * s.taps()]
                .iter()
                .enumerate()
            {
                let (ci, ki, kj) = (tap / (kh * kw), tap / kw % kh, tap % kw);
                let iy = (oy * 2 + ki) as isize - 1;
                let ix = (ox * 2 + kj) as isize - 1;
                let inside = (0..s.h as isize).contains(&iy) && (0..s.w as isize).contains(&ix);
                let a = if inside {
                    let xi = ((img * s.c + ci) * s.h + iy as usize) * s.w + ix as usize;
                    i64::from(case.x[xi]) + i64::from(case.za)
                } else {
                    0
                };
                t += a * (i64::from(wv) + i64::from(case.zw));
            }
            let want = case.scale[co] * t as f32 + case.shift[co];
            assert_eq!(f32::from_bits(g), want, "output {idx}");
        }
    }

    #[test]
    fn im2col_i8_matches_f32_im2col_with_zero_pad() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let (c, h, w) = (2, 5, 4);
        let spec = Conv2dSpec::new(3, 2, 1);
        let (oh, ow) = spec.out_hw(h, w).unwrap();
        let xi: Vec<i8> = (0..c * h * w)
            .map(|_| rng.gen_range(-128i32..=127) as i8)
            .collect();
        let xf: Vec<f32> = xi.iter().map(|&v| v as f32).collect();
        let mut cols_i = vec![0i8; c * 9 * oh * ow];
        let mut cols_f = vec![0.0f32; c * 9 * oh * ow];
        reference::im2col_i8(&xi, c, h, w, &spec, 0, &mut cols_i);
        reference::im2col(&xf, c, h, w, &spec, &mut cols_f);
        for (a, b) in cols_i.iter().zip(&cols_f) {
            assert_eq!(*a as f32, *b);
        }
    }

    #[test]
    fn im2col_i8_writes_pad_code_in_padding() {
        let x = vec![1i8; 9]; // 1 channel, 3x3 of ones
        let spec = Conv2dSpec::new(3, 1, 1);
        let mut cols = vec![0i8; 9 * 9];
        reference::im2col_i8(&x, 1, 3, 3, &spec, -77, &mut cols);
        // Tap (0,0) at output (0,0) reads input (-1,-1) => pad code.
        assert_eq!(cols[0], -77);
        // Center tap row reads the input directly.
        assert!(cols[4 * 9..5 * 9].iter().all(|&v| v == 1));
    }

    #[test]
    fn flops_count_every_multiply_add() {
        let s = ConvShape::new(4, 3, 8, 8, 5, Conv2dSpec::new(3, 2, 1)).expect("shape");
        assert_eq!(s.flops(), 2 * 5 * 27 * 4 * 16);
    }
}
