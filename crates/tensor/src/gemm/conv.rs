//! Dense convolution over the whole batch, with no im2col matrix ever
//! materialised.
//!
//! The f32 passes run on batch lanes (the private `gemm::lane` module)
//! for every kernel size, stride, padding and batch: their operands are
//! in the image-minor lane layout of [`crate::lanes`], whose 16 images
//! are the SIMD lanes of every register, read in place. [`conv2d`] runs
//! the forward, and [`conv2d_backward`] both gradients. A batch below one
//! 16-image block still costs a whole block.
//!
//! The int8 forward [`conv2d_i8`] is one implicit GEMM over stored i8
//! codes. For a layer with `O` output channels, `T = C·KH·KW` kernel taps
//! and an `N`-image batch of `P = OH·OW` output positions, GEMM column
//! `j = img·P + oy·OW + ox` ranges over all `N·P` positions, and
//! `Y[O, N·P] = W · cols(X)`. Its input is an [`ActQuads`] buffer: the
//! codes as padded channel quads shifted to u8 (`[N][⌈C/4⌉][H+2P][W+2P]`
//! words, padding holding the code of real zero), written by whichever
//! pass produced the activation. A conv whose padding is at most `P`
//! reads the buffer at an offset, so convs of different padding can share
//! one. The weights are packed once in the matching `(C/4, KH, KW, C%4)`
//! order. A reduction step of the quad tile of [`super::int8`] is then one
//! channel quad at one tap, and a panel of columns that is one
//! unit-stride run of an output row reads each step straight from the
//! quad buffer. Other panels (narrower rows, strides above 1) copy their
//! 4-byte words into a small panel first. Each tile is requantized into
//! f32, finished by its [`Epilogue`] (a residual add and a ReLU) and
//! stored into NCHW directly; the call returns the finite range of what
//! it stored.
//!
//! # Bitwise contract
//!
//! Every pass is bit-identical to the per-sample lowering (im2col + GEMM
//! per image) that [`reference`](super::reference) keeps as the oracle,
//! at every SIMD level and thread count: the f32 passes by the argument in
//! the `gemm::lane` module docs, and [`conv2d_i8`] to
//! [`reference::conv2d_i8_per_sample`](super::reference::conv2d_i8_per_sample)
//! by the exact integer argument in the [`super::int8`] module docs (the
//! same i32 dots in any order, then the same i64 rescale). Work is split
//! over image blocks, weight-gradient tiles or i8 column panels, and each
//! output element is computed wholly by one thread in a fixed order.

use super::int8::{self, I8Kernels, I8Pass, LaneRange, RowTerms, Tail, GEMM_I8_PACKED};
use super::{lane, simd_level, SendPtr, MR};
use crate::lanes::{as_lanes, as_lanes_mut, storage_len};
use crate::par::{parallel_map_chunks, ChunkGrid};
use crate::{recycle, Conv2dSpec, Result};

// Dense conv FLOPs (2·O·T·N·P per pass), f32 and i8 apart. Shape-only, so
// totals are identical at any thread count.
static CONV_FLOPS: cq_obs::Counter = cq_obs::Counter::new("tensor.conv.flops");
static CONV_I8_FLOPS: cq_obs::Counter = cq_obs::Counter::new("tensor.conv_i8.flops");

/// Number of weight-gradient band partials: images are split into at most
/// this many contiguous bands (a grid fixed by the batch size alone), each
/// band's per-image dots are summed first, then the bands in order. Part
/// of the bitwise contract — changing it changes gradient bits.
pub const WGRAD_BANDS: usize = 8;

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
/// panel lanes `lane..lane + len`, whose top-left taps start at word `src`
/// of the channel-quad input.
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
    #[cfg(test)]
    fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Stored floats of the input, `[N, C, H, W]`, in the lane layout.
    pub fn input_lanes(&self) -> usize {
        storage_len(&[self.n, self.c, self.h, self.w])
    }

    /// Stored floats of the output, `[N, O, OH, OW]`, in the lane layout.
    pub fn output_lanes(&self) -> usize {
        storage_len(&[self.n, self.o, self.oh, self.ow])
    }

    /// Height and width of a zero-padded input image.
    pub(super) fn padded_hw(&self) -> (usize, usize) {
        let (ph, pw) = self.spec.padding;
        (self.h + 2 * ph, self.w + 2 * pw)
    }

    /// Offset of every tap `(plane, ki, kj)` within an image of `planes`
    /// planes of `hp`×`wp`, in weight-row order: the f32 lanes' taps at
    /// `planes = C` in the conv's own padded image, and the quad steps of
    /// [`conv2d_i8`] at `⌈C/4⌉` in its input buffer.
    pub(super) fn tap_offsets(&self, planes: usize, (hp, wp): (usize, usize)) -> Vec<usize> {
        let (kh, kw) = self.spec.kernel;
        (0..planes)
            .flat_map(|ci| (0..kh).flat_map(move |ki| (0..kw).map(move |kj| (ci, ki, kj))))
            .map(|(ci, ki, kj)| (ci * hp + ki) * wp + kj)
            .collect()
    }

    /// Offset within a padded image of output `(oy, ox)`'s top-left tap.
    pub(super) fn origin(&self, oy: usize, ox: usize) -> usize {
        oy * self.spec.stride.0 * self.padded_hw().1 + ox * self.spec.stride.1
    }
}

/// Forward convolution `out = conv(x, wgt)` over the whole batch on the
/// batch lanes. `x` is `[N,C,H,W]` and `out` is `[N,O,OH,OW]`
/// (overwritten), both lane storage (see [`crate::lanes`]); `wgt` is
/// `[O, C·KH·KW]`. On the real lanes, bit-identical to
/// [`reference::conv2d`](super::reference::conv2d); a pad lane of `out`
/// holds whatever its lane of `x` gives.
///
/// # Panics
///
/// Panics if a slice length disagrees with `s` or a lane slice is not
/// 64-byte aligned.
pub fn conv2d(x: &[f32], wgt: &[f32], s: &ConvShape, out: &mut [f32]) {
    assert_eq!(x.len(), s.input_lanes(), "conv2d: input length mismatch");
    assert_eq!(wgt.len(), s.o * s.taps(), "conv2d: weight length mismatch");
    assert_eq!(
        out.len(),
        s.output_lanes(),
        "conv2d: output length mismatch"
    );
    let (x, out) = (as_lanes(x), as_lanes_mut(out));
    if s.n == 0 || s.o == 0 || s.taps() == 0 {
        // Every output, if there is one, is an empty sum.
        out.fill(lane::ZERO);
        return;
    }
    CONV_FLOPS.add(s.flops());
    // SAFETY: `simd_level` detected the level on this host.
    unsafe { lane::forward(simd_level(), x, wgt, s, out) };
}

/// Both gradients of a convolution on the batch lanes: the input gradient
/// `dx = convᵀ(dy, wgt)` and the weight gradient
/// `dw = Σ_img dy_img · cols(x_img)ᵀ`, reading `x` and `dy` in place.
/// `x` and `dx` are `[N,C,H,W]` and `dy` is `[N,O,OH,OW]`, all lane
/// storage; `wgt` and `dw` are `[O, C·KH·KW]`; `dx` and `dw` are
/// overwritten. `dw` and the real lanes of `dx` are bit-identical to
/// [`reference::conv2d_backward_weight`](super::reference::conv2d_backward_weight)
/// and
/// [`reference::conv2d_backward_input`](super::reference::conv2d_backward_input);
/// pad lanes never reach `dw`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `s` or a lane slice is not
/// 64-byte aligned.
pub fn conv2d_backward(
    x: &[f32],
    dy: &[f32],
    wgt: &[f32],
    s: &ConvShape,
    dx: &mut [f32],
    dw: &mut [f32],
) {
    assert_eq!(
        x.len(),
        s.input_lanes(),
        "conv2d_backward: input length mismatch"
    );
    assert_eq!(
        dy.len(),
        s.output_lanes(),
        "conv2d_backward: dy length mismatch"
    );
    assert_eq!(
        wgt.len(),
        s.o * s.taps(),
        "conv2d_backward: weight length mismatch"
    );
    assert_eq!(dx.len(), x.len(), "conv2d_backward: dx length mismatch");
    assert_eq!(dw.len(), wgt.len(), "conv2d_backward: dw length mismatch");
    let (x, dy, dx) = (as_lanes(x), as_lanes(dy), as_lanes_mut(dx));
    if s.n == 0 || s.o == 0 || s.taps() == 0 {
        // Every gradient element, if there is one, is an empty sum.
        dx.fill(lane::ZERO);
        dw.fill(0.0);
        return;
    }
    CONV_FLOPS.add(2 * s.flops());
    // SAFETY: `simd_level` detected the level on this host.
    unsafe { lane::backward(simd_level(), x, dy, wgt, s, dx, dw) };
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
/// `scale[o]·Σ true_a·true_w + shift[o]`. [`conv2d_i8`] takes `acc` and
/// `asum` from its u8-shifted operand, less `128·Σw` of the row and
/// `128·K`; `wsum` enters only the `za·wsum[o]` term.
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

/// The geometry of one image of an [`ActQuads`] buffer: `C` channels of
/// `H`×`W`, padded by `pad` on every side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadGeom {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Padding on each side, in words.
    pub pad: usize,
}

impl QuadGeom {
    /// Channel quads, `⌈C/4⌉`.
    pub fn quads(&self) -> usize {
        self.c.div_ceil(4)
    }

    /// Padded height and width, `(H + 2·pad, W + 2·pad)`.
    pub fn padded(&self) -> (usize, usize) {
        (self.h + 2 * self.pad, self.w + 2 * self.pad)
    }

    /// Words per image, `⌈C/4⌉·(H + 2·pad)·(W + 2·pad)`.
    pub fn image_words(&self) -> usize {
        let (hp, wp) = self.padded();
        self.quads() * hp * wp
    }

    /// Index within an image of quad `q`'s word at `(y, 0)`: row `y` of
    /// the unpadded image holds words `row(q, y)..row(q, y) + W`.
    pub fn row(&self, q: usize, y: usize) -> usize {
        let (hp, wp) = self.padded();
        (q * hp + y + self.pad) * wp + self.pad
    }

    /// The word that padding holds in quad `q` at zero point `za`: byte `i`
    /// is the stored code of real zero, `(−za) as i8`, shifted to u8 where
    /// channel `4q + i` exists, and 0 where it does not.
    pub fn pad_word(&self, q: usize, za: i32) -> u32 {
        let zero = int8::shifted((-za) as i8);
        (0..4)
            .filter(|&i| 4 * q + i < self.c)
            .fold(0, |w, i| w | zero << (8 * i))
    }

    /// Writes every padding word of one image (`image_words()` words).
    /// The `H`×`W` interior of each quad is left for the caller to write
    /// afterwards: its contents are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not `image_words()` words.
    pub fn fill_padding(&self, image: &mut [u32], za: i32) {
        assert_eq!(image.len(), self.image_words(), "fill_padding: length");
        if self.pad == 0 || image.is_empty() {
            return;
        }
        // Whole planes at a time, interior included (its writer overwrites
        // it): a few long fills rather than two short ones per row.
        let (hp, wp) = self.padded();
        let (full, last) = image.split_at_mut((self.c / 4) * hp * wp);
        full.fill(self.pad_word(0, za));
        last.fill(self.pad_word(self.c / 4, za));
    }
}

/// Int8 activation codes as the row operand of the quad tile, the input
/// of [`conv2d_i8`]: `[N][⌈C/4⌉][H+2P][W+2P]` u32 words (see [`QuadGeom`]),
/// whose byte `i` holds channel `4·quad + i` shifted to u8 (`code ^ 0x80`,
/// i.e. `code + 128`). Padding holds the shifted code of real zero,
/// `(−za) as i8`, and channels past `C` hold 0, so every tap of a conv
/// with padding at most `P` reads inside the buffer and sees exactly the
/// bytes the per-sample lowering multiplies, shifted. The words come from
/// the [`recycle`] u32 pool and return there on drop.
#[derive(Debug)]
pub struct ActQuads {
    words: Vec<u32>,
    n: usize,
    geom: QuadGeom,
    za: i32,
}

impl ActQuads {
    /// A buffer for `n` images of `geom` at zero point `za`, contents
    /// unspecified: the writer fills every word, e.g. one image at a time
    /// with [`QuadGeom::fill_padding`] and the interior rows.
    pub fn new(n: usize, geom: QuadGeom, za: i32) -> ActQuads {
        ActQuads {
            words: recycle::take_written(n * geom.image_words()),
            n,
            geom,
            za,
        }
    }

    /// The stored codes `x: [n, C, H, W]` laid out as quads, one byte at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `n·C·H·W` codes.
    pub fn from_codes(x: &[i8], n: usize, geom: QuadGeom, za: i32) -> ActQuads {
        let hw = geom.h * geom.w;
        assert_eq!(x.len(), n * geom.c * hw, "ActQuads::from_codes: length");
        let mut quads = ActQuads::new(n, geom, za);
        let ilen = geom.image_words();
        for (img, words) in quads.words.chunks_exact_mut(ilen.max(1)).enumerate() {
            geom.fill_padding(words, za);
            let xi = &x[img * geom.c * hw..(img + 1) * geom.c * hw];
            for q in 0..geom.quads() {
                for y in 0..geom.h {
                    let row = &mut words[geom.row(q, y)..][..geom.w];
                    for (xx, d) in row.iter_mut().enumerate() {
                        *d = (4 * q..(4 * q + 4).min(geom.c))
                            .map(|ch| int8::shifted(xi[(ch * geom.h + y) * geom.w + xx]))
                            .enumerate()
                            .fold(0, |w, (i, b)| w | b << (8 * i));
                    }
                }
            }
        }
        quads
    }

    /// Images.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Geometry of one image.
    pub fn geom(&self) -> QuadGeom {
        self.geom
    }

    /// The zero point the padding was written for.
    pub fn za(&self) -> i32 {
        self.za
    }

    /// All words, image after image.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// All words, for a writer.
    pub fn words_mut(&mut self) -> &mut [u32] {
        &mut self.words
    }
}

impl Clone for ActQuads {
    fn clone(&self) -> Self {
        ActQuads {
            words: recycle::take_copy(&self.words),
            ..*self
        }
    }
}

impl Drop for ActQuads {
    fn drop(&mut self) {
        recycle::give(std::mem::take(&mut self.words));
    }
}

/// The activation a tile store applies after the residual add.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Clamp {
    /// None.
    #[default]
    None,
    /// `v > 0 ? v : 0`: NaN and `−0` give `+0`.
    Relu,
    /// `f32::clamp(v, 0, 6)`: NaN stays NaN and `−0` stays `−0`.
    Relu6,
}

impl Clamp {
    /// The activation of `v`. The ReLU is a select rather than
    /// `f32::max`, whose result for `±0` is unspecified and has been seen
    /// to differ between two inlined copies of the same loop.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Clamp::None => v,
            Clamp::Relu => {
                if v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
            Clamp::Relu6 => v.clamp(0.0, 6.0),
        }
    }
}

/// What [`conv2d_i8`]'s tile store does to each requantized output
/// before storing it: `clamp(v + add[j])`, with `add` omitted when `None`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// An addend laid out like the output, `[N, O, OH, OW]`: a residual
    /// block's skip.
    pub add: Option<&'a [f32]>,
    /// The activation applied after the add.
    pub clamp: Clamp,
}

/// The range of a conv's stored outputs: `lo`/`hi` over the finite values
/// (`+∞`/`−∞` when there is none), and whether every value was finite —
/// what a range scan of the output would give.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutRange {
    /// Smallest finite output.
    pub lo: f32,
    /// Largest finite output.
    pub hi: f32,
    /// Whether every output was finite.
    pub finite: bool,
}

impl OutRange {
    /// The range of no values.
    pub const EMPTY: OutRange = OutRange {
        lo: f32::INFINITY,
        hi: f32::NEG_INFINITY,
        finite: true,
    };

    /// Combines two ranges. `f32::min`/`max` are order-independent here
    /// up to the sign of a zero tie, which no quantization grid sees.
    pub fn merge(self, other: OutRange) -> OutRange {
        OutRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            finite: self.finite && other.finite,
        }
    }
}

/// Int8 forward convolution over the whole batch as one implicit i8 GEMM,
/// requantized into f32. `x` holds the stored activation codes
/// `[N,C,H,W]` as channel quads (padding taps read the code of real zero),
/// `wgt` holds the stored weight codes `[O, C·KH·KW]`, and `out` is
/// `[N,O,OH,OW]` (overwritten), each element finished by `ep`. Returns the
/// range of the stored outputs.
/// Bit-identical to
/// [`reference::conv2d_i8_per_sample`](super::reference::conv2d_i8_per_sample)
/// followed by the epilogue, at every [`I8Level`](super::int8::I8Level)
/// and thread count, under the i8 GEMM overflow contract.
///
/// # Panics
///
/// Panics if a slice length or `x`'s geometry disagrees with `s`, `x` is
/// padded less than the conv's padding, or `x` was written for another
/// zero point than `rq.za`.
pub fn conv2d_i8(
    x: &ActQuads,
    wgt: &[i8],
    s: &ConvShape,
    rq: &Requant,
    ep: Epilogue,
    out: &mut [f32],
) -> OutRange {
    let g = x.geom();
    assert_eq!(
        (x.n(), g.c, g.h, g.w),
        (s.n, s.c, s.h, s.w),
        "conv2d_i8: input shape mismatch"
    );
    let (ph, pw) = s.spec.padding;
    assert!(g.pad >= ph.max(pw), "conv2d_i8: input padded too little");
    assert_eq!(x.za(), rq.za, "conv2d_i8: input zero point mismatch");
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
    if let Some(add) = ep.add {
        assert_eq!(add.len(), out.len(), "conv2d_i8: addend length mismatch");
    }
    for (name, len) in [
        ("wsum", rq.wsum.len()),
        ("scale", rq.scale.len()),
        ("shift", rq.shift.len()),
    ] {
        assert_eq!(len, s.o, "conv2d_i8: requant {name} length mismatch");
    }
    GEMM_I8_PACKED.add(1);
    CONV_I8_FLOPS.add(s.flops());
    if out.is_empty() {
        return OutRange::EMPTY;
    }
    if s.taps() == 0 {
        // Every dot and column sum is empty: each output is its channel's
        // requantized zero.
        for (i, plane) in out.chunks_exact_mut(s.positions()).enumerate() {
            let o = i % s.o;
            plane.fill(rq.scale[o] * rq.row_corr(o, 0) as f32 + rq.shift[o]);
        }
        let mut range = LaneRange::<1>::new();
        for (i, v) in out.iter_mut().enumerate() {
            *v = ep.clamp.apply(ep.add.map_or(*v, |a| *v + a[i]));
            range.fold(&[*v], 1);
        }
        return range.finish();
    }
    int8::dispatch(ForwardI8 {
        xq: x,
        wgt,
        s,
        rq,
        ep,
        out,
    })
}

/// Where a conv reads its [`ActQuads`] input: the buffer's padded height
/// and width and words per image, and the offset of the conv's own
/// padded origin, `(P − PH, P − PW)` words in.
struct QuadView {
    hp: usize,
    wp: usize,
    ilen: usize,
    base: usize,
}

impl QuadView {
    fn new(g: QuadGeom, s: &ConvShape) -> QuadView {
        let (hp, wp) = g.padded();
        let (ph, pw) = s.spec.padding;
        QuadView {
            hp,
            wp,
            ilen: g.image_words(),
            base: (g.pad - ph) * wp + (g.pad - pw),
        }
    }

    /// Splits GEMM columns `j0..j1` into per-image, per-row runs and
    /// per-image segments `(first lane, lanes, output offset of the first
    /// position in channel 0)`.
    fn panel(
        &self,
        s: &ConvShape,
        (j0, j1): (usize, usize),
        runs: &mut Vec<Run>,
        segs: &mut Vec<(usize, usize, usize)>,
    ) {
        runs.clear();
        segs.clear();
        let p = s.positions();
        let (sh, sw) = s.spec.stride;
        let mut j = j0;
        while j < j1 {
            let (img, q) = (j / p, j % p);
            let (oy, ox) = (q / s.ow, q % s.ow);
            let len = (s.ow - ox).min(j1 - j);
            runs.push(Run {
                lane: j - j0,
                len,
                src: img * self.ilen + self.base + oy * sh * self.wp + ox * sw,
            });
            match segs.last_mut() {
                Some(seg) if q > 0 => seg.1 += len,
                _ => segs.push((j - j0, len, img * s.o * p + q)),
            }
            j += len;
        }
    }
}

struct ForwardI8<'a> {
    xq: &'a ActQuads,
    wgt: &'a [i8],
    s: &'a ConvShape,
    rq: &'a Requant<'a>,
    ep: Epilogue<'a>,
    out: &'a mut [f32],
}

impl I8Pass for ForwardI8<'_> {
    type Out = OutRange;

    fn run<const NRW: usize>(self, kernels: I8Kernels<NRW>) -> OutRange {
        let ForwardI8 {
            xq,
            wgt,
            s,
            rq,
            ep,
            out,
        } = self;
        let (k, p) = (s.taps(), s.positions());
        let ncols = s.n * p;
        let khw = s.spec.kernel.0 * s.spec.kernel.1;
        let view = QuadView::new(xq.geom(), s);
        let xq = xq.words();
        // Step `q·khw + t` is tap `t` of channel quad `q`.
        let taps = s.tap_offsets(s.c.div_ceil(4), (view.hp, view.wp));
        let wq = int8::pack_quads(wgt, s.o, s.c, khw);
        // Rows past O, in the last tile, are never stored.
        let mut terms = vec![RowTerms::default(); wq.unshift.len()];
        for (o, (t, &unshift)) in terms.iter_mut().zip(&wq.unshift).take(s.o).enumerate() {
            *t = RowTerms {
                unshift,
                corr: rq.row_corr(o, k),
                scale: rq.scale[o],
                shift: rq.shift[o],
            };
        }
        // Assembled panels are `[steps][NRW]` words.
        let panel_taps: Vec<usize> = (0..taps.len()).map(|t| t * NRW).collect();
        let (zw, sw) = (i64::from(rq.zw), s.spec.stride.1);
        // Whole panels lie inside one image as NRW consecutive positions.
        let whole = p % NRW == 0;
        let out_ptr = SendPtr(out.as_mut_ptr());
        let grid = ChunkGrid::new(ncols.div_ceil(NRW), 1);
        let ranges = parallel_map_chunks(grid, LaneRange::<NRW>::new, |_, q0, q1, range| {
            // Capture the Sync wrapper, not the raw pointer field.
            let out_ptr = &out_ptr;
            // Columns past the batch in the last panel keep stale words;
            // their outputs are never stored or scanned.
            let mut panel = vec![0u32; taps.len() * NRW];
            let (mut acc, mut vals) = ([[0i32; NRW]; MR], [[0.0f32; NRW]; MR]);
            let mut addend = [[0.0f32; NRW]; MR];
            let (mut sums, mut cols) = ([0i32; NRW], [0i64; NRW]);
            let (mut runs, mut segs) = (Vec::with_capacity(NRW), Vec::with_capacity(NRW));
            for q in q0..q1 {
                let j0 = q * NRW;
                let j1 = (j0 + NRW).min(ncols);
                view.panel(s, (j0, j1), &mut runs, &mut segs);
                // One unit-stride run of NRW columns is read in place: its
                // row at every step is NRW consecutive words of `xq`.
                let (src, offs) = match runs[..] {
                    [r] if r.len == NRW && sw == 1 => (&xq[r.src..], &taps[..]),
                    _ => {
                        for r in &runs {
                            assemble_run(&mut panel, NRW, r, xq, &taps, sw);
                        }
                        (&panel[..], &panel_taps[..])
                    }
                };
                for (t, ((wt, _), rows)) in wq.tiles().zip(terms.chunks_exact(MR)).enumerate() {
                    (kernels.tile)(src, offs, wt, (t == 0).then_some(&mut sums), &mut acc);
                    if t == 0 {
                        // The u8 shift added 128 to each of a column's K
                        // codes; what is left is the stored-code sum.
                        cols = sums.map(|u| zw * (i64::from(u) - 128 * k as i64));
                    }
                    let real = t * MR..s.o.min((t + 1) * MR);
                    if let Some(add) = ep.add {
                        // The addend at exactly the positions stored below.
                        for (co, a) in real.clone().zip(&mut addend) {
                            if whole {
                                let at = segs[0].2 + co * p;
                                a.copy_from_slice(&add[at..at + NRW]);
                                continue;
                            }
                            for &(lane, len, base) in &segs {
                                let at = base + co * p;
                                a[lane..lane + len].copy_from_slice(&add[at..at + len]);
                            }
                        }
                    }
                    let tail = Tail {
                        add: ep.add.map(|_| &addend),
                        clamp: ep.clamp,
                        rows: real.len(),
                        lanes: j1 - j0,
                    };
                    (kernels.requant)(&acc, rows, &cols, tail, range, &mut vals);
                    // Column panels are disjoint across chunks, and
                    // distinct (channel, column) pairs are distinct output
                    // elements, so no two stores below, in any chunk,
                    // overlap.
                    for (co, v) in real.zip(&vals) {
                        if whole {
                            let dst = segs[0].2 + co * p;
                            // SAFETY: `dst..dst + NRW` are this panel's NRW
                            // positions of channel `co`, inside `out`
                            // (checked length) and written by no other
                            // chunk; f32 arrays have f32 alignment.
                            unsafe { *out_ptr.0.add(dst).cast::<[f32; NRW]>() = *v };
                            continue;
                        }
                        for &(lane, len, base) in &segs {
                            // SAFETY: the segment's `len` columns are
                            // consecutive positions of one image, so
                            // `base + co·P ..` spans `len` elements of
                            // channel `co` inside `out`, written by no other
                            // chunk.
                            unsafe {
                                let dst = out_ptr.0.add(base + co * p);
                                std::ptr::copy_nonoverlapping(v[lane..].as_ptr(), dst, len);
                            }
                        }
                    }
                }
            }
        });
        ranges
            .iter()
            .fold(OutRange::EMPTY, |r, lanes| r.merge(lanes.finish()))
    }
}

/// Copies the words of column run `r` into every step row of the panel
/// (`[steps][nrw]` words): lane `r.lane + i` of row `t` gets
/// `xq[r.src + taps[t] + i·stride]`. Unit-stride runs of 16, 8, 4 or 2
/// lanes (whole output rows of those widths) are fixed-size copies; other
/// runs go lane by lane.
#[inline(always)]
fn assemble_run(panel: &mut [u32], nrw: usize, r: &Run, xq: &[u32], taps: &[usize], stride: usize) {
    let x = &xq[r.src..];
    match (r.len, stride) {
        (16, 1) => assemble_lanes::<16>(panel, nrw, r.lane, x, taps),
        (8, 1) => assemble_lanes::<8>(panel, nrw, r.lane, x, taps),
        (4, 1) => assemble_lanes::<4>(panel, nrw, r.lane, x, taps),
        (2, 1) => assemble_lanes::<2>(panel, nrw, r.lane, x, taps),
        _ => {
            for i in 0..r.len {
                assemble_lanes::<1>(panel, nrw, r.lane + i, &x[i * stride..], taps);
            }
        }
    }
}

/// [`assemble_run`] for `L` unit-stride lanes starting at `lane`.
#[inline(always)]
fn assemble_lanes<const L: usize>(
    panel: &mut [u32],
    nrw: usize,
    lane: usize,
    x: &[u32],
    taps: &[usize],
) {
    for (row, &t) in panel.chunks_exact_mut(nrw).zip(taps) {
        row[lane..lane + L].copy_from_slice(&x[t..t + L]);
    }
}

#[cfg(test)]
mod tests {
    use super::super::int8::{with_i8_level, I8Level};
    use super::super::{reference, Level};
    use super::*;
    use crate::lanes::testing::via_lanes;
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
            conv2d(x, w, s, y);
            conv2d_backward(x, dy, w, s, dx, dw);
        })
    }

    fn oracle(s: &ConvShape, seed: u64) -> [Vec<u32>; 3] {
        passes(s, seed, &|x, w, dy, y, dx, dw| {
            reference::conv2d(x, w, s, y);
            reference::conv2d_backward_input(dy, w, s, dx);
            reference::conv2d_backward_weight(x, dy, s, dw);
        })
    }

    /// Batches: partial blocks of 1, 2, 4, 11 and 12 images (the first
    /// three with fewer images than weight-gradient bands), one block, a
    /// block and one image, two blocks and one, and 100 images, whose
    /// 13-image weight-gradient bands split 16-lane blocks.
    const BATCHES: [usize; 9] = [1, 2, 4, 11, 12, 16, 17, 33, 100];

    /// Output channel counts around the lane tile (4).
    const OUTPUTS: [usize; 7] = [1, 2, 3, 4, 7, 8, 9];

    /// Kernels as (size, stride, padding): 3×3 at stride 1 and 2 and
    /// padding 0–2, and 1×1 at stride 1 and 2 and padding 0 and 1.
    const KERNELS: [(usize, usize, usize); 10] = [
        (3, 1, 0),
        (3, 2, 0),
        (3, 1, 1),
        (3, 2, 1),
        (3, 1, 2),
        (3, 2, 2),
        (1, 1, 0),
        (1, 2, 0),
        (1, 1, 1),
        (1, 2, 1),
    ];

    /// Every batch × output count × kernel, on a 2-channel 5×4 input.
    fn lane_shapes() -> impl Iterator<Item = ConvShape> {
        BATCHES.into_iter().flat_map(|n| {
            OUTPUTS.into_iter().flat_map(move |o| {
                KERNELS.into_iter().map(move |(k, stride, pad)| {
                    ConvShape::new(n, 2, 5, 4, o, Conv2dSpec::new(k, stride, pad))
                        .expect("valid shape")
                })
            })
        })
    }

    #[test]
    fn conv_matches_per_sample_oracle_bitwise() {
        // Through the public entry points: the adversarial shapes, and
        // one shape per batch.
        let per_batch = lane_shapes().step_by(OUTPUTS.len() * KERNELS.len());
        for (i, s) in shapes().chain(per_batch).enumerate() {
            let want = oracle(&s, 10 * i as u64);
            for limit in [1, 2, 5] {
                let got = with_thread_limit(limit, || {
                    passes(&s, 10 * i as u64, &|x, w, dy, y, dx, dw| {
                        public(&s, x, w, dy, y, dx, dw)
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
            via_lanes(s, (x, dy), (y, dx), |x, dy, y, dx| {
                let (x, dy) = (as_lanes(x), as_lanes(dy));
                // SAFETY: callers pass only levels this host supports.
                unsafe {
                    lane::forward(level, x, wgt, s, as_lanes_mut(y));
                    lane::backward(level, x, dy, wgt, s, as_lanes_mut(dx), dw);
                }
            })
        })
    }

    #[test]
    fn lane_lowering_matches_oracle_at_every_level_and_thread_limit() {
        for (i, s) in lane_shapes().enumerate() {
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
    fn every_simd_level_matches_oracle_bitwise() {
        for level in Level::supported() {
            for (i, s) in shapes().enumerate() {
                let got = lane_passes(&s, 10 * i as u64, level);
                assert_eq!(got, oracle(&s, 10 * i as u64), "{level:?} {s:?}");
            }
        }
    }

    #[test]
    fn empty_batch_channels_or_taps_are_empty_sums() {
        // No images: the forward has nothing to write and the backward
        // zero-fills dW. No output or input channels: every element that
        // exists is zero. None of these panics.
        for (n, c, o) in [(0, 3, 4), (0, 0, 0), (2, 3, 0), (2, 0, 4)] {
            for k in [1, 3] {
                let s = ConvShape::new(n, c, 5, 4, o, Conv2dSpec::new(k, 2, 1)).expect("shape");
                let got = passes(&s, 7, &|x, w, dy, y, dx, dw| {
                    public(&s, x, w, dy, y, dx, dw)
                });
                let lens = [n * o * s.positions(), n * s.image_len(), o * s.taps()];
                assert_eq!(got, lens.map(|len| vec![0u32; len]), "{s:?}");
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
            let (dy, mut dx) = (y.clone(), x.clone());
            public(&s, &x, &wgt, &dy, &mut y, &mut dx, &mut wgt.clone());
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
    fn nonfinite_operands_match_oracle() {
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
            let got = run(&|y, dx, dw| public(&s, &x, &wgt, &dy, y, dx, dw));
            for (pass, (g, w)) in ["forward", "dx", "dw"].iter().zip(got.iter().zip(&want)) {
                assert_eq!(g, w, "{pass} {s:?}");
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
        let (dy, mut dx, mut dw) = (y.clone(), x.clone(), wgt.clone());
        public(&s, &x, &wgt, &dy, &mut y, &mut dx, &mut dw);
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
        public(&s, &x, &wgt, &dy, &mut y, &mut dx, &mut dw);
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

        fn requant(&self) -> Requant<'_> {
            Requant {
                za: self.za,
                zw: self.zw,
                wsum: &self.wsum,
                scale: &self.scale,
                shift: &self.shift,
            }
        }

        fn run(&self, s: &ConvShape, conv: ConvI8) -> Vec<u32> {
            let mut out = vec![f32::NAN; s.n * s.o * s.positions()];
            conv(&self.x, &self.wgt, s, &self.requant(), &mut out);
            bits(&out)
        }
    }

    type ConvI8 = fn(&[i8], &[i8], &ConvShape, &Requant, &mut [f32]);

    /// [`conv2d_i8`] on the quads of `x` padded by `P` = the conv's
    /// padding + `WIDER`, with no epilogue.
    fn quad_conv<const WIDER: usize>(
        x: &[i8],
        wgt: &[i8],
        s: &ConvShape,
        rq: &Requant,
        out: &mut [f32],
    ) {
        let (ph, pw) = s.spec.padding;
        let geom = QuadGeom {
            c: s.c,
            h: s.h,
            w: s.w,
            pad: ph.max(pw) + WIDER,
        };
        let xq = ActQuads::from_codes(x, s.n, geom, rq.za);
        conv2d_i8(&xq, wgt, s, rq, Epilogue::default(), out);
    }

    /// Shapes of the quad tile's paths beyond [`SHAPES`]: output rows of 16
    /// and more at unit stride (read in place, whole or split across
    /// panels), partial last quads (C = 1, 5, 17), stride 3 (also with
    /// rows of 17), panels straddling images (N·P = 75), and the empty
    /// batch, output and channel sets.
    const I8_SHAPES: [Case; 11] = [
        (1, 5, 3, 16, 8, 1, 1, 0),
        (2, 3, 4, 20, 9, 3, 1, 1),
        (3, 17, 2, 33, 5, 3, 1, 1),
        (3, 1, 5, 18, 7, 3, 1, 1),
        (2, 5, 6, 6, 9, 3, 2, 1),
        (2, 4, 9, 9, 6, 3, 3, 1),
        (2, 3, 7, 50, 4, 2, 3, 0),
        (3, 2, 5, 5, 3, 3, 1, 1),
        (0, 3, 4, 4, 5, 3, 1, 1),
        (2, 3, 4, 4, 0, 3, 1, 1),
        (2, 0, 4, 4, 5, 3, 1, 1),
    ];

    /// [`SHAPES`] and [`I8_SHAPES`]; under Miri, which interprets every
    /// byte, only the smaller of the latter (still an in-place row, a
    /// partial quad, straddling panels and the empty sets).
    fn i8_shapes() -> impl Iterator<Item = ConvShape> {
        let small = |&&(n, c, h, w, ..): &&Case| !cfg!(miri) || n * c * h * w <= 250;
        SHAPES
            .iter()
            .chain(I8_SHAPES.iter().filter(small))
            .map(|&(n, c, h, w, o, k, st, pd)| {
                ConvShape::new(n, c, h, w, o, Conv2dSpec::new(k, st, pd)).expect("valid shape")
            })
    }

    #[test]
    fn conv2d_i8_matches_per_sample_oracle_at_every_level_and_thread_count() {
        for (i, s) in i8_shapes().enumerate() {
            let case = I8Case::new(&s, 100 + i as u64);
            let want = case.run(&s, reference::conv2d_i8_per_sample);
            for level in I8Level::supported() {
                for limit in [1, 2, 5, 8] {
                    let got = with_i8_level(level, || {
                        with_thread_limit(limit, || case.run(&s, quad_conv::<0>))
                    });
                    assert_eq!(got, want, "{s:?} {level:?} at {limit} threads");
                }
                // A buffer padded wider than the conv needs is read at an
                // offset, with the same bits.
                let got = with_i8_level(level, || case.run(&s, quad_conv::<2>));
                assert_eq!(got, want, "{s:?} {level:?} read at an offset");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "K = 4608 is slow interpreted")]
    fn conv2d_i8_extreme_codes_stay_exact_at_every_level() {
        // K = 512·3·3 = 4608, ResNet-18's widest tap count, at unit scale:
        // every output is the exact dot K·x·w. Activation 127 (u8 255)
        // against weight −128 gives the largest u8 dot; activation −128
        // (u8 0) against 127 leaves the whole dot to the −128·Σw unshift.
        // Rows of 16 run in place, rows of 3 assembled.
        for w in [18, 5] {
            let s = ConvShape::new(2, 512, 3, w, 9, Conv2dSpec::new(3, 1, 0)).expect("shape");
            for (xv, wv) in [(127i8, -128i8), (-128, 127)] {
                let k = s.taps();
                let rq = Requant {
                    za: 0,
                    zw: 0,
                    wsum: &vec![k as i32 * i32::from(wv); s.o],
                    scale: &vec![1.0; s.o],
                    shift: &vec![0.0; s.o],
                };
                let (x, wgt) = (vec![xv; s.n * s.image_len()], vec![wv; s.o * k]);
                let want = (k as i32 * i32::from(xv) * i32::from(wv)) as f32;
                for level in I8Level::supported() {
                    let mut out = vec![f32::NAN; s.n * s.o * s.positions()];
                    with_i8_level(level, || quad_conv::<0>(&x, &wgt, &s, &rq, &mut out));
                    assert!(out.iter().all(|&v| v == want), "{level:?} w {w} {xv}·{wv}");
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
        let got = case.run(&s, quad_conv::<0>);
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

    /// The epilogue element by element over the outputs `y`, and the range
    /// of the results.
    fn finish_ref(y: &mut [f32], add: Option<&[f32]>, clamp: Clamp) -> OutRange {
        let mut r = OutRange::EMPTY;
        for (i, v) in y.iter_mut().enumerate() {
            *v = clamp.apply(add.map_or(*v, |a| *v + a[i]));
            r = if v.is_finite() {
                r.merge(OutRange {
                    lo: *v,
                    hi: *v,
                    finite: true,
                })
            } else {
                OutRange { finite: false, ..r }
            };
        }
        r
    }

    #[test]
    fn conv2d_i8_epilogue_adds_clamps_and_scans_the_stored_outputs() {
        // The residual add, each clamp and the range of what was stored,
        // against the oracle followed by the same steps element by
        // element, on partial panels and row tiles, read in place and
        // assembled, at every level and thread limit. One addend carries
        // NaN and ±Inf; another (−1e9) makes every value negative, so the
        // ReLU output is all zero; one channel's outputs are −0 or +0.
        for (i, s) in i8_shapes().enumerate().filter(|(i, _)| i % 3 == 0) {
            let mut case = I8Case::new(&s, 300 + i as u64);
            if s.o > 0 {
                // Channel 0 requantizes to −0 wherever its dot is ≥ 0.
                (case.scale[0], case.shift[0]) = (-0.0, -0.0);
            }
            let mut add = randvec(s.n * s.o * s.positions(), 301 + i as u64);
            for (j, v) in add.iter_mut().enumerate().step_by(37) {
                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][j % 3];
            }
            let want_raw = case.run(&s, reference::conv2d_i8_per_sample);
            for clamp in [Clamp::None, Clamp::Relu, Clamp::Relu6] {
                for add in [None, Some(&add[..]), Some(&vec![-1e9; add.len()][..])] {
                    let mut want: Vec<f32> = want_raw.iter().map(|&b| f32::from_bits(b)).collect();
                    let want_range = finish_ref(&mut want, add, clamp);
                    let ep = Epilogue { add, clamp };
                    for level in I8Level::supported() {
                        for limit in [1, 2, 5, 8] {
                            let mut got = vec![f32::NAN; want.len()];
                            let range = with_i8_level(level, || {
                                with_thread_limit(limit, || {
                                    let geom = QuadGeom {
                                        c: s.c,
                                        h: s.h,
                                        w: s.w,
                                        pad: s.spec.padding.0,
                                    };
                                    let xq = ActQuads::from_codes(&case.x, s.n, geom, case.za);
                                    let rq = case.requant();
                                    conv2d_i8(&xq, &case.wgt, &s, &rq, ep, &mut got)
                                })
                            });
                            let at = format!("{s:?} {clamp:?} {level:?} at {limit} threads");
                            assert_eq!(canon_bits(&got), canon_bits(&want), "{at}");
                            assert_eq!(range, want_range, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quads_hold_shifted_codes_and_the_pad_word() {
        // Five channels (a partial second quad) of 2×3, padded by 1.
        let geom = QuadGeom {
            c: 5,
            h: 2,
            w: 3,
            pad: 1,
        };
        let x: Vec<i8> = (0..2 * 5 * 6).map(|v| (v * 7 - 128) as i8).collect();
        let q = ActQuads::from_codes(&x, 2, geom, -3);
        assert_eq!(q.words().len(), 2 * geom.image_words());
        assert_eq!(geom.image_words(), 2 * 4 * 5);
        // Real zero is stored as code 3, shifted 131; channel 4 of quad 1
        // is alone.
        assert_eq!(geom.pad_word(0, -3), u32::from_le_bytes([131; 4]));
        assert_eq!(geom.pad_word(1, -3), 131);
        let img1 = &q.words()[geom.image_words()..];
        let at = |q: usize, y: usize, x: usize| img1[geom.row(q, y) + x].to_le_bytes();
        let code = |c: usize, y: usize, xx: usize| (x[30 + (c * 2 + y) * 3 + xx] as u8) ^ 0x80;
        assert_eq!(at(0, 1, 2), [0, 1, 2, 3].map(|c| code(c, 1, 2)));
        assert_eq!(at(1, 0, 1), [code(4, 0, 1), 0, 0, 0]);
        assert_eq!(img1[0], geom.pad_word(0, -3));
        assert_eq!(img1[geom.row(1, 1) + 3], geom.pad_word(1, -3));
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
