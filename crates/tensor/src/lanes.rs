//! The image-minor lane layout of rank-4 activations, and its one
//! conversion pair.
//!
//! A [`Layout::Lanes`](crate::Layout::Lanes) tensor of dims
//! `[N, C, H, W]` stores `[⌈N/16⌉][C][H][W][16]`: element `(n, c, y, x)`
//! is lane `n % 16` of cell `(c, y, x)` of block `n / 16`. One 16-float
//! lane holds one pixel of 16 independent images, so the dense conv
//! kernels ([`crate::gemm::conv`]) read every register tile straight
//! from it, and the elementwise layers between them work in storage
//! order. Inside an encoder, activations stay in this layout from the
//! stem's input to the global pool; [`Tensor::to_lanes`] and
//! [`Tensor::to_nchw`] convert
//! at those boundaries only.
//!
//! # Pad lanes
//!
//! When `N % 16 ≠ 0`, the lanes of the last block past image `N` hold
//! no image. A conversion writes them as NaN in builds with debug
//! assertions (0 otherwise), and kernels compute on them like any other
//! lane, so they hold unspecified values; no result reads them. Every
//! reduction over a lane tensor (BatchNorm statistics and gradient sums,
//! fake-quant range scans, weight-gradient band sums, pooling, counters,
//! [`Tensor::to_nchw`]) skips them; [`PadLanes`] says where they are.
//!
//! # Conversions
//!
//! Both directions move 16 elements of 16 images at a time through the
//! 16×16 transpose of the dense conv kernels, in parallel over blocks.
//! They move bits and never compute, so a round trip is the identity on
//! every real element. Every real element either moves is counted in
//! `tensor.conv.lane_elems` (a shape-only total, identical at any thread
//! count).
//!
//! # Channel-minor copies
//!
//! A reduction that runs one chain per *channel* over (image, position)
//! cannot take images as its lanes. [`ChannelLanes`] (and the crate's
//! depthwise weight gradient) copy 16 channels of the images of one lane
//! block into a channel-minor scratch, `[image][position]` vectors whose
//! lane `j` is channel `ch0 + j`: per position, 16 lanes are loaded into
//! registers, transposed there, and stored as 16 lanes. Every real
//! element copied is counted in `tensor.lanes.transposed_elems`.

use std::ops::Range;

use crate::gemm::lane::{copy_prefix, dispatch_at, Lane, LaneBuf, LanePass, Transpose, ZERO};
use crate::gemm::SendPtr;
use crate::par::{parallel_for_chunks, ChunkGrid};
use crate::simd::SimdLevel;
#[cfg(doc)]
use crate::Tensor;

/// Images per block: the lanes of one storage cell.
pub const LANES: usize = 16;

// Real elements moved between NCHW and the lane layout. Shape-only, so
// totals are identical at any thread count.
static LANE_ELEMS: cq_obs::Counter = cq_obs::Counter::new("tensor.conv.lane_elems");

/// Counts `elems` elements moved into or out of the lane layout (the
/// conversions and the global pool's exit).
pub(crate) fn count_moved(elems: usize) {
    LANE_ELEMS.add(elems as u64);
}

// Real elements copied into the channel-minor layout. Shape-only too.
static TRANSPOSED_ELEMS: cq_obs::Counter = cq_obs::Counter::new("tensor.lanes.transposed_elems");

/// Stored floats of a lane tensor of `dims` (`[N, C, H, W]`): whole
/// 16-image blocks.
///
/// # Panics
///
/// Panics if `dims` is not rank 4.
pub fn storage_len(dims: &[usize]) -> usize {
    assert_eq!(dims.len(), 4, "the lane layout is rank 4, got {dims:?}");
    dims[0].div_ceil(LANES) * dims[1] * dims[2] * dims[3] * LANES
}

/// The value a conversion writes into pad lanes: NaN under debug
/// assertions, so a pad lane that leaks into a result shows.
pub fn pad_value() -> f32 {
    if cfg!(debug_assertions) {
        f32::NAN
    } else {
        0.0
    }
}

/// Images of block `b` of an `n`-image batch: its first image and count.
pub fn block_images(n: usize, b: usize) -> (usize, usize) {
    let img0 = b * LANES;
    (img0, LANES.min(n - img0))
}

/// Where the pad lanes of a lane tensor are: the lanes of its last block
/// from `real` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PadLanes {
    /// First stored float of the last block.
    last: usize,
    /// Images in the last block (1 to 15).
    real: usize,
}

impl PadLanes {
    /// The pad lanes of `t`, or `None` when it has none: a row-major
    /// tensor, or a lane tensor of whole blocks.
    pub fn of(t: &crate::Tensor) -> Option<PadLanes> {
        if !t.is_lanes() {
            return None;
        }
        let n = t.dims()[0];
        let real = n % LANES;
        (real != 0).then(|| PadLanes {
            last: t.len() - t.len() / n.div_ceil(LANES),
            real,
        })
    }

    /// Calls `f(lo, hi)` for each run `lo..hi` of real (non-pad) stored
    /// elements inside `start..end`, in ascending order.
    pub fn real_runs(&self, start: usize, end: usize, mut f: impl FnMut(usize, usize)) {
        if start < self.last {
            f(start, end.min(self.last));
        }
        let mut i = start.max(self.last);
        while i < end {
            let cell = i - i % LANES;
            let hi = end.min(cell + self.real);
            if i < hi {
                f(i, hi);
            }
            i = cell + LANES;
        }
    }
}

/// The row-major index of stored element `i` of a lane tensor of `dims`,
/// or `None` for a pad lane.
pub fn nchw_index(dims: &[usize], i: usize) -> Option<usize> {
    let len = dims[1] * dims[2] * dims[3];
    let (cell, lane) = (i / LANES, i % LANES);
    let n = (cell / len) * LANES + lane;
    (n < dims[0]).then_some(n * len + cell % len)
}

/// `(N, C·H·W)` of rank-4 dims.
fn images(dims: &[usize]) -> (usize, usize) {
    assert_eq!(dims.len(), 4, "the lane layout is rank 4, got {dims:?}");
    (dims[0], dims[1] * dims[2] * dims[3])
}

/// Casts lane storage to lanes.
///
/// # Panics
///
/// Panics unless `s` starts on a 64-byte boundary and holds whole lanes.
pub(crate) fn as_lanes(s: &[f32]) -> &[Lane] {
    assert!(
        (s.as_ptr() as usize).is_multiple_of(64) && s.len().is_multiple_of(LANES),
        "lane storage must be whole 64-byte-aligned lanes"
    );
    // SAFETY: checked above: `s` starts on a 64-byte boundary and holds
    // `len / 16` runs of 16 f32s; a `Lane` is exactly 16 f32s
    // (`repr(C)`), and every bit pattern is a valid one.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast(), s.len() / LANES) }
}

/// [`as_lanes`], mutably.
///
/// # Panics
///
/// As [`as_lanes`].
pub(crate) fn as_lanes_mut(s: &mut [f32]) -> &mut [Lane] {
    assert!(
        (s.as_ptr() as usize).is_multiple_of(64) && s.len().is_multiple_of(LANES),
        "lane storage must be whole 64-byte-aligned lanes"
    );
    // SAFETY: as for `as_lanes`, borrowed uniquely.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), s.len() / LANES) }
}

/// An image's elements in runs of at most [`LANES`], as `(first, len)`:
/// the first run is cut short so that the rest start on a cache-line
/// boundary of the row-major buffer at `base` (of every image when the
/// image length is a multiple of 16 floats), so a full run is one aligned
/// vector per image.
fn runs(base: *const f32, len: usize) -> impl Iterator<Item = (usize, usize)> {
    let first = ((base as usize).wrapping_neg() % 64 / 4).min(len);
    let head = (first > 0).then_some((0, first));
    head.into_iter().chain(
        (first..len)
            .step_by(LANES)
            .map(move |f0| (f0, LANES.min(len - f0))),
    )
}

/// Copies the row-major batch `src` of `dims` into the lane storage
/// `dst` (pad lanes get [`pad_value`]).
///
/// # Panics
///
/// Panics if `dims` is not rank 4, a length disagrees with it, or `dst`
/// is not lane-aligned.
pub(crate) fn to_lanes(src: &[f32], dims: &[usize], dst: &mut [f32]) {
    to_lanes_at(SimdLevel::detect(), src, dims, dst);
}

fn to_lanes_at(level: SimdLevel, src: &[f32], dims: &[usize], dst: &mut [f32]) {
    let (n, len) = images(dims);
    assert_eq!(src.len(), n * len, "to_lanes: source length mismatch");
    assert_eq!(
        dst.len(),
        storage_len(dims),
        "to_lanes: lane length mismatch"
    );
    count_moved(n * len);
    let dst = SendPtr(as_lanes_mut(dst).as_mut_ptr().cast());
    parallel_for_chunks(ChunkGrid::new(n.div_ceil(LANES), 1), |_, b0, b1| {
        let dst = &dst;
        for b in b0..b1 {
            // SAFETY: block `b` is `len` lanes inside `dst`, and block
            // ranges are disjoint across chunks.
            let block =
                unsafe { std::slice::from_raw_parts_mut(dst.0.cast::<Lane>().add(b * len), len) };
            let pass = ToLanes {
                src,
                n,
                len,
                b,
                dst: block,
            };
            // SAFETY: `level` was detected on this host or is one of
            // `SimdLevel::supported`.
            unsafe { dispatch_at(level, pass) };
        }
    });
}

struct ToLanes<'a> {
    src: &'a [f32],
    n: usize,
    len: usize,
    b: usize,
    dst: &'a mut [Lane],
}

impl LanePass for ToLanes<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let ToLanes {
            src,
            n,
            len,
            b,
            dst,
        } = self;
        let (img0, nimg) = block_images(n, b);
        let pad = Lane([pad_value(); LANES]);
        let mut t = [ZERO; LANES];
        for (f0, m) in runs(src.as_ptr(), len) {
            for (i, row) in t.iter_mut().enumerate() {
                if i < nimg {
                    let at = (img0 + i) * len + f0;
                    copy_prefix(&mut row.0, &src[at..at + m]);
                } else {
                    *row = pad;
                }
            }
            // SAFETY: the caller guarantees `T`'s level.
            unsafe { T::transpose(&mut t) };
            dst[f0..f0 + m].copy_from_slice(&t[..m]);
        }
    }
}

/// Copies the real lanes of the lane storage `src` of `dims` into the
/// row-major batch `dst`.
///
/// # Panics
///
/// As [`to_lanes`].
pub(crate) fn to_nchw(src: &[f32], dims: &[usize], dst: &mut [f32]) {
    to_nchw_at(SimdLevel::detect(), src, dims, dst);
}

fn to_nchw_at(level: SimdLevel, src: &[f32], dims: &[usize], dst: &mut [f32]) {
    let (n, len) = images(dims);
    assert_eq!(
        src.len(),
        storage_len(dims),
        "to_nchw: lane length mismatch"
    );
    assert_eq!(dst.len(), n * len, "to_nchw: output length mismatch");
    count_moved(n * len);
    let src = as_lanes(src);
    let dst = SendPtr(dst.as_mut_ptr());
    parallel_for_chunks(ChunkGrid::new(n.div_ceil(LANES), 1), |_, b0, b1| {
        let dst = &dst;
        for b in b0..b1 {
            let (img0, nimg) = block_images(n, b);
            // SAFETY: block `b`'s images are `nimg · len` floats inside
            // `dst`, and block ranges are disjoint across chunks.
            let images =
                unsafe { std::slice::from_raw_parts_mut(dst.0.add(img0 * len), nimg * len) };
            let pass = ToNchw {
                src: &src[b * len..(b + 1) * len],
                len,
                dst: images,
            };
            // SAFETY: as in `to_lanes_at`.
            unsafe { dispatch_at(level, pass) };
        }
    });
}

struct ToNchw<'a> {
    /// One block of lanes.
    src: &'a [Lane],
    len: usize,
    /// The block's real images, row-major.
    dst: &'a mut [f32],
}

impl LanePass for ToNchw<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let ToNchw { src, len, dst } = self;
        let mut t = [ZERO; LANES];
        for (f0, m) in runs(dst.as_ptr(), len) {
            t[..m].copy_from_slice(&src[f0..f0 + m]);
            // SAFETY: the caller guarantees `T`'s level.
            unsafe { T::transpose(&mut t) };
            for (image, row) in dst.chunks_exact_mut(len).zip(&t) {
                let out = &mut image[f0..f0 + m];
                match <&mut [f32; LANES]>::try_from(&mut *out) {
                    Ok(full) => *full = row.0,
                    Err(_) => out.copy_from_slice(&row.0[..m]),
                }
            }
        }
    }
}

/// Copies channels `chans` (at most 16) of the images `images` (lanes
/// of the block, within `0..16`) of one lane block `src`, `[C][p]`
/// lanes, into the channel-minor `dst`, `[images.len()][p]` lanes whose
/// lane `j` is channel `chans.start + j` (zero past the last): per
/// position, one 16-channel × 16-image transpose in registers. No other
/// lane of `dst` is written.
///
/// # Safety
///
/// The host must support `T`'s level.
///
/// # Panics
///
/// Panics if a range or a slice is too short for the copy.
#[inline(always)]
pub(crate) unsafe fn to_channels<T: Transpose>(
    src: &[Lane],
    p: usize,
    chans: Range<usize>,
    images: Range<usize>,
    dst: &mut [Lane],
) {
    let (rows, m) = (chans.len(), images.len());
    assert!(
        rows <= LANES && images.end <= LANES && chans.end * p <= src.len() && m * p <= dst.len(),
        "to_channels: {chans:?} × {images:?} at {p} positions out of range"
    );
    TRANSPOSED_ELEMS.add((rows * m * p) as u64);
    // SAFETY: the `rows` planes of `p` lanes from channel `chans.start`
    // lie in `src`, and the `m` planes from 0 in `dst` (both checked
    // above); the caller guarantees `T`'s level.
    unsafe {
        let src = src[chans.start * p..].as_ptr();
        T::transpose_planes(src, rows, dst.as_mut_ptr(), images, p);
    }
}

/// A channel-minor copy of 16 channels of the images of one lane block:
/// `[image][position]` vectors whose lane `j` is channel `ch0 + j`. A
/// reduction with one chain per channel in (image, position) order walks
/// [`ChannelLanes::image`] in image order and so runs 16 of its chains
/// as one vector chain. The scratch comes from the recycler
/// ([`crate::recycle`]) and is refilled per block by
/// [`ChannelLanes::fill`].
pub struct ChannelLanes {
    level: SimdLevel,
    buf: LaneBuf,
    positions: usize,
    images: usize,
}

impl ChannelLanes {
    /// Scratch for 16 images of `positions` positions, filled at `level`.
    ///
    /// # Panics
    ///
    /// Panics if the host cannot run `level`.
    pub fn new(level: SimdLevel, positions: usize) -> ChannelLanes {
        assert!(
            SimdLevel::supported().contains(&level),
            "ChannelLanes: host cannot run {level:?}"
        );
        ChannelLanes {
            level,
            buf: LaneBuf::written(LANES * positions),
            positions,
            images: 0,
        }
    }

    /// Copies channels `ch0..ch0 + 16` of the first `images` images of
    /// `block`, the lane storage of one block (`[C][positions][16]`
    /// floats, 64-byte aligned), counting the copy in
    /// `tensor.lanes.transposed_elems`.
    ///
    /// # Panics
    ///
    /// Panics if `images > 16`, `block` is not whole aligned lanes or
    /// holds fewer than `ch0 + 16` channels.
    pub fn fill(&mut self, block: &[f32], ch0: usize, images: usize) {
        let pass = Fill {
            src: as_lanes(block),
            p: self.positions,
            chans: ch0..ch0 + LANES,
            images: 0..images,
            dst: self.buf.lanes_mut(),
        };
        // SAFETY: `new` checked that the host runs the level.
        unsafe { dispatch_at(self.level, pass) };
        self.images = images;
    }

    /// Image `i`'s positions of the last [`ChannelLanes::fill`], 16
    /// channels each.
    ///
    /// # Panics
    ///
    /// Panics if that fill copied no image `i`.
    pub fn image(&self, i: usize) -> &[[f32; LANES]] {
        assert!(i < self.images, "ChannelLanes: image {i} not filled");
        let lanes = &self.buf.lanes()[i * self.positions..(i + 1) * self.positions];
        // SAFETY: a `Lane` is exactly 16 f32s (`repr(C)`), aligned more
        // strictly than `[f32; 16]`.
        unsafe { std::slice::from_raw_parts(lanes.as_ptr().cast(), lanes.len()) }
    }
}

/// [`to_channels`] behind [`ChannelLanes::fill`].
struct Fill<'a> {
    src: &'a [Lane],
    p: usize,
    chans: Range<usize>,
    images: Range<usize>,
    dst: &'a mut [Lane],
}

impl LanePass for Fill<'_> {
    #[inline(always)]
    unsafe fn run<T: Transpose>(self) {
        let Fill {
            src,
            p,
            chans,
            images,
            dst,
        } = self;
        // SAFETY: the caller guarantees `T`'s level.
        unsafe { to_channels::<T>(src, p, chans, images, dst) };
    }
}

/// Test support shared by the lane kernels' oracle tests.
#[cfg(test)]
pub(crate) mod testing {
    use crate::{ConvShape, Layout, Tensor};

    /// Runs `run(x, dy, y, dx)` on the lane conversions of the row-major
    /// operands `x` (`[N, C, H, W]` of `s`) and `dy` (`[N, O, OH, OW]`),
    /// and converts its lane outputs back into the row-major `y` and
    /// `dx`.
    pub(crate) fn via_lanes(
        s: &ConvShape,
        (x, dy): (&[f32], &[f32]),
        (y, dx): (&mut [f32], &mut [f32]),
        run: impl FnOnce(&[f32], &[f32], &mut [f32], &mut [f32]),
    ) {
        let lanes = |v: &[f32], dims: &[usize]| {
            let t = Tensor::from_vec(v.to_vec(), dims).expect("dims");
            t.to_lanes().expect("rank 4")
        };
        let (xd, yd) = ([s.n, s.c, s.h, s.w], [s.n, s.o, s.oh, s.ow]);
        let (xl, dyl) = (lanes(x, &xd), lanes(dy, &yd));
        let mut yl = Tensor::written(&yd, Layout::Lanes);
        let mut dxl = Tensor::written(&xd, Layout::Lanes);
        run(
            xl.as_slice(),
            dyl.as_slice(),
            yl.as_mut_slice(),
            dxl.as_mut_slice(),
        );
        y.copy_from_slice(yl.to_nchw().as_slice());
        dx.copy_from_slice(dxl.to_nchw().as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_thread_limit;
    use crate::{Layout, Tensor};

    /// Distinct values, so a misplaced element shows.
    fn ramp(dims: &[usize]) -> Tensor {
        let len = dims.iter().product::<usize>();
        let v = (0..len).map(|i| i as f32 * 0.5 - 7.0).collect();
        Tensor::from_vec(v, dims).expect("dims")
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Batches below, at and past one block, with image lengths that are
    /// and are not whole 16-float runs.
    const DIMS: [[usize; 4]; 8] = [
        [1, 1, 1, 1],
        [1, 3, 5, 4],
        [8, 2, 4, 4],
        [16, 3, 3, 3],
        [17, 4, 2, 2],
        [33, 5, 3, 7],
        [2, 1, 1, 17],
        [0, 3, 2, 2],
    ];

    #[test]
    fn round_trips_at_every_level_and_thread_limit() {
        for dims in DIMS {
            let x = ramp(&dims);
            for level in SimdLevel::supported() {
                for limit in [1, 2, 5, 8] {
                    let mut l = Tensor::written(&dims, Layout::Lanes);
                    let mut back = Tensor::written(&dims, Layout::Nchw);
                    with_thread_limit(limit, || {
                        to_lanes_at(level, x.as_slice(), &dims, l.as_mut_slice());
                        to_nchw_at(level, l.as_slice(), &dims, back.as_mut_slice());
                    });
                    assert_eq!(
                        bits(back.as_slice()),
                        bits(x.as_slice()),
                        "{dims:?} {level:?}"
                    );
                    // Each element sits in its image's lane.
                    for (i, &v) in l.as_slice().iter().enumerate() {
                        match nchw_index(&dims, i) {
                            Some(j) => assert_eq!(v.to_bits(), x.as_slice()[j].to_bits()),
                            None => assert_eq!(v.to_bits(), pad_value().to_bits()),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tensor_conversions_share_or_convert() {
        let x = ramp(&[3, 2, 2, 2]);
        let l = x.to_lanes().expect("rank 4");
        assert!(l.is_lanes() && l.dims() == x.dims());
        assert_eq!(l.len(), storage_len(x.dims()));
        assert!(l.to_lanes().expect("lanes").shares_storage(&l));
        assert!(x.to_nchw().shares_storage(&x));
        assert_eq!(l.to_nchw(), x);
        assert!(Tensor::zeros(&[2, 3]).to_lanes().is_err());
        // Row-major accessors refuse a lane tensor rather than misread it.
        assert!(l.reshape(&[24]).is_err());
        assert!(std::panic::catch_unwind(|| l.at(&[0, 0, 0, 0])).is_err());
        assert!(l.add(&x).is_err());
        assert_eq!(l.flatten().as_slice(), x.as_slice());
        assert_eq!(l.clone().into_vec(), x.as_slice());
    }

    #[test]
    fn channel_minor_copies_transpose_the_chosen_channels_and_images() {
        // A block of 20 channels at 6 positions, distinct values.
        let (c, p) = (20, 6);
        let src: Vec<Lane> = (0..c * p)
            .map(|cell| Lane(std::array::from_fn(|l| (cell * LANES + l) as f32)))
            .collect();
        let sentinel = Lane([-1.0; LANES]);
        for level in SimdLevel::supported() {
            for (chans, images) in [
                (0..16, 0..16),
                (4..20, 3..11),
                (16..20, 15..16),
                (2..3, 0..0),
            ] {
                let mut dst = vec![sentinel; LANES * p + 1];
                let pass = Fill {
                    src: &src,
                    p,
                    chans: chans.clone(),
                    images: images.clone(),
                    dst: &mut dst,
                };
                // SAFETY: `supported` lists only levels this host runs.
                unsafe { dispatch_at(level, pass) };
                let at = format!("{level:?} {chans:?} {images:?}");
                for (k, i) in images.clone().enumerate() {
                    for pos in 0..p {
                        let want: [f32; LANES] = std::array::from_fn(|j| {
                            let ch = chans.start + j;
                            if ch < chans.end {
                                src[ch * p + pos].0[i]
                            } else {
                                0.0
                            }
                        });
                        assert_eq!(dst[k * p + pos].0, want, "{at} image {i} at {pos}");
                    }
                }
                // No lane past the copied images is written.
                for lane in &dst[images.len() * p..] {
                    assert_eq!(lane.0, sentinel.0, "{at}");
                }
            }
        }
    }

    #[test]
    fn channel_lanes_hold_one_channel_per_lane_at_every_level() {
        let dims = [21, 18, 3, 2];
        let l = ramp(&dims).to_lanes().expect("rank 4");
        let x = ramp(&dims);
        let block = storage_len(&dims) / 2;
        for level in SimdLevel::supported() {
            let mut cl = ChannelLanes::new(level, 6);
            for (b, images) in [(0, 16), (1, 5)] {
                cl.fill(&l.as_slice()[b * block..][..block], 2, images);
                for i in 0..images {
                    for (pos, v) in cl.image(i).iter().enumerate() {
                        for (j, &e) in v.iter().enumerate() {
                            let want = x.as_slice()[((b * LANES + i) * 18 + 2 + j) * 6 + pos];
                            assert_eq!(e.to_bits(), want.to_bits(), "{level:?} {b} {i} {pos} {j}");
                        }
                    }
                }
                assert!(std::panic::catch_unwind(|| cl.image(images)).is_err());
            }
        }
    }

    #[test]
    fn pad_lanes_are_where_the_index_map_says() {
        for dims in DIMS {
            let l = Tensor::written(&dims, Layout::Lanes);
            let mut real = vec![false; l.len()];
            match PadLanes::of(&l) {
                Some(p) => {
                    let len = l.len();
                    for (start, end) in [
                        (0, len),
                        (5, len.saturating_sub(3)),
                        (len.saturating_sub(20), len),
                    ] {
                        let start = start.min(end);
                        let mut want: Vec<usize> = (start..end)
                            .filter(|&i| nchw_index(&dims, i).is_some())
                            .collect();
                        let mut got = Vec::new();
                        p.real_runs(start, end, |lo, hi| got.extend(lo..hi));
                        assert_eq!(got, want, "{dims:?} {start}..{end}");
                        want.clear();
                    }
                    p.real_runs(0, l.len(), |lo, hi| real[lo..hi].fill(true));
                }
                None => real.fill(true),
            }
            for (i, r) in real.iter().enumerate() {
                assert_eq!(*r, nchw_index(&dims, i).is_some(), "{dims:?} at {i}");
            }
        }
        assert_eq!(PadLanes::of(&Tensor::zeros(&[3, 2])), None);
    }
}
